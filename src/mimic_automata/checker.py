"""Explicit-state and probabilistic analysis of composite automata.

The composite's reachable configurations are flattened into a finite
transition system (deterministic case) or a discrete-time Markov chain
(probabilistic lattice rules) and checked for propositional invariants,
reachability, and bad-prefix patterns via synchronous products. States are
identified by their clock-stripped canonical configuration, so revisits
terminate the construction.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .cellular import (
    DEFAULT_SUCCESSOR_CAP,
    Lattice,
    ProbabilisticCellularAutomaton,
    ca_step,
    pca_step_distribution,
    validate_ca,
    validate_pca,
)
from .composition import (
    MODE_CA_FROM_SA,
    MODE_SA_FROM_CA,
    Binding,
    MimicAutomaton,
    MimicConfiguration,
    SaUnit,
    _fresh_units,
    _macro_step_mode1,
    _macro_step_mode2,
    _run_unit,
    binding_seed,
    has_randomness,
    ma_initial,
    strip_clocks,
)
from .errors import (
    ConvergenceError,
    ExplosionError,
    MimicError,
    PropertyError,
    SizeCapError,
    Violation,
)
from .hierarchical import validate_ha
from .props import Pred, check_vocabulary, eval_predicate, parse_predicate
from .rng import derive_stream
from .sequential import SequentialAutomaton, Word, validate_sa

DEFAULT_FLATTEN_BOUND = 1_000_000
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
DEFAULT_TRIALS = 10_000
ROW_TOL = 1e-9

INVARIANT = "invariant"
REACH = "reach"
BAD_PREFIX = "bad_prefix"

ABSTAIN_LABEL = "<abstain>"


def render_word(word: Word | None) -> str:
    """Action-label rendering of an output word (abstention included)."""
    if word is None:
        return ABSTAIN_LABEL
    parts = [str(sym) for sym in word]
    if all(len(p) == 1 for p in parts):
        return "".join(parts)
    return " ".join(parts)


@dataclass(frozen=True)
class Action:
    """One macro transition label: the macro input and the observable output."""

    macro_input: tuple
    output: Word | None

    def label(self) -> str:
        return render_word(self.output)


@dataclass(frozen=True)
class Path:
    """Alternating evidence path: ``states[i] --actions[i]--> states[i+1]``."""

    states: tuple[str, ...]
    actions: tuple[Action, ...]

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one property check.

    ``counterexample`` carries the evidence path: the violating run for an
    invariant or matched pattern, the witness run for reachability.
    """

    verdict: str  # "holds" | "violated" | "probability"
    counterexample: Path | None = None
    probability: float | None = None
    method: str | None = None
    error_bound: float | None = None
    stats: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Property:
    """A checkable claim over a model's labeled state space."""

    name: str
    kind: str  # INVARIANT | REACH | BAD_PREFIX
    predicate: Pred | None = None
    pattern: SequentialAutomaton | None = None
    inputs: tuple | None = None  # macro-input universe override
    policy: tuple | None = None  # probabilistic input policy (cycled)
    horizon: int | None = None


@dataclass
class TransitionSystem:
    """Explicit reachable-state graph with labeled transitions and propositions."""

    states: dict[str, MimicConfiguration]
    initial: str
    transitions: dict[str, tuple[tuple[Action, str], ...]]
    atomic_props: dict[str, frozenset[str]]
    vocabulary: frozenset[str]
    metadata: dict = field(default_factory=dict)

    @property
    def transition_count(self) -> int:
        return sum(len(edges) for edges in self.transitions.values())


@dataclass
class Dtmc:
    """Discrete-time Markov chain over canonical configurations."""

    states: dict[str, MimicConfiguration]
    initial: str
    rows: dict[str, tuple[tuple[str, float], ...]]
    atomic_props: dict[str, frozenset[str]]
    vocabulary: frozenset[str]
    metadata: dict = field(default_factory=dict)

    @property
    def transition_count(self) -> int:
        return sum(len(row) for row in self.rows.values())


Labeling = tuple[Callable[[MimicConfiguration], frozenset[str]], frozenset[str]]


def builtin_labeling(ma: MimicAutomaton) -> Labeling:
    """Default propositions: lattice contents and per-cell machine states.

    ``lattice_has(q)`` holds when some cell carries ``q`` (fault-tag markers
    are projected away); ``cell<i>_state(s)`` tracks cells hosting plain
    machines; ``outer_state(s)`` tracks the outer machine of a ``ca_from_sa``
    root.
    """
    binding = ma.root()
    ca = ma.ca_set[binding.ca]

    def base(q):  # fault-widened cell states expose the variant they wrap
        return getattr(q, "base", q)

    vocabulary: set[str] = set()
    for q in ca.cell_states:
        vocabulary.add(f"lattice_has({base(q)})")
    hosted = [unit for unit in binding.cell_map.values() if isinstance(unit, SaUnit)]
    for i in range(ca.width):
        for unit in hosted:
            for s in ma.sa_set[unit.sa].states:
                vocabulary.add(f"cell{i}_state({s})")
    if binding.mode == MODE_CA_FROM_SA:
        for s in ma.sa_set[binding.outer_sa].states:
            vocabulary.add(f"outer_state({s})")

    cell_map = binding.cell_map

    def props(cfg: MimicConfiguration) -> frozenset[str]:
        labels = {f"lattice_has({base(q)})" for q in set(cfg.lattice)}
        for i, q in enumerate(cfg.lattice):
            if isinstance(cell_map[q], SaUnit):
                labels.add(f"cell{i}_state({cfg.unit_states[i]})")
        if cfg.outer_state is not None:
            labels.add(f"outer_state({cfg.outer_state})")
        return frozenset(labels)

    return props, frozenset(vocabulary)


def _observable_output(ma: MimicAutomaton, words: tuple[Word, ...]) -> Word | None:
    """Voted output of the per-cell words when the composite carries a voter, else the first cell's."""
    if ma.voter is not None:
        from .dhr import vote

        voted, _ = vote(ma.voter, words)
        return voted
    return words[0] if words else ()


def _normalize_universe(universe: Iterable) -> tuple[tuple, ...]:
    seen = []
    for entry in universe:
        item = tuple(entry)
        if item not in seen:
            seen.append(item)
    return tuple(seen)


def check_components(ma: MimicAutomaton) -> dict[str, list[Violation]]:
    """Validate every member automaton, grouped by component kind."""
    groups: dict[str, list[Violation]] = {"sa": [], "ca": [], "pa": [], "ha": []}
    for name, sa in sorted(ma.sa_set.items()):
        groups["sa"].extend(
            Violation(v.invariant, f"{name}/{v.subject}", v.message) for v in validate_sa(sa)
        )
    for name, ca in sorted(ma.ca_set.items()):
        if isinstance(ca, ProbabilisticCellularAutomaton):
            groups["pa"].extend(
                Violation(v.invariant, f"{name}/{v.subject}", v.message) for v in validate_pca(ca)
            )
        else:
            groups["ca"].extend(
                Violation(v.invariant, f"{name}/{v.subject}", v.message) for v in validate_ca(ca)
            )
    for name, ha in sorted(ma.ha_set.items()):
        groups["ha"].extend(
            Violation(v.invariant, f"{name}/{v.subject}", v.message) for v in validate_ha(ha)
        )
    return groups


def flatten(
    ma: MimicAutomaton,
    input_universe: Iterable,
    bound: int = DEFAULT_FLATTEN_BOUND,
    lattice0: Lattice | None = None,
    labeling: Labeling | None = None,
) -> TransitionSystem:
    """Breadth-first expansion of all configurations reachable under the universe.

    Every universe entry (an input block in mode ``sa_from_ca``, a seed
    lattice in mode ``ca_from_sa``) is tried from every state. Exceeding
    ``bound`` states raises ExplosionError with the frontier size.
    """
    universe = _normalize_universe(input_universe)
    if not universe:
        raise ValueError("input universe must be nonempty")
    if has_randomness(ma):
        raise MimicError("flatten needs a deterministic model; build a chain for probabilistic ones")

    binding = ma.root()
    props_fn, vocabulary = labeling or builtin_labeling(ma)
    start_lattice = tuple(lattice0) if lattice0 is not None else binding_seed(ma, binding)
    start = strip_clocks(ma_initial(ma, start_lattice))
    if binding.mode == MODE_SA_FROM_CA:
        successors = _mode1_successors(ma, binding, universe)
    else:
        successors = _mode2_successors(ma, binding, universe)

    # states are keyed by (lattice, unit states, outer state): the fields of a
    # clock-stripped configuration, without building one per edge
    ids = {(start.lattice, start.unit_states, start.outer_state): "s0"}
    states = {"s0": start}
    transitions: dict[str, tuple[tuple[Action, str], ...]] = {}
    atomic_props = {"s0": props_fn(start)}
    queue = deque(["s0"])

    while queue:
        sid = queue.popleft()
        edges = []
        for action, key in successors(states[sid]):
            tid = ids.get(key)
            if tid is None:
                if len(ids) >= bound:
                    raise ExplosionError(bound, len(queue) + 1)
                tid = f"s{len(ids)}"
                ids[key] = tid
                cfg = MimicConfiguration(key[0], key[1], 0, key[2])
                states[tid] = cfg
                atomic_props[tid] = props_fn(cfg)
                queue.append(tid)
            edges.append((action, tid))
        transitions[sid] = tuple(edges)

    return TransitionSystem(
        states=states,
        initial="s0",
        transitions=transitions,
        atomic_props=atomic_props,
        vocabulary=vocabulary,
        metadata={"model": ma.name, "universe": universe, "lattice0": start_lattice},
    )


def _mode1_successors(ma: MimicAutomaton, binding: Binding, universe: tuple[tuple, ...]):
    """The successor function of ``sa_from_ca`` states for one flatten call.

    ``successors(cfg)`` yields ``(action, state key)`` per universe entry,
    equal to ``_macro_step_mode1`` followed by ``strip_clocks`` and
    ``_observable_output``, but its tables make each lattice step once,
    each (unit, unit state, block) run once, and each (block, per-cell
    output words) one Action. Work is done entry-major, cell-minor, as the
    single step does it, so the first error raised is the one
    ``_macro_step_mode1`` would raise; a run that raises is never stored.
    """
    ca = ma.ca_set[binding.ca]
    unit_ids: dict = {}  # distinct units in first-seen order
    uid_of = {q: unit_ids.setdefault(unit, len(unit_ids)) for q, unit in binding.cell_map.items()}
    units = list(unit_ids)
    # runs[entry][unit id]: unit state -> (clock-stripped final state, output word)
    runs = [[{} for _ in units] for _ in universe]
    actions: list[dict] = [{} for _ in universe]  # [entry]: per-cell output words -> Action
    # lattice -> [unit id per cell, (successor lattice, ((cell, fresh unit state), ...)) once stepped]
    lattices: dict = {}

    def successors(cfg: MimicConfiguration):
        lattice = cfg.lattice
        unit_states = cfg.unit_states
        info = lattices.get(lattice)
        if info is None:
            info = lattices[lattice] = [tuple(uid_of[q] for q in lattice), None]
        uids = info[0]
        for e, entry in enumerate(universe):
            table = runs[e]
            ran = []
            words = []
            for i, uid in enumerate(uids):
                state = unit_states[i]
                hit = table[uid].get(state)
                if hit is None:
                    final, result = _run_unit(ma, units[uid], state, entry, None, 1, i)
                    if isinstance(final, MimicConfiguration):
                        final = strip_clocks(final)
                    hit = table[uid][state] = (final, result.output_word)
                ran.append(hit[0])
                words.append(hit[1])
            if info[1] is None:  # after the first entry's runs, where the single step fails
                after = ca_step(ca, lattice)
                info[1] = (after, _fresh_units(ma, binding, lattice, after, 1))
            after, fresh = info[1]
            for i, unit_state in fresh:
                ran[i] = unit_state
            words = tuple(words)
            action = actions[e].get(words)
            if action is None:
                action = actions[e][words] = Action(entry, _observable_output(ma, words))
            yield action, (after, tuple(ran), cfg.outer_state)

    return successors


def _mode2_successors(ma: MimicAutomaton, binding: Binding, universe: tuple[tuple, ...]):
    """The successor function of ``ca_from_sa`` states: one ``_macro_step_mode2`` per entry."""

    def successors(cfg: MimicConfiguration):
        for entry in universe:
            nxt, _, _, output = _macro_step_mode2(ma, binding, cfg, entry, depth=1)
            key = strip_clocks(nxt)
            yield Action(entry, output), (key.lattice, key.unit_states, key.outer_state)

    return successors


def _as_predicate(target: Pred | str) -> Pred:
    return parse_predicate(target) if isinstance(target, str) else target


def _bfs_search(
    ts: TransitionSystem, want: Callable[[str], bool]
) -> tuple[str | None, dict[str, tuple[str, Action]]]:
    """First state satisfying ``want`` in BFS order, plus parent links."""
    parents: dict[str, tuple[str, Action]] = {}
    visited = {ts.initial}
    if want(ts.initial):
        return ts.initial, parents
    queue = deque([ts.initial])
    while queue:
        sid = queue.popleft()
        for action, tid in ts.transitions.get(sid, ()):
            if tid in visited:
                continue
            visited.add(tid)
            parents[tid] = (sid, action)
            if want(tid):
                return tid, parents
            queue.append(tid)
    return None, parents


def _path_to(ts: TransitionSystem, goal: str, parents: dict[str, tuple[str, Action]]) -> Path:
    states = [goal]
    actions: list[Action] = []
    while states[-1] != ts.initial:
        parent, action = parents[states[-1]]
        actions.append(action)
        states.append(parent)
    states.reverse()
    actions.reverse()
    return Path(tuple(states), tuple(actions))


def check_invariant(ts: TransitionSystem, invariant: Pred | str) -> CheckResult:
    """Holds iff the predicate is true at every reachable state; else a shortest counterexample."""
    pred = _as_predicate(invariant)
    check_vocabulary(pred, ts.vocabulary)
    bad, parents = _bfs_search(ts, lambda sid: not eval_predicate(pred, ts.atomic_props[sid]))
    stats = {"states": len(ts.states), "transitions": ts.transition_count}
    if bad is None:
        return CheckResult("holds", stats=stats)
    return CheckResult("violated", counterexample=_path_to(ts, bad, parents), stats=stats)


def check_reach(ts: TransitionSystem, target: Pred | str) -> CheckResult:
    """Holds iff some reachable state satisfies the target; the witness is shortest."""
    pred = _as_predicate(target)
    check_vocabulary(pred, ts.vocabulary)
    hit, parents = _bfs_search(ts, lambda sid: eval_predicate(pred, ts.atomic_props[sid]))
    stats = {"states": len(ts.states), "transitions": ts.transition_count}
    if hit is None:
        return CheckResult("violated", stats=stats)
    return CheckResult("holds", counterexample=_path_to(ts, hit, parents), stats=stats)


ACCEPTING = "accepting"


def product(ts: TransitionSystem, pattern: SequentialAutomaton) -> TransitionSystem:
    """Synchronous product with a monitor machine over action labels.

    The monitor reads each transition's output label; labels outside its
    alphabet (or without a transition) leave it in place. Product states
    whose monitor component is final carry the ``accepting`` proposition.
    """
    alphabet = set(pattern.input_alphabet)
    start = (ts.initial, pattern.initial)
    ids = {start: "p0"}
    states = {"p0": ts.states[ts.initial]}
    atomic_props: dict[str, frozenset[str]] = {}
    transitions: dict[str, tuple[tuple[Action, str], ...]] = {}
    order = deque([start])
    pat_of = {"p0": pattern.initial}
    base_of = {"p0": ts.initial}

    def props_for(sid: str, pat_state: str) -> frozenset[str]:
        if pat_state in pattern.finals:
            return ts.atomic_props[sid] | {ACCEPTING}
        return ts.atomic_props[sid]  # shared, not copied: the sets are immutable

    atomic_props["p0"] = props_for(*start)
    labels: dict[Action, str] = {}  # one label() per distinct action
    while order:
        node = order.popleft()
        sid, pat = node
        pid = ids[node]
        edges = []
        for action, tid in ts.transitions.get(sid, ()):
            label = labels.get(action)
            if label is None:
                label = labels[action] = action.label()
            if label in alphabet and (pat, label) in pattern.transitions:
                pat_next = pattern.transitions[(pat, label)]
            else:
                pat_next = pat  # monitor convention: unmentioned labels self-loop
            key = (tid, pat_next)
            qid = ids.get(key)
            if qid is None:
                qid = f"p{len(ids)}"
                ids[key] = qid
                states[qid] = ts.states[tid]
                atomic_props[qid] = props_for(tid, pat_next)
                pat_of[qid] = pat_next
                base_of[qid] = tid
                order.append(key)
            edges.append((action, qid))
        transitions[pid] = tuple(edges)

    return TransitionSystem(
        states=states,
        initial="p0",
        transitions=transitions,
        atomic_props=atomic_props,
        vocabulary=ts.vocabulary | {ACCEPTING},
        metadata={
            **ts.metadata,
            "pattern": pattern.name,
            "pattern_state": pat_of,
            "base_state": base_of,
        },
    )


# ---------------------------------------------------------------------------
# probabilistic analysis

def _normalize_policy(policy) -> tuple[tuple, ...]:
    if policy is None:
        raise ValueError("an input policy is required for probabilistic analysis")
    entries = list(policy)
    if entries and all(isinstance(sym, str) for sym in entries):
        return (tuple(entries),)  # a single block
    return tuple(tuple(block) for block in entries) or ((),)


def _expansion_refusal(ma: MimicAutomaton) -> str | None:
    """Why the model's chain cannot be expanded exactly, or None when it can."""
    binding = ma.root()
    if binding.mode != MODE_SA_FROM_CA:
        return "probabilistic expansion supports sa_from_ca roots only"
    if not isinstance(ma.ca_set[binding.ca], ProbabilisticCellularAutomaton):
        return "the root lattice rule is deterministic; use flatten"
    for name, nested in ma.bindings.items():
        if name != ma.root_binding and isinstance(
            ma.ca_set[nested.ca], ProbabilisticCellularAutomaton
        ):
            return "nested probabilistic lattices are not exactly expandable"
    return None


def _require_exactly_expandable(ma: MimicAutomaton) -> None:
    refusal = _expansion_refusal(ma)
    if refusal is not None:
        raise MimicError(refusal)


def _expand_chain(
    ma: MimicAutomaton,
    policy: tuple[tuple, ...],
    props_fn: Callable[[MimicConfiguration], frozenset[str]],
    bound: int,
    lattice0: Lattice | None = None,
    successor_cap: int = DEFAULT_SUCCESSOR_CAP,
    horizon: int | None = None,
) -> tuple[list[MimicConfiguration], list[frozenset[str]], list[list[int]], list[list[float]]]:
    """Breadth-first expansion of the chain over (configuration, policy phase) states.

    Returns per state id, in discovery order: the clock-stripped
    configuration, its propositions, and its row as successor ids and
    probabilities in ``pca_step_distribution`` order. The tables are local
    to the call: each distinct lattice's distribution is computed once, each
    (unit, unit state, block) run once, and each (lattice, successor
    lattice) rebind once. Per-state work keeps the order of a single macro
    step (all unit runs, the distribution, then each successor), so the
    first error raised is the one an unmemoised expansion raises. States at
    depth ``horizon`` are not expanded and get a self-loop; rows are
    checked to sum to one only when the whole chain is built (``horizon``
    None). The model must pass ``_require_exactly_expandable``.
    """
    binding = ma.root()
    ca = ma.ca_set[binding.ca]
    period = len(policy)
    start = strip_clocks(
        ma_initial(ma, lattice0 if lattice0 is not None else binding_seed(ma, binding))
    )
    outer = start.outer_state
    runs: dict = {}  # (unit, unit state, block) -> clock-stripped final state
    dists: dict = {}  # lattice -> ((successor lattice, probability), ...)
    fresh: dict = {}  # (lattice, successor lattice) -> ((cell, fresh unit state), ...)

    ids = {(start.lattice, start.unit_states, 0): 0}
    configs = [start]
    props = [props_fn(start)]
    phases = [0]
    depths = [0]
    succ: list[list[int]] = []
    probs: list[list[float]] = []
    for sid, cfg in enumerate(configs):  # grows while it is walked: breadth-first order
        if horizon is not None and depths[sid] >= horizon:
            succ.append([sid])
            probs.append([1.0])
            continue
        lattice = cfg.lattice
        phase = phases[sid]
        block = policy[phase]
        ran = []
        for i, q in enumerate(lattice):
            run = (binding.cell_map[q], cfg.unit_states[i], block)
            final = runs.get(run)
            if final is None:
                final, _ = _run_unit(ma, *run, None, 1, i)
                if isinstance(final, MimicConfiguration):
                    final = strip_clocks(final)
                runs[run] = final
            ran.append(final)
        dist = dists.get(lattice)
        if dist is None:
            dist = dists[lattice] = tuple(pca_step_distribution(ca, lattice, successor_cap).items())
        next_phase = (phase + 1) % period
        row_succ = []
        row_prob = []
        for after, prob in dist:
            change = fresh.get((lattice, after))
            if change is None:
                change = fresh[(lattice, after)] = _fresh_units(ma, binding, lattice, after, 1)
            unit_states = list(ran)
            for i, unit_state in change:
                unit_states[i] = unit_state
            key = (after, tuple(unit_states), next_phase)
            tid = ids.get(key)
            if tid is None:
                if len(ids) >= bound:
                    raise ExplosionError(bound, len(ids) - sid)
                tid = ids[key] = len(configs)
                nxt = MimicConfiguration(after, key[1], 0, outer)
                configs.append(nxt)
                props.append(props_fn(nxt))
                phases.append(next_phase)
                depths.append(depths[sid] + 1)
            row_succ.append(tid)
            row_prob.append(prob)
        if horizon is None:
            total = sum(row_prob)
            if abs(total - 1.0) > ROW_TOL:
                raise MimicError(f"chain row for s{sid} sums to {total!r}")
        succ.append(row_succ)
        probs.append(row_prob)
    return configs, props, succ, probs


def build_dtmc(
    ma: MimicAutomaton,
    input_policy,
    bound: int = DEFAULT_FLATTEN_BOUND,
    lattice0: Lattice | None = None,
    labeling: Labeling | None = None,
    successor_cap: int = DEFAULT_SUCCESSOR_CAP,
) -> Dtmc:
    """Exact chain over configurations under a fixed (cyclically applied) input policy.

    Each state's row is the product of per-cell rule distributions, so rows
    sum to one up to float error. Exceeding ``successor_cap`` per state
    raises SizeCapError advising Monte Carlo estimation.
    """
    policy = _normalize_policy(input_policy)
    _require_exactly_expandable(ma)
    props_fn, vocabulary = labeling or builtin_labeling(ma)
    configs, props, succ, probs = _expand_chain(ma, policy, props_fn, bound, lattice0, successor_cap)
    names = [f"s{i}" for i in range(len(configs))]
    return Dtmc(
        states=dict(zip(names, configs)),
        initial="s0",
        rows={
            sid: tuple(zip([names[t] for t in row], row_probs))
            for sid, row, row_probs in zip(names, succ, probs)
        },
        atomic_props=dict(zip(names, props)),
        vocabulary=vocabulary,
        metadata={"model": ma.name, "policy": policy},
    )


def reach_probability_exact(
    dtmc: Dtmc,
    target: Pred | str,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    horizon: int | None = None,
) -> CheckResult:
    """Reachability probability from the initial state by value iteration.

    Unbounded reachability iterates to the least fixpoint (max-norm change
    below ``tol``); a ``horizon`` computes the exact probability of hitting
    the target within that many steps. The rows of non-target states are
    laid out once as edge arrays (CSR order), and a sweep sums each row's
    ``prob * x[successor]`` terms with ``np.bincount`` in row order, the
    order a per-state loop adds them in.
    """
    pred = _as_predicate(target)
    check_vocabulary(pred, dtmc.vocabulary)
    order = list(dtmc.states)
    index = {sid: i for i, sid in enumerate(order)}
    is_target = np.array([eval_predicate(pred, dtmc.atomic_props[sid]) for sid in order], dtype=bool)
    row_of_edge: list[int] = []
    col: list[int] = []
    weight: list[float] = []
    for i, sid in enumerate(order):
        if is_target[i]:
            continue
        for tid, prob in dtmc.rows.get(sid, ()):
            row_of_edge.append(i)
            col.append(index[tid])
            weight.append(prob)
    rows = np.array(row_of_edge, dtype=np.intp)
    cols = np.array(col, dtype=np.intp)
    probs = np.array(weight, dtype=float)
    x = is_target.astype(float)
    start = index[dtmc.initial]

    def sweep(values: np.ndarray) -> tuple[np.ndarray, float]:
        new = np.bincount(rows, weights=probs * values[cols], minlength=len(order))
        new[is_target] = 1.0
        return new, float(np.max(np.abs(new - values)))

    stats = {"states": len(order), "transitions": dtmc.transition_count}
    if horizon is not None:
        for _ in range(horizon):
            x, _ = sweep(x)
        stats["iterations"] = horizon
        return CheckResult(
            "probability",
            probability=float(x[start]),
            method="exact-value-iteration",
            error_bound=0.0,
            stats=stats,
        )

    for iteration in range(1, max_iter + 1):
        x, residual = sweep(x)
        if residual < tol:
            stats["iterations"] = iteration
            return CheckResult(
                "probability",
                probability=float(x[start]),
                method="exact-value-iteration",
                error_bound=residual,
                stats=stats,
            )
    raise ConvergenceError(max_iter, residual)


MC_BLOCK = 4096


def reach_probability_mc(
    ma: MimicAutomaton,
    input_policy,
    target: Pred | str,
    horizon: int,
    trials: int = DEFAULT_TRIALS,
    seed: int | None = None,
    bound: int = 100_000,
    labeling: Labeling | None = None,
) -> CheckResult:
    """Monte Carlo estimate of bounded reachability with a 95% half-width.

    Trials are grouped into fixed blocks; block ``j`` draws from the stream
    derived from ``seed`` with key ``j``, so estimates are reproducible and
    independent of any work partitioning. Exactly expandable models are
    expanded once to depth ``horizon`` and sampled vectorially; models that
    are not, or whose expansion exceeds ``bound`` states or the successor
    cap, fall back to per-trial simulation with the same block seeding.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pred = _as_predicate(target)
    policy = _normalize_policy(input_policy)
    props_fn, vocabulary = labeling or builtin_labeling(ma)
    check_vocabulary(pred, vocabulary)
    seed = 0 if seed is None else seed

    hits = None
    if _expansion_refusal(ma) is None:
        try:
            hits = _mc_chain(ma, policy, pred, horizon, trials, seed, bound, props_fn)
        except (SizeCapError, ExplosionError):
            pass  # too large to expand: sample paths instead
    method = "monte-carlo"
    if hits is None:
        hits = _mc_per_trial(ma, policy, pred, horizon, trials, seed, props_fn)
        method = "monte-carlo-paths"

    p_hat = hits / trials
    half_width = 1.96 * (p_hat * (1.0 - p_hat) / trials) ** 0.5
    return CheckResult(
        "probability",
        probability=p_hat,
        method=method,
        error_bound=half_width,
        stats={"trials": trials, "horizon": horizon, "hits": hits},
    )


def _mc_chain(ma, policy, pred, horizon, trials, seed, bound, props_fn) -> int:
    """Hits of trials sampled on the chain expanded to depth ``horizon``.

    Each step draws one uniform per live trial, in trial order, and moves it
    to the first successor whose cumulative row probability exceeds the
    uniform (``searchsorted(side="right")`` on the row, clipped to its last
    entry). The search runs for all live trials at once, as a binary search
    within each trial's row of one flat cumulative array.
    """
    _, props, succ, probs = _expand_chain(ma, policy, props_fn, bound, horizon=horizon)
    target = np.array([eval_predicate(pred, p) for p in props], dtype=bool)
    lengths = np.array([len(row) for row in succ], dtype=np.intp)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    successors = np.fromiter(itertools.chain.from_iterable(succ), dtype=np.intp, count=int(ends[-1]))
    cumulative = np.fromiter(
        itertools.chain.from_iterable(itertools.accumulate(row) for row in probs),
        dtype=float,
        count=int(ends[-1]),
    )
    rounds = int(lengths.max()).bit_length()  # halvings that empty the longest row's interval

    hits = 0
    done = 0
    block_index = 0
    while done < trials:
        n = min(MC_BLOCK, trials - done)
        gen = derive_stream(seed, block_index)
        cur = np.zeros(n, dtype=np.intp)
        hit = np.full(n, bool(target[0]))
        for _ in range(horizon):
            alive = ~hit
            count = int(alive.sum())
            if count == 0:
                break
            u = gen.random(count)
            cur_alive = cur[alive]
            lo = starts[cur_alive]
            hi = ends[cur_alive]
            last = hi - 1
            for _ in range(rounds):
                mid = (lo + hi) >> 1
                open_ = lo < hi
                right = open_ & (cumulative[np.minimum(mid, len(cumulative) - 1)] <= u)
                lo = np.where(right, mid + 1, lo)
                hi = np.where(open_ & ~right, mid, hi)
            nxt = successors[np.minimum(lo, last)]
            cur[alive] = nxt
            hit[alive] = target[nxt]
        hits += int(hit.sum())
        done += n
        block_index += 1
    return hits


def _mc_per_trial(ma, policy, pred, horizon, trials, seed, props_fn) -> int:
    binding = ma.root()
    period = len(policy)
    start = ma_initial(ma, binding_seed(ma, binding))
    hits = 0
    done = 0
    block_index = 0
    while done < trials:
        n = min(MC_BLOCK, trials - done)
        rng = derive_stream(seed, block_index)
        for _ in range(n):
            cfg = start
            hit = eval_predicate(pred, props_fn(strip_clocks(cfg)))
            for t in range(horizon):
                if hit:
                    break
                cfg, _, _ = _macro_step_mode1(ma, binding, cfg, policy[t % period], rng, depth=1)
                hit = eval_predicate(pred, props_fn(strip_clocks(cfg)))
            hits += int(hit)
        done += n
        block_index += 1
    return hits


# ---------------------------------------------------------------------------
# evidence replay and high-level property dispatch

def replay_path(ma: MimicAutomaton, ts: TransitionSystem, path: Path) -> bool:
    """Re-run a path's macro inputs and confirm every hop matches the graph."""
    binding = ma.root()
    lattice0 = ts.metadata.get("lattice0")
    cfg = ma_initial(ma, lattice0 if lattice0 is not None else binding_seed(ma, binding))
    if strip_clocks(cfg) != ts.states[path.states[0]]:
        return False
    for action, sid in zip(path.actions, path.states[1:]):
        if binding.mode == MODE_SA_FROM_CA:
            cfg, per_cell, _ = _macro_step_mode1(ma, binding, cfg, action.macro_input, None, depth=1)
            words = tuple(r.output_word for r in per_cell)
            observed = Action(action.macro_input, _observable_output(ma, words))
        else:
            cfg, _, _, output = _macro_step_mode2(ma, binding, cfg, action.macro_input, depth=1)
            observed = Action(action.macro_input, output)
        if observed != action or strip_clocks(cfg) != ts.states[sid]:
            return False
    return True


def check_property(
    ma: MimicAutomaton,
    prop: Property,
    input_universe: Iterable | None = None,
    bound: int = DEFAULT_FLATTEN_BOUND,
    tol: float = DEFAULT_TOL,
    trials: int | None = None,
    seed: int | None = None,
    lattice0: Lattice | None = None,
) -> CheckResult:
    """Route a property to the right analysis for the given model.

    Deterministic models are flattened and checked explicitly. Probabilistic
    models support ``reach`` targets, exactly by default or by Monte Carlo
    when ``trials`` is given; the policy comes from the property (or the sole
    universe entry).
    """
    universe = prop.inputs if prop.inputs is not None else input_universe
    if has_randomness(ma):
        if prop.kind != REACH:
            raise PropertyError("probabilistic models support reach properties only")
        policy = prop.policy
        if policy is None and universe is not None:
            entries = _normalize_universe(universe)
            if len(entries) != 1:
                raise PropertyError("a probabilistic reach check needs an input policy")
            policy = entries
        if trials is not None:
            if prop.horizon is None:
                raise PropertyError("Monte Carlo estimation needs a horizon on the property")
            return reach_probability_mc(
                ma, policy, prop.predicate, prop.horizon, trials=trials, seed=seed
            )
        dtmc = build_dtmc(ma, policy, bound=bound, lattice0=lattice0)
        return reach_probability_exact(dtmc, prop.predicate, tol=tol, horizon=prop.horizon)

    if universe is None:
        raise PropertyError("an input universe is required to flatten the model")
    ts = flatten(ma, universe, bound=bound, lattice0=lattice0)
    if prop.kind == INVARIANT:
        return check_invariant(ts, prop.predicate)
    if prop.kind == REACH:
        return check_reach(ts, prop.predicate)
    if prop.kind == BAD_PREFIX:
        prod = product(ts, prop.pattern)
        result = check_reach(prod, ACCEPTING)
        stats = dict(result.stats)
        stats["pattern"] = prop.pattern.name
        if result.verdict == "holds":  # an accepting prefix exists: the property is violated
            return CheckResult("violated", counterexample=result.counterexample, stats=stats)
        return CheckResult("holds", stats=stats)
    raise PropertyError(f"unknown property kind {prop.kind!r}")
