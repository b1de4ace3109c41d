"""Explicit-state and probabilistic analysis of composite automata.

The composite's reachable configurations are flattened into a finite
transition system (deterministic case) or a discrete-time Markov chain
(probabilistic lattice rules) and checked for propositional invariants,
reachability, and bad-prefix patterns (on the fly, over state and monitor
pairs). States are identified by their clock-stripped canonical
configuration, so revisits terminate the construction.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

if TYPE_CHECKING:
    import numpy as np

from .cellular import (
    DEFAULT_SUCCESSOR_CAP,
    Lattice,
    ProbabilisticCellularAutomaton,
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
    _stepper,
    _unit_tables,
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
    """One macro transition label: the macro input and the observable output.

    The output's label text is rendered once, when the Action is built, and
    kept outside the fields: equality, hash and repr read the two fields only.
    """

    macro_input: tuple
    output: Word | None

    def __post_init__(self):
        object.__setattr__(self, "_label", render_word(self.output))

    def label(self) -> str:
        return self._label


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
    """Explicit reachable-state graph with labeled transitions and propositions.

    ``flatten`` fills the three mappings with read-only views over its
    exploration store: each access builds the configuration, the row of
    ``(Action, successor name)`` or the propositions anew, and nothing is
    cached. Hand-built systems may use plain dicts.
    """

    states: Mapping[str, MimicConfiguration]
    initial: str
    transitions: Mapping[str, tuple[tuple[Action, str], ...]]
    atomic_props: Mapping[str, frozenset[str]]
    vocabulary: frozenset[str]
    metadata: dict = field(default_factory=dict)

    @property
    def transition_count(self) -> int:
        if isinstance(self.transitions, _StoreView):
            return len(self.transitions.store.targets)
        return sum(len(edges) for edges in self.transitions.values())


@dataclass
class Dtmc:
    """Discrete-time Markov chain over canonical configurations.

    ``build_dtmc`` fills the three mappings with views over its exploration
    store, as ``flatten`` does for a ``TransitionSystem``.
    """

    states: Mapping[str, MimicConfiguration]
    initial: str
    rows: Mapping[str, tuple[tuple[str, float], ...]]
    atomic_props: Mapping[str, frozenset[str]]
    vocabulary: frozenset[str]
    metadata: dict = field(default_factory=dict)

    @property
    def transition_count(self) -> int:
        return len(self.rows.store.targets)


Labeling = tuple[Callable[[MimicConfiguration], frozenset[str]], frozenset[str]]
"""A proposition function and its vocabulary. ``flatten`` calls the function
when ``atomic_props`` is read, once per access, so it must be pure."""


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
    lattices: dict = {}  # lattice -> (its lattice_has labels, the cells hosting plain machines)
    cell_labels: dict = {}  # (cell, machine state) -> label, one string for all states

    def props(cfg: MimicConfiguration) -> frozenset[str]:
        info = lattices.get(cfg.lattice)
        if info is None:
            info = lattices[cfg.lattice] = (
                {f"lattice_has({base(q)})" for q in cfg.lattice},
                [i for i, q in enumerate(cfg.lattice) if isinstance(cell_map[q], SaUnit)],
            )
        labels = set(info[0])
        for i in info[1]:
            key = (i, cfg.unit_states[i])
            labels.add(cell_labels.get(key) or cell_labels.setdefault(key, f"cell{i}_state({key[1]})"))
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
    ``bound`` states raises ExplosionError with the frontier size. The
    result's mappings are views over the exploration store, so the labeling
    is called when ``atomic_props`` is read, never by ``flatten`` itself.
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
    mode_successors = _mode1_successors if binding.mode == MODE_SA_FROM_CA else _mode2_successors
    successors = mode_successors(ma, binding, universe)
    # keys are the fields of a clock-stripped configuration, not one per edge
    store = _explore((start.lattice, start.unit_states, start.outer_state), _flat_config, successors, bound)
    return TransitionSystem(
        states=_StoreView(store, store.config),
        initial="s0",
        transitions=_StoreView(store, store.row),
        atomic_props=_StoreView(store, lambda i: props_fn(store.config(i))),
        vocabulary=vocabulary,
        metadata={"model": ma.name, "universe": universe, "lattice0": start_lattice},
    )


def _flat_config(key) -> MimicConfiguration:
    """The clock-stripped configuration a ``flatten`` key holds the fields of."""
    return MimicConfiguration(key[0], key[1], 0, key[2])


_name = "s{}".format  # state index -> its name


class _Store(NamedTuple):
    """What ``_explore`` keeps: the state keys and one CSR edge store.

    ``keys[i]`` is state ``i``'s key in discovery order. Its edges are
    ``labels[e]`` to state ``targets[e]`` for ``e`` in
    ``offsets[i]:offsets[i + 1]``. Configurations are built from keys on
    demand by ``make_config``.
    """

    keys: list
    make_config: Callable[[tuple], MimicConfiguration]
    offsets: array
    targets: array
    labels: list

    def config(self, index: int) -> MimicConfiguration:
        return self.make_config(self.keys[index])

    def edges(self, index: int) -> tuple[list, array]:
        """The labels and target indices of state ``index``'s edges, in edge order."""
        lo, hi = self.offsets[index], self.offsets[index + 1]
        return self.labels[lo:hi], self.targets[lo:hi]

    def row(self, index: int) -> tuple[tuple[object, str], ...]:
        labels, targets = self.edges(index)
        return tuple(zip(labels, map(_name, targets)))


class _StoreView(Mapping):
    """Read-only mapping from state names ``s<index>`` to ``value(index)``.

    It behaves as a dict in discovery order: any other key, including a
    non-canonical name such as ``s01``, raises KeyError. Values are built
    on every access and not cached.
    """

    __slots__ = ("store", "value")

    def __init__(self, store: _Store, value: Callable[[int], object]):
        self.store = store
        self.value = value

    def _index(self, name) -> int:
        digits = name[1:] if isinstance(name, str) and name[:1] == "s" else ""
        if digits.isascii() and digits.isdigit() and (digits[0] != "0" or digits == "0"):
            index = int(digits)
            if index < len(self.store.keys):
                return index
        raise KeyError(name)

    def __getitem__(self, name):
        return self.value(self._index(name))

    def __contains__(self, name) -> bool:
        try:
            self._index(name)
        except KeyError:
            return False
        return True

    def __iter__(self):
        return map(_name, range(len(self.store.keys)))

    def __len__(self) -> int:
        return len(self.store.keys)


def _explore(start_key, make_config, successors, bound: int) -> _Store:
    """Breadth-first interning of the states reachable from ``start_key``.

    ``successors(sid, key, depth)`` yields ``(label, key)`` per edge of the
    state at index ``sid``; a new key takes the next index in discovery
    order. Only the keys and the edges are kept, in a ``_Store`` whose
    configurations are ``make_config(key)``. Exceeding ``bound`` states
    raises ExplosionError.
    """
    keys = [start_key]
    ids = {start_key: 0}
    offsets = array("q", [0])
    targets = array("q")
    labels: list = []
    depth, level_end = 0, 1  # breadth-first order: states from level_end on are one step deeper
    for sid, key in enumerate(keys):  # grows while it is walked: breadth-first order
        if sid == level_end:
            depth, level_end = depth + 1, len(keys)
        for label, nxt in successors(sid, key, depth):
            tid = ids.get(nxt)
            if tid is None:
                if len(keys) >= bound:
                    raise ExplosionError(bound, len(keys) - sid)
                tid = ids[nxt] = len(keys)
                keys.append(nxt)
            targets.append(tid)
            labels.append(label)
        offsets.append(len(targets))
    return _Store(keys, make_config, offsets, targets, labels)


def _mode1_successors(ma: MimicAutomaton, binding: Binding, universe: tuple[tuple, ...]):
    """``_explore`` successors of ``sa_from_ca`` states: the single macro step, stripped, per entry.

    Each lattice steps once, after its first entry's runs, where the single
    step fails; each (entry, observable output) is one Action, found through
    its (entry, per-cell output words).
    """
    run, _, advance = _unit_tables(ma, binding, 1, canonical=True)
    actions = [(entry, {}) for entry in universe]  # per entry: per-cell output words -> Action
    interned: dict[Action, Action] = {}  # different words can vote one output

    def successors(sid: int, key: tuple, depth: int):
        lattice, unit_states, outer_state = key
        fresh = None
        for entry, table in actions:
            ran, words = run(lattice, unit_states, entry, None)
            if fresh is None:  # after the first entry's runs, where the single step fails
                after, fresh = advance(lattice, None)
            for i, unit_state in fresh:
                ran[i] = unit_state
            words = tuple(words)
            action = table.get(words)
            if action is None:
                action = Action(entry, _observable_output(ma, words))
                action = table[words] = interned.setdefault(action, action)
            yield action, (after, tuple(ran), outer_state)

    return successors


def _mode2_successors(ma: MimicAutomaton, binding: Binding, universe: tuple[tuple, ...]):
    """``_explore`` successors of ``ca_from_sa`` states: one ``_stepper`` step per entry.

    No unit runs and fresh units start at clock 0, so the successor's
    fields are already clock-stripped; each (entry, output) is one Action.
    """
    step = _stepper(ma, binding, depth=1)
    actions = [(entry, {}) for entry in universe]  # per entry: output -> Action

    def successors(sid: int, key: tuple, depth: int):
        cfg = _flat_config(key)
        for entry, table in actions:
            nxt, _, _, _, output = step(cfg, entry, None)
            action = table.get(output)
            if action is None:
                action = table[output] = Action(entry, output)
            yield action, (nxt.lattice, nxt.unit_states, nxt.outer_state)

    return successors


def _as_predicate(target: Pred | str) -> Pred:
    return parse_predicate(target) if isinstance(target, str) else target


def _bfs_search(start, successors, want, bound: float = math.inf) -> tuple[object, dict]:
    """First node satisfying ``want`` in BFS order from ``start``, plus parent links.

    ``successors(node)`` yields ``(action, node)`` in edge order. Holding
    more than ``bound`` nodes raises ExplosionError.
    """
    parents: dict = {start: None}  # node -> (parent, action); also the visited set
    if want(start):
        return start, parents
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for action, nxt in successors(node):
            if nxt in parents:
                continue
            if len(parents) >= bound:
                raise ExplosionError(bound, len(queue) + 1)
            parents[nxt] = (node, action)
            if want(nxt):
                return nxt, parents
            queue.append(nxt)
    return None, parents


def _graph(ts: TransitionSystem) -> tuple[_Store, Callable, Callable]:
    """``(store, props, name)`` of ``ts``: a ``_Store`` whose index 0 is ``ts.initial``.

    ``flatten``'s views already hold one, and ``name`` makes the ``s<i>``
    names, for a returned path only. A plain-dict system (hand-built,
    ``product``) is first interned by name through ``_explore``,
    breadth-first from ``ts.initial``, and ``name`` gives the names back.
    ``props(index)`` is the state's propositions.
    """
    rows, props = ts.transitions, ts.atomic_props
    if isinstance(rows, _StoreView) and isinstance(props, _StoreView) and ts.initial == "s0":
        return rows.store, props.value, _name
    store = _explore(ts.initial, ts.states.__getitem__, lambda _, sid, __: rows.get(sid, ()), math.inf)
    return store, lambda index: props[store.keys[index]], store.keys.__getitem__


def _path_to(goal, parents: dict, name: Callable) -> Path:
    """The path of ``name(node)``s from the search's start to ``goal``."""
    states = [goal]
    actions: list[Action] = []
    while (link := parents[states[-1]]) is not None:
        parent, action = link
        actions.append(action)
        states.append(parent)
    states.reverse()
    actions.reverse()
    return Path(tuple(map(name, states)), tuple(actions))


def _search_states(ts: TransitionSystem, target: Pred | str, holds: bool) -> tuple[Path | None, dict]:
    """Shortest path to the first state where ``target`` is ``holds`` (or None), and the stats."""
    pred = _as_predicate(target)
    check_vocabulary(pred, ts.vocabulary)
    store, props, name = _graph(ts)
    hit, parents = _bfs_search(
        0, lambda index: zip(*store.edges(index)), lambda index: eval_predicate(pred, props(index)) == holds
    )
    path = None if hit is None else _path_to(hit, parents, name)
    return path, {"states": len(ts.states), "transitions": ts.transition_count}


def check_invariant(ts: TransitionSystem, invariant: Pred | str) -> CheckResult:
    """Holds iff the predicate is true at every reachable state; else a shortest counterexample."""
    path, stats = _search_states(ts, invariant, False)
    if path is None:
        return CheckResult("holds", stats=stats)
    return CheckResult("violated", counterexample=path, stats=stats)


def check_reach(ts: TransitionSystem, target: Pred | str) -> CheckResult:
    """Holds iff some reachable state satisfies the target; the witness is shortest."""
    path, stats = _search_states(ts, target, True)
    if path is None:
        return CheckResult("violated", stats=stats)
    return CheckResult("holds", counterexample=path, stats=stats)


ACCEPTING = "accepting"


def product(
    ts: TransitionSystem, pattern: SequentialAutomaton, bound: int = DEFAULT_FLATTEN_BOUND
) -> TransitionSystem:
    """Synchronous product with a monitor machine over action labels.

    The monitor reads each transition's output label; labels outside its
    alphabet (or without a transition) leave it in place. Product states
    whose monitor component is final carry the ``accepting`` proposition.
    Exceeding ``bound`` product states raises ExplosionError.
    No command calls it: the tests use it as the oracle of ``_monitor_witness``
    and the benchmark's tracing imports it. It moves to
    ``tests/reference_interpreter.py`` once that probe is replaced.
    """
    base: dict[str, tuple[MimicConfiguration, frozenset[str]]] = {}  # each read once per call

    def base_state(sid: str) -> tuple[MimicConfiguration, frozenset[str]]:
        entry = base.get(sid)
        if entry is None:
            entry = base[sid] = (ts.states[sid], ts.atomic_props[sid])
        return entry

    alphabet = set(pattern.input_alphabet)
    start = (ts.initial, pattern.initial)
    ids = {start: "p0"}
    states = {"p0": base_state(ts.initial)[0]}
    atomic_props: dict[str, frozenset[str]] = {}
    transitions: dict[str, tuple[tuple[Action, str], ...]] = {}
    order = deque([start])
    pat_of = {"p0": pattern.initial}
    base_of = {"p0": ts.initial}

    def props_for(sid: str, pat_state: str) -> frozenset[str]:
        props = base_state(sid)[1]
        if pat_state in pattern.finals:
            return props | {ACCEPTING}
        return props  # shared, not copied: the sets are immutable

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
                if len(ids) >= bound:
                    raise ExplosionError(bound, len(order) + 1)
                qid = f"p{len(ids)}"
                ids[key] = qid
                states[qid] = base_state(tid)[0]
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


def _monitor_witness(
    ts: TransitionSystem, pattern: SequentialAutomaton, bound: int = DEFAULT_FLATTEN_BOUND
) -> Path | None:
    """Shortest base-state path driving the monitor into a final state, or None.

    The search ``check_reach`` makes on ``product(ts, pattern)``, run on the
    fly over (base state, monitor state) pairs: a pair's successors depend
    only on that pair, so the pairs are visited in the product's discovery
    order and the path is the product's witness mapped to its base states.
    It stops at the first final pair and builds no product states, rows or
    propositions. Holding more than ``bound`` pairs raises ExplosionError.
    """
    alphabet = set(pattern.input_alphabet)
    moves = pattern.transitions
    store, _, name = _graph(ts)

    def successors(node):
        sid, pat = node
        for action, tid in zip(*store.edges(sid)):
            label = action.label()
            # monitor convention, as in ``product``: unmentioned labels self-loop
            yield action, (tid, moves.get((pat, label), pat) if label in alphabet else pat)

    hit, parents = _bfs_search((0, pattern.initial), successors, lambda node: node[1] in pattern.finals, bound)
    return None if hit is None else _path_to(hit, parents, lambda node: name(node[0]))


def _unmatchable(ts: TransitionSystem, bound: float):
    """A test of the monitors ``_monitor_witness`` would search to None within ``bound``.

    A monitor passes when the states it reaches from its initial state on
    the labels of the reachable edges (unmentioned labels self-loop) hold no
    final state and the reachable states times their number is at most
    ``bound``: every pair the search could visit lies within them.
    """
    store = _graph(ts)[0]
    emitted = {action.label() for action in store.labels}

    def unmatchable(pattern: SequentialAutomaton) -> bool:
        usable = emitted.intersection(pattern.input_alphabet)
        reach, frontier = set(), {pattern.initial}
        while frontier:
            reach |= frontier
            frontier = {pattern.transitions.get((q, label), q) for q in frontier for label in usable} - reach
        return reach.isdisjoint(pattern.finals) and len(store.keys) * len(reach) <= bound

    return unmatchable


# ---------------------------------------------------------------------------
# probabilistic analysis

def _require_horizon(horizon: int | None) -> None:
    if horizon is not None and horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")


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
    bound: int,
    lattice0: Lattice | None = None,
    successor_cap: int = DEFAULT_SUCCESSOR_CAP,
    horizon: int | None = None,
) -> _Store:
    """``_explore`` of the chain over (configuration, policy phase) states.

    An edge's label is its probability, in ``pca_step_distribution`` order,
    and a state's phase is its depth modulo the policy's period. Each
    lattice's distribution, with its successors' fresh units, is computed
    once per call. Per state, the unit runs come before the distribution and
    the successors, as in a single step, so the first error is the same.
    States at depth ``horizon`` get a self-loop; rows must sum to one only
    when ``horizon`` is None. The model must pass
    ``_require_exactly_expandable``.
    """
    binding = ma.root()
    ca = ma.ca_set[binding.ca]
    period = len(policy)
    start = strip_clocks(
        ma_initial(ma, lattice0 if lattice0 is not None else binding_seed(ma, binding))
    )
    outer = start.outer_state
    run, rebind, _ = _unit_tables(ma, binding, 1, canonical=True)
    # lattice -> ([[successor lattice, probability, fresh units once rebound], ...], their sum)
    dists: dict = {}

    def successors(sid: int, key: tuple, depth: int):
        lattice, unit_states, _ = key
        if horizon is not None and depth >= horizon:
            yield 1.0, (lattice, unit_states, depth % period)
            return
        ran, _ = run(lattice, unit_states, policy[depth % period], None)
        dist = dists.get(lattice)
        if dist is None:
            dist = pca_step_distribution(ca, lattice, successor_cap)
            dist = dists[lattice] = ([[after, prob, None] for after, prob in dist.items()], sum(dist.values()))
        phase = (depth + 1) % period
        for successor in dist[0]:
            after, prob, fresh = successor
            if fresh is None:  # rebound when first reached, so errors keep their order
                fresh = successor[2] = rebind(lattice, after)
            unit_states = list(ran)
            for i, unit_state in fresh:
                unit_states[i] = unit_state
            yield prob, (after, tuple(unit_states), phase)
        if horizon is None and abs(dist[1] - 1.0) > ROW_TOL:
            raise MimicError(f"chain row for s{sid} sums to {dist[1]!r}")

    return _explore(
        (start.lattice, start.unit_states, 0),
        lambda key: MimicConfiguration(key[0], key[1], 0, outer),
        successors,
        bound,
    )


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
    raises SizeCapError advising Monte Carlo estimation. The labeling is
    called when ``atomic_props`` is read, never by ``build_dtmc`` itself.
    """
    policy = _normalize_policy(input_policy)
    _require_exactly_expandable(ma)
    props_fn, vocabulary = labeling or builtin_labeling(ma)
    store = _expand_chain(ma, policy, bound, lattice0, successor_cap)

    def row(index: int) -> tuple[tuple[str, float], ...]:
        probs, targets = store.edges(index)
        return tuple(zip(map(_name, targets), probs))

    return Dtmc(
        states=_StoreView(store, store.config),
        initial="s0",
        rows=_StoreView(store, row),
        atomic_props=_StoreView(store, lambda i: props_fn(store.config(i))),
        vocabulary=vocabulary,
        metadata={"model": ma.name, "policy": policy},
    )


def _chain_arrays(store: _Store, props: Iterable[frozenset[str]], pred: Pred) -> tuple[np.ndarray, ...]:
    """A chain's target mask (``pred`` on ``props``, in index order), offsets, successors and probabilities."""
    import numpy as np

    target = np.fromiter((eval_predicate(pred, p) for p in props), dtype=bool, count=len(store.keys))
    offsets = np.array(store.offsets, dtype=np.intp)
    successors = np.array(store.targets, dtype=np.intp)
    return target, offsets, successors, np.array(store.labels, dtype=float)


def _reaching(is_target: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Mask of the states with a path to a target state over the edges ``rows[e] -> cols[e]``.

    Its complement is prob0, the states that reach the target with
    probability 0 (Baier & Katoen, *Principles of Model Checking*, §10.1).
    One backward search from the targets reads each edge at most once, so
    it is linear in the edges whatever the chain's depth.
    """
    import numpy as np

    order = np.argsort(cols)
    preds = rows[order].tolist()  # predecessors grouped by successor
    starts = np.zeros(len(is_target) + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=len(is_target)), out=starts[1:])
    starts = starts.tolist()
    reached = is_target.tolist()
    pending = np.flatnonzero(is_target).tolist()
    while pending:
        state = pending.pop()
        for pred in preds[starts[state]:starts[state + 1]]:
            if not reached[pred]:
                reached[pred] = True
                pending.append(pred)
    return np.array(reached, dtype=bool)


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
    the target within that many steps. The edges of non-target states are
    taken from the chain's store in CSR order, and a sweep sums each row's
    ``prob * x[successor]`` terms with ``np.bincount`` in row order, the
    order a per-state loop adds them in. States that cannot reach the
    target (``_reaching``) and every edge into them are left out: their
    values stay 0.0 and each dropped term is ``+0.0``, so every sum, the
    residual and the iteration count are bit-identical to the full sweep.
    The initial state is index 0, as ``_explore`` numbers it; each state
    is labeled once.
    """
    import numpy as np

    if not (math.isfinite(tol) and tol > 0):  # a residual is never below 0 or NaN
        raise ValueError(f"tol must be a finite number > 0, got {tol}")
    _require_horizon(horizon)
    pred = _as_predicate(target)
    check_vocabulary(pred, dtmc.vocabulary)
    is_target, offsets, cols, probs = _chain_arrays(dtmc.rows.store, dtmc.atomic_props.values(), pred)
    n = len(is_target)
    rows = np.repeat(np.arange(n), np.diff(offsets))
    keep = ~is_target[rows] & _reaching(is_target, rows, cols)[cols]
    rows, cols, probs = rows[keep], cols[keep], probs[keep]
    targets = np.flatnonzero(is_target)
    x = is_target.astype(float)

    def sweep(values: np.ndarray) -> np.ndarray:
        new = np.bincount(rows, weights=probs * values[cols], minlength=n)
        new[targets] = 1.0
        return new

    stats = {"states": n, "transitions": dtmc.transition_count}
    if horizon is not None:
        for _ in range(horizon):
            x = sweep(x)
        stats["iterations"] = horizon
        return CheckResult(
            "probability",
            probability=float(x[0]),
            method="exact-value-iteration",
            error_bound=0.0,
            stats=stats,
        )

    for iteration in range(1, max_iter + 1):
        new = sweep(x)
        residual = float(np.max(np.abs(new - x)))
        x = new
        if residual < tol:
            stats["iterations"] = iteration
            return CheckResult(
                "probability",
                probability=float(x[0]),
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
    """Monte Carlo estimate of bounded reachability with a 95% error bound.

    ``probability`` is ``hits / trials``. ``error_bound`` is the larger
    distance from it to either end of the 95% Wilson score interval, so
    ``[probability - error_bound, probability + error_bound]`` covers that
    interval, and it is positive even at 0 or ``trials`` hits.

    Trials are grouped into fixed blocks; block ``j`` draws from the stream
    derived from ``seed`` with key ``j``, so estimates are reproducible and
    independent of any work partitioning. Exactly expandable models are
    expanded once to depth ``horizon`` and sampled vectorially; models that
    are not, or whose expansion exceeds ``bound`` states or the successor
    cap, fall back to per-trial simulation with the same block seeding. A
    ``ca_from_sa`` root is refused with a MimicError, and a missing or
    negative ``horizon`` with a ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if horizon is None:
        raise ValueError("Monte Carlo estimation needs a horizon")
    _require_horizon(horizon)
    pred = _as_predicate(target)
    policy = _normalize_policy(input_policy)
    props_fn, vocabulary = labeling or builtin_labeling(ma)
    check_vocabulary(pred, vocabulary)
    seed = 0 if seed is None else seed

    refusal = _expansion_refusal(ma)
    if ma.root().mode != MODE_SA_FROM_CA:
        raise MimicError(refusal)  # per-trial sampling steps sa_from_ca roots only
    hits = None
    if refusal is None:
        try:
            hits = _mc_chain(ma, policy, pred, horizon, trials, seed, bound, props_fn)
        except (SizeCapError, ExplosionError):
            pass  # too large to expand: sample paths instead
    method = "monte-carlo"
    if hits is None:
        hits = _mc_per_trial(ma, policy, pred, horizon, trials, seed, props_fn)
        method = "monte-carlo-paths"

    p_hat = hits / trials
    return CheckResult(
        "probability",
        probability=p_hat,
        method=method,
        error_bound=_wilson_error_bound(hits, trials),
        stats={"trials": trials, "horizon": horizon, "hits": hits},
    )


WILSON_Z = 1.96  # two-sided 95%


def _wilson_error_bound(hits: int, trials: int) -> float:
    """Largest distance from ``hits / trials`` to an end of its 95% Wilson score interval.

    Unlike the Wald half-width, it stays positive at 0 and ``trials`` hits
    (Brown, Cai & DasGupta, Statist. Sci. 2001).
    """
    p_hat = hits / trials
    z2n = WILSON_Z * WILSON_Z / trials
    center = (p_hat + z2n / 2) / (1 + z2n)
    half = WILSON_Z / (1 + z2n) * (p_hat * (1 - p_hat) / trials + z2n / (4 * trials)) ** 0.5
    return max(p_hat - (center - half), center + half - p_hat)


def _mc_chain(ma, policy, pred, horizon, trials, seed, bound, props_fn) -> int:
    """Hits of trials sampled on the chain expanded to depth ``horizon``.

    Each step draws one uniform per live trial, in trial order, and moves it
    to the first successor whose cumulative row probability exceeds the
    uniform (``searchsorted(side="right")`` on the row, clipped to its last
    entry). The search runs for all live trials at once over one flat
    cumulative array in which every row is followed by a ``+inf`` sentinel:
    ``pos``, the last entry known to be ``<= u`` (or the slot before the
    row), moves by power-of-two steps while the entry it lands on is still
    ``<= u``. A step past the row is clipped to its sentinel, which no
    uniform passes, so it never leaves the row. The successor array has the
    row's last successor in the sentinel's slot: that is the clip. The
    steps add up to at least the longest row's length minus one: once
    ``pos`` passes a row's second-to-last entry, its last successor is the
    answer whatever the last entry holds.
    """
    import numpy as np

    store = _expand_chain(ma, policy, bound, horizon=horizon)
    target, offsets, successors, _ = _chain_arrays(store, map(props_fn, map(store.make_config, store.keys)), pred)
    n_states = len(store.keys)
    lengths = np.diff(offsets)
    ends = offsets[1:] + np.arange(n_states)  # each row's sentinel slot in the padded arrays
    cumulative = np.fromiter(
        itertools.chain.from_iterable(
            itertools.chain(itertools.accumulate(store.edges(i)[0]), (math.inf,)) for i in range(n_states)
        ),
        dtype=float,
        count=len(store.targets) + n_states,
    )
    padded = np.insert(successors, offsets[1:], successors[offsets[1:] - 1])  # the last successor again
    before = offsets[:-1] + np.arange(n_states) - 1  # the slot before each row
    steps = [1 << k for k in reversed(range((int(lengths.max()) - 1).bit_length()))]

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
            pos = before[cur_alive]
            end = ends[cur_alive]
            for step in steps:
                probe = np.minimum(pos + step, end)
                pos = np.where(cumulative[probe] <= u, probe, pos)
            nxt = padded[pos + 1]
            cur[alive] = nxt
            hit[alive] = target[nxt]
        hits += int(hit.sum())
        done += n
        block_index += 1
    return hits


def _mc_per_trial(ma, policy, pred, horizon, trials, seed, props_fn) -> int:
    binding = ma.root()
    step = _stepper(ma, binding, depth=1)
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
                cfg = step(cfg, policy[t % period], rng)[0]
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
    step = _stepper(ma, binding, depth=1)
    for action, sid in zip(path.actions, path.states[1:]):
        cfg, per_cell, _, _, output = step(cfg, action.macro_input, None)
        if per_cell is not None:
            output = _observable_output(ma, tuple(r.output_word for r in per_cell))
        if Action(action.macro_input, output) != action or strip_clocks(cfg) != ts.states[sid]:
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
    universe entry). A ``horizon`` applies to ``reach`` only: a deterministic
    reach then holds only when its shortest witness has at most ``horizon``
    actions. A bad prefix is searched as ``detect`` searches a signature.
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

    if prop.horizon is not None and prop.kind != REACH:
        raise PropertyError(f"a horizon applies to reach properties only, not to {prop.kind}")
    _require_horizon(prop.horizon)
    if universe is None:
        raise PropertyError("an input universe is required to flatten the model")
    ts = flatten(ma, universe, bound=bound, lattice0=lattice0)
    if prop.kind == INVARIANT:
        return check_invariant(ts, prop.predicate)
    if prop.kind == REACH:
        result = check_reach(ts, prop.predicate)
        if prop.horizon is not None and result.verdict == "holds" and len(result.counterexample) > prop.horizon:
            return CheckResult("violated", stats=result.stats)  # the witness is a shortest one
        return result
    if prop.kind == BAD_PREFIX:
        unmatchable = _unmatchable(ts, bound)(prop.pattern)
        witness = None if unmatchable else _monitor_witness(ts, prop.pattern, bound)
        stats = {"states": len(ts.states), "transitions": ts.transition_count, "pattern": prop.pattern.name}
        if witness is None:
            return CheckResult("holds", stats=stats)
        return CheckResult("violated", counterexample=witness, stats=stats)  # a bad prefix exists
    raise PropertyError(f"unknown property kind {prop.kind!r}")
