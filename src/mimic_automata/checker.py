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
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import field
from operator import itemgetter
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
    _numbering,
    _replay,
    _unit_tables,
    has_randomness,
    ma_initial,
    nesting_depths,
    strip_clocks,
)
from .errors import (
    ConvergenceError,
    ExplosionError,
    MimicError,
    PropertyError,
    SizeCapError,
    Violation,
    each_member,
    value_class,
)
from .hierarchical import ha_rules
from .props import Pred, atoms_of, check_vocabulary, eval_predicate, parse_predicate
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


@value_class(frozen=True)
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


@value_class(frozen=True)
class Path:
    """Alternating evidence path: ``states[i] --actions[i]--> states[i+1]``."""

    states: tuple[str, ...]
    actions: tuple[Action, ...]

    def __len__(self) -> int:
        return len(self.actions)


@value_class(frozen=True)
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


@value_class(frozen=True)
class Property:
    """A checkable claim over a model's labeled state space."""

    name: str
    kind: str  # INVARIANT | REACH | BAD_PREFIX
    predicate: Pred | None = None
    pattern: SequentialAutomaton | None = None
    inputs: tuple | None = None  # macro-input universe override
    policy: tuple | None = None  # probabilistic input policy (cycled)
    horizon: int | None = None


@value_class
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
        return _edge_count(self.transitions)


@value_class
class Dtmc:
    """Discrete-time Markov chain over canonical configurations.

    ``build_dtmc`` fills the three mappings with views over its exploration
    store, as ``flatten`` does for a ``TransitionSystem``. Hand-built chains
    may use plain dicts.
    """

    states: Mapping[str, MimicConfiguration]
    initial: str
    rows: Mapping[str, tuple[tuple[str, float], ...]]
    atomic_props: Mapping[str, frozenset[str]]
    vocabulary: frozenset[str]
    metadata: dict = field(default_factory=dict)

    @property
    def transition_count(self) -> int:
        return _edge_count(self.rows)


def _edge_count(rows: Mapping) -> int:
    """The edges of a rows mapping: its store's for a ``_StoreView``, else the sum of its rows' lengths."""
    return len(rows.store.targets) if isinstance(rows, _StoreView) else sum(map(len, rows.values()))


Labeling = tuple[Callable[[MimicConfiguration], frozenset[str]], frozenset[str]]
"""A proposition function and its vocabulary. ``flatten`` calls the function
when ``atomic_props`` is read, once per access, so it must be pure. The
invariant and reach checks call a labeling given to ``flatten`` once per
searched state; the builtin one, used when none is given, once per support
class (see ``_row_classes``)."""


def builtin_labeling(ma: MimicAutomaton) -> Labeling:
    """Default propositions: lattice contents and per-cell machine states.

    ``lattice_has(q)`` holds when some cell carries ``q`` (fault-tag markers
    are projected away); ``cell<i>_state(s)`` tracks cells hosting plain
    machines; ``outer_state(s)`` tracks the outer machine of a ``ca_from_sa``
    root.
    """
    return _builtin_labeling(ma)[:2]


def _builtin_labeling(ma: MimicAutomaton) -> tuple[Callable, frozenset[str], dict[str, int]]:
    """``builtin_labeling`` and the cell that each ``cell<i>_state`` atom reads."""
    binding = ma.root()
    ca = ma.ca_set[binding.ca]

    def base(q):  # fault-widened cell states expose the variant they wrap
        return getattr(q, "base", q)

    vocabulary: set[str] = set()
    for q in ca.cell_states:
        vocabulary.add(f"lattice_has({base(q)})")
    hosted = [unit for unit in binding.cell_map.values() if isinstance(unit, SaUnit)]
    cell_of: dict[str, int] = {}
    for i in range(ca.width):
        for unit in hosted:
            for s in ma.sa_set[unit.sa].states:
                cell_of[f"cell{i}_state({s})"] = i
    vocabulary.update(cell_of)
    if binding.mode == MODE_CA_FROM_SA:
        for s in ma.sa_set[binding.outer_sa].states:
            vocabulary.add(f"outer_state({s})")

    cell_map = binding.cell_map
    lattices: dict = {}  # lattice -> (its lattice_has labels, the cells hosting plain machines)
    cell_labels = [{} for _ in range(ca.width)]  # per cell: machine state -> label, one string for all states

    def props(cfg: MimicConfiguration) -> frozenset[str]:
        info = lattices.get(cfg.lattice)
        if info is None:
            info = lattices[cfg.lattice] = (
                {f"lattice_has({base(q)})" for q in cfg.lattice},
                [i for i, q in enumerate(cfg.lattice) if isinstance(cell_map[q], SaUnit)],
            )
        labels = set(info[0])
        for i in info[1]:
            names, state = cell_labels[i], cfg.unit_states[i]
            labels.add(names.get(state) or names.setdefault(state, f"cell{i}_state({state})"))
        if cfg.outer_state is not None:
            labels.add(f"outer_state({cfg.outer_state})")
        return frozenset(labels)

    return props, frozenset(vocabulary), cell_of


def _observable_output(ma: MimicAutomaton, words: tuple[Word, ...]) -> Word | None:
    """Voted output of the per-cell words when the composite carries a voter, else the first cell's."""
    if ma.voter is not None:
        from .dhr import vote

        voted, _ = vote(ma.voter, words)
        return voted
    return words[0] if words else ()


def _normalize_universe(universe: Iterable) -> tuple[tuple, ...]:
    """The entries as tuples, each once, in first-seen order."""
    return tuple(dict.fromkeys(map(tuple, universe)))


def check_components(ma: MimicAutomaton) -> dict[str, list[Violation]]:
    """Validate every member automaton, grouped by component kind; a machine in the ``sa`` group is not
    reported again as a hierarchy's member."""
    groups: dict[str, list[Violation]] = {"sa": [], "ca": [], "pa": [], "ha": []}
    for name, sa in sorted(ma.sa_set.items()):
        groups["sa"].extend(v.within(name) for v in validate_sa(sa))
    for name, ca in sorted(ma.ca_set.items()):
        if isinstance(ca, ProbabilisticCellularAutomaton):
            groups["pa"].extend(v.within(name) for v in validate_pca(ca))
        else:
            groups["ca"].extend(v.within(name) for v in validate_ca(ca))
    for name, ha in sorted(ma.ha_set.items()):
        others = [sa for sa in ha.sas if sa not in ma.sa_set.values()]
        groups["ha"].extend(v.within(name) for v in ha_rules(ha) + each_member(others, validate_sa))
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
    ``bound`` states raises ExplosionError with the frontier size, and a
    bound below 1 raises ValueError. The result's mappings are views over
    the exploration store, so the labeling is called when ``atomic_props``
    is read, never by ``flatten`` itself. An ``sa_from_ca`` state's key is
    ``(lattice id, row id per cell)`` (see ``_mode1_successors``); under the
    builtin labeling its ``atomic_props`` view also knows each predicate's
    support classes (``_row_classes``), so a check labels one state per class.
    """
    _require_bound(bound)
    universe = _normalize_universe(input_universe)
    if not universe:
        raise ValueError("input universe must be nonempty")
    if has_randomness(ma):
        raise MimicError("flatten needs a deterministic model; build a chain for probabilistic ones")

    binding = ma.root()
    props_fn, vocabulary, cell_of = (*labeling, None) if labeling else _builtin_labeling(ma)
    start = ma_initial(ma, lattice0)
    support = None
    if binding.mode == MODE_SA_FROM_CA:
        start_key, make_config, successors = _mode1_successors(ma, binding, universe, start)
        if cell_of is not None:
            support = _row_classes(cell_of, len(start.lattice))
    else:
        start_key, make_config, successors = _mode2_successors(ma, binding, universe, start)
    store, _ = _explore(start_key, make_config, successors, bound)
    return TransitionSystem(
        states=_StoreView(store, store.config),
        initial="s0",
        transitions=_StoreView(store, store.row),
        atomic_props=_StoreView(store, lambda i: props_fn(store.config(i)), support),
        vocabulary=vocabulary,
        metadata={"model": ma.name, "universe": universe, "lattice0": start.lattice},
    )


def _row_classes(cell_of: dict[str, int], width: int) -> Callable:
    """The support classes of a row-id store under the builtin labeling.

    ``classes(atoms)`` maps a state's key to its class for a predicate over
    ``atoms``: its lattice id and the row ids of the cells the atoms name.
    ``lattice_has`` atoms read the lattice only, and ``cell<i>_state`` atoms
    (``cell_of`` gives i) read cell i and, for whether it hosts a plain
    machine, the lattice. So two states of one class have the same
    propositions among ``atoms``: the support of a cone of influence, taken
    exactly. None when the atoms name every cell: each state is its own class.
    """

    def classes(atoms: Iterable[str]) -> Callable | None:
        read = sorted({cell_of[atom] for atom in atoms if atom in cell_of})
        return None if len(read) == width else itemgetter(0, *(i + 1 for i in read))

    return classes


_name = "s{}".format  # state index -> its name


class _Store(NamedTuple):
    """What ``_explore`` keeps: the state keys, one CSR edge store and the discovery edges.

    ``keys[i]`` is state ``i``'s key in discovery order. Its edges are
    ``labels[e]`` to state ``targets[e]`` for ``e`` in
    ``offsets[i]:offsets[i + 1]``, and ``discovery[i]`` is the edge that
    first reached it (-1 for state 0). Configurations are built from keys
    on demand by ``make_config``: ``flatten`` and the chain key an
    ``sa_from_ca`` state by small integers, the tick table's lattice id and
    row ids (and the chain's phase); a ``ca_from_sa`` key holds the fields.
    """

    keys: list
    make_config: Callable[[tuple], MimicConfiguration]
    offsets: array
    targets: array
    labels: list
    discovery: array

    def config(self, index: int) -> MimicConfiguration:
        return self.make_config(self.keys[index])

    def edges(self, index: int) -> tuple[list, array]:
        """The labels and target indices of state ``index``'s edges, in edge order."""
        lo, hi = self.offsets[index], self.offsets[index + 1]
        return self.labels[lo:hi], self.targets[lo:hi]

    def row(self, index: int) -> tuple[tuple[object, str], ...]:
        labels, targets = self.edges(index)
        return tuple(zip(labels, map(_name, targets)))

    def path_to(self, index: int, name: Callable[[int], str]) -> Path:
        """The discovery edges from state 0 to ``index``, a shortest path; ``name`` names its states.

        An edge's source is the last state whose edges start at or before it.
        """
        states, actions = [index], []
        while (edge := self.discovery[states[-1]]) >= 0:
            actions.append(self.labels[edge])
            states.append(bisect_right(self.offsets, edge) - 1)
        return Path(tuple(map(name, reversed(states))), tuple(reversed(actions)))


class _StoreView(Mapping):
    """Read-only mapping from state names ``s<index>`` to ``value(index)``.

    It behaves as a dict in discovery order: any other key, including a
    non-canonical name such as ``s01``, raises KeyError. Values are built
    on every access and not cached. A propositions view may carry
    ``support``, the ``_row_classes`` of its store.
    """

    __slots__ = ("store", "value", "support")

    def __init__(self, store: _Store, value: Callable[[int], object], support: Callable | None = None):
        self.store = store
        self.value = value
        self.support = support

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


def _explore(start_key, make_config, successors, bound: int, stop=None) -> tuple[_Store, int | None]:
    """Breadth-first interning of the states reachable from ``start_key``.

    ``successors(sid, key, depth)`` yields ``(label, key)`` per edge of the
    state at index ``sid``; a new key takes the next index in discovery
    order, and the edge that reached it is its discovery edge. Only the
    keys and the edges are kept, in a ``_Store`` whose configurations are
    ``make_config(key)``. Returns the store and the index of the first key
    (the start included) that satisfies ``stop``, where the exploration
    stops, or None when no key does. Exceeding ``bound`` states raises
    ExplosionError.
    """
    keys = [start_key]
    ids = {start_key: 0}
    offsets = array("q", [0])
    targets = array("q")
    labels: list = []
    discovery = array("q", [-1])
    store = _Store(keys, make_config, offsets, targets, labels, discovery)
    if stop is not None and stop(start_key):
        return store, 0
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
                discovery.append(len(targets))
                if stop is not None and stop(nxt):
                    targets.append(tid)
                    labels.append(label)
                    return store, tid
            targets.append(tid)
            labels.append(label)
        offsets.append(len(targets))
    return store, None


def _mode1_successors(ma: MimicAutomaton, binding: Binding, universe: tuple[tuple, ...], start: MimicConfiguration):
    """``_explore``'s start key, ``make_config`` and successors for ``sa_from_ca`` states.

    A state's key is ``(lattice id, row id of cell 0, ..., row id of cell
    n-1)`` in the ids of the ``canonical`` tick table (``_unit_tables``).
    The lattice is frozen while the units run, so a cell's runs depend only
    on its row: a learnt row holds, per entry, its successor row id and the
    id of its output words, and a learnt lattice its successor's id and its
    fresh cells' row ids, each as a column with one value per entry. A
    state swaps its lattice's fresh columns in among its rows' columns and
    zips them with the successor lattice's column: that yields the
    successor keys, and its cells' word ids find its Actions. A state with
    an unlearnt lattice or row first goes entry by entry through the
    table's ``run`` and ``move``, in the single step's order, so it fails
    where the single step fails. Each (entry, per-cell output words) is one
    vote and each (entry, observable output) one Action.
    """
    _, encode, decode, run, move, _ = _unit_tables(ma, binding, 1, canonical=True)
    entries = len(universe)
    moves: dict = {}  # lattice id -> (successor lattice id per entry, (cell, fresh row id per entry) pairs)
    nexts: dict = {}  # row id -> successor row id per entry
    word_of: dict = {}  # row id -> the id of its output words per entry
    words: list = []  # word id -> output words per entry
    word_id = _numbering(words)
    tables = [{} for _ in universe]  # per entry: per-cell output words -> Action
    interned: dict[Action, Action] = {}  # different words can vote one output
    actions: dict = {}  # word ids per cell -> Action per entry
    no_cells = [()] * entries  # each entry's per-cell output words when there are no cells

    def action(entry: tuple, table: dict, words: tuple) -> Action:
        act = table.get(words)
        if act is None:
            act = Action(entry, _observable_output(ma, words))
            act = table[words] = interned.setdefault(act, act)
        return act

    def learn(lid: int, rids: tuple) -> None:
        per_entry = []
        for entry, table in zip(universe, tables):
            nxt, per_cell = run(lid, rids, entry, None)
            after, fresh = move(lid, None)  # learnt once, after the first entry's runs
            out = tuple([r.output_word for r in per_cell])
            action(entry, table, out)
            per_entry.append((nxt, out))
        moves[lid] = ((after,) * entries, tuple((i, (e,) * entries) for i, e in fresh))
        for i, rid in enumerate(rids):
            if rid not in nexts:
                nexts[rid] = tuple(nxt[i] for nxt, _ in per_entry)
                word_of[rid] = word_id(tuple(out[i] for _, out in per_entry))

    def successors(sid: int, key: tuple, depth: int):
        lid, rids = key[0], key[1:]
        columns = list(map(nexts.get, rids))
        if lid not in moves or None in columns:
            learn(lid, rids)
            columns = list(map(nexts.__getitem__, rids))
        after, fresh = moves[lid]
        for i, column in fresh:
            columns[i] = column
        ids = tuple(map(word_of.__getitem__, rids))
        acts = actions.get(ids)
        if acts is None:
            out = zip(*map(words.__getitem__, ids)) if ids else no_cells
            acts = actions[ids] = tuple(map(action, universe, tables, out))
        return zip(acts, zip(after, *columns))

    lid, rows, _ = encode(start)
    return (lid, *rows), lambda key: decode((key[0], key[1:], None), 0), successors


def _mode2_successors(ma: MimicAutomaton, binding: Binding, universe: tuple[tuple, ...], start: MimicConfiguration):
    """``_explore``'s start key, ``make_config`` and successors for ``ca_from_sa`` states.

    A key is a ``_replay`` state, which holds a configuration's fields, and
    a state's successors are one replay step per entry. No unit runs and
    fresh units start at clock 0, so the successor's fields are already
    clock-stripped; each (entry, output) is one Action.
    """
    encode, step, decode = _replay(ma, binding, depth=1)
    actions = [(entry, {}) for entry in universe]  # per entry: output -> Action

    def successors(sid: int, key: tuple, depth: int):
        for entry, table in actions:
            nxt, *_, output = step(key, entry, None)
            action = table.get(output)
            if action is None:
                action = table[output] = Action(entry, output)
            yield action, nxt

    return encode(start), lambda key: decode(key, 0), successors


def _as_predicate(target: Pred | str) -> Pred:
    return parse_predicate(target) if isinstance(target, str) else target


def _graph(ts: TransitionSystem | Dtmc) -> tuple[_Store, Callable, Callable, Callable | None]:
    """``(store, props, name, support)`` of ``ts``: a ``_Store`` whose index 0 is ``ts.initial``.

    ``flatten``'s and ``build_dtmc``'s views already hold one, and ``name``
    makes the ``s<i>`` names, for a returned path only. A plain-dict system
    (hand-built, ``product``) or chain is first interned by name through
    ``_explore``, breadth-first from ``ts.initial``, and ``name`` gives the
    names back; a chain edge's label is its probability. ``props(index)`` is
    the state's propositions and ``support`` the propositions view's
    ``_row_classes``, or None.
    """
    chain = isinstance(ts, Dtmc)
    rows, props = ts.rows if chain else ts.transitions, ts.atomic_props
    if isinstance(rows, _StoreView) and isinstance(props, _StoreView) and ts.initial == "s0":
        return rows.store, props.value, _name, props.support
    row = (lambda sid: [(prob, t) for t, prob in rows.get(sid, ())]) if chain else (lambda sid: rows.get(sid, ()))
    store, _ = _explore(ts.initial, ts.states.__getitem__, lambda _, sid, __: row(sid), math.inf)
    return store, lambda index: props[store.keys[index]], store.keys.__getitem__, None


def _search_states(ts: TransitionSystem, target: Pred | str, holds: bool) -> tuple[Path | None, dict]:
    """Shortest path to the first state where ``target`` is ``holds`` (or None), and the stats.

    A store's indices are breadth-first discovery order, so the first index
    that matches is the state a breadth-first search would stop at, and its
    discovery edges are that search's path. The predicate is evaluated once
    per support class, at the class's first state: every state of a class
    has its verdict. Without a ``support`` each state is its own class.
    """
    pred = _as_predicate(target)
    check_vocabulary(pred, ts.vocabulary)
    store, props, name, support = _graph(ts)
    class_of = support and support(atoms_of(pred))
    seen = set()  # the classes evaluated so far, none of them a match
    hit = None
    for i, key in enumerate(store.keys):
        if class_of is not None:
            cls = class_of(key)
            if cls in seen:
                continue
            seen.add(cls)
        if eval_predicate(pred, props(i)) == holds:
            hit = i
            break
    path = None if hit is None else store.path_to(hit, name)
    return path, {"states": len(ts.states), "transitions": ts.transition_count}


def check_invariant(ts: TransitionSystem, invariant: Pred | str) -> CheckResult:
    """Holds iff the predicate is true at every reachable state; else a shortest counterexample."""
    path, stats = _search_states(ts, invariant, False)
    return CheckResult("holds" if path is None else "violated", counterexample=path, stats=stats)


def check_reach(ts: TransitionSystem, target: Pred | str) -> CheckResult:
    """Holds iff some reachable state satisfies the target; the witness is shortest."""
    path, stats = _search_states(ts, target, True)
    return CheckResult("violated" if path is None else "holds", counterexample=path, stats=stats)


ACCEPTING = "accepting"


def _monitor_moves(store: _Store, pattern: SequentialAutomaton) -> Callable:
    """``_explore``'s successors over (base state index, monitor state) pairs of ``store``.

    The monitor reads each edge's output label; a label outside its
    alphabet, or without a move, leaves it in place. No pair's
    configuration is ever built, so the pair stores' ``make_config`` is None.
    """
    alphabet = set(pattern.input_alphabet)
    moves = pattern.transitions

    def successors(_, pair, __):
        sid, pat = pair
        for action, tid in zip(*store.edges(sid)):
            label = action.label()
            yield action, (tid, moves.get((pat, label), pat) if label in alphabet else pat)

    return successors


def product(
    ts: TransitionSystem, pattern: SequentialAutomaton, bound: int = DEFAULT_FLATTEN_BOUND
) -> TransitionSystem:
    """Synchronous product with a monitor machine over action labels.

    Its states are every pair ``_monitor_witness`` could visit: the same
    ``_explore`` with no stop test, named ``p<i>`` in discovery order.
    Product states whose monitor component is final carry the
    ``accepting`` proposition. Exceeding ``bound`` product states raises
    ExplosionError. No command calls it; the benchmark's tracing does.
    """
    store, props, name, _ = _graph(ts)
    pairs, _ = _explore((0, pattern.initial), None, _monitor_moves(store, pattern), bound)
    names = [f"p{i}" for i in range(len(pairs.keys))]
    base: dict[int, tuple[MimicConfiguration, frozenset[str]]] = {}  # each read once per call
    states, transitions, atomic_props, pat_of, base_of = {}, {}, {}, {}, {}
    for i, (pid, (sid, pat)) in enumerate(zip(names, pairs.keys)):
        if sid not in base:
            base[sid] = (store.config(sid), props(sid))
        states[pid], atomic_props[pid] = base[sid]
        if pat in pattern.finals:
            atomic_props[pid] = atomic_props[pid] | {ACCEPTING}  # else shared: the sets are immutable
        labels, targets = pairs.edges(i)
        transitions[pid] = tuple(zip(labels, map(names.__getitem__, targets)))
        pat_of[pid], base_of[pid] = pat, name(sid)
    metadata = {**ts.metadata, "pattern": pattern.name, "pattern_state": pat_of, "base_state": base_of}
    return TransitionSystem(states, "p0", transitions, atomic_props, ts.vocabulary | {ACCEPTING}, metadata)


def _monitor_witness(
    ts: TransitionSystem, pattern: SequentialAutomaton, bound: int = DEFAULT_FLATTEN_BOUND
) -> Path | None:
    """Shortest base-state path driving the monitor into a final state, or None.

    ``_explore`` over (base state, monitor state) pairs, stopped at the
    first final pair: the pairs are ``product(ts, pattern)``'s, in its
    discovery order, and the path is the witness ``check_reach`` finds
    there, mapped to its base states. No product states, rows or
    propositions are built. Holding more than ``bound`` pairs raises
    ExplosionError.
    """
    store, _, name, _ = _graph(ts)
    finals = pattern.finals
    pairs, hit = _explore(
        (0, pattern.initial), None, _monitor_moves(store, pattern), bound, lambda pair: pair[1] in finals
    )
    return None if hit is None else pairs.path_to(hit, lambda index: name(pairs.keys[index][0]))


def _bad_prefix_witness(ts: TransitionSystem, bound: int):
    """``witness(pattern)``: ``_monitor_witness(ts, pattern, bound)``, skipped when it must be None.

    The search is skipped when the monitor states reached from the initial
    state on the labels of the reachable edges (unmentioned labels
    self-loop) hold no final state and the reachable states times their
    number is at most ``bound``: every pair the search could visit lies
    within them, so it would find nothing and stay within the bound.
    """
    store = _graph(ts)[0]
    emitted = {action.label() for action in store.labels}

    def witness(pattern: SequentialAutomaton) -> Path | None:
        usable = emitted.intersection(pattern.input_alphabet)
        reach, frontier = set(), {pattern.initial}
        while frontier:
            reach |= frontier
            frontier = {pattern.transitions.get((q, label), q) for q in frontier for label in usable} - reach
        if reach.isdisjoint(pattern.finals) and len(store.keys) * len(reach) <= bound:
            return None
        return _monitor_witness(ts, pattern, bound)

    return witness


# ---------------------------------------------------------------------------
# probabilistic analysis

def _require_bound(bound: int) -> None:
    """Refuse a state bound below one: no search could hold even its start state."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")


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
    nested = [ma.bindings[name] for name in nesting_depths(ma) if name in ma.bindings and name != ma.root_binding]
    if any(isinstance(ma.ca_set[b.ca], ProbabilisticCellularAutomaton) for b in nested):
        return "nested probabilistic lattices are not exactly expandable"
    return None


def _expand_chain(
    ma: MimicAutomaton,
    policy: tuple[tuple, ...],
    bound: int,
    lattice0: Lattice | None = None,
    successor_cap: int = DEFAULT_SUCCESSOR_CAP,
    horizon: int | None = None,
) -> _Store:
    """``_explore`` of the chain over (configuration, policy phase) states.

    A state's key is ``(lattice id, row id of cell 0, ..., row id of cell
    n-1, phase)`` in the ids of the ``canonical`` tick table
    (``_unit_tables``), and its phase is its depth modulo the policy's
    period. An edge's label is its probability, in ``pca_step_distribution``
    order. Each lattice's distribution is computed once per call, and each
    successor's ``moved`` pair when first reached. Per state, the unit runs
    come before the distribution and the successors, as in a single step,
    so the first error is the same. States at depth ``horizon`` get a
    self-loop; rows must sum to one only when ``horizon`` is None. The model
    must have no ``_expansion_refusal``.
    """
    binding = ma.root()
    ca = ma.ca_set[binding.ca]
    period = len(policy)
    start = ma_initial(ma, lattice0)
    lattices, encode, decode, run, _, moved = _unit_tables(ma, binding, 1, canonical=True)
    # lattice id -> ([[successor lattice, probability, its id and (key position, fresh row) pairs], ...], their sum)
    dists: dict = {}

    def successors(sid: int, key: tuple, depth: int):
        if horizon is not None and depth >= horizon:
            yield 1.0, key
            return
        lid = key[0]
        ran, _ = run(lid, key[1:-1], policy[depth % period], None)
        dist = dists.get(lid)
        if dist is None:
            dist = pca_step_distribution(ca, lattices[lid], successor_cap)
            dist = dists[lid] = ([[after, prob, None, ()] for after, prob in dist.items()], sum(dist.values()))
        base = [lid, *ran, (depth + 1) % period]
        for successor in dist[0]:
            after, prob, after_lid, fresh = successor
            if after_lid is None:  # rebound when first reached, so errors keep their order
                after_lid, fresh = moved(lid, after)
                fresh = tuple((i + 1, rid) for i, rid in fresh)  # a fresh cell's position in a key
                successor[2:] = after_lid, fresh
            key = base.copy()
            key[0] = after_lid
            for i, rid in fresh:
                key[i] = rid
            yield prob, tuple(key)
        if horizon is None and abs(dist[1] - 1.0) > ROW_TOL:
            raise MimicError(f"chain row for s{sid} sums to {dist[1]!r}")

    lid, rows, outer = encode(start)
    return _explore(
        (lid, *rows, 0),
        lambda key: decode((key[0], key[1:-1], outer), 0),
        successors,
        bound,
    )[0]


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
    raises SizeCapError advising Monte Carlo estimation, and a ``bound``
    below 1 raises ValueError. The labeling is called when ``atomic_props``
    is read, never by ``build_dtmc`` itself.
    """
    _require_bound(bound)
    policy = _normalize_policy(input_policy)
    refusal = _expansion_refusal(ma)
    if refusal is not None:
        raise MimicError(refusal)
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
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    _require_horizon(horizon)
    pred = _as_predicate(target)
    check_vocabulary(pred, dtmc.vocabulary)
    store, props, _, _ = _graph(dtmc)
    is_target, offsets, cols, probs = _chain_arrays(store, map(props, range(len(store.keys))), pred)
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

    if horizon is not None:
        for _ in range(horizon):
            x = sweep(x)
        iteration, residual = horizon, 0.0
    else:
        for iteration in range(1, max_iter + 1):
            new = sweep(x)
            residual = float(np.max(np.abs(new - x)))
            x = new
            if residual < tol:
                break
        else:
            raise ConvergenceError(max_iter, residual)
    return CheckResult(
        "probability",
        probability=float(x[0]),
        method="exact-value-iteration",
        error_bound=residual,
        stats={"states": len(dtmc.states), "transitions": dtmc.transition_count, "iterations": iteration},
    )


MC_BLOCK = 4096


def _trial_blocks(trials: int, seed: int):
    """``(size, stream)`` per block of at most ``MC_BLOCK`` trials; block ``j``'s stream is ``derive_stream(seed, j)``.

    Both samplers draw from these blocks, so an estimate does not depend on
    how its trials are partitioned into work.
    """
    for j, done in enumerate(range(0, trials, MC_BLOCK)):
        yield min(MC_BLOCK, trials - done), derive_stream(seed, j)


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
    for n, gen in _trial_blocks(trials, seed):
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
    return hits


def _mc_per_trial(ma, policy, pred, horizon, trials, seed, props_fn) -> int:
    """Hits of trials simulated one ``_replay`` step at a time, each stopped at its first hit."""
    encode, step, decode = _replay(ma, ma.root(), depth=1)
    period = len(policy)
    start = encode(ma_initial(ma))
    hits = 0
    for n, rng in _trial_blocks(trials, seed):
        for _ in range(n):
            state = start
            for t in range(horizon + 1):
                if t:
                    state = step(state, policy[(t - 1) % period], rng)[0]
                if eval_predicate(pred, props_fn(strip_clocks(decode(state, 0)))):
                    hits += 1
                    break
    return hits


# ---------------------------------------------------------------------------
# evidence replay and high-level property dispatch

def replay_path(ma: MimicAutomaton, ts: TransitionSystem, path: Path) -> bool:
    """Re-run a path's macro inputs on ``_replay`` states and confirm every decoded hop matches the graph."""
    cfg = ma_initial(ma, ts.metadata.get("lattice0"))
    if cfg != ts.states[path.states[0]]:
        return False
    encode, step, decode = _replay(ma, ma.root(), depth=1)
    state = encode(cfg)
    for action, sid in zip(path.actions, path.states[1:]):
        state, _, _, per_cell, _, _, output = step(state, action.macro_input, None)
        if per_cell is not None:
            output = _observable_output(ma, tuple(r.output_word for r in per_cell))
        if Action(action.macro_input, output) != action or strip_clocks(decode(state, 0)) != ts.states[sid]:
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
    if prop.kind not in (INVARIANT, REACH, BAD_PREFIX):
        raise PropertyError(f"unknown property kind {prop.kind!r}")
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
            if lattice0 is not None:
                raise PropertyError("Monte Carlo estimation starts from the binding's seed, not from lattice0")
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
    witness = _bad_prefix_witness(ts, bound)(prop.pattern)
    stats = {"states": len(ts.states), "transitions": ts.transition_count, "pattern": prop.pattern.name}
    return CheckResult("holds" if witness is None else "violated", counterexample=witness, stats=stats)
