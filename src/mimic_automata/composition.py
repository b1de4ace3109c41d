"""The composite automaton: lattices whose cells host running machines.

A binding couples a cellular automaton with the machines its cell states
host, in one of two modes:

* ``sa_from_ca``: one lattice update per macro tick, preceded by a complete
  run of every cell's hosted unit on the tick's input block. The lattice is
  frozen while units run; afterwards exactly one lattice step fires. Cells
  whose state changed get a freshly initialized unit for the new state;
  unchanged cells keep their unit's run-time state.
* ``ca_from_sa``: one outer machine step per macro tick, implemented by a
  complete lattice run from a seed, a readout of the final lattice into an
  input symbol, and a single step of the outer machine on that symbol.

Units may be plain machines, hierarchical machines, or nested bindings; the
static nesting depth is bounded and validated. The macro clock counts
completed ticks and realizes the equal-duration coupling between one step of
the outer formalism and one complete run of the inner one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

if TYPE_CHECKING:
    import numpy as np

from .cellular import (
    AnyCellular,
    CaRun,
    CellState,
    DEFAULT_STEP_CAP,
    Lattice,
    ProbabilisticCellularAutomaton,
    ca_run,
    ca_step,
    pca_sampler,
)
from .errors import (
    DimensionError,
    InputRejectedError,
    MimicError,
    NestingError,
    ReadoutError,
    StuckError,
    Violation,
    checked,
)
from .hierarchical import HaConfiguration, HierarchicalAutomaton, ha_initial, ha_step_with_output
from .rng import master_stream
from .sequential import RunResult, SequentialAutomaton, State, Symbol, Word, sa_run

MODE_SA_FROM_CA = "sa_from_ca"
MODE_CA_FROM_SA = "ca_from_sa"

DEFAULT_MAX_DEPTH = 4


@dataclass(frozen=True)
class SaUnit:
    """A cell hosting one sequential automaton."""

    sa: str


@dataclass(frozen=True)
class HaUnit:
    """A cell hosting a hierarchical automaton; the whole automaton receives the input."""

    ha: str


@dataclass(frozen=True)
class NestedUnit:
    """A cell hosting an entire nested binding."""

    binding: str


Unit = SaUnit | HaUnit | NestedUnit


@dataclass(frozen=True)
class Readout:
    """Total mapping from final lattices to one input symbol of the outer machine.

    ``cell``: emit the state of one cell (cell states must be symbols of the
    outer alphabet). ``parity``: emit "1" when the count of cells equal to
    ``target`` is odd, else "0". ``table``: explicit lattice-to-symbol map.
    """

    kind: str  # "cell" | "parity" | "table"
    cell: int | None = None
    target: CellState | None = None
    table: Mapping[Lattice, Symbol] | None = None

    def __post_init__(self):
        if self.table is not None:
            object.__setattr__(self, "table", dict(self.table))

    def apply(self, lattice: Lattice) -> Symbol:
        if self.kind == "cell":
            return lattice[self.cell]
        if self.kind == "parity":
            return "1" if sum(1 for q in lattice if q == self.target) % 2 else "0"
        if self.kind == "table":
            if lattice not in self.table:
                raise ReadoutError(f"readout table undefined on lattice {lattice!r}")
            return self.table[lattice]
        raise ReadoutError(f"unknown readout kind {self.kind!r}")


@dataclass(frozen=True)
class Binding:
    """One coupling of a cellular automaton with hosted units.

    ``cell_map`` assigns a unit to every cell state. In mode ``ca_from_sa``
    the binding also names the outer machine and the readout; ``t_max`` caps
    the inner lattice run. ``seed`` is the lattice a nested instance of this
    binding starts from (and the default initial lattice for analyses); when
    absent, the uniform lattice of the first cell state is used.
    """

    name: str
    mode: str
    ca: str
    cell_map: Mapping[CellState, Unit]
    t_max: int = DEFAULT_STEP_CAP
    outer_sa: str | None = None
    readout: Readout | None = None
    seed: Lattice | None = None

    def __post_init__(self):
        object.__setattr__(self, "cell_map", dict(self.cell_map))
        if self.seed is not None:
            object.__setattr__(self, "seed", tuple(self.seed))


@dataclass(frozen=True)
class MimicAutomaton:
    """Named sets of component automata plus the binding that couples them.

    ``root_binding`` names the coupling a run starts from; bindings may refer
    to further bindings through nested units, acyclically and at most
    ``max_depth`` levels deep. ``voter`` is optional redundancy metadata
    attached by the modeling layer; it changes only how observable outputs
    are derived, never the step semantics.
    """

    name: str
    sa_set: Mapping[str, SequentialAutomaton]
    ca_set: Mapping[str, AnyCellular]
    ha_set: Mapping[str, HierarchicalAutomaton]
    bindings: Mapping[str, Binding]
    root_binding: str
    max_depth: int = DEFAULT_MAX_DEPTH
    voter: object | None = None
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "sa_set", dict(self.sa_set))
        object.__setattr__(self, "ca_set", dict(self.ca_set))
        object.__setattr__(self, "ha_set", dict(self.ha_set))
        object.__setattr__(self, "bindings", dict(self.bindings))
        object.__setattr__(self, "metadata", dict(self.metadata))

    def root(self) -> Binding:
        return self.bindings[self.root_binding]

    def check(self) -> "MimicAutomaton":
        return checked(self, validate_ma)


@dataclass(frozen=True)
class MimicConfiguration:
    """Run-time state: the lattice, one unit state per cell, the macro clock.

    Unit states are machine states, hierarchical configurations, or nested
    configurations, indexed by cell. ``outer_state`` carries the outer
    machine's state for ``ca_from_sa`` bindings and is None otherwise.
    """

    lattice: Lattice
    unit_states: tuple
    macro_clock: int = 0
    outer_state: State | None = None

    def __post_init__(self):
        object.__setattr__(self, "lattice", tuple(self.lattice))
        object.__setattr__(self, "unit_states", tuple(self.unit_states))


@dataclass(frozen=True, slots=True)
class MacroTick:
    """Everything observed during one macro step."""

    index: int
    mode: str
    macro_input: object
    lattice_before: Lattice
    lattice_after: Lattice
    per_cell: tuple[RunResult, ...] | None = None
    inner_run: CaRun | None = None
    readout_symbol: Symbol | None = None
    output: Word | None = None


MacroTrace = tuple[MacroTick, ...]


# ---------------------------------------------------------------------------
# validation

def nesting_depths(ma: MimicAutomaton) -> dict[str, int]:
    """Depth of every binding reachable from the root (root depth 1).

    Raises NestingError on reference cycles.
    """
    depths: dict[str, int] = {}

    def walk(name: str, depth: int, stack: tuple[str, ...]) -> None:
        if name in stack:
            raise NestingError(f"binding cycle through {name!r}")
        if depths.get(name, 0) >= depth:
            return
        depths[name] = depth
        binding = ma.bindings.get(name)
        if binding is None:
            return
        for unit in binding.cell_map.values():
            if isinstance(unit, NestedUnit):
                walk(unit.binding, depth + 1, stack + (name,))

    walk(ma.root_binding, 1, ())
    return depths


def validate_ma(ma: MimicAutomaton) -> list[Violation]:
    """Each binding's rules (subject ``binding <name>``), then the root's acyclic nesting and its depth."""
    report: list[Violation] = []
    if ma.root_binding not in ma.bindings:
        report.append(Violation("root-binding", ma.root_binding, "root binding not in bindings"))
        return report

    for name, binding in sorted(ma.bindings.items()):
        subject = f"binding {name}"
        if binding.mode not in (MODE_SA_FROM_CA, MODE_CA_FROM_SA):
            report.append(Violation("binding-mode", subject, f"unknown mode {binding.mode!r}"))
            continue
        ca = ma.ca_set.get(binding.ca)
        if ca is None:
            report.append(Violation("binding-ca", subject, f"cellular automaton {binding.ca!r} not in ca_set"))
            continue
        for q in ca.cell_states:
            if q not in binding.cell_map:
                report.append(Violation("cell-map-totality", subject, f"cell state {q!r} unmapped"))
        for q, unit in binding.cell_map.items():
            if q not in set(ca.cell_states):
                report.append(Violation("cell-map-domain", subject, f"{q!r} is not a cell state"))
            cell = f"cell state {q!r}:"
            if isinstance(unit, SaUnit) and unit.sa not in ma.sa_set:
                report.append(Violation("unit-membership", subject, f"{cell} machine {unit.sa!r} not in sa_set"))
            elif isinstance(unit, HaUnit) and unit.ha not in ma.ha_set:
                report.append(Violation("unit-membership", subject, f"{cell} hierarchy {unit.ha!r} not in ha_set"))
            elif isinstance(unit, NestedUnit) and unit.binding not in ma.bindings:
                report.append(Violation("unit-membership", subject, f"{cell} binding {unit.binding!r} unknown"))
        if binding.seed is not None:
            if len(binding.seed) != ca.width:
                report.append(Violation("seed-width", subject, "seed lattice width mismatch"))
            elif any(q not in set(ca.cell_states) for q in binding.seed):
                report.append(Violation("seed-range", subject, "seed contains non-cell-state values"))

        if binding.mode == MODE_CA_FROM_SA:
            if isinstance(ca, ProbabilisticCellularAutomaton):
                report.append(Violation("inner-run-deterministic", subject,
                                        "ca_from_sa needs a deterministic inner automaton"))
            outer = ma.sa_set.get(binding.outer_sa or "")
            if outer is None:
                report.append(Violation("outer-sa", subject, f"outer machine {binding.outer_sa!r} not in sa_set"))
            if binding.readout is None:
                report.append(Violation("readout-present", subject, "mode ca_from_sa needs a readout"))
            elif outer is not None:
                report.extend(_validate_readout(binding.readout, ca, outer, subject))
        else:
            if binding.outer_sa is not None or binding.readout is not None:
                report.append(Violation("mode-fields", subject,
                                        "outer_sa/readout are only meaningful in mode ca_from_sa"))

    try:
        depths = nesting_depths(ma)
    except NestingError as exc:
        report.append(Violation("binding-acyclic", ma.root_binding, str(exc)))
        return report
    deepest = max(depths.values())
    if deepest > ma.max_depth:
        report.append(
            Violation("nesting-depth", ma.root_binding, f"depth {deepest} exceeds max_depth {ma.max_depth}")
        )
    return report


def _validate_readout(readout: Readout, ca: AnyCellular, outer: SequentialAutomaton, subject: str) -> list[Violation]:
    report: list[Violation] = []
    alphabet = set(outer.input_alphabet)
    if readout.kind == "cell":
        if readout.cell is None or not (0 <= readout.cell < ca.width):
            report.append(Violation("readout-cell", subject, f"cell index {readout.cell!r} out of range"))
        for q in ca.cell_states:
            if q not in alphabet:
                report.append(Violation("readout-range", subject,
                                        f"cell state {q!r} is not an input symbol of {outer.name}"))
    elif readout.kind == "parity":
        if readout.target not in set(ca.cell_states):
            report.append(Violation("readout-parity", subject, f"target {readout.target!r} not a cell state"))
        for sym in ("0", "1"):
            if sym not in alphabet:
                report.append(Violation("readout-range", subject,
                                        f"parity readout emits {sym!r}, missing from {outer.name}'s alphabet"))
    elif readout.kind == "table":
        size = len(ca.cell_states) ** ca.width
        if size > 4096:
            report.append(Violation("readout-table-size", subject,
                                    f"{size} lattices; use a cell or parity readout"))
        else:
            import itertools

            for lattice in itertools.product(ca.cell_states, repeat=ca.width):
                if lattice not in readout.table:
                    report.append(Violation("readout-totality", subject, f"lattice {lattice!r} unmapped"))
            for lattice, sym in readout.table.items():
                if sym not in alphabet:
                    report.append(Violation("readout-range", subject,
                                            f"{sym!r} is not an input symbol of {outer.name}"))
    else:
        report.append(Violation("readout-kind", subject, f"unknown readout kind {readout.kind!r}"))
    return report


# ---------------------------------------------------------------------------
# initialization

def default_seed(ca: AnyCellular) -> Lattice:
    return (ca.cell_states[0],) * ca.width


def binding_seed(ma: MimicAutomaton, binding: Binding) -> Lattice:
    ca = ma.ca_set[binding.ca]
    return binding.seed if binding.seed is not None else default_seed(ca)


def ma_initial(ma: MimicAutomaton, lattice0: Lattice | None = None) -> MimicConfiguration:
    """Configuration with every cell's unit freshly initialized on ``lattice0``, the root binding's seed when None.

    Every clock of the result is 0, so it is its own ``strip_clocks``.
    """
    binding = ma.root()
    lattice = binding_seed(ma, binding) if lattice0 is None else tuple(lattice0)
    return _binding_initial(ma, binding, lattice, depth=1)


def _binding_initial(ma: MimicAutomaton, binding: Binding, lattice: Lattice, depth: int) -> MimicConfiguration:
    if depth > ma.max_depth:
        raise NestingError(f"nesting depth {depth} exceeds max_depth {ma.max_depth}")
    ca = ma.ca_set[binding.ca]
    if len(lattice) != ca.width:
        raise DimensionError(f"{binding.name}: initial lattice length {len(lattice)} != width {ca.width}")
    states = set(ca.cell_states)
    for q in lattice:
        if q not in states:
            raise MimicError(f"{binding.name}: initial lattice value {q!r} is not a cell state")
    units = tuple(_unit_initial(ma, binding.cell_map[q], depth) for q in lattice)
    outer = None
    if binding.mode == MODE_CA_FROM_SA:
        outer = ma.sa_set[binding.outer_sa].initial
    return MimicConfiguration(lattice, units, 0, outer)


def _unit_initial(ma: MimicAutomaton, unit: Unit, depth: int):
    if isinstance(unit, SaUnit):
        return ma.sa_set[unit.sa].initial
    if isinstance(unit, HaUnit):
        return ha_initial(ma.ha_set[unit.ha])
    nested = ma.bindings[unit.binding]
    return _binding_initial(ma, nested, binding_seed(ma, nested), depth + 1)


# ---------------------------------------------------------------------------
# unit runs (mode sa_from_ca, lattice frozen)

def _run_ha_unit(ha: HierarchicalAutomaton, config: HaConfiguration, block: Word) -> tuple[HaConfiguration, RunResult]:
    out: list[Symbol] = []
    steps = 0
    for symbol in block:
        try:
            config, output, _ = ha_step_with_output(ha, config, symbol)
        except StuckError:
            return config, RunResult(config, False, tuple(out), steps)
        out.append(output)
        steps += 1
    accepted = config.state_of(ha.root) in ha.by_name[ha.root].finals
    return config, RunResult(config, accepted, tuple(out), steps)


def _run_unit(
    ma: MimicAutomaton,
    unit: Unit,
    state,
    block: Word,
    rng: np.random.Generator | None,
    depth: int,
    cell: int,
    replays: dict,
) -> tuple[object, RunResult]:
    """One unit's run on a block; ``replays`` holds one ``_replay`` per nested binding.

    A nested unit steps its configuration's replay state. Given a
    ``_Loose`` entry, it encodes the configuration at most once, into the
    entry, and returns its final one as a ``_Loose`` entry too.
    """
    if isinstance(unit, SaUnit):
        try:
            result = sa_run(ma.sa_set[unit.sa], block, start=state)
        except InputRejectedError as exc:
            raise InputRejectedError(exc.symbol, exc.position, cell=cell) from None
        return result.final_state, result
    if isinstance(unit, HaUnit):
        return _run_ha_unit(ma.ha_set[unit.ha], state, block)

    nested = ma.bindings[unit.binding]
    replay = replays.get(unit.binding)
    if replay is None:
        replay = replays[unit.binding] = _replay(ma, nested, depth + 1)
    encode, step, decode = replay
    box = state if isinstance(state, _Loose) else None
    if box is None:
        begin = encode(state)
    else:
        if box.ids is None:
            box.ids = encode(box.state)
        begin, state = box.ids, box.state
    if nested.mode == MODE_SA_FROM_CA:
        end, _, _, per_cell, _, _, output = step(begin, block, rng)
        cfg = decode(end, state.macro_clock + 1)
        # the first cell is the binding's designated observable
        result = RunResult(cfg, per_cell[0].accepted if per_cell else True, output, len(block))
    else:
        end, *_, output = step(begin, state.lattice, rng)  # a nested lattice runs from its own
        cfg = decode(end, state.macro_clock + 1)
        result = RunResult(cfg, cfg.outer_state in ma.sa_set[nested.outer_sa].finals, output, 1)
    return (cfg if box is None else _Loose(cfg, end)), result


# ---------------------------------------------------------------------------
# macro steps

def _fresh_units(
    ma: MimicAutomaton,
    binding: Binding,
    before: Lattice,
    after: Lattice,
    depth: int,
) -> tuple[tuple[int, object], ...]:
    """``(cell, fresh unit state)`` for every cell whose state the lattice step changed."""
    fresh = []
    for i, q_new in enumerate(after):
        if q_new != before[i]:
            fresh.append((i, _unit_initial(ma, binding.cell_map[q_new], depth)))
    return tuple(fresh)


def _numbering(values: list) -> Callable[[object], int]:
    """``number(value)``: its index in ``values``, appending it when new."""
    ids: dict = {}

    def number(value) -> int:
        index = ids.get(value)
        if index is None:
            index = ids[value] = len(values)
            values.append(value)
        return index

    return number


def _unit_tables(ma: MimicAutomaton, binding: Binding, depth: int, canonical: bool):
    """The tick table of an ``sa_from_ca`` binding: ``(lattices, encode, decode, run, move, moved)``.

    Lattices and rows are numbered per call in first-seen order:
    ``lattices[lid]`` is a lattice, and a row is its ``(unit, unit state)``
    pair, ``rows[rid]``, the unit being the one ``binding.cell_map`` holds
    (None for a cell state it does not map). ``encode(cfg)`` gives a
    configuration's state ``(lattice id, entries, outer state)``, an entry
    per cell: a row id or, unless ``canonical``, a nested unit's ``_Loose``
    entry, since its macro clock makes every run new; with ``canonical``
    nested states are clock-stripped rows. That is all ``canonical`` decides.
    ``decode(state, clock)`` gives the configuration back.
    ``run(lid, entries, block, rng)``, the units' half of a tick, gives
    each cell's successor entry, before rebinding, and the per-cell
    ``RunResult``s. A row learns both per block on first use; a tick whose
    rows are all learnt is one lookup per cell, and otherwise unlearnt and
    loose cells run in index order, and a cell whose state maps to no unit
    raises the state's ``KeyError``.
    ``move(lid, rng)``, the lattice half, gives ``(successor id, (cell,
    fresh entry) pairs)``: a deterministic lattice steps once per id, a
    probabilistic one draws every call through one ``pca_sampler`` and is
    rebound once per (lattice id, successor). ``moved(lid, successor)`` is
    a given successor's pair, unmemoised. A run or step that raises is
    never stored. Each nested binding gets one ``_replay`` for the table's
    life.
    """
    ca = ma.ca_set[binding.ca]
    cell_map = binding.cell_map
    loose = set() if canonical else {q for q, unit in cell_map.items() if isinstance(unit, NestedUnit)}
    lattices: list = []  # lattice id -> lattice
    rows: list = []  # row id -> (unit, unit state)
    lattice_id = _numbering(lattices)
    row_id = _numbering(rows)
    learnt: dict = {}  # block -> ({row id: successor row id}, {row id: RunResult})
    replays: dict = {}  # nested binding name -> its _replay

    def entry(q: CellState, state):
        return _Loose(state) if q in loose else row_id((cell_map.get(q), state))

    def encode(cfg: MimicConfiguration) -> tuple:
        return lattice_id(cfg.lattice), list(map(entry, cfg.lattice, cfg.unit_states)), cfg.outer_state

    def decode(state: tuple, clock: int) -> MimicConfiguration:
        lid, entries, outer = state
        units = [e.state if isinstance(e, _Loose) else rows[e][1] for e in entries]
        return MimicConfiguration(lattices[lid], units, clock, outer)

    def run(lid: int, entries, block: Word, rng: np.random.Generator | None) -> tuple[list, tuple]:
        table = learnt.get(block)
        if table is None:
            table = learnt[block] = ({}, {})
        nexts, results = table
        nxt = list(map(nexts.get, entries))
        if None not in nxt:  # every row learnt; a _Loose entry, which hashes by identity, always misses
            return nxt, tuple(map(results.__getitem__, entries))
        lattice = lattices[lid]
        nxt, per_cell = [], []
        for i, e in enumerate(entries):
            if e in nexts:
                nxt.append(nexts[e])
                per_cell.append(results[e])
                continue
            loose_entry = isinstance(e, _Loose)
            unit, state = (cell_map[lattice[i]], e) if loose_entry else rows[e]
            if unit is None:
                raise KeyError(lattice[i])
            final, result = _run_unit(ma, unit, state, block, rng, depth, i, replays)
            if not loose_entry:
                if canonical and isinstance(final, MimicConfiguration):
                    final = strip_clocks(final)
                final = nexts[e] = row_id((unit, final))
                results[e] = result
            nxt.append(final)
            per_cell.append(result)
        return nxt, tuple(per_cell)

    def moved(lid: int, after: Lattice) -> tuple:
        fresh = _fresh_units(ma, binding, lattices[lid], after, depth)
        return lattice_id(after), tuple((i, entry(after[i], u)) for i, u in fresh)

    if isinstance(ca, ProbabilisticCellularAutomaton):
        sample = pca_sampler(ca)
        drawn: dict = {}  # (lattice id, sampled successor) -> its moved pair

        def move(lid: int, rng: np.random.Generator | None) -> tuple:
            if rng is None:
                raise MimicError(f"{binding.name}: probabilistic lattice step needs a random stream")
            after = sample(lattices[lid], rng)
            succ = drawn.get((lid, after))
            if succ is None:
                succ = drawn[(lid, after)] = moved(lid, after)
            return succ
    else:
        moves: dict = {}  # lattice id -> (successor id, (cell, fresh entry) pairs)

        def move(lid: int, rng: np.random.Generator | None) -> tuple:
            succ = moves.get(lid)
            if succ is None:
                succ = moves[lid] = moved(lid, ca_step(ca, lattices[lid]))
            return succ

    return lattices, encode, decode, run, move, moved


class _Loose:
    """A replay state's entry for a nested unit: its configuration, and that one's replay state once encoded.

    It hashes by identity, so a row table's lookup of it misses at once.
    """

    __slots__ = ("state", "ids")

    def __init__(self, state, ids=None):
        self.state = state
        self.ids = ids


def _replay(ma: MimicAutomaton, binding: Binding, depth: int):
    """``(encode, step, decode)``: macro steps of ``binding`` on interned states, its mode picked once, here.

    ``encode(cfg)`` gives a configuration's state, ``decode(state, clock)``
    the configuration back, and ``step(state, entry, rng)``, for an input
    block (``sa_from_ca``) or an inner seed lattice (``ca_from_sa``), the
    next state and the last six fields of a ``MacroTick``.

    An ``sa_from_ca`` state is encoded by the binding's tick table
    (``_unit_tables``, not ``canonical``), and a step is the table's
    ``run``, then its ``move``: a learnt tick is one ``run`` and one
    ``move`` call, lookups over row ids and the lattice id that build no
    configuration and hash no deterministic lattice. A learnt row cannot
    fail or draw, so unit runs, uniforms and the first error are the single
    step's. A ``ca_from_sa`` state holds a configuration's fields; its inner
    run happens once per seed lattice, its fresh units once per (lattice,
    final lattice).
    """
    if binding.mode == MODE_SA_FROM_CA:
        lattices, encode, decode, run, move, _ = _unit_tables(ma, binding, depth, False)

        def step(state: tuple, block: Word, rng: np.random.Generator | None):
            lid, entries, outer = state
            nxt, per_cell = run(lid, entries, block, rng)
            after_lid, fresh = move(lid, rng)
            for i, e in fresh:
                nxt[i] = e
            output = per_cell[0].output_word if per_cell else ()
            return (after_lid, nxt, outer), lattices[lid], lattices[after_lid], per_cell, None, None, output

        return encode, step, decode

    ca = ma.ca_set[binding.ca]
    outer = ma.sa_set[binding.outer_sa]
    alphabet = set(outer.input_alphabet)
    cell_states = set(ca.cell_states)
    inner_runs: dict = {}  # seed lattice -> its ca_run
    fresh_of: dict = {}  # (lattice, inner run's final lattice) -> fresh units

    def encode(cfg: MimicConfiguration) -> tuple:
        return cfg.lattice, cfg.unit_states, cfg.outer_state

    def decode(state: tuple, clock: int) -> MimicConfiguration:
        return MimicConfiguration(state[0], state[1], clock, state[2])

    def step(state: tuple, seed_lattice: Lattice, rng: np.random.Generator | None):
        lattice, units, outer_state = state
        inner = inner_runs.get(seed_lattice)
        if inner is None:
            for q in seed_lattice:
                if q not in cell_states:
                    raise MimicError(f"{binding.name}: seed lattice value {q!r} is not a cell state")
            inner = inner_runs[seed_lattice] = ca_run(ca, seed_lattice, binding.t_max)
        final = inner.trace[-1]
        symbol = binding.readout.apply(final)
        if symbol not in alphabet:
            raise ReadoutError(f"{binding.name}: readout produced {symbol!r}, not an input of {outer.name}")
        key = (outer_state, symbol)
        if key not in outer.transitions:
            raise StuckError(f"{binding.name}: outer machine has no transition on {key!r}")
        fresh = fresh_of.get((lattice, final))
        if fresh is None:
            fresh = fresh_of[(lattice, final)] = _fresh_units(ma, binding, lattice, final, depth)
        units = list(units)
        for i, unit_state in fresh:
            units[i] = unit_state
        nxt = (final, tuple(units), outer.transitions[key])
        return nxt, lattice, final, None, inner, symbol, (outer.outputs[key],)

    return encode, step, decode


def has_randomness(ma: MimicAutomaton) -> bool:
    """True when a probabilistic lattice is reachable from the root binding; NestingError on a cycle."""
    return any(isinstance(ma.ca_set[ma.bindings[name].ca], ProbabilisticCellularAutomaton)
               for name in nesting_depths(ma) if name in ma.bindings)


def ma_run(
    ma: MimicAutomaton,
    cfg: MimicConfiguration,
    schedule: Iterable,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[MimicConfiguration, MacroTrace]:
    """Fold the mode-appropriate macro step over a schedule.

    Schedule entries are input blocks in mode ``sa_from_ca`` and inner seed
    lattices in mode ``ca_from_sa``. With probabilistic components the run is
    a pure function of ``(ma, cfg, schedule, seed)``. The fold carries
    ``_replay`` states from tick to tick and builds one configuration, the
    final one.
    """
    binding = ma.root()
    if rng is None and has_randomness(ma):
        rng = master_stream(seed)
    encode, step, decode = _replay(ma, binding, depth=1)
    state = encode(cfg)
    clock = cfg.macro_clock
    ticks: list[MacroTick] = []
    for entry in schedule:
        entry = tuple(entry)
        state, *fields = step(state, entry, rng)
        ticks.append(MacroTick(clock, binding.mode, entry, *fields))
        clock += 1
    return decode(state, clock), tuple(ticks)


# ---------------------------------------------------------------------------
# structural helpers shared by the analysis layers

def strip_clocks(cfg: MimicConfiguration) -> MimicConfiguration:
    """The configuration with all macro clocks (recursively) set to zero.

    Used as the canonical identity for state-space construction: two
    configurations that differ only in how long they took to reach are the
    same state.
    """
    units = tuple(
        strip_clocks(u) if isinstance(u, MimicConfiguration) else u for u in cfg.unit_states
    )
    return replace(cfg, unit_states=units, macro_clock=0)


def common_input_alphabet(ma: MimicAutomaton, binding: Binding | None = None) -> tuple[Symbol, ...]:
    """Symbols accepted by every input-consuming unit under a binding.

    Hierarchical units contribute the union of their members' alphabets;
    nested ``ca_from_sa`` units consume no external input and are skipped.
    Order follows the first contributing alphabet.
    """
    binding = binding or ma.root()
    alphabets: list[tuple[Symbol, ...]] = []

    def collect(b: Binding) -> None:
        for unit in b.cell_map.values():
            if isinstance(unit, SaUnit):
                alphabets.append(ma.sa_set[unit.sa].input_alphabet)
            elif isinstance(unit, HaUnit):
                union: list[Symbol] = []
                for sa in ma.ha_set[unit.ha].sas:
                    for sym in sa.input_alphabet:
                        if sym not in union:
                            union.append(sym)
                alphabets.append(tuple(union))
            else:
                nested = ma.bindings[unit.binding]
                if nested.mode == MODE_SA_FROM_CA:
                    collect(nested)

    collect(binding)
    if not alphabets:
        return ()
    first = alphabets[0]
    common = set(first)
    for alphabet in alphabets[1:]:
        common &= set(alphabet)
    return tuple(sym for sym in first if sym in common)
