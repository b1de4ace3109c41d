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
from typing import TYPE_CHECKING, Iterable, Mapping

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


@dataclass(frozen=True)
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
            if isinstance(unit, SaUnit) and unit.sa not in ma.sa_set:
                report.append(Violation("unit-membership", subject, f"machine {unit.sa!r} not in sa_set"))
            elif isinstance(unit, HaUnit) and unit.ha not in ma.ha_set:
                report.append(Violation("unit-membership", subject, f"hierarchy {unit.ha!r} not in ha_set"))
            elif isinstance(unit, NestedUnit) and unit.binding not in ma.bindings:
                report.append(Violation("unit-membership", subject, f"binding {unit.binding!r} unknown"))
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


def ma_initial(ma: MimicAutomaton, lattice0: Lattice) -> MimicConfiguration:
    """Configuration with every cell's unit freshly initialized on ``lattice0``."""
    return _binding_initial(ma, ma.root(), tuple(lattice0), depth=1)


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
    steppers: dict,
) -> tuple[object, RunResult]:
    """One unit's run on a block; ``steppers`` holds one ``_stepper`` per nested binding."""
    if isinstance(unit, SaUnit):
        try:
            result = sa_run(ma.sa_set[unit.sa], block, start=state)
        except InputRejectedError as exc:
            raise InputRejectedError(exc.symbol, exc.position, cell=cell) from None
        return result.final_state, result
    if isinstance(unit, HaUnit):
        return _run_ha_unit(ma.ha_set[unit.ha], state, block)

    nested = ma.bindings[unit.binding]
    step = steppers.get(unit.binding)
    if step is None:
        step = steppers[unit.binding] = _stepper(ma, nested, depth + 1)
    if nested.mode == MODE_SA_FROM_CA:
        cfg, per_cell, _, _, output = step(state, block, rng)
        # the first cell is the binding's designated observable
        return cfg, RunResult(cfg, per_cell[0].accepted if per_cell else True, output, len(block))
    cfg, _, _, _, output = step(state, state.lattice, rng)  # a nested lattice runs from its own
    return cfg, RunResult(cfg, cfg.outer_state in ma.sa_set[nested.outer_sa].finals, output, 1)


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


def _unit_tables(ma: MimicAutomaton, binding: Binding, depth: int, canonical: bool):
    """``run``, ``rebind`` and ``advance``: the ``sa_from_ca`` work of one call, memoised.

    ``run(lattice, unit_states, block, rng)`` gives the frozen lattice's
    final unit states and per-cell ``RunResult``s (output words when
    ``canonical``). Each (unit, unit state, block) runs once and each nested
    binding gets one stepper; nested units carry macro clocks, so they run
    every time without a lookup, unless ``canonical``: then states are
    clock-stripped, nested runs memoised and their finals stripped. Cells
    run in index order, a run that raises is never stored, and an unmapped
    cell state raises its ``KeyError`` at its own cell. ``rebind(lattice,
    after)`` gives the ``_fresh_units`` of a lattice step, once per pair.
    ``advance(lattice, rng)`` gives the lattice step's successor and its
    ``rebind``: a deterministic lattice's ``ca_step`` once per lattice (a
    step that raises is never stored), a probabilistic one's sample every
    call, from one ``pca_sampler`` that builds each lattice's rows once.
    """
    ca = ma.ca_set[binding.ca]
    unit_ids: dict = {}  # distinct units in first-seen order
    uid_of = {q: unit_ids.setdefault(unit, len(unit_ids)) for q, unit in binding.cell_map.items()}
    units = list(unit_ids)
    unmapped = len(units)  # the unit id of an unmapped cell state: its table stays empty
    memoised = [canonical or not isinstance(unit, NestedUnit) for unit in units] + [True]
    runs: dict = {}  # block -> [unit id] -> unit state -> (final state, RunResult or output word), or None
    unit_ids_of: dict = {}  # lattice -> unit id per cell
    fresh_of: dict = {}  # (lattice, successor lattice) -> fresh units
    moves: dict = {}  # lattice -> (its ca_step successor, the successor's fresh units)
    steppers: dict = {}  # nested binding name -> its stepper

    def run(lattice: Lattice, unit_states: tuple, block: Word, rng: np.random.Generator | None):
        uids = unit_ids_of.get(lattice)
        if uids is None:
            uids = unit_ids_of[lattice] = tuple(uid_of.get(q, unmapped) for q in lattice)
        tables = runs.get(block)
        if tables is None:
            tables = runs[block] = [{} if memo else None for memo in memoised]
        ran = []
        per_cell = []
        for uid, state in zip(uids, unit_states):
            table = tables[uid]
            hit = None if table is None else table.get(state)
            if hit is None:
                i = len(ran)  # the cell's index
                if uid == unmapped:
                    raise KeyError(lattice[i])
                hit = _run_unit(ma, units[uid], state, block, rng, depth, i, steppers)
                if canonical:
                    final, result = hit
                    if isinstance(final, MimicConfiguration):
                        final = strip_clocks(final)
                    hit = (final, result.output_word)
                if table is not None:
                    table[state] = hit
            ran.append(hit[0])
            per_cell.append(hit[1])
        return ran, per_cell

    def rebind(lattice: Lattice, after: Lattice) -> tuple[tuple[int, object], ...]:
        fresh = fresh_of.get((lattice, after))
        if fresh is None:
            fresh = fresh_of[(lattice, after)] = _fresh_units(ma, binding, lattice, after, depth)
        return fresh

    if isinstance(ca, ProbabilisticCellularAutomaton):
        sample = pca_sampler(ca)

        def advance(lattice: Lattice, rng: np.random.Generator | None):
            if rng is None:
                raise MimicError(f"{binding.name}: probabilistic lattice step needs a random stream")
            after = sample(lattice, rng)
            return after, rebind(lattice, after)

        return run, rebind, advance

    def advance(lattice: Lattice, rng: np.random.Generator | None):
        move = moves.get(lattice)
        if move is None:
            after = ca_step(ca, lattice)
            move = moves[lattice] = (after, rebind(lattice, after))
        return move

    return run, rebind, advance


def _stepper(ma: MimicAutomaton, binding: Binding, depth: int):
    """``step(cfg, entry, rng)``: one macro step of ``binding``, its mode picked once, here.

    An entry is an input block (``sa_from_ca``) or an inner seed lattice
    (``ca_from_sa``). ``step`` returns the next configuration and the last
    four fields of a ``MacroTick``, from one ``_unit_tables`` for all steps:
    a deterministic lattice steps once per distinct lattice, a probabilistic
    one builds its rows once per distinct lattice and draws once per tick,
    and an inner run happens once per distinct seed.
    """
    ca = ma.ca_set[binding.ca]
    run, rebind, advance = _unit_tables(ma, binding, depth, canonical=False)

    if binding.mode == MODE_SA_FROM_CA:

        def step(cfg: MimicConfiguration, block: Word, rng: np.random.Generator | None):
            lattice = cfg.lattice
            ran, results = run(lattice, cfg.unit_states, block, rng)
            after, fresh = advance(lattice, rng)
            for i, unit_state in fresh:
                ran[i] = unit_state
            new_cfg = MimicConfiguration(after, ran, cfg.macro_clock + 1, cfg.outer_state)
            return new_cfg, tuple(results), None, None, results[0].output_word if results else ()

        return step

    outer = ma.sa_set[binding.outer_sa]
    alphabet = set(outer.input_alphabet)
    cell_states = set(ca.cell_states)
    inner_runs: dict = {}  # seed lattice -> its ca_run

    def step(cfg: MimicConfiguration, seed_lattice: Lattice, rng: np.random.Generator | None):
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
        key = (cfg.outer_state, symbol)
        if key not in outer.transitions:
            raise StuckError(f"{binding.name}: outer machine has no transition on {key!r}")
        units = list(cfg.unit_states)
        for i, unit_state in rebind(cfg.lattice, final):
            units[i] = unit_state
        new_cfg = MimicConfiguration(final, units, cfg.macro_clock + 1, outer.transitions[key])
        return new_cfg, None, inner, symbol, (outer.outputs[key],)

    return step


def has_randomness(ma: MimicAutomaton) -> bool:
    """True when a probabilistic lattice is reachable from the root binding."""
    seen: set[str] = set()

    def walk(name: str) -> bool:
        if name in seen:
            return False
        seen.add(name)
        binding = ma.bindings[name]
        if isinstance(ma.ca_set[binding.ca], ProbabilisticCellularAutomaton):
            return True
        return any(
            walk(unit.binding)
            for unit in binding.cell_map.values()
            if isinstance(unit, NestedUnit)
        )

    return walk(ma.root_binding)


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
    a pure function of ``(ma, cfg, schedule, seed)``.
    """
    binding = ma.root()
    if rng is None and has_randomness(ma):
        rng = master_stream(seed)
    step = _stepper(ma, binding, depth=1)
    ticks: list[MacroTick] = []
    for entry in schedule:
        entry = tuple(entry)
        before = cfg
        cfg, *fields = step(cfg, entry, rng)
        ticks.append(MacroTick(before.macro_clock, binding.mode, entry, before.lattice, cfg.lattice, *fields))
    return cfg, tuple(ticks)


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
