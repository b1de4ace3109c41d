"""Redundant-executor structures: heterogeneous variants under a dynamic scheduler.

A structure has ``width`` redundant slots. Each slot's cell state selects
which executor variant currently runs there; the scheduler (a cellular
automaton over variant indices) reconfigures the slots once per tick while
the per-slot runs themselves happen under the frozen pre-tick assignment. An
output arbiter votes over the per-slot output words.

Fault injection never mutates shared executors: the cell-state set is
widened with per-slot tagged copies, so a compromised slot keeps routing to
its faulty variant across reconfigurations while everything stays immutable
and replayable.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

from .cellular import (
    AnyCellular,
    CellState,
    Lattice,
    ProbabilisticCellularAutomaton,
)
from .composition import (
    Binding,
    MODE_SA_FROM_CA,
    MimicAutomaton,
    MimicConfiguration,
    SaUnit,
    _stepper,
    has_randomness,
    ma_initial,
)
from .errors import MimicError, ModelValidationError, Violation
from .rng import master_stream
from .sequential import SequentialAutomaton, Word, validate_sa

STRICT_MAJORITY = "strict_majority"
PLURALITY = "plurality"

WIDEN_TABLE_CAP = 250_000  # lifted rule tables beyond this are refused


@dataclass(frozen=True)
class FaultTagged:
    """Cell state carrying a per-slot fault marker.

    The tag sticks to its slot: the lifted scheduler rule computes the base
    transition on untagged values and re-applies the center cell's tag.
    """

    base: CellState
    slot: int

    def __str__(self):
        return f"{self.base}!f{self.slot}"


def base_state(q: CellState) -> CellState:
    return q.base if isinstance(q, FaultTagged) else q


@dataclass(frozen=True)
class VoterPolicy:
    """Output arbiter. ``quorum`` defaults to a strict majority of the width.

    ``strict_majority`` elects the unique most frequent word when its count
    reaches the quorum; any tie or shortfall abstains. ``plurality`` breaks
    ties through ``preferences`` (then lexicographically) and still abstains
    below the quorum.
    """

    kind: str = STRICT_MAJORITY
    quorum: int | None = None
    preferences: tuple[Word, ...] = ()

    def effective_quorum(self, width: int) -> int:
        return self.quorum if self.quorum is not None else width // 2 + 1


def vote(policy: VoterPolicy, words: Sequence[Word]) -> tuple[Word | None, frozenset[int]]:
    """Arbitrate per-slot output words: the elected word and the dissenting slots.

    Abstention (no elected word) reports no dissenters by definition.
    """
    width = len(words)
    quorum = policy.effective_quorum(width)
    counts = Counter(words)
    top = max(counts.values())
    candidates = [w for w, c in counts.items() if c == top]
    voted: Word | None = None
    if top >= quorum:
        if policy.kind == STRICT_MAJORITY:
            if len(candidates) == 1:
                voted = candidates[0]
        elif policy.kind == PLURALITY:
            prefs = list(policy.preferences)

            def rank(w: Word):
                return (prefs.index(w) if w in prefs else len(prefs), w)

            voted = min(candidates, key=rank)
        else:
            raise MimicError(f"unknown voter kind {policy.kind!r}")
    if voted is None:
        return None, frozenset()
    return voted, frozenset(i for i, w in enumerate(words) if w != voted)


@dataclass(frozen=True)
class DhrStructure:
    """Executors indexed by cell state, a scheduler, and an output arbiter."""

    name: str
    executors: tuple[SequentialAutomaton, ...]
    scheduler: AnyCellular
    width: int
    voter: VoterPolicy = field(default_factory=VoterPolicy)
    initial_lattice: Lattice | None = None
    overrides: Mapping[int, SequentialAutomaton] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "executors", tuple(self.executors))
        object.__setattr__(self, "overrides", dict(self.overrides))
        if self.initial_lattice is not None:
            object.__setattr__(self, "initial_lattice", tuple(self.initial_lattice))

    @cached_property
    def automaton(self) -> MimicAutomaton:
        return build_dhr(self)

    def start_lattice(self) -> Lattice:
        if self.initial_lattice is not None:
            return self.initial_lattice
        return (self.scheduler.cell_states[0],) * self.width

    def check(self) -> "DhrStructure":
        report = validate_dhr(self)
        if report:
            raise ModelValidationError(report)
        return self


@dataclass(frozen=True)
class DhrStepReport:
    """One tick: frozen-lattice per-slot runs, then the vote, then the reconfiguration."""

    input_block: Word
    per_slot_outputs: tuple[Word, ...]
    voted_output: Word | None
    dissenters: frozenset[int]
    lattice_before: Lattice
    lattice_after: Lattice


@dataclass(frozen=True)
class SerialDhr:
    """Two or more structures in series: each stage consumes the previous vote."""

    name: str
    stages: tuple[DhrStructure, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))

    @cached_property
    def automata(self) -> tuple[MimicAutomaton, ...]:
        return tuple(stage.automaton for stage in self.stages)

    def check(self) -> "SerialDhr":
        report = validate_serial(self)
        if report:
            raise ModelValidationError(report)
        return self


@dataclass(frozen=True)
class SerialTick:
    """End-to-end record of one serial tick; ``aborted_at`` names an abstaining stage."""

    stage_reports: tuple[DhrStepReport, ...]
    output: Word | None
    aborted_at: int | None


def validate_dhr(d: DhrStructure) -> list[Violation]:
    report: list[Violation] = []
    if not d.executors:
        report.append(Violation("executors-nonempty", d.name, "no executor variants"))
        return report
    inputs = set(d.executors[0].input_alphabet)
    outputs = set(d.executors[0].output_alphabet)
    for sa in d.executors:
        if set(sa.input_alphabet) != inputs or set(sa.output_alphabet) != outputs:
            report.append(Violation("shared-alphabets", sa.name, "alphabet differs across executors"))
        for v in validate_sa(sa):
            report.append(Violation(v.invariant, f"{sa.name}/{v.subject}", v.message))
    if len(d.executors) != len(d.scheduler.cell_states):
        report.append(
            Violation(
                "executors-per-state",
                d.name,
                f"{len(d.executors)} executors for {len(d.scheduler.cell_states)} scheduler states",
            )
        )
    if d.width < 1:
        report.append(Violation("width-positive", d.name, f"width {d.width} must be >= 1"))
    if d.scheduler.width != d.width:
        report.append(
            Violation("scheduler-width", d.name, f"scheduler width {d.scheduler.width} != width {d.width}")
        )
    if d.initial_lattice is not None:
        if len(d.initial_lattice) != d.width:
            report.append(Violation("initial-lattice-width", d.name, "initial lattice width mismatch"))
        else:
            states = set(d.scheduler.cell_states)
            for q in d.initial_lattice:
                if q not in states:
                    report.append(Violation("initial-lattice-range", repr(q), "not a scheduler state"))
    if d.voter.quorum is not None and not (1 <= d.voter.quorum <= d.width):
        report.append(Violation("quorum-range", d.name, f"quorum {d.voter.quorum} outside 1..{d.width}"))
    for slot, sa in sorted(d.overrides.items()):
        if not (0 <= slot < d.width):
            report.append(Violation("override-slot", str(slot), "slot out of range"))
        if set(sa.input_alphabet) != inputs or set(sa.output_alphabet) != outputs:
            report.append(Violation("override-alphabets", sa.name, "faulty variant alphabet mismatch"))
    return report


def validate_serial(s: SerialDhr) -> list[Violation]:
    report: list[Violation] = []
    if len(s.stages) < 2:
        report.append(Violation("serial-length", s.name, "a serial composition needs at least 2 stages"))
    for stage in s.stages:
        for v in validate_dhr(stage):
            report.append(Violation(v.invariant, f"{stage.name}/{v.subject}", v.message))
    for left, right in zip(s.stages, s.stages[1:]):
        if not left.executors or not right.executors:
            continue
        produced = set(left.executors[0].output_alphabet)
        consumed = set(right.executors[0].input_alphabet)
        if produced != consumed:
            report.append(
                Violation(
                    "stage-chaining",
                    f"{left.name}->{right.name}",
                    "voted output alphabet differs from the next stage's input alphabet",
                )
            )
    return report


# ---------------------------------------------------------------------------
# lattice widening for per-slot fault overrides

def _lift(value: CellState, like: CellState) -> CellState:
    return FaultTagged(value, like.slot) if isinstance(like, FaultTagged) else value


def _widened_states(base: tuple, slots: Iterable[int]) -> tuple:
    extra = tuple(FaultTagged(q, slot) for slot in sorted(slots) for q in base)
    return base + extra


def _widen_scheduler(scheduler: AnyCellular, slots: Iterable[int]) -> AnyCellular:
    states = _widened_states(scheduler.cell_states, slots)
    size = 2 * scheduler.radius + 1
    entries = len(states) ** size
    if entries > WIDEN_TABLE_CAP:
        raise MimicError(
            f"widened rule table needs {entries} entries (cap {WIDEN_TABLE_CAP}); "
            "reduce injected slots, states or radius"
        )
    probabilistic = isinstance(scheduler, ProbabilisticCellularAutomaton)
    rule = {}
    for nb in itertools.product(states, repeat=size):
        center = nb[scheduler.radius]
        entry = scheduler.rule[tuple(base_state(q) for q in nb)]
        rule[nb] = tuple((_lift(s, center), p) for s, p in entry) if probabilistic else _lift(entry, center)
    return type(scheduler)(
        name=f"{scheduler.name}+faults",
        cell_states=states,
        width=scheduler.width,
        radius=scheduler.radius,
        boundary=scheduler.boundary,
        boundary_value=scheduler.boundary_value,
        rule=rule,
    )


def build_dhr(d: DhrStructure) -> MimicAutomaton:
    """Realize a structure as a runnable ``sa_from_ca`` composite automaton.

    Slots become lattice cells, the scheduler becomes the lattice rule, and
    every cell state maps to its executor variant. Injected slots appear as
    tagged cell states mapped to the faulty variant.
    """
    index = {q: i for i, q in enumerate(d.scheduler.cell_states)}
    scheduler = d.scheduler
    lattice0 = d.start_lattice()
    cell_map: dict[CellState, SaUnit] = {
        q: SaUnit(d.executors[index[q]].name) for q in d.scheduler.cell_states
    }
    sa_set = {sa.name: sa for sa in d.executors}

    if d.overrides:
        scheduler = _widen_scheduler(d.scheduler, d.overrides)
        for slot, faulty in d.overrides.items():
            sa_set[faulty.name] = faulty
            for q in d.scheduler.cell_states:
                cell_map[FaultTagged(q, slot)] = SaUnit(faulty.name)
        lattice0 = tuple(
            FaultTagged(q, i) if i in d.overrides else q for i, q in enumerate(lattice0)
        )

    binding = Binding(
        name=f"{d.name}.binding",
        mode=MODE_SA_FROM_CA,
        ca=scheduler.name,
        cell_map=cell_map,
        seed=lattice0,
    )
    return MimicAutomaton(
        name=f"dhr:{d.name}",
        sa_set=sa_set,
        ca_set={scheduler.name: scheduler},
        ha_set={},
        bindings={binding.name: binding},
        root_binding=binding.name,
        voter=d.voter,
        metadata={"kind": "dhr", "structure": d.name, "width": str(d.width)},
    )


def dhr_initial(d: DhrStructure) -> MimicConfiguration:
    ma = d.automaton
    return ma_initial(ma, ma.root().seed)


def _dhr_ticker(ma: MimicAutomaton, voter: VoterPolicy):
    """``tick(cfg, block, rng)``: one step of a ``_stepper``, then the vote and the report.

    The vote runs once per distinct tuple of slot words, and fault tags are
    stripped once per distinct lattice.
    """
    step = _stepper(ma, ma.root(), depth=1)
    votes: dict = {}  # slot words -> (voted word, dissenters)
    bases: dict = {}  # lattice -> untagged lattice

    def untagged(lattice: Lattice) -> Lattice:
        base = bases.get(lattice)
        if base is None:
            base = bases[lattice] = tuple(map(base_state, lattice))
        return base

    def tick(cfg: MimicConfiguration, block: Word, rng: np.random.Generator | None):
        new_cfg, per_cell, _, _, _ = step(cfg, block, rng)
        words = tuple(r.output_word for r in per_cell)
        outcome = votes.get(words)
        if outcome is None:
            outcome = votes[words] = vote(voter, words)
        report = DhrStepReport(block, words, *outcome, untagged(cfg.lattice), untagged(new_cfg.lattice))
        return new_cfg, report

    return tick


def inject_fault(d: DhrStructure, slot: int, faulty: SequentialAutomaton) -> DhrStructure:
    """A copy of the structure whose ``slot`` always runs ``faulty``."""
    if not (0 <= slot < d.width):
        raise MimicError(f"slot {slot} out of range 0..{d.width - 1}")
    inputs = set(d.executors[0].input_alphabet)
    outputs = set(d.executors[0].output_alphabet)
    if set(faulty.input_alphabet) != inputs or set(faulty.output_alphabet) != outputs:
        raise ModelValidationError(
            [Violation("override-alphabets", faulty.name, "faulty variant alphabet mismatch")]
        )
    return replace(d, overrides={**d.overrides, slot: faulty})


def dhr_run(
    target: DhrStructure | SerialDhr,
    schedule: Iterable[Iterable[str]],
    seed: int | None = None,
) -> list[DhrStepReport]:
    """Fold ticks over a schedule of input blocks.

    For a serial composition the reports describe the final stage (the
    structure's observable end); an abstaining stage aborts the run after
    emitting its abstention report.
    """
    if isinstance(target, SerialDhr):
        _, ticks = serial_run(target, schedule, seed=seed)  # it stops after an aborted tick
        return [tick.stage_reports[-1] for tick in ticks]
    ma = target.automaton
    rng = master_stream(seed) if has_randomness(ma) else None
    cfg = dhr_initial(target)
    tick = _dhr_ticker(ma, target.voter)
    reports = []
    for block in schedule:
        cfg, report = tick(cfg, tuple(block), rng)
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# serial composition

def serial_initial(s: SerialDhr) -> tuple[MimicConfiguration, ...]:
    return tuple(dhr_initial(stage) for stage in s.stages)


def _serial_ticker(s: SerialDhr):
    """``tick(states, block, rng)``: one serial tick through one ``_dhr_ticker`` per stage."""
    tickers = [_dhr_ticker(ma, stage.voter) for ma, stage in zip(s.automata, s.stages)]

    def tick(states: Sequence[MimicConfiguration], block: Word, rng: np.random.Generator | None):
        new_states = list(states)
        stage_reports: list[DhrStepReport] = []
        word: Word | None = block
        for i, stage_tick in enumerate(tickers):
            new_states[i], report = stage_tick(states[i], word, rng)
            stage_reports.append(report)
            word = report.voted_output
            if word is None:
                return tuple(new_states), SerialTick(tuple(stage_reports), None, i)
        return tuple(new_states), SerialTick(tuple(stage_reports), word, None)

    return tick


def serial_run(
    s: SerialDhr,
    schedule: Iterable[Iterable[str]],
    seed: int | None = None,
) -> tuple[tuple[MimicConfiguration, ...], list[SerialTick]]:
    rng = master_stream(seed) if any(has_randomness(ma) for ma in s.automata) else None
    states = serial_initial(s)
    serial_tick = _serial_ticker(s)
    ticks: list[SerialTick] = []
    for block in schedule:
        states, tick = serial_tick(states, tuple(block), rng)
        ticks.append(tick)
        if tick.aborted_at is not None:
            break
    return states, ticks
