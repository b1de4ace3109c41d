"""One-dimensional cellular automata, deterministic and probabilistic.

A lattice is a plain tuple of cell states. Rules are explicit lookup tables
over every ``(2r+1)``-neighborhood, which keeps validation, serialization and
exact probabilistic expansion uniform. Built-in rule tables (xor, identity,
majority) are expanded at construction time.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Mapping, NamedTuple

if TYPE_CHECKING:
    import numpy as np

from .errors import DimensionError, MimicError, SizeCapError, Violation, checked

CellState = Hashable
Lattice = tuple

PROB_TOL = 1e-9  # absolute tolerance for distribution sums
DEFAULT_STEP_CAP = 1000
DEFAULT_SUCCESSOR_CAP = 4096
RULE_TABLE_CAP = 250_000  # neighborhoods of a rule table, given or lifted; larger rules are refused
MISSING_ENTRY_LINES = 16  # rule-totality violations one rule reports before a count of the rest

BOUNDARY_PERIODIC = "periodic"
BOUNDARY_FIXED = "fixed"

FIXPOINT = "fixpoint"
STEP_CAP = "step_cap"


@dataclass(frozen=True)
class CellularAutomaton:
    """Synchronous 1-D lattice automaton with a total local rule.

    ``rule`` maps each neighborhood tuple (length ``2 * radius + 1``) to a
    successor cell state. ``boundary`` is ``periodic`` or ``fixed``; a fixed
    boundary resolves out-of-range neighbors to ``boundary_value``.
    """

    name: str
    cell_states: tuple
    width: int
    radius: int = 1
    boundary: str = BOUNDARY_PERIODIC
    boundary_value: CellState | None = None
    rule: Mapping[tuple, CellState] = None
    rule_expr: str | None = None  # provenance tag for canonical serialization

    def __post_init__(self):
        object.__setattr__(self, "cell_states", tuple(self.cell_states))
        object.__setattr__(self, "rule", dict(self.rule or {}))

    @property
    def neighborhood_size(self) -> int:
        return 2 * self.radius + 1

    def check(self) -> "CellularAutomaton":
        return checked(self, validate_ca)


@dataclass(frozen=True)
class ProbabilisticCellularAutomaton:
    """Cellular automaton whose local rule yields a distribution per neighborhood.

    ``rule`` maps each neighborhood to a tuple of ``(state, probability)``
    pairs. Distributions are canonicalized at construction: duplicate states
    merged, zero-probability entries dropped, entries ordered by Q.
    """

    name: str
    cell_states: tuple
    width: int
    radius: int = 1
    boundary: str = BOUNDARY_PERIODIC
    boundary_value: CellState | None = None
    rule: Mapping[tuple, tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "cell_states", tuple(self.cell_states))
        order = {q: i for i, q in enumerate(self.cell_states)}
        canonical = {}
        for neighborhood, pairs in dict(self.rule or {}).items():
            merged: dict = {}
            for state, prob in pairs:
                merged[state] = merged.get(state, 0.0) + float(prob)
            entries = tuple(
                (state, merged[state])
                for state in sorted(merged, key=lambda q: order.get(q, len(order)))
                if merged[state] != 0.0
            )
            canonical[neighborhood] = entries
        object.__setattr__(self, "rule", canonical)

    @property
    def neighborhood_size(self) -> int:
        return 2 * self.radius + 1

    def check(self) -> "ProbabilisticCellularAutomaton":
        return checked(self, validate_pca)


AnyCellular = CellularAutomaton | ProbabilisticCellularAutomaton


def _validate_shape(ca: AnyCellular, report: list[Violation]) -> None:
    if ca.width < 1:
        report.append(Violation("width-positive", ca.name, f"width {ca.width} must be >= 1"))
    if ca.radius < 1:
        report.append(Violation("radius-positive", ca.name, f"radius {ca.radius} must be >= 1"))
    states = set(ca.cell_states)
    if len(states) != len(ca.cell_states):
        report.append(Violation("unique-cell-states", ca.name, "duplicate cell states"))
    if ca.boundary not in (BOUNDARY_PERIODIC, BOUNDARY_FIXED):
        report.append(Violation("boundary-kind", ca.name, f"unknown boundary {ca.boundary!r}"))
    if ca.boundary == BOUNDARY_FIXED and ca.boundary_value not in states:
        report.append(
            Violation("boundary-value", ca.name, f"fixed value {ca.boundary_value!r} not a cell state")
        )
    if ca.radius >= 1 and not rule_fits(len(ca.cell_states), ca.radius):
        report.append(Violation("rule-size", ca.name, f"{len(ca.cell_states)}^{ca.neighborhood_size} neighborhoods "
                                f"exceed the cap of {RULE_TABLE_CAP}; use fewer cell states or a smaller radius"))


def rule_fits(states: int, radius: int) -> bool:
    """True when a rule over ``states`` cell states and ``radius`` has at most ``RULE_TABLE_CAP`` neighborhoods."""
    size = 2 * radius + 1
    return states < 2 or size < 64 and states**size <= RULE_TABLE_CAP


def validate_ca(ca: CellularAutomaton) -> list[Violation]:
    def entry(neighborhood: tuple, target, states: set) -> Iterable[Violation]:
        if target in states:
            return ()
        return [Violation("rule-range", repr(neighborhood), f"target {target!r} not a cell state")]

    return _validate_rule(ca, entry)


def validate_pca(pca: ProbabilisticCellularAutomaton) -> list[Violation]:
    def entry(neighborhood: tuple, pairs, states: set) -> list[Violation]:
        report = []
        total = 0.0
        for state, prob in pairs:
            if state not in states:
                report.append(Violation("rule-range", repr(neighborhood), f"target {state!r} not a cell state"))
            if prob < 0:
                report.append(Violation("probability-sign", repr(neighborhood), f"negative probability {prob}"))
            elif prob != prob:  # NaN fails every comparison, the sign's and the sum's too
                report.append(Violation("probability-nan", repr(neighborhood), "probability is not a number"))
            total += prob
        if abs(total - 1.0) > PROB_TOL:
            report.append(Violation("normalization", repr(neighborhood), f"distribution sums to {total!r}"))
        return report

    return _validate_rule(pca, entry)


def _validate_rule(ca: AnyCellular, entry: Callable[[tuple, object, set], Iterable[Violation]]) -> list[Violation]:
    """The shape checks, stopping if any fails; then the rule table's, read once.

    Per neighborhood of ``Q^(2r+1)`` in ``itertools.product`` order, a
    missing entry is a ``rule-totality`` violation and a present one is
    checked by ``entry(neighborhood, its value, the cell states)``; past
    ``MISSING_ENTRY_LINES`` missing entries, one more violation counts the
    rest. Then every key outside ``Q^(2r+1)`` is a ``rule-domain`` violation.
    """
    report: list[Violation] = []
    _validate_shape(ca, report)
    if report:
        return report
    states = set(ca.cell_states)
    missing = 0
    for neighborhood in itertools.product(ca.cell_states, repeat=ca.neighborhood_size):
        if neighborhood in ca.rule:
            report.extend(entry(neighborhood, ca.rule[neighborhood], states))
        else:
            missing += 1
            if missing <= MISSING_ENTRY_LINES:
                report.append(Violation("rule-totality", repr(neighborhood), "missing rule entry"))
    if missing > MISSING_ENTRY_LINES:
        report.append(Violation("rule-totality", ca.name,
                                f"{missing - MISSING_ENTRY_LINES} more missing rule entries"))
    for neighborhood in ca.rule:
        if len(neighborhood) != ca.neighborhood_size or any(q not in states for q in neighborhood):
            report.append(Violation("rule-domain", repr(neighborhood), "neighborhood outside Q^(2r+1)"))
    return report


def _require_width(ca: AnyCellular, lattice: Lattice) -> None:
    if len(lattice) != ca.width:
        raise DimensionError(f"{ca.name}: lattice length {len(lattice)} != width {ca.width}")


def _padded(ca: AnyCellular, lattice: Lattice) -> tuple:
    """The lattice with ``radius`` boundary cells on each side.

    ``padded[i : i + 2r + 1]`` is cell ``i``'s ``2r+1`` neighborhood, boundary
    condition applied; a radius above the width wraps repeatedly.
    """
    lattice = tuple(lattice)
    r = ca.radius
    n = len(lattice)
    if ca.boundary != BOUNDARY_PERIODIC:
        edge = (ca.boundary_value,) * r
        return edge + lattice + edge
    if r > n > 0:
        return tuple(lattice[j % n] for j in range(-r, n + r))
    return lattice[n - r:] + lattice + lattice[:r]


def ca_step(ca: CellularAutomaton, lattice: Lattice) -> Lattice:
    """One synchronous update of the whole lattice; the input is not mutated."""
    _require_width(ca, lattice)
    rule = ca.rule
    padded = _padded(ca, lattice)
    size = 2 * ca.radius + 1
    return tuple(rule[padded[i:i + size]] for i in range(len(lattice)))


@dataclass(frozen=True)
class CaRun:
    """Trace of a run: every lattice from the initial one, and why it stopped."""

    trace: tuple[Lattice, ...]
    terminated_by: str  # FIXPOINT or STEP_CAP


def ca_run(ca: CellularAutomaton, lattice: Lattice, t_max: int = DEFAULT_STEP_CAP) -> CaRun:
    """Iterate ca_step until the lattice repeats or ``t_max`` steps elapsed.

    The trace includes the initial lattice. Reaching a lattice ``x`` with
    ``step(x) == x`` stops without appending the repeat.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    _require_width(ca, lattice)
    trace = [tuple(lattice)]
    current = trace[0]
    for _ in range(t_max):
        nxt = ca_step(ca, current)
        if nxt == current:
            return CaRun(tuple(trace), FIXPOINT)
        trace.append(nxt)
        current = nxt
    if ca_step(ca, current) == current:
        return CaRun(tuple(trace), FIXPOINT)
    return CaRun(tuple(trace), STEP_CAP)


class PcaRows(NamedTuple):
    """One lattice's sampling rows, per cell in index order, as ``pca_rows`` builds them.

    ``cells[i]`` is cell ``i``'s neighborhood row ``(states, sums)``:
    ``states`` lists its successor states with the last one repeated, and
    ``sums`` the running maximum of their left-to-right cumulative
    probabilities, so ``states[bisect_right(sums, u)]`` is the first
    successor whose sum exceeds ``u``, or the last one. (For a checked rule
    the maximum is the sum itself; it keeps the search exact on a rule whose
    sums fall or are NaN.) ``hole`` is the neighborhood of the first cell
    the rule has no entry for, or None; the rows then stop at it.
    """

    cells: tuple
    hole: tuple | None


def pca_rows(pca: ProbabilisticCellularAutomaton, lattice: Lattice, table: dict | None = None) -> PcaRows:
    """The lattice's ``PcaRows``; ``table`` maps each neighborhood to its row, built once into it."""
    table = {} if table is None else table
    padded = _padded(pca, lattice)
    size = 2 * pca.radius + 1
    cells = []
    for i in range(len(lattice)):
        neighborhood = padded[i:i + size]
        row = table.get(neighborhood)
        if row is None:
            pairs = pca.rule.get(neighborhood)
            if pairs is None:
                return PcaRows(tuple(cells), neighborhood)
            states = tuple([state for state, _ in pairs])
            running = itertools.accumulate([prob for _, prob in pairs])
            row = table[neighborhood] = (states + states[-1:], list(itertools.accumulate(running, max)))
        cells.append(row)
    return PcaRows(tuple(cells), None)


def pca_sample(rows: PcaRows, rng: np.random.Generator) -> Lattice:
    """Sample a lattice from its rows: one ``rng.random`` call draws a uniform per row, in cell order.

    A rule hole raises its ``KeyError`` after the draw, so exactly the
    uniforms of the cells before it are drawn.
    """
    uniforms = rng.random(len(rows.cells)).tolist()
    after = tuple([states[bisect_right(sums, u)] for (states, sums), u in zip(rows.cells, uniforms)])
    if rows.hole is not None:
        raise KeyError(rows.hole)
    return after


def pca_step(pca: ProbabilisticCellularAutomaton, lattice: Lattice, rng: np.random.Generator) -> Lattice:
    """Sample one synchronous update; each cell draws one uniform, in index order.

    Cell ``i`` takes the first successor whose cumulative probability
    exceeds its uniform, or the last successor when none does.
    """
    _require_width(pca, lattice)
    return pca_sample(pca_rows(pca, lattice), rng)


def pca_sampler(pca: ProbabilisticCellularAutomaton):
    """``step(lattice, rng)``, equal to ``pca_step``, for many steps of one automaton.

    It builds each distinct lattice's rows, and each neighborhood's row,
    once for its own lifetime, then draws once per call.
    """
    rows_of: dict = {}  # lattice -> its PcaRows
    table: dict = {}  # neighborhood -> its row

    def step(lattice: Lattice, rng: np.random.Generator) -> Lattice:
        rows = rows_of.get(lattice)
        if rows is None:
            _require_width(pca, lattice)
            rows = rows_of[lattice] = pca_rows(pca, lattice, table)
        return pca_sample(rows, rng)

    return step


def pca_step_distribution(
    pca: ProbabilisticCellularAutomaton,
    lattice: Lattice,
    cap: int = DEFAULT_SUCCESSOR_CAP,
) -> dict[Lattice, float]:
    """Exact one-step successor distribution, as a lattice-to-probability map.

    The successor count is the product of per-cell support sizes; when it
    would exceed ``cap`` a SizeCapError advises Monte Carlo sampling instead.
    """
    _require_width(pca, lattice)
    rule = pca.rule
    padded = _padded(pca, lattice)
    size = 2 * pca.radius + 1
    supports = [rule[padded[i:i + size]] for i in range(len(lattice))]
    count = 1
    for pairs in supports:
        count *= len(pairs)
        if count > cap:
            raise SizeCapError(count, cap)
    out: dict[Lattice, float] = {}
    for combo in itertools.product(*supports):
        prob = 1.0
        for _, p in combo:
            prob *= p
        successor = tuple(state for state, _ in combo)
        out[successor] = out.get(successor, 0.0) + prob
    return out


def point_mass_pca(ca: CellularAutomaton) -> ProbabilisticCellularAutomaton:
    """Degenerate probabilistic version of a deterministic rule (all point masses)."""
    rule = {nb: ((target, 1.0),) for nb, target in ca.rule.items()}
    return ProbabilisticCellularAutomaton(
        name=ca.name,
        cell_states=ca.cell_states,
        width=ca.width,
        radius=ca.radius,
        boundary=ca.boundary,
        boundary_value=ca.boundary_value,
        rule=rule,
    )


# Built-in rule tables. `xor` is the radius-1 additive rule (new cell is
# left xor right) and requires exactly two cell states; `identity` copies the
# center for any Q and radius; `majority` needs two states and picks the
# most frequent value in the neighborhood (odd size, so never tied).

BUILTIN_RULES = ("xor", "identity", "majority")


def builtin_rule_table(kind: str, cell_states: tuple, radius: int = 1) -> dict[tuple, CellState]:
    size = 2 * radius + 1
    if kind == "identity":
        return {nb: nb[radius] for nb in itertools.product(cell_states, repeat=size)}
    if len(cell_states) != 2:
        raise MimicError(f"builtin rule {kind!r} needs exactly 2 cell states")
    zero, one = cell_states
    if kind == "xor":
        if radius != 1:
            raise MimicError("builtin rule 'xor' is defined for radius 1")
        table = {}
        for nb in itertools.product(cell_states, repeat=3):
            left, _, right = nb
            table[nb] = one if (left == one) != (right == one) else zero
        return table
    if kind == "majority":
        table = {}
        for nb in itertools.product(cell_states, repeat=size):
            ones = sum(1 for q in nb if q == one)
            table[nb] = one if 2 * ones > size else zero
        return table
    raise MimicError(f"unknown builtin rule {kind!r}")
