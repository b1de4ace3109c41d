"""Exception types and the validation-violation record shared across the library."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One broken invariant, reported as data rather than raised.

    ``invariant`` names the rule that failed, ``subject`` the offending
    element (a state, a symbol pair, a distribution key, ...).
    """

    invariant: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.subject}: {self.message}"

    def within(self, owner: str) -> "Violation":
        """This violation with its subject scoped under ``owner`` (``owner/subject``), as
        ``each_member`` reports a member's violations under the member's name."""
        return Violation(self.invariant, f"{owner}/{self.subject}", self.message)


def each_member(members, validate) -> list[Violation]:
    """``validate`` of each distinct member once (one machine in two slots is one member),
    its violations scoped under the member's name."""
    distinct = [m for i, m in enumerate(members) if m not in members[:i]]
    return [v.within(m.name) for m in distinct for v in validate(m)]


class MimicError(Exception):
    """Base class for all errors raised by this library."""


class ModelValidationError(MimicError):
    """A model failed invariant validation where a caller asked to enforce it."""

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(str(v) for v in self.violations)
        super().__init__(f"{len(self.violations)} validation violation(s): {detail}")


def checked(model, validate):
    """Return ``model`` if ``validate(model)`` reports no violation; raise ModelValidationError if it does."""
    report = validate(model)
    if report:
        raise ModelValidationError(report)
    return model


class InputRejectedError(MimicError):
    """An input symbol lies outside the consuming automaton's alphabet."""

    def __init__(self, symbol, position, cell=None):
        self.symbol = symbol
        self.position = position
        self.cell = cell
        where = f"position {position}" if cell is None else f"cell {cell}, position {position}"
        super().__init__(f"input symbol {symbol!r} rejected at {where}")


class DimensionError(MimicError):
    """A lattice does not match the width of the automaton it is fed to."""


class SizeCapError(MimicError):
    """An exact expansion would exceed its configured cap."""

    def __init__(self, needed, cap, hint="use Monte Carlo sampling instead of exact expansion"):
        self.needed = needed
        self.cap = cap
        super().__init__(f"exact expansion needs {needed} entries, cap is {cap}; {hint}")


class NestingError(MimicError):
    """Unit nesting is cyclic or deeper than the configured maximum."""


class StuckError(MimicError):
    """No active component has an enabled transition on the given symbol."""


class ReadoutError(MimicError):
    """A readout mapping is undefined on the lattice it was applied to."""


class ExplosionError(MimicError):
    """State-space construction exceeded its state bound."""

    def __init__(self, bound, frontier):
        self.bound = bound
        self.frontier = frontier
        super().__init__(
            f"state bound {bound} exceeded with {frontier} states still on the frontier"
        )


class ConvergenceError(MimicError):
    """Value iteration did not converge within the iteration budget."""

    def __init__(self, max_iter, residual):
        self.max_iter = max_iter
        self.residual = residual
        super().__init__(f"no convergence after {max_iter} iterations (residual {residual:.3e})")


class PropertyError(MimicError):
    """A property references unknown propositions or is malformed."""


class ModelFormatError(MimicError):
    """A model document could not be parsed or resolved; carries diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        detail = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(detail or "invalid model document")
