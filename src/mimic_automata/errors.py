"""Exception types, the validation-violation record and the value-class decorator
shared across the library."""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter


def value_class(cls=None, /, *, frozen=False):
    """``@dataclass(frozen=...)`` without generating code for each class.

    ``dataclass(init=False, repr=False, eq=False)`` records the fields and
    runs no ``exec``, so ``fields``, ``replace``, ``is_dataclass`` and
    ``__match_args__`` work as before. The methods it would have generated
    are the closures below: ``__init__`` (positional or keyword arguments,
    defaults, ``default_factory``, then ``__post_init__``), ``__repr__``,
    ``__eq__`` and ``__hash__`` over one field getter, and, when frozen,
    ``__setattr__`` and ``__delattr__`` raising ``FrozenInstanceError``. A
    method written in the class wins. The class has no ``__slots__``, and
    every field is an ``__init__`` argument.
    """
    if cls is None:
        return lambda cls: value_class(cls, frozen=frozen)
    dataclass(init=False, repr=False, eq=False)(cls)
    specs = fields(cls)
    names = tuple(f.name for f in specs)
    arity = len(names)
    get = attrgetter(*names)
    key = get if arity > 1 else lambda self: (get(self),)  # a tuple, as dataclass compares and hashes
    post_init = hasattr(cls, "__post_init__")
    set_field = object.__setattr__  # as dataclass sets them: the values stay inline, with no __dict__ object

    def bind(args, kwargs):
        if len(args) > arity:
            raise TypeError(f"{cls.__qualname__}() takes {arity} positional arguments but {len(args)} were given")
        values, missing = list(args), []
        for f in specs[len(args):]:
            if f.name in kwargs:
                values.append(kwargs.pop(f.name))
            elif f.default is not MISSING:
                values.append(f.default)
            elif f.default_factory is not MISSING:
                values.append(f.default_factory())
            else:
                missing.append(f.name)
        if kwargs:
            raise TypeError(f"{cls.__qualname__}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required arguments: {', '.join(missing)}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__}
    if frozen:
        methods.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    if cls.__dict__.get("__hash__") is None:  # as dataclass: an unfrozen class with eq is unhashable
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    return cls


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


@value_class(frozen=True)
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
