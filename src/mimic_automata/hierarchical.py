"""Hierarchical automata: trees of sequential machines via refinement functions.

``gamma`` refines a ``(machine, state)`` pair into a set of child machines
that become active whenever that state is. A configuration is the set of
active machines with their current states; the root is always active.

Step semantics (statechart style, one documented switch point): on a symbol,
the shallowest active machines with an enabled transition fire. Machines at
that depth live in disjoint subtrees, so simultaneous firing is well defined.
When a fired transition changes its machine's state, every descendant of the
old state is deactivated and the refinements of the entered state activate at
their initial states; a self-loop keeps its descendants untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .errors import StuckError, Violation, checked, each_member
from .sequential import SequentialAutomaton, State, Symbol, validate_sa


@dataclass(frozen=True)
class HierarchicalAutomaton:
    """Tree of sequential automata; ``root`` names the top machine."""

    name: str
    sas: tuple[SequentialAutomaton, ...]
    root: str
    gamma: Mapping[tuple[str, State], frozenset[str]]

    def __post_init__(self):
        object.__setattr__(self, "sas", tuple(self.sas))
        object.__setattr__(
            self, "gamma", {key: frozenset(value) for key, value in dict(self.gamma).items()}
        )

    @cached_property
    def by_name(self) -> dict[str, SequentialAutomaton]:
        return {sa.name: sa for sa in self.sas}

    @cached_property
    def depth(self) -> dict[str, int]:
        out = {self.root: 0}
        frontier = [self.root]
        while frontier:
            name = frontier.pop()
            for (owner, _), children in self.gamma.items():
                if owner != name:
                    continue
                for child in children:
                    if child not in out:
                        out[child] = out[name] + 1
                        frontier.append(child)
        return out

    def refinements(self, sa_name: str, state: State) -> frozenset[str]:
        return self.gamma.get((sa_name, state), frozenset())

    def check(self) -> "HierarchicalAutomaton":
        return checked(self, validate_ha)


@dataclass(frozen=True)
class HaConfiguration:
    """Active machines and their states, stored sorted by machine name."""

    active: tuple[tuple[str, State], ...]

    def __post_init__(self):
        object.__setattr__(self, "active", tuple(sorted(dict(self.active).items())))

    def as_dict(self) -> dict[str, State]:
        return dict(self.active)

    def state_of(self, sa_name: str) -> State:
        for name, state in self.active:
            if name == sa_name:
                return state
        raise KeyError(sa_name)


def validate_ha(ha: HierarchicalAutomaton) -> list[Violation]:
    """The tree's own rules (``ha_rules``), then each distinct machine's, as ``machine/subject``."""
    return ha_rules(ha) + each_member(ha.sas, validate_sa)


def ha_rules(ha: HierarchicalAutomaton) -> list[Violation]:
    report: list[Violation] = []
    names = [sa.name for sa in ha.sas]
    if len(set(names)) != len(names):
        report.append(Violation("unique-members", ha.name, "duplicate member machine names"))
    members = set(names)
    if ha.root not in members:
        report.append(Violation("root-membership", ha.root, "root is not a member machine"))
        return report

    seen: dict[str, tuple[str, State]] = {}
    for (owner, state), children in sorted(ha.gamma.items()):
        subject = f"({owner},{state})"
        if owner not in members:
            report.append(Violation("gamma-domain", subject, "owner machine unknown"))
            continue
        if state not in ha.by_name[owner].states:
            report.append(Violation("gamma-domain", subject, "owner state unknown"))
        for child in sorted(children):
            if child not in members:
                report.append(Violation("gamma-target", subject, f"child {child!r} unknown"))
                continue
            if child == ha.root:
                report.append(Violation("tree-root", child, "root appears in a gamma image"))
            if child in seen:
                report.append(
                    Violation("tree-unique-parent", child, f"already refined under {seen[child]}")
                )
            seen[child] = (owner, state)

    reachable = set(ha.depth)
    for name in sorted(members - reachable):
        report.append(Violation("tree-connected", name, "machine unreachable from root via gamma"))
    return report


def _activate(ha: HierarchicalAutomaton, active: dict[str, State], sa_name: str) -> None:
    """Put a machine at its initial state and recursively open its refinements."""
    sa = ha.by_name[sa_name]
    active[sa_name] = sa.initial
    for child in sorted(ha.refinements(sa_name, sa.initial)):
        _activate(ha, active, child)


def _deactivate_descendants(ha: HierarchicalAutomaton, active: dict[str, State], sa_name: str, state: State) -> None:
    for child in ha.refinements(sa_name, state):
        if child in active:
            _deactivate_descendants(ha, active, child, active[child])
            del active[child]


def ha_initial(ha: HierarchicalAutomaton) -> HaConfiguration:
    """Root at its initial state, closed under refinement of initial states."""
    active: dict[str, State] = {}
    _activate(ha, active, ha.root)
    return HaConfiguration(tuple(active.items()))


def ha_step(ha: HierarchicalAutomaton, config: HaConfiguration, symbol: Symbol) -> HaConfiguration:
    new_config, _, _ = ha_step_with_output(ha, config, symbol)
    return new_config


def ha_step_with_output(
    ha: HierarchicalAutomaton, config: HaConfiguration, symbol: Symbol
) -> tuple[HaConfiguration, Symbol, tuple[str, ...]]:
    """One step plus the emitted symbol and the names of the fired machines.

    When several machines fire simultaneously, the emitted symbol is the one
    produced by the fired machine listed first in the automaton's member
    order (the firing set is reported in that order too).
    """
    active = config.as_dict()
    enabled: list[str] = []
    best_depth: int | None = None
    for sa in ha.sas:  # member order fixes the reported firing order
        name = sa.name
        if name not in active:
            continue
        if symbol not in sa.input_alphabet:
            continue
        if (active[name], symbol) not in sa.transitions:
            continue
        d = ha.depth[name]
        if best_depth is None or d < best_depth:
            best_depth = d
            enabled = [name]
        elif d == best_depth:
            enabled.append(name)
    if not enabled:
        raise StuckError(f"{ha.name}: no active machine enabled on {symbol!r}")

    output: Symbol | None = None
    for name in enabled:
        sa = ha.by_name[name]
        old_state = active[name]
        target = sa.transitions[(old_state, symbol)]
        if output is None:
            output = sa.outputs[(old_state, symbol)]
        if target != old_state:
            _deactivate_descendants(ha, active, name, old_state)
            active[name] = target
            for child in sorted(ha.refinements(name, target)):
                _activate(ha, active, child)
    return HaConfiguration(tuple(active.items())), output, tuple(enabled)
