"""Deterministic sequential automata with Mealy-style outputs.

A machine holds a total (or, in relaxed mode, partial) transition map over
``states x input_alphabet`` plus an output map of the same shape. Values are
immutable after construction; stepping and running are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InputRejectedError, MimicError, Violation, checked, value_class

Symbol = str
State = str
Word = tuple[Symbol, ...]


@value_class(frozen=True)
class SequentialAutomaton:
    """Finite deterministic machine with initial and final states.

    ``transitions`` maps ``(state, input symbol)`` to the successor state,
    ``outputs`` maps the same keys to an emitted output symbol. With
    ``allow_partial`` the maps may be sparse; a run that reaches a missing
    entry stops where it is and is reported as not accepted.
    """

    name: str
    states: tuple[State, ...]
    initial: State
    finals: frozenset[State]
    input_alphabet: tuple[Symbol, ...]
    output_alphabet: tuple[Symbol, ...]
    transitions: Mapping[tuple[State, Symbol], State]
    outputs: Mapping[tuple[State, Symbol], Symbol]
    allow_partial: bool = False

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "input_alphabet", tuple(self.input_alphabet))
        object.__setattr__(self, "output_alphabet", tuple(self.output_alphabet))
        object.__setattr__(self, "transitions", dict(self.transitions))
        object.__setattr__(self, "outputs", dict(self.outputs))

    def check(self) -> "SequentialAutomaton":
        """Raise ModelValidationError if any invariant is broken; return self."""
        return checked(self, validate_sa)


@dataclass(frozen=True, slots=True)
class RunResult:
    """Outcome of one complete (or stuck) run.

    For a run that consumed its whole input word, ``accepted`` is true exactly
    when ``final_state`` is a final state and ``steps`` equals the word
    length. A stuck run (possible only with partial transition maps) reports
    the symbols it managed to consume and is never accepted.
    """

    final_state: State
    accepted: bool
    output_word: Word
    steps: int


def validate_sa(sa: SequentialAutomaton) -> list[Violation]:
    """Check every structural invariant; an empty report means valid."""
    report: list[Violation] = []
    states = set(sa.states)
    if len(states) != len(sa.states):
        report.append(Violation("unique-states", sa.name, "duplicate state identifiers"))
    if sa.initial not in states:
        report.append(Violation("initial-membership", sa.initial, "initial state not in states"))
    for f in sorted(sa.finals):
        if f not in states:
            report.append(Violation("finals-membership", f, "final state not in states"))
    inputs = set(sa.input_alphabet)
    if len(inputs) != len(sa.input_alphabet):
        report.append(Violation("unique-symbols", sa.name, "duplicate input symbols"))
    outputs = set(sa.output_alphabet)

    # one unsorted pass: the sorted loops below run only to report a violation
    transitions, emitted = sa.transitions, sa.outputs
    sources, symbols = zip(*transitions) if transitions else ((), ())
    clean = (
        transitions.keys() == emitted.keys()
        and states.issuperset(sources)
        and inputs.issuperset(symbols)
        and states.issuperset(transitions.values())
        and outputs.issuperset(emitted.values())
    )
    for (state, symbol), target in () if clean else sorted(transitions.items()):
        subject = f"({state},{symbol})"
        if state not in states:
            report.append(Violation("transition-domain", subject, f"source {state!r} not in states"))
        if symbol not in inputs:
            report.append(Violation("transition-domain", subject, f"input symbol {symbol!r} not in input alphabet"))
        if target not in states:
            report.append(Violation("transition-target", subject, f"target {target!r} not in states"))
    for (state, symbol), out in () if clean else sorted(emitted.items()):
        subject = f"({state},{symbol})"
        if (state, symbol) not in sa.transitions:
            report.append(Violation("output-domain", subject, "output without matching transition"))
        if out not in outputs:
            report.append(Violation("output-range", subject, f"output {out!r} not in output alphabet"))

    total = clean and len(transitions) == len(states) * len(inputs)  # keys are then states x inputs
    if not sa.allow_partial and not total:
        for state in sa.states:
            for symbol in sa.input_alphabet:
                if (state, symbol) not in sa.transitions:
                    report.append(
                        Violation("totality", f"({state},{symbol})", "missing transition")
                    )
    for key in () if clean else sorted(transitions):
        if key not in sa.outputs:
            report.append(Violation("output-totality", f"({key[0]},{key[1]})", "missing output"))
    return report


def sa_step(sa: SequentialAutomaton, state: State, symbol: Symbol) -> tuple[State, Symbol]:
    """One transition: returns the successor state and the emitted symbol."""
    if state not in set(sa.states):
        raise MimicError(f"{sa.name}: unknown state {state!r}")
    if symbol not in sa.input_alphabet:
        raise InputRejectedError(symbol, 0)
    key = (state, symbol)
    if key not in sa.transitions:
        raise MimicError(f"{sa.name}: no transition on {key!r} (partial map)")
    return sa.transitions[key], sa.outputs[key]


def sa_run(sa: SequentialAutomaton, word: Iterable[Symbol], start: State | None = None) -> RunResult:
    """Fold the step function over a word, starting at ``start`` (default: initial).

    Raises InputRejectedError, naming the offending position, when a symbol
    is outside the input alphabet. With a partial transition map the run may
    stop early; the result then carries the consumed prefix.
    """
    state = sa.initial if start is None else start
    alphabet = set(sa.input_alphabet)
    out: list[Symbol] = []
    steps = 0
    for position, symbol in enumerate(word):
        if symbol not in alphabet:
            raise InputRejectedError(symbol, position)
        key = (state, symbol)
        if key not in sa.transitions:
            return RunResult(state, False, tuple(out), steps)
        out.append(sa.outputs[key])
        state = sa.transitions[key]
        steps += 1
    return RunResult(state, state in sa.finals, tuple(out), steps)
