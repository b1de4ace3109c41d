"""Signature-based behavior detection over flattened models.

A signature is a bad-prefix monitor: a pattern machine over observable action
labels whose final states mark a hit. Detection flattens the model once, then
searches each signature's (state, monitor state) pairs breadth-first on the
fly, without building a product graph, and stops at the first final pair; a
match comes with a shortest witness trace that replays on the model. The
search runs on the flattened store's indices and names only the witness.
Each action carries its label, rendered once when the action is built.

A signature is not searched when the monitor states reachable on the labels
the model emits hold no final state and the flattened states times those
monitor states are at most ``bound``: every pair the search could visit lies
within that set, so it would find nothing and stay within the bound, and the
report (no witness, the same ``stats``) is the search's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .checker import (
    DEFAULT_FLATTEN_BOUND,
    Path,
    TransitionSystem,
    _bad_prefix_witness,
    _require_bound,
    flatten,
)
from .composition import MimicAutomaton
from .errors import Violation, checked
from .sequential import SequentialAutomaton, validate_sa


@dataclass(frozen=True)
class Signature:
    """One behavioral pattern with an identifier and an ordinal severity."""

    id: str
    description: str
    pattern: SequentialAutomaton
    severity: int = 1

    def check(self) -> "Signature":
        return checked(self, validate_signature)


def validate_signature(sig: Signature) -> list[Violation]:
    """The signature's own rule (``signature_rules``), then its pattern's, as ``id/subject``."""
    return signature_rules(sig) + [v.within(sig.id) for v in validate_sa(sig.pattern)]


def signature_rules(sig: Signature) -> list[Violation]:
    return [] if sig.pattern.finals else [Violation("matchable", sig.id, "pattern has no final states")]


@dataclass(frozen=True)
class SignatureResult:
    signature_id: str
    severity: int
    matched: bool
    witness: Path | None


@dataclass(frozen=True)
class DetectionReport:
    model: str
    results: tuple[SignatureResult, ...]
    stats: Mapping[str, object] = field(default_factory=dict)

    @property
    def matched(self) -> tuple[SignatureResult, ...]:
        return tuple(r for r in self.results if r.matched)


def detect(
    ma: MimicAutomaton,
    input_universe: Iterable,
    signatures: Sequence[Signature],
    bound: int = DEFAULT_FLATTEN_BOUND,
    ts: TransitionSystem | None = None,
) -> DetectionReport:
    """Scan a model against a signature set; witnesses are shortest in BFS order.

    ``bound`` caps the flatten's states and each signature's search pairs;
    exceeding it raises ExplosionError, and a bound below 1 a ValueError.
    """
    _require_bound(bound)
    if ts is None:
        ts = flatten(ma, input_universe, bound=bound)
    search = _bad_prefix_witness(ts, bound)
    results = []
    for sig in signatures:
        witness = search(sig.pattern)
        results.append(SignatureResult(sig.id, sig.severity, witness is not None, witness))
    return DetectionReport(
        model=ma.name,
        results=tuple(results),
        stats={"states": len(ts.states), "transitions": ts.transition_count},
    )


def load_signatures(paths: Iterable[str]) -> list[Signature]:
    """Parse signature documents; duplicate identifiers are rejected, naming both files."""
    from .modelfile import _require_path_list, parse_files

    _require_path_list(paths)
    doc, diagnostics = parse_files(list(paths))
    if diagnostics:
        from .errors import ModelFormatError

        raise ModelFormatError(diagnostics)
    return [doc.signatures[name] for name in sorted(doc.signatures)]
