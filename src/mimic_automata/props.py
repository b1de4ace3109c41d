"""Propositional predicates over state labels.

Atoms are proposition names such as ``lattice_has(1)`` or
``cell0_state(even)``; formulas combine them with ``not``, ``and``, ``or``
and parentheses (``not`` binds tightest, then ``and``, then ``or``). The
constants ``true`` and ``false`` are available.
"""

from __future__ import annotations

import re

from .errors import PropertyError, value_class


@value_class(frozen=True)
class Atom:
    """A proposition name, true in a state whose labels include it."""

    name: str


@value_class(frozen=True)
class Not:
    """Negation of ``inner``."""

    inner: "Pred"


@value_class(frozen=True)
class And:
    """Conjunction: both sides hold."""

    left: "Pred"
    right: "Pred"


@value_class(frozen=True)
class Or:
    """Disjunction: at least one side holds."""

    left: "Pred"
    right: "Pred"


@value_class(frozen=True)
class Const:
    """The constant ``true`` or ``false``."""

    value: bool


Pred = Atom | Not | And | Or | Const

_TOKEN = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<atom>[A-Za-z_][A-Za-z0-9_]*(?:\([^()]*\))?))"
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise PropertyError(f"unexpected character {text[pos]!r} in predicate at offset {pos}")
        tokens.append(match.group("lpar") or match.group("rpar") or match.group("atom"))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise PropertyError("predicate ended unexpectedly")
        self.pos += 1
        return token

    def parse_expr(self) -> Pred:
        node = self.parse_term()
        while self.peek() == "or":
            self.take()
            node = Or(node, self.parse_term())
        return node

    def parse_term(self) -> Pred:
        node = self.parse_factor()
        while self.peek() == "and":
            self.take()
            node = And(node, self.parse_factor())
        return node

    def parse_factor(self) -> Pred:
        token = self.take()
        if token == "not":
            return Not(self.parse_factor())
        if token == "(":
            inner = self.parse_expr()
            if self.take() != ")":
                raise PropertyError("missing ')' in predicate")
            return inner
        if token == ")":
            raise PropertyError("unexpected ')' in predicate")
        if token == "true":
            return Const(True)
        if token == "false":
            return Const(False)
        return Atom(token)


def parse_predicate(text: str) -> Pred:
    tokens = _tokenize(text)
    if not tokens:
        raise PropertyError("empty predicate")
    parser = _Parser(tokens)
    node = parser.parse_expr()
    if parser.peek() is not None:
        raise PropertyError(f"trailing tokens in predicate: {' '.join(parser.tokens[parser.pos:])}")
    return node


def render_predicate(pred: Pred) -> str:
    """Canonical text form; ``parse_predicate`` inverts it."""
    if isinstance(pred, Const):
        return "true" if pred.value else "false"
    if isinstance(pred, Atom):
        return pred.name
    if isinstance(pred, Not):
        return f"not {_wrap(pred.inner, (And, Or))}"
    if isinstance(pred, And):
        return f"{_wrap(pred.left, (Or,))} and {_wrap(pred.right, (Or, And))}"
    if isinstance(pred, Or):
        return f"{render_predicate(pred.left)} or {_wrap(pred.right, (Or,))}"
    raise PropertyError(f"unknown predicate node {pred!r}")


def _wrap(pred: Pred, needs_parens: tuple) -> str:
    text = render_predicate(pred)
    return f"({text})" if isinstance(pred, needs_parens) else text


def atoms_of(pred: Pred) -> frozenset[str]:
    if isinstance(pred, Atom):
        return frozenset({pred.name})
    if isinstance(pred, Not):
        return atoms_of(pred.inner)
    if isinstance(pred, (And, Or)):
        return atoms_of(pred.left) | atoms_of(pred.right)
    return frozenset()


def eval_predicate(pred: Pred, props: frozenset[str] | set[str]) -> bool:
    if isinstance(pred, Const):
        return pred.value
    if isinstance(pred, Atom):
        return pred.name in props
    if isinstance(pred, Not):
        return not eval_predicate(pred.inner, props)
    if isinstance(pred, And):
        return eval_predicate(pred.left, props) and eval_predicate(pred.right, props)
    if isinstance(pred, Or):
        return eval_predicate(pred.left, props) or eval_predicate(pred.right, props)
    raise PropertyError(f"unknown predicate node {pred!r}")


def check_vocabulary(pred: Pred, vocabulary: frozenset[str]) -> None:
    """Reject predicates naming propositions outside the declared vocabulary."""
    unknown = sorted(atoms_of(pred) - vocabulary)
    if unknown:
        raise PropertyError(f"unknown proposition(s): {', '.join(unknown)}")
