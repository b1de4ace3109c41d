"""Declarative text format for models, properties, and signatures.

A document is a sequence of blocks, ``kind name { ... }``, one field per
line. ``#`` starts a comment. Lists are whitespace separated; words (symbol
sequences) are double-quoted and split per character. Repeatable fields:

* ``delta: <state> <sym> -> <state> [/ <out>]`` (omitted output = the input
  symbol)
* ``gamma: <machine> <state> -> <child> ...``
* ``cell_map: <cell-state> -> sa|ha|binding <name>``

Rule fields for ``ca``/``pca`` are either ``rule expr: xor|identity|majority``
or ``rule table:`` followed by indented ``<neighborhood> -> <state>`` lines
(``<state>@<prob> ...`` for ``pca``, which takes only ``rule table:``). A
``binding`` in mode ``ca_from_sa`` carries ``readout expr: cell <i>`` /
``readout expr: parity <q>`` or ``readout table:`` with ``<lattice> ->
<symbol>`` lines. No other field takes an ``expr``/``table`` sub-key.

Each block kind has one spec (``_SPECS``): its document attribute, builder,
writer and fields in canonical order, each required, repeatable or taking
sub-keys. Parsing is followed by reference resolution and invariant
validation; every rejection carries at least one ``file:line:col``
diagnostic. Serialization is canonical (blocks sorted by kind then name,
fields in spec order) and ``parse(serialize(doc))`` equals ``doc``.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import field as dc_field
from typing import Callable, NamedTuple

from .cellular import (
    BOUNDARY_FIXED,
    BOUNDARY_PERIODIC,
    BUILTIN_RULES,
    DEFAULT_STEP_CAP,
    LATTICE_FIELDS,
    CellularAutomaton,
    ProbabilisticCellularAutomaton,
    builtin_rule_table,
    rule_fits,
    validate_ca,
    validate_pca,
)
from .checker import BAD_PREFIX, INVARIANT, Property, REACH
from .composition import (
    DEFAULT_MAX_DEPTH,
    Binding,
    HaUnit,
    MODE_CA_FROM_SA,
    MODE_SA_FROM_CA,
    MimicAutomaton,
    NestedUnit,
    Readout,
    SaUnit,
    Unit,
    validate_ma,
)
from .detect import Signature, signature_rules
from .dhr import (
    DhrStructure,
    PLURALITY,
    STRICT_MAJORITY,
    SerialDhr,
    VoterPolicy,
    dhr_rules,
    serial_rules,
)
from .errors import MimicError, PropertyError, Violation, value_class
from .hierarchical import HierarchicalAutomaton, ha_rules
from .props import parse_predicate, render_predicate
from .sequential import SequentialAutomaton, validate_sa

KINDS = ("binding", "ca", "dhr", "ha", "ma", "pca", "property", "sa", "serial_dhr", "signature")


@value_class(frozen=True)
class Diagnostic:
    """A message about a document position, printed as ``file:line:col: message (hint)``."""

    file: str
    line: int
    col: int
    message: str
    hint: str | None = None

    def __str__(self) -> str:
        text = f"{self.file}:{self.line}:{self.col}: {self.message}"
        return f"{text} ({self.hint})" if self.hint else text


@value_class(frozen=True)
class ModelDocument:
    """All blocks of a document set, resolved and keyed by name per kind."""

    sas: dict[str, SequentialAutomaton] = dc_field(default_factory=dict)
    cas: dict[str, CellularAutomaton] = dc_field(default_factory=dict)
    pcas: dict[str, ProbabilisticCellularAutomaton] = dc_field(default_factory=dict)
    has: dict[str, HierarchicalAutomaton] = dc_field(default_factory=dict)
    bindings: dict[str, Binding] = dc_field(default_factory=dict)
    mas: dict[str, MimicAutomaton] = dc_field(default_factory=dict)
    dhrs: dict[str, DhrStructure] = dc_field(default_factory=dict)
    serial_dhrs: dict[str, SerialDhr] = dc_field(default_factory=dict)
    properties: dict[str, Property] = dc_field(default_factory=dict)
    signatures: dict[str, Signature] = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# lexical scan

Token = tuple[str, int, bool]  # (text, column, quoted): plain tuples keep large documents cheap


class RawValue:
    """One field value or rule-table entry: its ``text``, its tokens' ``texts``, and ``tokens`` with columns.

    A value holding none of ``" # { } :`` can produce no diagnostic, so it keeps
    only its text: ``texts`` splits it each time it is read, and its ``tokens``
    are made by ``_tokenize`` when first read, which a builder does only to
    place a diagnostic. Any other value is tokenized as it is scanned, so scan
    diagnostics keep their order.
    """

    __slots__ = ("line", "text", "_col", "_tokens")

    def __init__(self, text: str, line: int, col: int, diagnostics: list[Diagnostic], file: str):
        self.line, self.text, self._col = line, text, col
        plain = not ('"' in text or "#" in text or "{" in text or "}" in text or ":" in text)
        self._tokens = None if plain else _tokenize(text, line, col, diagnostics, file)

    @property
    def texts(self) -> list[str]:
        return self.text.split() if self._tokens is None else [token[0] for token in self._tokens]

    @property
    def tokens(self) -> list[Token]:
        if self._tokens is None:
            self._tokens = _tokenize(self.text, self.line, self._col, [], "")
        return self._tokens


class RawField(RawValue):
    """A ``name [sub]: value`` line; ``col`` is the column of its name. Only a table field
    has an ``entries`` list, of its ``RawValue`` lines; any other field has ``()``."""

    __slots__ = ("name", "sub", "col", "entries")

    def __init__(self, name: str, sub: str | None, rest: str, line: int, col: int, rest_col: int,
                 diagnostics: list[Diagnostic], file: str):
        RawValue.__init__(self, rest, line, rest_col, diagnostics, file)
        self.name, self.sub, self.col = name, sub, col
        self.entries: list[RawValue] | tuple = [] if sub == "table" else ()


@value_class
class RawBlock:
    """A ``kind name { ... }`` block as scanned: its header and field lines, not yet built."""

    kind: str
    name: str
    file: str
    line: int
    fields: list[RawField] = dc_field(default_factory=list)


# matched against a whole line (its comment removed): the value may keep trailing blanks
_FIELD_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)(?:\s+(table|expr))?\s*:\s*(.*)")
_OPEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s+(\S+)\s*\{\s*$")
# the text before the first '#' outside a string; an unterminated string runs to the end
_BEFORE_COMMENT_RE = re.compile(r'(?:[^"#]+|"[^"]*(?:"|$))*')
# a string, a bare token, or (group 3) a stray quote or reserved character
_TOKEN_RE = re.compile(r'\s*(?:"([^"]*)"|([^\s{}"#:]+)|(\S))')


def _tokenize(text: str, line_no: int, base_col: int, diagnostics: list[Diagnostic], file: str) -> list[Token]:
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text):
        quoted, bare, bad = match.groups()
        if bare is not None:
            tokens.append((bare, base_col + match.start(2), False))
        elif quoted is not None:
            tokens.append((quoted, base_col + match.start(1) - 1, True))
        else:
            message = "unterminated string" if bad == '"' else f"unexpected character {bad!r}"
            diagnostics.append(Diagnostic(file, line_no, base_col + match.start(3), message))
            break
    return tokens


def scan(text: str, file: str = "<string>") -> tuple[list[RawBlock], list[Diagnostic]]:
    blocks: list[RawBlock] = []
    diagnostics: list[Diagnostic] = []
    current: RawBlock | None = None
    table: RawField | None = None

    for line_no, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = _BEFORE_COMMENT_RE.match(line).group()
        if current is not None:  # a field line is the common case, and no header or '}' matches it
            match = _FIELD_RE.match(line)
            if match is not None:
                name, sub, rest = match.groups()
                field = RawField(name, sub, rest, line_no, match.start(1) + 1, match.start(3) + 1, diagnostics, file)
                current.fields.append(field)
                table = field if sub == "table" else None
                continue

        stripped = line.strip()
        if not stripped:
            continue
        col = len(line) - len(line.lstrip()) + 1
        if current is None:
            match = _OPEN_RE.match(stripped)
            if match is None:
                diagnostics.append(Diagnostic(file, line_no, col, "expected a block header", hint="kind name {"))
                continue
            kind, name = match.group(1), match.group(2)
            if kind not in KINDS:
                diagnostics.append(
                    Diagnostic(file, line_no, col, f"unknown block kind {kind!r}", hint="one of " + ", ".join(KINDS))
                )
            current = RawBlock(kind, name, file, line_no)
            table = None
        elif stripped == "}":
            blocks.append(current)
            current = None
        elif table is not None:
            table.entries.append(RawValue(stripped, line_no, col, diagnostics, file))
        else:
            diagnostics.append(
                Diagnostic(file, line_no, col, "expected a field line",
                           hint="name: values, or a table entry after 'rule table:'")
            )

    if current is not None:
        diagnostics.append(Diagnostic(file, current.line, 1, f"unclosed block {current.kind} {current.name}"))
    return blocks, diagnostics


# ---------------------------------------------------------------------------
# block kinds: one spec each

class _FieldSpec(NamedTuple):
    required: bool
    repeat: bool
    subs: tuple[str, ...]


@value_class(frozen=True)
class _Kind:
    """How one block kind is built, written and checked, and its fields in canonical order."""

    attr: str  # the ModelDocument attribute holding this kind's objects
    build: Callable  # (_Block, ModelDocument) -> object | None
    write: Callable  # object -> {field: value}; see _write_block
    fields: dict[str, _FieldSpec]  # canonical order
    check: Callable | None = None  # (ModelDocument, blocks, _Shared) after all of this kind are built


_FIELD_SPEC_RE = re.compile(r"(\w+)(!?)(\*?)(?:\[([\w,]+)\])?")


def _kind(attr: str, build, write, fields: str, check=None) -> _Kind:
    """``fields`` in canonical order: ``name!`` is required, ``name*`` repeatable,
    ``name[expr,table]`` takes exactly one of those sub-keys; any other field takes none."""
    specs = {}
    for item in fields.split():
        name, required, repeat, subs = _FIELD_SPEC_RE.fullmatch(item).groups()
        specs[name] = _FieldSpec(bool(required), bool(repeat), tuple(subs.split(",")) if subs else ())
    return _Kind(attr, build, write, specs, check)


@value_class
class _Shared:
    """What a document's blocks share while it is built."""

    diagnostics: list[Diagnostic]
    failed: set[tuple[str, str]] = dc_field(default_factory=set)  # (kind, name) of each block that built nothing
    probe: list[Violation] = dc_field(default_factory=list)  # _binding_violations, once _check_bindings ran


class _Block:
    """A raw block's fields grouped by its kind's spec.

    Grouping reports unknown fields and sub-keys a field does not take. A
    duplicate of a non-repeatable field, and a missing required one, are
    reported when the builder takes that field, in the builder's order.
    """

    def __init__(self, raw: RawBlock, spec: _Kind, shared: _Shared):
        self.raw, self.spec, self.shared = raw, spec, shared
        self.groups = groups = defaultdict(list)  # name, or (name, sub) for a field with sub-keys -> its fields
        for f in raw.fields:
            fs = spec.fields.get(f.name)
            if fs is None:
                self.err(f"unknown field {f.name!r} in {raw.kind} block", f.line, f.col,
                         hint="expected one of " + ", ".join(sorted(spec.fields)))
                continue
            if f.sub not in (fs.subs or (None,)):
                forms = " or ".join(f"'{f.name} {sub}:'" for sub in fs.subs) or f"'{f.name}:'"
                what = f"takes no sub-key {f.sub!r}" if f.sub else "needs a sub-key"
                self.err(f"field {f.name!r} {what}", f.line, f.col, hint="write " + forms)
            groups[(f.name, f.sub) if fs.subs else f.name].append(f)

    @property
    def name(self) -> str:
        return self.raw.name

    def err(self, message: str, line: int | None = None, col: int = 1, hint=None) -> None:
        self.shared.diagnostics.append(Diagnostic(self.raw.file, line or self.raw.line, col, message, hint))

    def report_violations(self, violations, line: int | None = None, col: int = 1) -> None:
        for v in violations:
            self.err(f"{self.raw.kind} {self.raw.name}: {v}", line, col)

    def take(self, name: str, sub: str | None = None, required: bool | None = None) -> RawField | None:
        """The first ``name`` field (``name sub:`` for a field with sub-keys)."""
        spec = self.spec.fields[name]
        found = self.groups.get((name, sub) if spec.subs else name)
        if not found:
            if spec.required if required is None else required:
                self.err(f"{self.raw.kind} {self.raw.name}: missing field {name!r}")
            return None
        if len(found) > 1 and not spec.repeat:
            self.err(f"duplicate field {name!r}", found[1].line, found[1].col)
        return found[0]

    def take_all(self, name: str) -> list[RawField]:
        return self.groups.get(name, [])

    def expr_or_table(self, name: str) -> tuple[RawField | None, RawField | None]:
        expr_f, table_f = self.take(name, "expr"), self.take(name, "table")
        if expr_f is not None and table_f is not None:
            self.err(f"give either '{name} expr:' or '{name} table:', not both", table_f.line, table_f.col)
        return expr_f, table_f

    def names(self, name: str) -> list[str] | None:
        field = self.take(name)
        return None if field is None else field.texts

    def one_name(self, name: str, required: bool | None = None) -> str | None:
        field = self.take(name, required=required)
        if field is None:
            return None
        if len(field.texts) != 1:
            self.err(f"field {name!r} expects exactly one value", field.line, field.col)
            return None
        return field.texts[0]

    def integer(self, name: str, default: int | None = None) -> int | None:
        field = self.take(name)
        if field is None:
            return default
        if len(field.texts) != 1:
            self.err(f"field {name!r} expects one integer", field.line, field.col)
            return default
        text = field.texts[0]
        try:
            return int(text)
        except ValueError:
            self.err(f"field {name!r}: {text!r} is not an integer", field.line, field.tokens[0][1])
            return default

    def at_least_zero(self, name: str, value: int | None) -> bool:
        """False, with a diagnostic at the value, when ``value`` of ``name`` is negative."""
        if value is None or value >= 0:
            return True
        field = self.groups[name][0]
        self.err(f"field {name!r} must be >= 0, got {value}", field.line, field.tokens[0][1])
        return False

    def words(self, name: str) -> tuple[tuple[str, ...], ...] | None:
        field = self.take(name)
        if field is None:
            return None
        for _, col, quoted in field.tokens:
            if not quoted:
                self.err(f"field {name!r} expects quoted words", field.line, col)
                return None
        return tuple(tuple(text) for text in field.texts)

    def failed_among(self, kinds: tuple[str, ...], name: str | None) -> bool:
        """True when a block of one of ``kinds`` named ``name`` failed to build, and so reported its own defect."""
        return any((kind, name) in self.shared.failed for kind in kinds)

    def lookup(self, doc: ModelDocument, kinds: tuple[str, ...], message: str, names: RawField | str,
               every: bool = False):
        """The built objects of ``kinds`` a list field names, in order, or the one a name names.
        An unknown name is reported as ``message.format(name)``, at its token in a list, else at
        the block, unless its block of one of ``kinds`` failed to build. The first unknown name
        ends the lookup with None, unless ``every``: then each one is dropped."""
        one = isinstance(names, str)
        sources = [getattr(doc, _SPECS[kind].attr) for kind in kinds]
        found = []
        for i, text in enumerate([names] if one else names.texts):
            obj = next((source[text] for source in sources if text in source), None)
            if obj is not None:
                found.append(obj)
                continue
            if not self.failed_among(kinds, text):
                self.err(message.format(text), *(() if one else (names.line, names.tokens[i][1])))
            if not every:
                return None
        return found[0] if one else found

    def table(self, field: RawField, size: int | None, shape: str, noun: str, value: Callable) -> dict:
        """A table field's ``<key> -> <value>`` entries: the key is the first ``size`` texts (those
        before the first ``->`` when ``size`` is None) and the value ``value(texts after ->, line)``,
        which returns None to drop an entry it reported. An entry of another shape, or whose value
        ``value`` refuses with ValueError, is reported as ``shape``; a repeated key as a duplicate
        ``noun`` at its first token, and the last entry is kept. Text after the field's colon is
        reported at its first token and read as no entry."""
        if field.texts:
            self.err(f"text after '{field.name} table:' is not an entry", field.line, field.tokens[0][1],
                     hint="put each entry on its own line below the field")
        table = {}
        for entry in field.entries:
            texts, line = entry.texts, entry.line
            arrow = size if size is not None else texts.index("->") if "->" in texts else -1
            try:
                if not 0 <= arrow < len(texts) - 1 or texts[arrow] != "->":
                    raise ValueError
                parsed = value(texts[arrow + 1 :], line)
            except ValueError:
                self.err(shape, line)
                continue
            if parsed is None:
                continue
            key = tuple(texts[:arrow])
            if key in table:
                self.err(f"duplicate {noun} for {key}", line, entry.tokens[0][1])
            table[key] = parsed
        return table


def _one_value(texts: list[str], line: int) -> str:
    (value,) = texts  # a ValueError for more than one
    return value


# ---------------------------------------------------------------------------
# building domain objects from raw blocks

def _build_sa(b: _Block, doc: ModelDocument) -> SequentialAutomaton | None:
    states = b.names("states")
    initial = b.one_name("initial")
    finals = b.names("finals")
    inputs = b.names("inputs")
    outputs = b.names("outputs")
    partial_f = b.take("partial")
    if states is None or initial is None or inputs is None or outputs is None:
        return None
    allow_partial = False
    if partial_f is not None:
        value = " ".join(partial_f.texts)
        if value not in ("true", "false"):
            b.err("field 'partial' expects true or false", partial_f.line, partial_f.col)
        allow_partial = value == "true"

    transitions, out_map, defined = {}, {}, {}  # defined: the delta that defined each key last
    for f in b.take_all("delta"):
        match f.texts:
            case [src, sym, "->", dst, "/", out]:
                pass
            case [src, sym, "->", dst]:
                out = sym
            case _:
                b.err("delta expects '<state> <sym> -> <state> [/ <out>]'", f.line, f.col)
                continue
        key = (src, sym)  # one key object, shared by the three maps
        if key in transitions:
            b.err(f"duplicate delta for ({src}, {sym})", f.line, f.col)
        transitions[key] = dst
        out_map[key] = out
        defined[key] = f

    sa = SequentialAutomaton(
        name=b.name,
        states=tuple(states),
        initial=initial,
        finals=frozenset(finals or ()),
        input_alphabet=tuple(inputs),
        output_alphabet=tuple(outputs),
        transitions=transitions,
        outputs=out_map,
        allow_partial=allow_partial,
    )
    _report_sa(b, validate_sa(sa), defined)
    return sa


def _report_sa(b: _Block, report, defined: dict) -> None:
    """A violation of a delta's ``(state,symbol)`` key at the delta that ``defined`` it (the last, for
    a duplicate), on the token it names, else the field name; any other at the block header."""
    at = {f"({src},{sym})": f for (src, sym), f in defined.items()} if report else {}
    for v in report:
        f = at.get(v.subject)
        if f is None:
            b.report_violations([v])
        else:  # the message's first word names the token: source, input (symbol) or target
            token = {"source": 0, "input": 1, "target": 3}.get(v.message.split(" ", 1)[0])
            b.report_violations([v], f.line, f.col if token is None else f.tokens[token][1])


def _build_rule_common(b: _Block) -> dict | None:
    """The block's ``lattice_shape`` fields, or None when a required one is missing or bad."""
    states = b.names("cell_states")
    width = b.integer("width")
    radius = b.integer("radius", default=1)
    boundary_f = b.take("boundary")
    boundary, boundary_value = BOUNDARY_PERIODIC, None
    if boundary_f is not None:
        names = boundary_f.texts
        if len(names) == 2 and names[0] == BOUNDARY_FIXED:
            boundary, boundary_value = names
        elif names != [BOUNDARY_PERIODIC]:
            b.err("boundary expects 'periodic' or 'fixed <state>'", boundary_f.line, boundary_f.col)
    if states is None or width is None or radius is None:
        return None
    return dict(zip(LATTICE_FIELDS, (b.name, tuple(states), width, radius, boundary, boundary_value)))


def _build_ca(b: _Block, doc: ModelDocument) -> CellularAutomaton | None:
    shape = _build_rule_common(b)
    if shape is None:
        return None
    cell_states, radius = shape["cell_states"], shape["radius"]
    expr_f, table_f = b.expr_or_table("rule")

    rule = None
    rule_expr = None
    if expr_f is not None:
        names = expr_f.texts
        if len(names) != 1 or names[0] not in BUILTIN_RULES:
            b.err("rule expr expects one of " + "|".join(BUILTIN_RULES), expr_f.line, expr_f.col)
            return None
        rule_expr = names[0]
        try:  # validate_ca reports a negative radius, which has no neighborhoods, and a rule above the cap
            fits = radius >= 0 and rule_fits(len(cell_states), radius)
            rule = builtin_rule_table(rule_expr, cell_states, radius) if fits else {}
        except MimicError as exc:
            b.err(str(exc), expr_f.line, expr_f.col)
            return None
    elif table_f is not None:
        size = 2 * radius + 1
        rule = b.table(table_f, size, f"rule entry expects {size} states, '->', one state", "rule", _one_value)
    else:
        b.err(f"ca {b.name}: missing 'rule expr:' or 'rule table:'")
        return None

    ca = CellularAutomaton(**shape, rule=rule, rule_expr=rule_expr)
    b.report_violations(validate_ca(ca))
    return ca


def _build_pca(b: _Block, doc: ModelDocument) -> ProbabilisticCellularAutomaton | None:
    shape = _build_rule_common(b)
    if shape is None:
        return None
    table_f = b.take("rule", "table")
    if table_f is None:
        b.err(f"pca {b.name}: missing 'rule table:'")
        return None

    def pairs(texts: list[str], line: int) -> tuple | None:
        out = []
        for part in texts:
            if "@" not in part:
                b.err(f"expected <state>@<prob>, got {part!r}", line)
                return None
            state, _, prob_text = part.rpartition("@")
            try:
                out.append((state, float(prob_text)))
            except ValueError:
                b.err(f"bad probability {prob_text!r}", line)
                return None
        return tuple(out)

    size = 2 * shape["radius"] + 1
    rule = b.table(table_f, size, f"rule entry expects {size} states, '->', then state@prob pairs", "rule", pairs)

    pca = ProbabilisticCellularAutomaton(**shape, rule=rule)
    b.report_violations(validate_pca(pca))
    return pca


def _check_ca_pca_names(doc: ModelDocument, blocks: dict[tuple[str, str], _Block], shared: _Shared) -> None:
    for name in sorted(set(doc.cas) & set(doc.pcas)):
        blocks["pca", name].err(f"{name!r} is defined as both ca and pca")


def _build_ha(b: _Block, doc: ModelDocument) -> HierarchicalAutomaton | None:
    members_f = b.take("sas")
    root = b.one_name("root")
    if members_f is None or root is None:
        return None
    members = b.lookup(doc, ("sa",), "unknown machine {!r}", members_f)
    if members is None:
        return None
    gamma = {}
    for f in b.take_all("gamma"):
        texts = f.texts
        if len(texts) < 4 or texts[2] != "->":
            b.err("gamma expects '<machine> <state> -> <child> ...'", f.line, f.col)
            continue
        key = (texts[0], texts[1])
        if key in gamma:
            b.err(f"duplicate gamma for {key}", f.line, f.col)
        gamma[key] = frozenset(texts[3:])
    ha = HierarchicalAutomaton(name=b.name, sas=tuple(members), root=root, gamma=gamma)
    b.report_violations(ha_rules(ha))
    return ha


def _build_readout(b: _Block) -> Readout | None:
    expr_f, table_f = b.expr_or_table("readout")
    if expr_f is None and table_f is None:
        return None
    if expr_f is not None:
        names = expr_f.texts
        if len(names) == 2 and names[0] == "cell":
            try:
                return Readout(kind="cell", cell=int(names[1]))
            except ValueError:
                pass
        if len(names) == 2 and names[0] == "parity":
            return Readout(kind="parity", target=names[1])
        b.err("readout expr expects 'cell <index>' or 'parity <state>'", expr_f.line, expr_f.col)
        return None
    table = b.table(table_f, None, "readout entry expects '<lattice> -> <symbol>'", "readout", _one_value)
    return Readout(kind="table", table=table)


_CELLULAR = ("ca", "pca")  # the block kinds a cellular automaton reference accepts
_UNITS = {"sa": SaUnit, "ha": HaUnit, "binding": NestedUnit}


def _unit_ref(unit: Unit) -> tuple[str, str]:
    """The kind and name of the block a unit names: its one field is named after that kind."""
    [(kind, name)] = vars(unit).items()
    return kind, name


def _build_binding(b: _Block, doc: ModelDocument) -> Binding | None:
    mode = b.one_name("mode")
    ca = b.one_name("ca")
    if mode is None or ca is None:
        return None
    if mode not in (MODE_SA_FROM_CA, MODE_CA_FROM_SA):
        b.err(f"mode must be {MODE_SA_FROM_CA} or {MODE_CA_FROM_SA}")
        return None
    t_max = b.integer("t_max", default=DEFAULT_STEP_CAP)
    b.at_least_zero("t_max", t_max)
    seed = b.names("seed")
    outer = b.one_name("outer_sa")
    readout = _build_readout(b)

    cell_map: dict[str, Unit] = {}
    for f in b.take_all("cell_map"):
        texts = f.texts
        if len(texts) != 4 or texts[1] != "->" or texts[2] not in _UNITS:
            b.err("cell_map expects '<state> -> sa|ha|binding <name>'", f.line, f.col)
            continue
        state, kind, name = texts[0], texts[2], texts[3]
        if state in cell_map:
            b.err(f"duplicate cell_map for {state!r}", f.line, f.col)
        cell_map[state] = _UNITS[kind](name)

    return Binding(
        name=b.name,
        mode=mode,
        ca=ca,
        cell_map=cell_map,
        t_max=t_max,
        outer_sa=outer,
        readout=readout,
        seed=tuple(seed) if seed is not None else None,
    )


def _binding_violations(doc: ModelDocument) -> list[Violation]:
    """``validate_ma``'s rules of each binding (subject ``binding <name>``), against every
    machine, automaton, hierarchy and binding of the document."""
    if not doc.bindings:
        return []
    probe = MimicAutomaton("<document>", doc.sas, {**doc.cas, **doc.pcas}, doc.has, doc.bindings, min(doc.bindings))
    return [v for v in validate_ma(probe) if v.subject.startswith("binding ")]


def _check_bindings(doc: ModelDocument, blocks: dict[tuple[str, str], _Block], shared: _Shared) -> None:
    """Each binding's own rules at its block, an unknown reference among them. A binding
    whose ``ca``, ``outer_sa`` or a ``cell_map`` unit names a block that failed to build
    is not judged: that block reported its own defect."""
    shared.probe = _binding_violations(doc)
    for v in shared.probe:
        block = blocks["binding", v.subject.removeprefix("binding ")]
        binding = doc.bindings[block.name]
        refs = [(_CELLULAR, binding.ca), (("sa",), binding.outer_sa)]
        refs += [((kind,), name) for kind, name in map(_unit_ref, binding.cell_map.values())]
        if not any(block.failed_among(kinds, name) for kinds, name in refs):
            block.report_violations([v])


def _build_ma(b: _Block, doc: ModelDocument) -> MimicAutomaton | None:
    root = b.one_name("root_binding")
    if root is None:
        return None
    max_depth = b.integer("max_depth", default=DEFAULT_MAX_DEPTH)

    def collect(name: str, kinds: tuple[str, ...]) -> dict:
        f = b.take(name)
        found = b.lookup(doc, kinds, f"unknown reference {{!r}} in {name!r}", f, every=True) if f else []
        return {obj.name: obj for obj in found}

    sa_set = collect("sas", ("sa",))
    ca_set = collect("cas", _CELLULAR)
    ha_set = collect("has", ("ha",))
    bindings = collect("bindings", ("binding",))
    if root not in bindings:
        bindings[root] = b.lookup(doc, ("binding",), "unknown root binding {!r}", root)
        if bindings[root] is None:
            return None
    ma = MimicAutomaton(
        name=b.name,
        sa_set=sa_set,
        ca_set=ca_set,
        ha_set=ha_set,
        bindings=bindings,
        root_binding=root,
        max_depth=max_depth,
    )
    report = validate_ma(ma)  # less what the bindings' blocks reported against the whole document
    reported = set(b.shared.probe) if report else ()
    b.report_violations(v for v in report if v not in reported)
    return ma


def _build_voter(b: _Block) -> VoterPolicy:
    kind_f = b.take("voter")
    kind = STRICT_MAJORITY
    if kind_f is not None:
        names = kind_f.texts
        if len(names) == 1 and names[0] in (STRICT_MAJORITY, PLURALITY):
            kind = names[0]
        else:
            b.err(f"voter expects {STRICT_MAJORITY} or {PLURALITY}", kind_f.line, kind_f.col)
    quorum = b.integer("quorum")
    prefs = b.words("prefs") or ()
    return VoterPolicy(kind=kind, quorum=quorum, preferences=prefs)


def _build_dhr(b: _Block, doc: ModelDocument) -> DhrStructure | None:
    executors_f = b.take("executors")
    scheduler_name = b.one_name("scheduler")
    width = b.integer("width")
    if executors_f is None or scheduler_name is None or width is None:
        return None
    executors = b.lookup(doc, ("sa",), "unknown executor {!r}", executors_f)
    if executors is None:
        return None
    scheduler = b.lookup(doc, _CELLULAR, "unknown scheduler {!r}", scheduler_name)
    if scheduler is None:
        return None
    lattice = b.names("initial_lattice")
    dhr = DhrStructure(
        name=b.name,
        executors=tuple(executors),
        scheduler=scheduler,
        width=width,
        voter=_build_voter(b),
        initial_lattice=tuple(lattice) if lattice is not None else None,
    )
    b.report_violations(dhr_rules(dhr))
    return dhr


def _build_serial(b: _Block, doc: ModelDocument) -> SerialDhr | None:
    stages_f = b.take("stages")
    if stages_f is None:
        return None
    stages = b.lookup(doc, ("dhr",), "unknown stage {!r}", stages_f)
    if stages is None:
        return None
    serial = SerialDhr(name=b.name, stages=tuple(stages))
    b.report_violations(serial_rules(serial))
    return serial


def _build_property(b: _Block, doc: ModelDocument) -> Property | None:
    kind = b.one_name("kind")
    if kind is None:
        return None
    if kind not in (INVARIANT, REACH, BAD_PREFIX):
        b.err(f"property kind must be {INVARIANT}, {REACH} or {BAD_PREFIX}")
        return None
    other = "predicate" if kind == BAD_PREFIX else "pattern"
    other_f = b.take(other)
    if other_f is not None:
        b.err(f"field {other!r} does not apply to a {kind} property", other_f.line, other_f.col)
    predicate = None
    pattern = None
    if kind == BAD_PREFIX:
        pattern_name = b.one_name("pattern", required=True)
        if pattern_name is None:
            return None
        pattern = b.lookup(doc, ("sa",), "unknown pattern machine {!r}", pattern_name)
        if pattern is None:
            return None
        b.report_violations(signature_rules(Signature(b.name, "", pattern)))  # a bad prefix matches as a signature does
    else:
        pred_f = b.take("predicate", required=True)
        if pred_f is None:
            return None
        try:
            predicate = parse_predicate(pred_f.text)
        except PropertyError as exc:
            b.err(str(exc), pred_f.line, pred_f.col)
            return None
    inputs = b.words("inputs")
    policy = b.words("policy")
    horizon = b.integer("horizon")
    if not b.at_least_zero("horizon", horizon):
        return None
    return Property(
        name=b.name,
        kind=kind,
        predicate=predicate,
        pattern=pattern,
        inputs=inputs,
        policy=policy,
        horizon=horizon,
    )


def _build_signature(b: _Block, doc: ModelDocument) -> Signature | None:
    desc_f = b.take("description")
    pattern_name = b.one_name("pattern")
    severity = b.integer("severity", default=1)
    if desc_f is None or pattern_name is None:
        return None
    if [quoted for _, _, quoted in desc_f.tokens] != [True]:
        b.err("description expects one quoted string", desc_f.line, desc_f.col)
        return None
    pattern = b.lookup(doc, ("sa",), "unknown pattern machine {!r}", pattern_name)
    if pattern is None:
        return None
    sig = Signature(
        id=b.name, description=desc_f.texts[0], pattern=pattern, severity=severity
    )
    b.report_violations(signature_rules(sig))
    return sig


# ---------------------------------------------------------------------------
# canonical serialization: each writer maps field names to values, and
# _write_block lays them out in spec order

def _ser_word(word) -> str:
    parts = [str(s) for s in word]
    if any(len(p) != 1 for p in parts):
        raise MimicError(f"only single-character symbols serialize into words: {word!r}")
    return '"' + "".join(parts) + '"'


def _write_sa(sa: SequentialAutomaton) -> dict:
    transitions, outputs = sa.transitions, sa.outputs
    return {
        "states": " ".join(sa.states),
        "initial": sa.initial,
        "finals": " ".join(s for s in sa.states if s in sa.finals),
        "inputs": " ".join(sa.input_alphabet),
        "outputs": " ".join(sa.output_alphabet),
        "partial": "true" if sa.allow_partial else None,
        "delta": [f"{state} {sym} -> {transitions[key]} / {outputs[key]}"
                  for state in sa.states for sym in sa.input_alphabet if (key := (state, sym)) in transitions],
    }


def _nb_sort_key(ca):
    order = {q: i for i, q in enumerate(ca.cell_states)}
    return lambda nb: tuple(order[q] for q in nb)


def _write_rule_common(ca) -> dict:
    return {
        "cell_states": " ".join(str(q) for q in ca.cell_states),
        "width": ca.width,
        "radius": ca.radius,
        "boundary": f"fixed {ca.boundary_value}" if ca.boundary == BOUNDARY_FIXED else "periodic",
    }


def _write_ca(ca: CellularAutomaton) -> dict:
    if ca.rule_expr is not None:
        rule = ("expr", ca.rule_expr)
    else:
        rule = ("table", [" ".join(str(q) for q in nb) + f" -> {ca.rule[nb]}"
                          for nb in sorted(ca.rule, key=_nb_sort_key(ca))])
    return {**_write_rule_common(ca), "rule": rule}


def _write_pca(pca: ProbabilisticCellularAutomaton) -> dict:
    entries = []
    for nb in sorted(pca.rule, key=_nb_sort_key(pca)):
        pairs = " ".join(f"{state}@{prob!r}" for state, prob in pca.rule[nb])
        entries.append(" ".join(str(q) for q in nb) + f" -> {pairs}")
    return {**_write_rule_common(pca), "rule": ("table", entries)}


def _write_ha(ha: HierarchicalAutomaton) -> dict:
    return {
        "sas": " ".join(sa.name for sa in ha.sas),
        "root": ha.root,
        "gamma": [f"{owner} {state} -> " + " ".join(sorted(ha.gamma[owner, state]))
                  for owner, state in sorted(ha.gamma)],
    }


def _write_readout(r: Readout | None):
    if r is None:
        return None
    if r.kind == "cell":
        return ("expr", f"cell {r.cell}")
    if r.kind == "parity":
        return ("expr", f"parity {r.target}")
    return ("table", [" ".join(str(q) for q in lattice) + f" -> {r.table[lattice]}"
                      for lattice in sorted(r.table, key=lambda lat: tuple(str(q) for q in lat))])


def _write_binding(b: Binding) -> dict:
    return {
        "mode": b.mode,
        "ca": b.ca,
        "t_max": b.t_max,
        "seed": " ".join(str(q) for q in b.seed) if b.seed is not None else None,
        "outer_sa": b.outer_sa,
        "readout": _write_readout(b.readout),
        "cell_map": [f"{state} -> " + " ".join(_unit_ref(b.cell_map[state])) for state in sorted(b.cell_map, key=str)],
    }


def _write_ma(ma: MimicAutomaton) -> dict:
    return {
        "sas": " ".join(sorted(ma.sa_set)) or None,
        "cas": " ".join(sorted(ma.ca_set)) or None,
        "has": " ".join(sorted(ma.ha_set)) or None,
        "bindings": " ".join(sorted(ma.bindings)) or None,
        "root_binding": ma.root_binding,
        "max_depth": ma.max_depth,
    }


def _write_dhr(d: DhrStructure) -> dict:
    return {
        "executors": " ".join(sa.name for sa in d.executors),
        "scheduler": d.scheduler.name,
        "width": d.width,
        "voter": d.voter.kind,
        "quorum": d.voter.quorum,
        "prefs": " ".join(_ser_word(w) for w in d.voter.preferences) or None,
        "initial_lattice": (" ".join(str(q) for q in d.initial_lattice)
                            if d.initial_lattice is not None else None),
    }


def _write_serial(s: SerialDhr) -> dict:
    return {"stages": " ".join(st.name for st in s.stages)}


def _write_property(p: Property) -> dict:
    return {
        "kind": p.kind,
        "pattern": p.pattern.name if p.kind == BAD_PREFIX else None,
        "predicate": render_predicate(p.predicate) if p.kind != BAD_PREFIX else None,
        "inputs": " ".join(_ser_word(w) for w in p.inputs) if p.inputs is not None else None,
        "policy": " ".join(_ser_word(w) for w in p.policy) if p.policy is not None else None,
        "horizon": p.horizon,
    }


def _write_signature(sig: Signature) -> dict:
    return {"description": f'"{sig.description}"', "severity": sig.severity, "pattern": sig.pattern.name}


def _write_block(kind: str, name: str, spec: _Kind, values: dict) -> str:
    """A value of None omits its field; a repeatable field has a list of
    values; a field with sub-keys has ``(sub, text)``, or ``(sub, entries)`` for a table."""
    lines = [f"{kind} {name} {{"]
    for field, fs in spec.fields.items():
        value = values.get(field)
        if value is None:
            continue
        if not fs.subs:
            lines += [f"  {field}: {v}" for v in (value if fs.repeat else [value])]
        elif value[0] == "table":
            lines.append(f"  {field} table:")
            lines += ["    " + entry for entry in value[1]]
        else:
            lines.append(f"  {field} {value[0]}: {value[1]}")
    lines.append("}")
    return "\n".join(lines)


# in build (dependency) order
_SPECS = {
    "sa": _kind("sas", _build_sa, _write_sa, "states! initial! finals inputs! outputs! partial delta*"),
    "ca": _kind("cas", _build_ca, _write_ca, "cell_states! width! radius boundary rule[expr,table]"),
    "pca": _kind("pcas", _build_pca, _write_pca, "cell_states! width! radius boundary rule[table]",
                 check=_check_ca_pca_names),
    "ha": _kind("has", _build_ha, _write_ha, "sas! root! gamma*"),
    "binding": _kind("bindings", _build_binding, _write_binding,
                     "mode! ca! t_max seed outer_sa readout[expr,table] cell_map*",
                     check=_check_bindings),
    "ma": _kind("mas", _build_ma, _write_ma, "sas cas has bindings root_binding! max_depth"),
    "dhr": _kind("dhrs", _build_dhr, _write_dhr,
                 "executors! scheduler! width! voter quorum prefs initial_lattice"),
    "serial_dhr": _kind("serial_dhrs", _build_serial, _write_serial, "stages!"),
    "property": _kind("properties", _build_property, _write_property,
                      "kind! predicate pattern inputs policy horizon"),
    "signature": _kind("signatures", _build_signature, _write_signature, "description! severity pattern!"),
}


def build_document(all_blocks: list[RawBlock]) -> tuple[ModelDocument, list[Diagnostic]]:
    diagnostics: list[Diagnostic] = []
    block_of: dict[tuple[str, str], RawBlock] = {}
    for block in all_blocks:
        key = (block.kind, block.name)
        if key in block_of:
            first = block_of[key]
            diagnostics.append(Diagnostic(
                block.file, block.line, 1,
                f"duplicate {block.kind} {block.name!r} (already defined at {first.file}:{first.line})",
            ))
            continue
        block_of[key] = block

    doc = ModelDocument()
    blocks: dict[tuple[str, str], _Block] = {}
    shared = _Shared(diagnostics)
    for kind, spec in _SPECS.items():
        built = getattr(doc, spec.attr)
        for key, raw in block_of.items():
            if raw.kind == kind:
                block = blocks[key] = _Block(raw, spec, shared)
                obj = spec.build(block, doc)
                if obj is None:
                    shared.failed.add(key)
                else:
                    built[raw.name] = obj
        if spec.check is not None:
            spec.check(doc, blocks, shared)
    return doc, diagnostics


def parse(text: str, file: str = "<string>") -> tuple[ModelDocument, list[Diagnostic]]:
    """Parse one document; diagnostics are fatal (a nonempty list means rejection)."""
    blocks, diagnostics = scan(text, file)
    doc, more = build_document(blocks)
    return doc, diagnostics + more


def parse_files(paths: list[str]) -> tuple[ModelDocument, list[Diagnostic]]:
    """Parse and merge several documents into one namespace."""
    _require_path_list(paths)
    all_blocks: list[RawBlock] = []
    diagnostics: list[Diagnostic] = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:  # the decode error names the byte
            diagnostics.append(Diagnostic(str(path), 1, 1, f"cannot read file: {exc}"))
            continue
        blocks, diags = scan(text, str(path))
        all_blocks.extend(blocks)
        diagnostics.extend(diags)
    doc, more = build_document(all_blocks)
    return doc, diagnostics + more


def _require_path_list(paths) -> None:
    if isinstance(paths, (str, bytes)):  # iterating one path would read each character as a file
        raise TypeError(f"expected a list of paths, got the {type(paths).__name__} {paths!r}")


def serialize(doc: ModelDocument) -> str:
    """Canonical text: blocks sorted by (kind, name), fields in spec order."""
    chunks: list[str] = []
    for kind in KINDS:
        spec = _SPECS[kind]
        table = getattr(doc, spec.attr)
        for name in sorted(table):
            chunks.append(_write_block(kind, name, spec, spec.write(table[name])))
    return "\n\n".join(chunks) + ("\n" if chunks else "")
