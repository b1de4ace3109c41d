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
(``<state>@<prob> ...`` for ``pca``). A ``binding`` in mode ``ca_from_sa``
carries ``readout expr: cell <i>`` / ``readout expr: parity <q>`` or
``readout table:`` with ``<lattice> -> <symbol>`` lines.

Parsing is followed by reference resolution and invariant validation; every
rejection carries at least one ``file:line:col`` diagnostic. Serialization is
canonical (blocks sorted by kind then name, fixed field order) and
``parse(serialize(doc))`` equals ``doc``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .cellular import (
    BOUNDARY_FIXED,
    BOUNDARY_PERIODIC,
    BUILTIN_RULES,
    CellularAutomaton,
    ProbabilisticCellularAutomaton,
    builtin_rule_table,
    validate_ca,
    validate_pca,
)
from .checker import BAD_PREFIX, INVARIANT, Property, REACH
from .composition import (
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
from .detect import Signature, validate_signature
from .dhr import (
    DhrStructure,
    PLURALITY,
    STRICT_MAJORITY,
    SerialDhr,
    VoterPolicy,
    validate_dhr,
    validate_serial,
)
from .errors import MimicError, PropertyError
from .hierarchical import HierarchicalAutomaton, validate_ha
from .props import parse_predicate, render_predicate
from .sequential import SequentialAutomaton, validate_sa

KINDS = ("binding", "ca", "dhr", "ha", "ma", "pca", "property", "sa", "serial_dhr", "signature")


@dataclass(frozen=True)
class Diagnostic:
    file: str
    line: int
    col: int
    message: str
    hint: str | None = None

    def __str__(self) -> str:
        text = f"{self.file}:{self.line}:{self.col}: {self.message}"
        return f"{text} ({self.hint})" if self.hint else text


@dataclass(frozen=True)
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

    def cellular(self, name: str):
        return self.cas.get(name) or self.pcas.get(name)


# ---------------------------------------------------------------------------
# lexical scan

@dataclass(frozen=True)
class Token:
    text: str
    col: int
    quoted: bool = False


@dataclass
class RawField:
    name: str
    sub: str | None
    tokens: list[Token]
    raw_rest: str
    line: int
    col: int
    entries: list[tuple[list[Token], int]] = dc_field(default_factory=list)


@dataclass
class RawBlock:
    kind: str
    name: str
    file: str
    line: int
    fields: list[RawField] = dc_field(default_factory=list)

    def field_map(self) -> dict[tuple[str, str | None], RawField]:
        return {(f.name, f.sub): f for f in self.fields}


_FIELD_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\s+(table|expr))?\s*:\s*(.*)$")
_OPEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s+(\S+)\s*\{\s*$")
_RESERVED_IN_TOKEN = set('{}"#:')


def _strip_comment(line: str) -> str:
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out)


def _tokenize(text: str, line_no: int, base_col: int, diagnostics: list[Diagnostic], file: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = base_col + i
        if ch == '"':
            end = text.find('"', i + 1)
            if end < 0:
                diagnostics.append(Diagnostic(file, line_no, col, "unterminated string"))
                return tokens
            tokens.append(Token(text[i + 1 : end], col, quoted=True))
            i = end + 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in _RESERVED_IN_TOKEN:
            j += 1
        if j == i:
            diagnostics.append(Diagnostic(file, line_no, col, f"unexpected character {ch!r}"))
            return tokens
        tokens.append(Token(text[i:j], col))
        i = j
    return tokens


def scan(text: str, file: str = "<string>") -> tuple[list[RawBlock], list[Diagnostic]]:
    blocks: list[RawBlock] = []
    diagnostics: list[Diagnostic] = []
    current: RawBlock | None = None
    table: RawField | None = None

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        stripped_full = _strip_comment(raw_line)
        stripped = stripped_full.strip()
        if not stripped:
            continue
        indent = len(stripped_full) - len(stripped_full.lstrip())

        if current is None:
            match = _OPEN_RE.match(stripped)
            if match is None:
                diagnostics.append(
                    Diagnostic(file, line_no, indent + 1, "expected a block header",
                               hint="kind name {")
                )
                continue
            kind, name = match.group(1), match.group(2)
            if kind not in KINDS:
                diagnostics.append(
                    Diagnostic(file, line_no, indent + 1, f"unknown block kind {kind!r}",
                               hint="one of " + ", ".join(KINDS))
                )
            current = RawBlock(kind, name, file, line_no)
            table = None
            continue

        if stripped == "}":
            blocks.append(current)
            current = None
            table = None
            continue

        match = _FIELD_RE.match(stripped)
        if match is not None:
            name, sub, rest = match.group(1), match.group(2), match.group(3)
            rest_col = indent + len(stripped) - len(rest) + 1
            tokens = _tokenize(rest, line_no, rest_col, diagnostics, file)
            field = RawField(name, sub, tokens, rest.strip(), line_no, indent + 1)
            current.fields.append(field)
            table = field if sub == "table" else None
            continue

        if table is not None:
            tokens = _tokenize(stripped, line_no, indent + 1, diagnostics, file)
            table.entries.append((tokens, line_no))
            continue

        diagnostics.append(
            Diagnostic(file, line_no, indent + 1, "expected a field line",
                       hint="name: values, or a table entry after 'rule table:'")
        )

    if current is not None:
        diagnostics.append(Diagnostic(file, current.line, 1, f"unclosed block {current.kind} {current.name}"))
    return blocks, diagnostics


# ---------------------------------------------------------------------------
# building domain objects from raw blocks

class _Builder:
    def __init__(self):
        self.diagnostics: list[Diagnostic] = []
        self.locations: dict[tuple[str, str], tuple[str, int]] = {}

    def err(self, block: RawBlock, message: str, line: int | None = None, col: int = 1, hint=None):
        self.diagnostics.append(Diagnostic(block.file, line or block.line, col, message, hint))

    def report_violations(self, block: RawBlock, violations) -> None:
        for v in violations:
            self.err(block, f"{block.kind} {block.name}: {v}")


def _take(block: RawBlock, name: str, builder: _Builder, sub=None, required=False) -> RawField | None:
    found = [f for f in block.fields if f.name == name and (sub is None or f.sub == sub)]
    if not found:
        if required:
            builder.err(block, f"{block.kind} {block.name}: missing field {name!r}")
        return None
    if len(found) > 1 and name not in ("delta", "gamma", "cell_map"):
        builder.err(block, f"duplicate field {name!r}", line=found[1].line, col=found[1].col)
    return found[0]


def _take_all(block: RawBlock, name: str) -> list[RawField]:
    return [f for f in block.fields if f.name == name]


def _names(field: RawField) -> list[str]:
    return [t.text for t in field.tokens]


def _one_name(block: RawBlock, name: str, builder: _Builder, required=True) -> str | None:
    field = _take(block, name, builder, required=required)
    if field is None:
        return None
    if len(field.tokens) != 1:
        builder.err(block, f"field {name!r} expects exactly one value", line=field.line, col=field.col)
        return None
    return field.tokens[0].text


def _int_field(block: RawBlock, name: str, builder: _Builder, required=True, default=None) -> int | None:
    field = _take(block, name, builder, required=required)
    if field is None:
        return default
    if len(field.tokens) != 1:
        builder.err(block, f"field {name!r} expects one integer", line=field.line, col=field.col)
        return default
    try:
        return int(field.tokens[0].text)
    except ValueError:
        builder.err(block, f"field {name!r}: {field.tokens[0].text!r} is not an integer",
                    line=field.line, col=field.tokens[0].col)
        return default


def _word(token: Token) -> tuple[str, ...]:
    return tuple(token.text)


def _words_field(block: RawBlock, name: str, builder: _Builder) -> tuple[tuple[str, ...], ...] | None:
    field = _take(block, name, builder)
    if field is None:
        return None
    words = []
    for token in field.tokens:
        if not token.quoted:
            builder.err(block, f"field {name!r} expects quoted words", line=field.line, col=token.col)
            return None
        words.append(_word(token))
    return tuple(words)


def _check_unknown_fields(block: RawBlock, known: set[str], builder: _Builder) -> None:
    for f in block.fields:
        if f.name not in known:
            builder.err(block, f"unknown field {f.name!r} in {block.kind} block",
                        line=f.line, col=f.col, hint="expected one of " + ", ".join(sorted(known)))


def _build_sa(block: RawBlock, builder: _Builder) -> SequentialAutomaton | None:
    _check_unknown_fields(block, {"states", "initial", "finals", "inputs", "outputs", "partial", "delta"}, builder)
    states_f = _take(block, "states", builder, required=True)
    initial = _one_name(block, "initial", builder)
    finals_f = _take(block, "finals", builder)
    inputs_f = _take(block, "inputs", builder, required=True)
    outputs_f = _take(block, "outputs", builder, required=True)
    partial_f = _take(block, "partial", builder)
    if states_f is None or initial is None or inputs_f is None or outputs_f is None:
        return None
    states = _names(states_f)
    inputs = _names(inputs_f)
    outputs = _names(outputs_f)
    finals = _names(finals_f) if finals_f is not None else []
    allow_partial = False
    if partial_f is not None:
        value = " ".join(_names(partial_f))
        if value not in ("true", "false"):
            builder.err(block, "field 'partial' expects true or false", line=partial_f.line, col=partial_f.col)
        allow_partial = value == "true"

    transitions = {}
    out_map = {}
    for f in _take_all(block, "delta"):
        tokens = f.tokens
        shape_ok = (
            len(tokens) in (4, 6)
            and tokens[2].text == "->"
            and (len(tokens) == 4 or tokens[4].text == "/")
        )
        if not shape_ok:
            builder.err(block, "delta expects '<state> <sym> -> <state> [/ <out>]'", line=f.line, col=f.col)
            continue
        src, sym, dst = tokens[0].text, tokens[1].text, tokens[3].text
        out = tokens[5].text if len(tokens) == 6 else sym
        if src not in states:
            builder.err(block, f"delta source {src!r} is not a state", line=f.line, col=tokens[0].col)
        if sym not in inputs:
            builder.err(block, f"delta symbol {sym!r} is not in the input alphabet", line=f.line, col=tokens[1].col)
        if dst not in states:
            builder.err(block, f"delta target {dst!r} is not a state", line=f.line, col=tokens[3].col)
        if out not in outputs:
            builder.err(block, f"delta output {out!r} is not in the output alphabet", line=f.line, col=f.col)
        if (src, sym) in transitions:
            builder.err(block, f"duplicate delta for ({src}, {sym})", line=f.line, col=f.col)
        transitions[(src, sym)] = dst
        out_map[(src, sym)] = out

    sa = SequentialAutomaton(
        name=block.name,
        states=tuple(states),
        initial=initial,
        finals=frozenset(finals),
        input_alphabet=tuple(inputs),
        output_alphabet=tuple(outputs),
        transitions=transitions,
        outputs=out_map,
        allow_partial=allow_partial,
    )
    builder.report_violations(block, validate_sa(sa))
    return sa


def _build_rule_common(block: RawBlock, builder: _Builder):
    states_f = _take(block, "cell_states", builder, required=True)
    width = _int_field(block, "width", builder)
    radius = _int_field(block, "radius", builder, required=False, default=1)
    boundary_f = _take(block, "boundary", builder)
    boundary = BOUNDARY_PERIODIC
    boundary_value = None
    if boundary_f is not None:
        names = _names(boundary_f)
        if names and names[0] == BOUNDARY_PERIODIC and len(names) == 1:
            boundary = BOUNDARY_PERIODIC
        elif names and names[0] == BOUNDARY_FIXED and len(names) == 2:
            boundary = BOUNDARY_FIXED
            boundary_value = names[1]
        else:
            builder.err(block, "boundary expects 'periodic' or 'fixed <state>'",
                        line=boundary_f.line, col=boundary_f.col)
    if states_f is None or width is None or radius is None:
        return None
    return tuple(_names(states_f)), width, radius, boundary, boundary_value


def _build_ca(block: RawBlock, builder: _Builder) -> CellularAutomaton | None:
    _check_unknown_fields(block, {"cell_states", "width", "radius", "boundary", "rule"}, builder)
    common = _build_rule_common(block, builder)
    if common is None:
        return None
    cell_states, width, radius, boundary, boundary_value = common
    expr_f = _take(block, "rule", builder, sub="expr")
    table_f = _take(block, "rule", builder, sub="table")
    if expr_f is not None and table_f is not None:
        builder.err(block, "give either 'rule expr:' or 'rule table:', not both",
                    line=table_f.line, col=table_f.col)

    rule = None
    rule_expr = None
    if expr_f is not None:
        names = _names(expr_f)
        if len(names) != 1 or names[0] not in BUILTIN_RULES:
            builder.err(block, "rule expr expects one of " + "|".join(BUILTIN_RULES),
                        line=expr_f.line, col=expr_f.col)
            return None
        rule_expr = names[0]
        try:
            rule = builtin_rule_table(rule_expr, cell_states, radius)
        except MimicError as exc:
            builder.err(block, str(exc), line=expr_f.line, col=expr_f.col)
            return None
    elif table_f is not None:
        rule = {}
        size = 2 * radius + 1
        for tokens, line in table_f.entries:
            texts = [t.text for t in tokens]
            if "->" not in texts or texts.index("->") != size or len(texts) != size + 2:
                builder.err(block, f"rule entry expects {size} states, '->', one state", line=line)
                continue
            neighborhood = tuple(texts[:size])
            rule[neighborhood] = texts[size + 1]
    else:
        builder.err(block, f"ca {block.name}: missing 'rule expr:' or 'rule table:'")
        return None

    ca = CellularAutomaton(
        name=block.name,
        cell_states=cell_states,
        width=width,
        radius=radius,
        boundary=boundary,
        boundary_value=boundary_value,
        rule=rule,
        rule_expr=rule_expr,
    )
    builder.report_violations(block, validate_ca(ca))
    return ca


def _build_pca(block: RawBlock, builder: _Builder) -> ProbabilisticCellularAutomaton | None:
    _check_unknown_fields(block, {"cell_states", "width", "radius", "boundary", "rule"}, builder)
    common = _build_rule_common(block, builder)
    if common is None:
        return None
    cell_states, width, radius, boundary, boundary_value = common
    table_f = _take(block, "rule", builder, sub="table")
    if table_f is None:
        builder.err(block, f"pca {block.name}: missing 'rule table:'")
        return None
    size = 2 * radius + 1
    rule = {}
    for tokens, line in table_f.entries:
        texts = [t.text for t in tokens]
        if len(texts) < size + 2 or texts[size] != "->":
            builder.err(block, f"rule entry expects {size} states, '->', then state@prob pairs", line=line)
            continue
        neighborhood = tuple(texts[:size])
        pairs = []
        ok = True
        for part in texts[size + 1 :]:
            if "@" not in part:
                builder.err(block, f"expected <state>@<prob>, got {part!r}", line=line)
                ok = False
                break
            state, _, prob_text = part.rpartition("@")
            try:
                pairs.append((state, float(prob_text)))
            except ValueError:
                builder.err(block, f"bad probability {prob_text!r}", line=line)
                ok = False
                break
        if ok:
            rule[neighborhood] = tuple(pairs)

    pca = ProbabilisticCellularAutomaton(
        name=block.name,
        cell_states=cell_states,
        width=width,
        radius=radius,
        boundary=boundary,
        boundary_value=boundary_value,
        rule=rule,
    )
    builder.report_violations(block, validate_pca(pca))
    return pca


def _build_ha(block: RawBlock, builder: _Builder, sas: dict[str, SequentialAutomaton]) -> HierarchicalAutomaton | None:
    _check_unknown_fields(block, {"sas", "root", "gamma"}, builder)
    members_f = _take(block, "sas", builder, required=True)
    root = _one_name(block, "root", builder)
    if members_f is None or root is None:
        return None
    members = []
    for token in members_f.tokens:
        sa = sas.get(token.text)
        if sa is None:
            builder.err(block, f"unknown machine {token.text!r}", line=members_f.line, col=token.col)
            return None
        members.append(sa)
    gamma = {}
    for f in _take_all(block, "gamma"):
        texts = [t.text for t in f.tokens]
        if len(texts) < 4 or texts[2] != "->":
            builder.err(block, "gamma expects '<machine> <state> -> <child> ...'", line=f.line, col=f.col)
            continue
        key = (texts[0], texts[1])
        if key in gamma:
            builder.err(block, f"duplicate gamma for {key}", line=f.line, col=f.col)
        gamma[key] = frozenset(texts[3:])
    ha = HierarchicalAutomaton(name=block.name, sas=tuple(members), root=root, gamma=gamma)
    builder.report_violations(block, validate_ha(ha))
    return ha


def _build_readout(block: RawBlock, builder: _Builder) -> Readout | None:
    expr_f = None
    table_f = None
    for f in block.fields:
        if f.name == "readout" and f.sub == "expr":
            expr_f = f
        elif f.name == "readout" and f.sub == "table":
            table_f = f
    if expr_f is None and table_f is None:
        return None
    if expr_f is not None:
        names = _names(expr_f)
        if len(names) == 2 and names[0] == "cell":
            try:
                return Readout(kind="cell", cell=int(names[1]))
            except ValueError:
                pass
        if len(names) == 2 and names[0] == "parity":
            return Readout(kind="parity", target=names[1])
        builder.err(block, "readout expr expects 'cell <index>' or 'parity <state>'",
                    line=expr_f.line, col=expr_f.col)
        return None
    table = {}
    for tokens, line in table_f.entries:
        texts = [t.text for t in tokens]
        if "->" not in texts or texts.index("->") != len(texts) - 2:
            builder.err(block, "readout entry expects '<lattice> -> <symbol>'", line=line)
            continue
        arrow = texts.index("->")
        table[tuple(texts[:arrow])] = texts[arrow + 1]
    return Readout(kind="table", table=table)


def _build_binding(block: RawBlock, builder: _Builder) -> Binding | None:
    _check_unknown_fields(block, {"mode", "ca", "t_max", "seed", "outer_sa", "readout", "cell_map"}, builder)
    mode = _one_name(block, "mode", builder)
    ca = _one_name(block, "ca", builder)
    if mode is None or ca is None:
        return None
    if mode not in (MODE_SA_FROM_CA, MODE_CA_FROM_SA):
        builder.err(block, f"mode must be {MODE_SA_FROM_CA} or {MODE_CA_FROM_SA}")
        return None
    t_max = _int_field(block, "t_max", builder, required=False, default=1000)
    seed_f = _take(block, "seed", builder)
    seed = tuple(_names(seed_f)) if seed_f is not None else None
    outer = _one_name(block, "outer_sa", builder, required=False)
    readout = _build_readout(block, builder)

    cell_map: dict[str, Unit] = {}
    for f in _take_all(block, "cell_map"):
        texts = [t.text for t in f.tokens]
        if len(texts) != 4 or texts[1] != "->" or texts[2] not in ("sa", "ha", "binding"):
            builder.err(block, "cell_map expects '<state> -> sa|ha|binding <name>'", line=f.line, col=f.col)
            continue
        state, kind, name = texts[0], texts[2], texts[3]
        if state in cell_map:
            builder.err(block, f"duplicate cell_map for {state!r}", line=f.line, col=f.col)
        if kind == "sa":
            cell_map[state] = SaUnit(name)
        elif kind == "ha":
            cell_map[state] = HaUnit(name)
        else:
            cell_map[state] = NestedUnit(name)

    return Binding(
        name=block.name,
        mode=mode,
        ca=ca,
        cell_map=cell_map,
        t_max=t_max,
        outer_sa=outer,
        readout=readout,
        seed=seed,
    )


def _build_voter(block: RawBlock, builder: _Builder, width: int) -> VoterPolicy:
    kind_f = _take(block, "voter", builder)
    kind = STRICT_MAJORITY
    if kind_f is not None:
        names = _names(kind_f)
        if len(names) == 1 and names[0] in (STRICT_MAJORITY, PLURALITY):
            kind = names[0]
        else:
            builder.err(block, f"voter expects {STRICT_MAJORITY} or {PLURALITY}",
                        line=kind_f.line, col=kind_f.col)
    quorum = _int_field(block, "quorum", builder, required=False)
    prefs = ()
    if any(f.name == "prefs" for f in block.fields):
        prefs = _words_field(block, "prefs", builder) or ()
    return VoterPolicy(kind=kind, quorum=quorum, preferences=prefs)


def _build_dhr(block: RawBlock, builder: _Builder, doc: ModelDocument) -> DhrStructure | None:
    known = {"executors", "scheduler", "width", "voter", "quorum", "prefs", "initial_lattice"}
    _check_unknown_fields(block, known, builder)
    executors_f = _take(block, "executors", builder, required=True)
    scheduler_name = _one_name(block, "scheduler", builder)
    width = _int_field(block, "width", builder)
    if executors_f is None or scheduler_name is None or width is None:
        return None
    executors = []
    for token in executors_f.tokens:
        sa = doc.sas.get(token.text)
        if sa is None:
            builder.err(block, f"unknown executor {token.text!r}", line=executors_f.line, col=token.col)
            return None
        executors.append(sa)
    scheduler = doc.cellular(scheduler_name)
    if scheduler is None:
        builder.err(block, f"unknown scheduler {scheduler_name!r}")
        return None
    lattice_f = _take(block, "initial_lattice", builder)
    lattice = tuple(_names(lattice_f)) if lattice_f is not None else None
    voter = _build_voter(block, builder, width)
    dhr = DhrStructure(
        name=block.name,
        executors=tuple(executors),
        scheduler=scheduler,
        width=width,
        voter=voter,
        initial_lattice=lattice,
    )
    builder.report_violations(block, validate_dhr(dhr))
    return dhr


def _build_property(block: RawBlock, builder: _Builder, sas: dict[str, SequentialAutomaton]) -> Property | None:
    known = {"kind", "predicate", "pattern", "inputs", "policy", "horizon"}
    _check_unknown_fields(block, known, builder)
    kind = _one_name(block, "kind", builder)
    if kind is None:
        return None
    if kind not in (INVARIANT, REACH, BAD_PREFIX):
        builder.err(block, f"property kind must be {INVARIANT}, {REACH} or {BAD_PREFIX}")
        return None
    predicate = None
    pattern = None
    if kind == BAD_PREFIX:
        pattern_name = _one_name(block, "pattern", builder)
        if pattern_name is None:
            return None
        pattern = sas.get(pattern_name)
        if pattern is None:
            builder.err(block, f"unknown pattern machine {pattern_name!r}")
            return None
    else:
        pred_f = _take(block, "predicate", builder, required=True)
        if pred_f is None:
            return None
        try:
            predicate = parse_predicate(pred_f.raw_rest)
        except PropertyError as exc:
            builder.err(block, str(exc), line=pred_f.line, col=pred_f.col)
            return None
    inputs = _words_field(block, "inputs", builder)
    policy = _words_field(block, "policy", builder)
    horizon = _int_field(block, "horizon", builder, required=False)
    if horizon is not None and horizon < 0:
        field = _take_all(block, "horizon")[0]
        builder.err(block, f"field 'horizon' must be >= 0, got {horizon}",
                    line=field.line, col=field.tokens[0].col)
        return None
    return Property(
        name=block.name,
        kind=kind,
        predicate=predicate,
        pattern=pattern,
        inputs=inputs,
        policy=policy,
        horizon=horizon,
    )


def _build_signature(block: RawBlock, builder: _Builder, sas: dict[str, SequentialAutomaton]) -> Signature | None:
    _check_unknown_fields(block, {"description", "severity", "pattern"}, builder)
    desc_f = _take(block, "description", builder, required=True)
    pattern_name = _one_name(block, "pattern", builder)
    severity = _int_field(block, "severity", builder, required=False, default=1)
    if desc_f is None or pattern_name is None:
        return None
    if len(desc_f.tokens) != 1 or not desc_f.tokens[0].quoted:
        builder.err(block, "description expects one quoted string", line=desc_f.line, col=desc_f.col)
        return None
    pattern = sas.get(pattern_name)
    if pattern is None:
        builder.err(block, f"unknown pattern machine {pattern_name!r}")
        return None
    sig = Signature(
        id=block.name, description=desc_f.tokens[0].text, pattern=pattern, severity=severity
    )
    builder.report_violations(block, validate_signature(sig))
    return sig


def _build_ma(block: RawBlock, builder: _Builder, doc: ModelDocument) -> MimicAutomaton | None:
    known = {"sas", "cas", "has", "bindings", "root_binding", "max_depth"}
    _check_unknown_fields(block, known, builder)
    root = _one_name(block, "root_binding", builder)
    if root is None:
        return None
    max_depth = _int_field(block, "max_depth", builder, required=False, default=4)

    def collect(field_name: str, source: dict, extra: dict | None = None):
        f = _take(block, field_name, builder)
        out = {}
        if f is None:
            return out
        for token in f.tokens:
            obj = source.get(token.text)
            if obj is None and extra is not None:
                obj = extra.get(token.text)
            if obj is None:
                builder.err(block, f"unknown reference {token.text!r} in {field_name!r}",
                            line=f.line, col=token.col)
                continue
            out[token.text] = obj
        return out

    sa_set = collect("sas", doc.sas)
    ca_set = collect("cas", doc.cas, doc.pcas)
    ha_set = collect("has", doc.has)
    bindings = collect("bindings", doc.bindings)
    if root not in bindings and root in doc.bindings:
        bindings[root] = doc.bindings[root]
    if root not in bindings:
        builder.err(block, f"unknown root binding {root!r}")
        return None
    ma = MimicAutomaton(
        name=block.name,
        sa_set=sa_set,
        ca_set=ca_set,
        ha_set=ha_set,
        bindings=bindings,
        root_binding=root,
        max_depth=max_depth,
    )
    builder.report_violations(block, validate_ma(ma))
    return ma


def _build_serial(block: RawBlock, builder: _Builder, doc: ModelDocument) -> SerialDhr | None:
    _check_unknown_fields(block, {"stages"}, builder)
    stages_f = _take(block, "stages", builder, required=True)
    if stages_f is None:
        return None
    stages = []
    for token in stages_f.tokens:
        dhr = doc.dhrs.get(token.text)
        if dhr is None:
            builder.err(block, f"unknown stage {token.text!r}", line=stages_f.line, col=token.col)
            return None
        stages.append(dhr)
    serial = SerialDhr(name=block.name, stages=tuple(stages))
    builder.report_violations(block, validate_serial(serial))
    return serial


def _check_binding_references(doc: ModelDocument, block_of: dict[tuple[str, str], RawBlock], builder: _Builder):
    for name, binding in sorted(doc.bindings.items()):
        block = block_of[("binding", name)]
        if doc.cellular(binding.ca) is None:
            builder.err(block, f"unknown cellular automaton {binding.ca!r}")
        for state, unit in sorted(binding.cell_map.items(), key=lambda kv: str(kv[0])):
            if isinstance(unit, SaUnit) and unit.sa not in doc.sas:
                builder.err(block, f"cell_map for {state!r}: unknown machine {unit.sa!r}")
            elif isinstance(unit, HaUnit) and unit.ha not in doc.has:
                builder.err(block, f"cell_map for {state!r}: unknown hierarchy {unit.ha!r}")
            elif isinstance(unit, NestedUnit) and unit.binding not in doc.bindings:
                builder.err(block, f"cell_map for {state!r}: unknown binding {unit.binding!r}")
        if binding.outer_sa is not None and binding.outer_sa not in doc.sas:
            builder.err(block, f"unknown outer machine {binding.outer_sa!r}")

    # standalone invariant check for bindings not owned by any ma block
    in_ma = {bname for ma in doc.mas.values() for bname in ma.bindings}
    loose = [n for n in sorted(doc.bindings) if n not in in_ma]
    if loose:
        probe = MimicAutomaton(
            name="<document>",
            sa_set=doc.sas,
            ca_set={**doc.cas, **doc.pcas},
            ha_set=doc.has,
            bindings=doc.bindings,
            root_binding=loose[0],
            max_depth=64,
        )
        for v in validate_ma(probe):
            match = re.match(r"binding (\S+)$", v.subject)
            name = match.group(1) if match else None
            if name in loose:
                builder.err(block_of[("binding", name)], f"binding {name}: {v}")


def build_document(all_blocks: list[RawBlock]) -> tuple[ModelDocument, list[Diagnostic]]:
    builder = _Builder()
    block_of: dict[tuple[str, str], RawBlock] = {}
    for block in all_blocks:
        key = (block.kind, block.name)
        if key in block_of:
            first = block_of[key]
            builder.err(
                block,
                f"duplicate {block.kind} {block.name!r} (already defined at {first.file}:{first.line})",
            )
            continue
        block_of[key] = block

    doc = ModelDocument()
    order = {kind: [b for b in block_of.values() if b.kind == kind] for kind in KINDS}
    for block in order["sa"]:
        obj = _build_sa(block, builder)
        if obj is not None:
            doc.sas[block.name] = obj
    for block in order["ca"]:
        obj = _build_ca(block, builder)
        if obj is not None:
            doc.cas[block.name] = obj
    for block in order["pca"]:
        obj = _build_pca(block, builder)
        if obj is not None:
            doc.pcas[block.name] = obj
    for name in set(doc.cas) & set(doc.pcas):
        builder.err(block_of[("pca", name)], f"{name!r} is defined as both ca and pca")
    for block in order["ha"]:
        obj = _build_ha(block, builder, doc.sas)
        if obj is not None:
            doc.has[block.name] = obj
    for block in order["binding"]:
        obj = _build_binding(block, builder)
        if obj is not None:
            doc.bindings[block.name] = obj
    _check_binding_references(doc, block_of, builder)
    for block in order["ma"]:
        obj = _build_ma(block, builder, doc)
        if obj is not None:
            doc.mas[block.name] = obj
    for block in order["dhr"]:
        obj = _build_dhr(block, builder, doc)
        if obj is not None:
            doc.dhrs[block.name] = obj
    for block in order["serial_dhr"]:
        obj = _build_serial(block, builder, doc)
        if obj is not None:
            doc.serial_dhrs[block.name] = obj
    for block in order["property"]:
        obj = _build_property(block, builder, doc.sas)
        if obj is not None:
            doc.properties[block.name] = obj
    for block in order["signature"]:
        obj = _build_signature(block, builder, doc.sas)
        if obj is not None:
            doc.signatures[block.name] = obj

    for block in all_blocks:
        builder.locations[(block.kind, block.name)] = (block.file, block.line)
    return doc, builder.diagnostics


def parse(text: str, file: str = "<string>") -> tuple[ModelDocument, list[Diagnostic]]:
    """Parse one document; diagnostics are fatal (a nonempty list means rejection)."""
    blocks, diagnostics = scan(text, file)
    doc, more = build_document(blocks)
    return doc, diagnostics + more


def parse_files(paths: list[str]) -> tuple[ModelDocument, list[Diagnostic]]:
    """Parse and merge several documents into one namespace."""
    all_blocks: list[RawBlock] = []
    diagnostics: list[Diagnostic] = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            diagnostics.append(Diagnostic(str(path), 1, 1, f"cannot read file: {exc}"))
            continue
        blocks, diags = scan(text, str(path))
        all_blocks.extend(blocks)
        diagnostics.extend(diags)
    doc, more = build_document(all_blocks)
    return doc, diagnostics + more


# ---------------------------------------------------------------------------
# canonical serialization

def _ser_word(word) -> str:
    parts = [str(s) for s in word]
    if any(len(p) != 1 for p in parts):
        raise MimicError(f"only single-character symbols serialize into words: {word!r}")
    return '"' + "".join(parts) + '"'


def _ser_sa(name: str, sa: SequentialAutomaton) -> list[str]:
    lines = [f"sa {name} {{"]
    lines.append("  states: " + " ".join(sa.states))
    lines.append(f"  initial: {sa.initial}")
    lines.append("  finals: " + " ".join(s for s in sa.states if s in sa.finals))
    lines.append("  inputs: " + " ".join(sa.input_alphabet))
    lines.append("  outputs: " + " ".join(sa.output_alphabet))
    if sa.allow_partial:
        lines.append("  partial: true")
    for state in sa.states:
        for sym in sa.input_alphabet:
            key = (state, sym)
            if key in sa.transitions:
                lines.append(f"  delta: {state} {sym} -> {sa.transitions[key]} / {sa.outputs[key]}")
    lines.append("}")
    return lines


def _ser_rule_common(ca) -> list[str]:
    lines = ["  cell_states: " + " ".join(str(q) for q in ca.cell_states)]
    lines.append(f"  width: {ca.width}")
    lines.append(f"  radius: {ca.radius}")
    if ca.boundary == BOUNDARY_FIXED:
        lines.append(f"  boundary: fixed {ca.boundary_value}")
    else:
        lines.append("  boundary: periodic")
    return lines


def _nb_sort_key(ca):
    order = {q: i for i, q in enumerate(ca.cell_states)}
    return lambda nb: tuple(order[q] for q in nb)


def _ser_ca(name: str, ca: CellularAutomaton) -> list[str]:
    lines = [f"ca {name} {{"] + _ser_rule_common(ca)
    if ca.rule_expr is not None:
        lines.append(f"  rule expr: {ca.rule_expr}")
    else:
        lines.append("  rule table:")
        for nb in sorted(ca.rule, key=_nb_sort_key(ca)):
            lines.append("    " + " ".join(str(q) for q in nb) + f" -> {ca.rule[nb]}")
    lines.append("}")
    return lines


def _ser_pca(name: str, pca: ProbabilisticCellularAutomaton) -> list[str]:
    lines = [f"pca {name} {{"] + _ser_rule_common(pca)
    lines.append("  rule table:")
    for nb in sorted(pca.rule, key=_nb_sort_key(pca)):
        pairs = " ".join(f"{state}@{prob!r}" for state, prob in pca.rule[nb])
        lines.append("    " + " ".join(str(q) for q in nb) + f" -> {pairs}")
    lines.append("}")
    return lines


def _ser_ha(name: str, ha: HierarchicalAutomaton) -> list[str]:
    lines = [f"ha {name} {{"]
    lines.append("  sas: " + " ".join(sa.name for sa in ha.sas))
    lines.append(f"  root: {ha.root}")
    for (owner, state) in sorted(ha.gamma):
        children = " ".join(sorted(ha.gamma[(owner, state)]))
        lines.append(f"  gamma: {owner} {state} -> {children}")
    lines.append("}")
    return lines


def _ser_unit(unit: Unit) -> str:
    if isinstance(unit, SaUnit):
        return f"sa {unit.sa}"
    if isinstance(unit, HaUnit):
        return f"ha {unit.ha}"
    return f"binding {unit.binding}"


def _ser_binding(name: str, b: Binding) -> list[str]:
    lines = [f"binding {name} {{"]
    lines.append(f"  mode: {b.mode}")
    lines.append(f"  ca: {b.ca}")
    lines.append(f"  t_max: {b.t_max}")
    if b.seed is not None:
        lines.append("  seed: " + " ".join(str(q) for q in b.seed))
    if b.outer_sa is not None:
        lines.append(f"  outer_sa: {b.outer_sa}")
    if b.readout is not None:
        r = b.readout
        if r.kind == "cell":
            lines.append(f"  readout expr: cell {r.cell}")
        elif r.kind == "parity":
            lines.append(f"  readout expr: parity {r.target}")
        else:
            lines.append("  readout table:")
            for lattice in sorted(r.table, key=lambda lat: tuple(str(q) for q in lat)):
                lines.append("    " + " ".join(str(q) for q in lattice) + f" -> {r.table[lattice]}")
    for state in sorted(b.cell_map, key=str):
        lines.append(f"  cell_map: {state} -> {_ser_unit(b.cell_map[state])}")
    lines.append("}")
    return lines


def _ser_ma(name: str, ma: MimicAutomaton) -> list[str]:
    lines = [f"ma {name} {{"]
    if ma.sa_set:
        lines.append("  sas: " + " ".join(sorted(ma.sa_set)))
    if ma.ca_set:
        lines.append("  cas: " + " ".join(sorted(ma.ca_set)))
    if ma.ha_set:
        lines.append("  has: " + " ".join(sorted(ma.ha_set)))
    if ma.bindings:
        lines.append("  bindings: " + " ".join(sorted(ma.bindings)))
    lines.append(f"  root_binding: {ma.root_binding}")
    lines.append(f"  max_depth: {ma.max_depth}")
    lines.append("}")
    return lines


def _ser_dhr(name: str, d: DhrStructure) -> list[str]:
    lines = [f"dhr {name} {{"]
    lines.append("  executors: " + " ".join(sa.name for sa in d.executors))
    lines.append(f"  scheduler: {d.scheduler.name}")
    lines.append(f"  width: {d.width}")
    lines.append(f"  voter: {d.voter.kind}")
    if d.voter.quorum is not None:
        lines.append(f"  quorum: {d.voter.quorum}")
    if d.voter.preferences:
        lines.append("  prefs: " + " ".join(_ser_word(w) for w in d.voter.preferences))
    if d.initial_lattice is not None:
        lines.append("  initial_lattice: " + " ".join(str(q) for q in d.initial_lattice))
    lines.append("}")
    return lines


def _ser_serial(name: str, s: SerialDhr) -> list[str]:
    return [f"serial_dhr {name} {{", "  stages: " + " ".join(st.name for st in s.stages), "}"]


def _ser_property(name: str, p: Property) -> list[str]:
    lines = [f"property {name} {{", f"  kind: {p.kind}"]
    if p.kind == BAD_PREFIX:
        lines.append(f"  pattern: {p.pattern.name}")
    else:
        lines.append(f"  predicate: {render_predicate(p.predicate)}")
    if p.inputs is not None:
        lines.append("  inputs: " + " ".join(_ser_word(w) for w in p.inputs))
    if p.policy is not None:
        lines.append("  policy: " + " ".join(_ser_word(w) for w in p.policy))
    if p.horizon is not None:
        lines.append(f"  horizon: {p.horizon}")
    lines.append("}")
    return lines


def _ser_signature(name: str, sig: Signature) -> list[str]:
    return [
        f"signature {name} {{",
        f'  description: "{sig.description}"',
        f"  severity: {sig.severity}",
        f"  pattern: {sig.pattern.name}",
        "}",
    ]


_SERIALIZERS = {
    "binding": ("bindings", _ser_binding),
    "ca": ("cas", _ser_ca),
    "dhr": ("dhrs", _ser_dhr),
    "ha": ("has", _ser_ha),
    "ma": ("mas", _ser_ma),
    "pca": ("pcas", _ser_pca),
    "property": ("properties", _ser_property),
    "sa": ("sas", _ser_sa),
    "serial_dhr": ("serial_dhrs", _ser_serial),
    "signature": ("signatures", _ser_signature),
}


def serialize(doc: ModelDocument) -> str:
    """Canonical text: blocks sorted by (kind, name), fields in fixed order."""
    chunks: list[str] = []
    for kind in KINDS:
        attr, renderer = _SERIALIZERS[kind]
        table = getattr(doc, attr)
        for name in sorted(table):
            chunks.append("\n".join(renderer(name, table[name])))
    return "\n\n".join(chunks) + ("\n" if chunks else "")
