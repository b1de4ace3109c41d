import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import mimic_automata.sequential as sequential
from mimic_automata import MimicError, Property, PropertyError, modelfile
from mimic_automata.detect import load_signatures
from mimic_automata.errors import ModelFormatError
from mimic_automata.modelfile import (
    _BEFORE_COMMENT_RE,
    _FIELD_RE,
    ModelDocument,
    RawValue,
    _tokenize,
    build_document,
    parse,
    parse_files,
    scan,
    serialize,
)
from mimic_automata.props import eval_predicate, parse_predicate, render_predicate

from helpers import MODELS, SIGNATURES, gen_document

PARITY_BLOCK = """
sa parity {
  states: even odd
  initial: even
  finals: even
  inputs: 0 1
  outputs: 0 1
  delta: even 0 -> even / 0
  delta: even 1 -> odd / 1
  delta: odd 0 -> odd / 0
  delta: odd 1 -> even / 1
}
"""


def test_parse_parity_block():
    doc, diags = parse(PARITY_BLOCK)
    assert diags == []
    sa = doc.sas["parity"]
    assert sa.transitions[("odd", "1")] == "even"
    assert sa.outputs[("even", "0")] == "0"
    assert sa.finals == frozenset({"even"})


def test_parse_reports_symbol_outside_alphabet_with_location():
    text = PARITY_BLOCK.replace("delta: even 0 -> even / 0", "delta: even 2 -> odd / 0")
    _, diags = parse(text, "demo.ma")
    assert any("'2'" in d.message and d.file == "demo.ma" and d.line == 8 for d in diags)


def test_parse_reports_dangling_reference():
    _, diags = parse("ma broken {\n  root_binding: nope\n}\n")
    assert any("nope" in d.message for d in diags)


def test_parse_reports_unknown_field_with_hint():
    _, diags = parse("sa x {\n  state: a\n}\n")
    assert any(d.hint and "states" in d.hint for d in diags)


def test_parse_locates_unterminated_string_and_unclosed_block():
    _, diags = parse('signature s {\n  description: "oops\n}\n', "f.ma")
    messages = {d.message for d in diags}
    assert any("unterminated" in m for m in messages)


def test_negative_horizon_is_rejected_at_its_field():
    text = (MODELS / "flip.ma").read_text().replace("horizon: 2", "horizon: -3")
    doc, diags = parse(text, "flip.ma")
    line = text.splitlines().index("  horizon: -3") + 1
    assert [(d.file, d.line, d.col, d.message) for d in diags] == [
        ("flip.ma", line, 12, "field 'horizon' must be >= 0, got -3")
    ]
    assert "hit_one" not in doc.properties
    _, diags = parse(text.replace("horizon: -3", "horizon: 0"))
    assert diags == []


def test_negative_t_max_is_rejected_at_its_field():
    text = (MODELS / "flip.ma").read_text().replace("t_max: 1000", "t_max: -5")
    _, diags = parse(text, "flip.ma")
    line = text.splitlines().index("  t_max: -5") + 1
    assert [(d.file, d.line, d.col, d.message) for d in diags] == [
        ("flip.ma", line, 10, "field 't_max' must be >= 0, got -5")
    ]
    _, diags = parse(text.replace("t_max: -5", "t_max: 0"))
    assert diags == []


def test_sub_key_on_a_field_that_takes_none_is_located():
    text = PARITY_BLOCK.replace("  states: even odd", "  states table: even odd\n    even -> odd")
    _, diags = parse(text, "p.ma")
    assert [(d.line, d.col, d.message, d.hint) for d in diags] == [
        (3, 3, "field 'states' takes no sub-key 'table'", "write 'states:'")
    ]
    # pca rules are tables only; a rule field always names its form
    flip = (MODELS / "flip.ma").read_text()
    _, diags = parse(flip.replace("  rule table:", "  rule expr: identity\n  rule table:"))
    assert [(d.col, d.message, d.hint) for d in diags] == [
        (3, "field 'rule' takes no sub-key 'expr'", "write 'rule table:'")
    ]
    _, diags = parse(MODE2_TABLE_DOC.replace("  readout table:", "  readout:"))
    assert ("field 'readout' needs a sub-key", "write 'readout expr:' or 'readout table:'") in [
        (d.message, d.hint) for d in diags
    ]


def test_duplicate_and_conflicting_readouts_are_reported_at_the_second_field():
    text = MODE2_TABLE_DOC.replace("  readout table:", "  readout expr: cell 0\n  readout expr: cell 1\n  readout table:")
    _, diags = parse(text, "r.ma")
    line = text.splitlines().index("  readout expr: cell 1") + 1
    assert [(d.line, d.col, d.message) for d in diags] == [
        (line, 3, "duplicate field 'readout'"),
        (line + 1, 3, "give either 'readout expr:' or 'readout table:', not both"),
    ]


def test_every_rejection_is_located():
    bad_texts = [
        "what is this",
        "sa x {",
        "sa x {\n  bogus_field: 1\n}",
        "ca c {\n  cell_states: 0\n  width: z\n  rule expr: xor\n}",
        "binding b {\n  mode: diagonal\n  ca: c\n}",
    ]
    for text in bad_texts:
        _, diags = parse(text)
        assert diags, text
        assert all(d.line >= 1 and d.col >= 1 for d in diags)


def test_references_resolve_across_files(tmp_path):
    machines = tmp_path / "machines.ma"
    machines.write_text(PARITY_BLOCK)
    model = tmp_path / "model.ma"
    model.write_text(
        "ca i1 {\n  cell_states: 0 1\n  width: 1\n  radius: 1\n  rule expr: identity\n}\n\n"
        "binding b {\n  mode: sa_from_ca\n  ca: i1\n  seed: 0\n"
        "  cell_map: 0 -> sa parity\n  cell_map: 1 -> sa parity\n}\n\n"
        "ma m {\n  sas: parity\n  cas: i1\n  bindings: b\n  root_binding: b\n}\n"
    )
    doc, diags = parse_files([str(machines), str(model)])
    assert diags == []
    assert doc.mas["m"].sa_set["parity"] is doc.sas["parity"]


def test_duplicate_block_names_mention_both_files(tmp_path):
    a = tmp_path / "a.ma"
    b = tmp_path / "b.ma"
    a.write_text(PARITY_BLOCK)
    b.write_text(PARITY_BLOCK)
    _, diags = parse_files([str(a), str(b)])
    assert any("a.ma" in d.message and "b.ma" == d.file[-4:] for d in diags)


@pytest.mark.parametrize("paths", ["model.ma", b"model.ma"])
def test_parse_files_refuses_a_bare_path(paths):
    with pytest.raises(TypeError, match="list of paths"):
        parse_files(paths)


def test_a_file_that_is_not_utf8_is_a_diagnostic_and_the_others_still_parse(tmp_path):
    bad = tmp_path / "bad.ma"
    bad.write_bytes(b"\xff\xfe")
    good = tmp_path / "good.ma"
    good.write_text(PARITY_BLOCK)
    doc, diags = parse_files([str(bad), str(good)])
    assert [(d.file, d.line, d.col) for d in diags] == [(str(bad), 1, 1)]
    assert diags[0].message.startswith("cannot read file") and "0xff" in diags[0].message
    assert "parity" in doc.sas
    with pytest.raises(ModelFormatError, match="0xff"):
        load_signatures([str(bad), str(SIGNATURES / "emits_b.ma")])


def test_block_order_does_not_matter():
    ca_first = """
ca c {
  cell_states: 0 1
  width: 1
  radius: 1
  rule expr: identity
}

sa s {
  states: a
  initial: a
  finals: a
  inputs: x
  outputs: x
  delta: a x -> a / x
}
"""
    # same blocks, reversed order
    parts = ca_first.strip().split("\n\n")
    reversed_text = "\n\n".join(reversed(parts))
    doc1, d1 = parse(ca_first)
    doc2, d2 = parse(reversed_text)
    assert not d1 and not d2
    assert doc1 == doc2
    assert serialize(doc1) == serialize(doc2)


def test_corpus_files_round_trip():
    files = sorted(str(p) for p in MODELS.glob("*.ma")) + sorted(
        str(p) for p in SIGNATURES.glob("*.ma")
    )
    doc, diags = parse_files(files)
    assert diags == []
    text = serialize(doc)
    doc2, diags2 = parse(text)
    assert diags2 == []
    assert doc2 == doc
    assert serialize(doc2) == text


def test_canonical_golden_is_byte_stable():
    doc, diags = parse_files([str(MODELS / "parity.ma")])
    assert diags == []
    golden = (MODELS.parent / "golden" / "parity_ma.golden").read_text()
    assert serialize(doc) == golden


def test_generated_documents_round_trip():
    rnd = random.Random(20240809)
    for i in range(60):
        doc = gen_document(rnd)
        text = serialize(doc)
        doc2, diags = parse(text, f"<gen{i}>")
        assert diags == []
        assert doc2 == doc
        assert serialize(doc2) == text


MODE2_TABLE_DOC = """
sa drive {
  states: even odd
  initial: even
  finals: even
  inputs: 0 1
  outputs: 0 1
  delta: even 0 -> even / 0
  delta: even 1 -> odd / 1
  delta: odd 0 -> odd / 0
  delta: odd 1 -> even / 1
}

ca pair {
  cell_states: 0 1
  width: 2
  radius: 1
  boundary: fixed 0
  rule expr: identity
}

binding stepper {
  mode: ca_from_sa
  ca: pair
  t_max: 5
  seed: 0 1
  outer_sa: drive
  readout table:
    0 0 -> 0
    0 1 -> 1
    1 0 -> 1
    1 1 -> 0
  cell_map: 0 -> sa drive
  cell_map: 1 -> sa drive
}

ma stepper_ma {
  sas: drive
  cas: pair
  bindings: stepper
  root_binding: stepper
}
"""


def test_mode2_readout_table_round_trip_and_runs():
    doc, diags = parse(MODE2_TABLE_DOC)
    assert diags == []
    binding = doc.bindings["stepper"]
    assert binding.readout.kind == "table"
    assert binding.readout.table[("0", "1")] == "1"
    text = serialize(doc)
    doc2, diags2 = parse(text)
    assert diags2 == []
    assert doc2 == doc

    from mimic_automata import ma_initial, ma_run

    ma = doc.mas["stepper_ma"]
    cfg = ma_initial(ma, ("0", "1"))
    cfg, trace = ma_run(ma, cfg, [("0", "1"), ("0", "0")])
    assert cfg.outer_state == "odd"  # readouts: 1 then 0
    assert cfg.macro_clock == 2


def test_readout_table_totality_is_validated():
    text = MODE2_TABLE_DOC.replace("    1 1 -> 0\n", "")
    _, diags = parse(text)
    assert any("readout-totality" in d.message for d in diags)


def test_a_readout_table_over_4096_lattices_is_refused():
    # 2 states on 13 cells: 8,192 lattices, too many to list
    text = MODE2_TABLE_DOC.replace("  width: 2\n", "  width: 13\n")
    text = text.replace("  seed: 0 1\n", "  seed:" + " 0" * 13 + "\n")
    _, diags = parse(text)
    violation = "[readout-table-size] binding stepper: 8192 lattices; use a cell or parity readout"
    assert [d.message for d in diags] == [f"binding stepper: {violation}"]


LATTICE_BLOCK = """
{kind} c {{
  cell_states: 0 1
  width: 2
  radius: 1
  boundary: periodic
  {rule}
}}
"""
RULES = {"ca": "rule expr: identity", "pca": "rule table:\n    0 0 0 -> 0@1"}


@pytest.mark.parametrize("kind", ["ca", "pca"])
@pytest.mark.parametrize("line, value, violation", [
    ("width: 2", "width: 0", "[width-positive] c: width 0 must be >= 1"),
    ("radius: 1", "radius: 0", "[radius-positive] c: radius 0 must be >= 1"),
    # a builtin rule used to be expanded first, and itertools refused the
    # negative repeat without naming a file or line
    ("radius: 1", "radius: -1", "[radius-positive] c: radius -1 must be >= 1"),
    ("cell_states: 0 1", "cell_states: 0 1 0", "[unique-cell-states] c: duplicate cell states"),
    ("boundary: periodic", "boundary: fixed 2", "[boundary-value] c: fixed value '2' not a cell state"),
])
def test_lattice_shape_checks_are_reported_through_the_text_format(kind, line, value, violation):
    text = LATTICE_BLOCK.format(kind=kind, rule=RULES[kind]).replace(line, value)
    _, diags = parse(text)
    shape = [d for d in diags if d.message.startswith(f"{kind} c: [")]
    assert [(d.line, d.message) for d in shape] == [(2, f"{kind} c: {violation}")]


HA_DOC = """
sa top {
  states: t0 t1
  initial: t0
  finals: t0
  inputs: 0 1
  outputs: 0 1
  delta: t0 0 -> t1 / 0
  delta: t0 1 -> t0 / 1
  delta: t1 0 -> t0 / 0
  delta: t1 1 -> t1 / 1
}

sa kid {
  states: k0
  initial: k0
  finals: k0
  inputs: 0 1
  outputs: 0 1
  delta: k0 0 -> k0 / 0
  delta: k0 1 -> k0 / 1
}

ha h {
  sas: top kid
  root: top
  gamma: top t0 -> kid
}
"""
PARITY_DOC = (MODELS / "parity.ma").read_text()
FLIP_DOC = (MODELS / "flip.ma").read_text()
ECHO_DOC = (MODELS / "dhr_echo.ma").read_text()
SIGNATURE_DOC = (SIGNATURES / "emits_b.ma").read_text()
IDENTITY_TABLE = "rule table:\n" + "".join(f"    {a} {b} {c} -> {b}\n" for a in "01" for b in "01" for c in "01")
TABLE_READOUT = "  readout table:\n    0 0 -> 0\n    0 1 -> 1\n    1 0 -> 1\n    1 1 -> 0\n"


@pytest.mark.parametrize("doc, edits, message", [
    # sa
    (PARITY_DOC, {"states: even odd": "states: even odd even"},
     "sa parity: [unique-states] parity: duplicate state identifiers"),
    (PARITY_DOC, {"inputs: 0 1": "inputs: 0 1 0"}, "sa parity: [unique-symbols] parity: duplicate input symbols"),
    (PARITY_DOC, {"initial: even": "initial: even odd"}, "field 'initial' expects exactly one value"),
    (PARITY_DOC, {"finals: even": "finals: even\n  partial: maybe"}, "field 'partial' expects true or false"),
    # ca
    (PARITY_DOC, {"boundary: periodic": "boundary: wrapped"}, "boundary expects 'periodic' or 'fixed <state>'"),
    (PARITY_DOC, {"rule expr: identity": "rule table:\n    0 0 0 -> 0 0"}, "rule entry expects 3 states, '->', one state"),
    (PARITY_DOC, {"rule expr: identity": IDENTITY_TABLE.replace("1 1 1 -> 1", "1 1 1 -> 7")},
     "ca ident1: [rule-range] ('1', '1', '1'): target '7' not a cell state"),
    (PARITY_DOC, {"rule expr: identity": IDENTITY_TABLE + "    0 0 7 -> 0"},
     "ca ident1: [rule-domain] ('0', '0', '7'): neighborhood outside Q^(2r+1)"),
    (ECHO_DOC, {"rule expr: identity": "rule expr: xor"}, "builtin rule 'xor' needs exactly 2 cell states"),
    (PARITY_DOC, {"radius: 1": "radius: 2", "rule expr: identity": "rule expr: xor"},
     "builtin rule 'xor' is defined for radius 1"),
    # pca
    (FLIP_DOC, {"0 1 0 -> 1@1.0": "0 1 0 -> 7@1.0"}, "pca flip: [rule-range] ('0', '1', '0'): target '7' not a cell state"),
    (FLIP_DOC, {"0 1 0 -> 1@1.0": "0 1 0 -> 0@-0.5 1@1.5"},
     "pca flip: [probability-sign] ('0', '1', '0'): negative probability -0.5"),
    (FLIP_DOC, {"0 1 0 -> 1@1.0": "0 1 0 -> 1@1.0\n    0 0 7 -> 0@1.0"},
     "pca flip: [rule-domain] ('0', '0', '7'): neighborhood outside Q^(2r+1)"),
    (FLIP_DOC, {"0 1 0 -> 1@1.0": "0 1 0 -> 1"}, "expected <state>@<prob>, got '1'"),
    (FLIP_DOC, {"0 1 0 -> 1@1.0": "0 1 0 -> 1@x"}, "bad probability 'x'"),
    (LATTICE_BLOCK.format(kind="pca", rule=RULES["pca"]), {RULES["pca"]: ""}, "pca c: missing 'rule table:'"),
    (FLIP_DOC, {"pca flip {": "ca flip {\n  cell_states: 0 1\n  width: 1\n  rule expr: identity\n}\n\npca flip {"},
     "'flip' is defined as both ca and pca"),
    # ha
    (HA_DOC, {"  root: top\n": ""}, "ha h: missing field 'root'"),
    (HA_DOC, {"sas: top kid": "sas: top ghost"}, "unknown machine 'ghost'"),
    (HA_DOC, {"gamma: top t0 -> kid": "gamma: top t0 kid"}, "gamma expects '<machine> <state> -> <child> ...'"),
    (HA_DOC, {"gamma: top t0 -> kid": "gamma: top t0 -> kid\n  gamma: top t0 -> kid"}, "duplicate gamma for ('top', 't0')"),
    (HA_DOC, {"sas: top kid": "sas: top kid kid"}, "ha h: [unique-members] h: duplicate member machine names"),
    (HA_DOC, {"root: top": "root: kid2"}, "ha h: [root-membership] kid2: root is not a member machine"),
    (HA_DOC, {"gamma: top t0 -> kid": "gamma: ghost t0 -> kid"}, "ha h: [gamma-domain] (ghost,t0): owner machine unknown"),
    (HA_DOC, {"gamma: top t0 -> kid": "gamma: top t9 -> kid"}, "ha h: [gamma-domain] (top,t9): owner state unknown"),
    (HA_DOC, {"gamma: top t0 -> kid": "gamma: top t0 -> kid ghost"}, "ha h: [gamma-target] (top,t0): child 'ghost' unknown"),
    # binding
    (MODE2_TABLE_DOC, {TABLE_READOUT: "  readout expr: cell x\n"}, "readout expr expects 'cell <index>' or 'parity <state>'"),
    (MODE2_TABLE_DOC, {TABLE_READOUT: "  readout expr: parity 7\n"},
     "binding stepper: [readout-parity] binding stepper: target '7' not a cell state"),
    (MODE2_TABLE_DOC, {TABLE_READOUT: "  readout expr: cell 5\n"},
     "binding stepper: [readout-cell] binding stepper: cell index 5 out of range"),
    (MODE2_TABLE_DOC, {TABLE_READOUT: "  readout expr: cell 0\n", "cell_states: 0 1": "cell_states: 0 1 2"},
     "binding stepper: [readout-range] binding stepper: cell state '2' is not an input symbol of drive"),
    (MODE2_TABLE_DOC, {"    1 1 -> 0": "    1 1 -> 7"},
     "binding stepper: [readout-range] binding stepper: '7' is not an input symbol of drive"),
    (MODE2_TABLE_DOC, {"    1 1 -> 0": "    1 1 0"}, "readout entry expects '<lattice> -> <symbol>'"),
    (MODE2_TABLE_DOC, {"cell_map: 1 -> sa drive": "cell_map: 1 -> sa drive\n  cell_map: 1 -> sa drive"},
     "duplicate cell_map for '1'"),
    (MODE2_TABLE_DOC, {"cell_map: 1 -> sa drive": "cell_map: 1 -> ha ghost"},
     "binding stepper: [unit-membership] binding stepper: cell state '1': hierarchy 'ghost' not in ha_set"),
    (MODE2_TABLE_DOC, {"cell_map: 1 -> sa drive": "cell_map: 1 -> binding ghost"},
     "binding stepper: [unit-membership] binding stepper: cell state '1': binding 'ghost' unknown"),
    (MODE2_TABLE_DOC, {"outer_sa: drive": "outer_sa: ghost"},
     "binding stepper: [outer-sa] binding stepper: outer machine 'ghost' not in sa_set"),
    (MODE2_TABLE_DOC, {"cell_map: 1 -> sa drive": "cell_map: 1 -> sa drive\n  cell_map: 7 -> sa drive"},
     "binding stepper: [cell-map-domain] binding stepper: '7' is not a cell state"),
    (MODE2_TABLE_DOC, {"seed: 0 1": "seed: 0 7"},
     "binding stepper: [seed-range] binding stepper: seed contains non-cell-state values"),
    (MODE2_TABLE_DOC, {"ca pair {": "pca pair {", "rule expr: identity": IDENTITY_TABLE.replace(" -> 0", " -> 0@1")
                       .replace(" -> 1\n", " -> 1@1\n")},
     "binding stepper: [inner-run-deterministic] binding stepper: ca_from_sa needs a deterministic inner automaton"),
    (PARITY_DOC, {"seed: 0": "seed: 0\n  outer_sa: parity"},
     "binding parity_cell: [mode-fields] binding parity_cell: outer_sa/readout are only meaningful in mode ca_from_sa"),
    (PARITY_DOC, {"cas: ident1": "cas:"},
     "ma parity_ma: [binding-ca] binding parity_cell: cellular automaton 'ident1' not in ca_set"),
    # ma
    (PARITY_DOC, {"sas: parity": "sas: parity ghost"}, "unknown reference 'ghost' in 'sas'"),
    (PARITY_DOC, {"root_binding: parity_cell": "root_binding: ghost"}, "unknown root binding 'ghost'"),
    # dhr, property, signature
    (ECHO_DOC, {"  stages: echo3 echo3\n": ""}, "serial_dhr echo_chain: missing field 'stages'"),
    (ECHO_DOC, {"executors: e0 e1 e2": "executors: e0 ghost e2"}, "unknown executor 'ghost'"),
    (ECHO_DOC, {"scheduler: ident3": "scheduler: ghost"}, "unknown scheduler 'ghost'"),
    (ECHO_DOC, {"stages: echo3 echo3": "stages: echo3 ghost"}, "unknown stage 'ghost'"),
    (FLIP_DOC, {'policy: "a"\n  horizon: 2': "policy: a\n  horizon: 2"}, "field 'policy' expects quoted words"),
    (PARITY_DOC, {"kind: invariant": "kind: sometimes"}, "property kind must be invariant, reach or bad_prefix"),
    (PARITY_DOC, {"kind: invariant\n  predicate: cell0_state(even)": "kind: bad_prefix"},
     "property even_always: missing field 'pattern'"),
    (PARITY_DOC, {"kind: invariant\n  predicate: cell0_state(even)": "kind: bad_prefix\n  pattern: ghost"},
     "unknown pattern machine 'ghost'"),
    (SIGNATURE_DOC, {'description: "some tick\'s arbitrated output is B"': "description: unquoted"},
     "description expects one quoted string"),
])
def test_each_rejection_is_reported_through_the_text_format(doc, edits, message):
    text = doc
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new, 1)
    _, diags = parse(text, "m.ma")
    assert message in [d.message for d in diags]


def test_a_repeated_table_line_is_reported_at_that_line():
    text = MODE2_TABLE_DOC.replace("    1 1 -> 0\n", "    1 1 -> 0\n    1 1 -> 1\n")
    _, diags = parse(text, "r.ma")
    line = text.splitlines().index("    1 1 -> 1") + 1
    assert [(d.line, d.col, d.message) for d in diags] == [(line, 5, "duplicate readout for ('1', '1')")]
    rules = "".join(f"    {a} {b} {c} -> {b}\n" for a in "01" for b in "01" for c in "01")
    text = MODE2_TABLE_DOC.replace("  rule expr: identity\n", "  rule table:\n" + rules + "    1 1 1 -> 0\n")
    _, diags = parse(text, "r.ma")
    line = text.splitlines().index("    1 1 1 -> 0") + 1
    assert [(d.line, d.col, d.message) for d in diags] == [(line, 5, "duplicate rule for ('1', '1', '1')")]


ONE_FAILED_MACHINE = """
sa idle {
  states: s
  finals: s
  inputs: a
  outputs: a
  delta: s a -> s / a
}

ca pair {
  cell_states: 0 1
  width: 2
  rule expr: identity
}

ha h {
  sas: idle
  root: idle
}

dhr d {
  executors: idle idle idle
  scheduler: pair
  width: 2
}

serial_dhr chain {
  stages: d d
}

binding b {
  mode: sa_from_ca
  ca: pair
  cell_map: 0 -> sa idle
  cell_map: 1 -> sa idle
}

ma m {
  sas: idle
  cas: pair
  bindings: b
  root_binding: b
}

property bad {
  kind: bad_prefix
  pattern: idle
}

signature sig {
  description: "idles"
  pattern: idle
}
"""


def test_a_machine_that_failed_to_build_is_reported_once():
    doc, diags = parse(ONE_FAILED_MACHINE, "one.ma")
    assert [str(d) for d in diags] == ["one.ma:2:1: sa idle: missing field 'initial'"]
    assert "pair" in doc.cas and "b" in doc.bindings and "m" in doc.mas
    assert not (doc.sas or doc.has or doc.dhrs or doc.serial_dhrs or doc.properties or doc.signatures)


@pytest.mark.parametrize("edits, message", [
    ({"  cas: pair": "  cas: pair idle"}, "unknown reference 'idle' in 'cas'"),
    ({"  sas: idle\n  cas": "  has: idle\n  cas"}, "unknown reference 'idle' in 'has'"),
    ({"executors: idle idle idle\n  scheduler: pair": "executors:\n  scheduler: idle"}, "unknown scheduler 'idle'"),
    ({"root_binding: b": "root_binding: idle"}, "unknown root binding 'idle'"),
    ({"stages: d d": "stages: idle"}, "unknown stage 'idle'"),
    ({"cell_map: 0 -> sa idle\n  cell_map: 1 -> sa idle": "cell_map: 0 -> sa pair\n  cell_map: 1 -> ha idle"},
     "binding b: [unit-membership] binding b: cell state '1': hierarchy 'idle' not in ha_set"),
])
def test_a_failed_block_hides_no_reference_of_another_kind(edits, message):
    text = ONE_FAILED_MACHINE
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new, 1)
    _, diags = parse(text, "one.ma")
    assert message in [d.message for d in diags]


@pytest.mark.parametrize("kind, value", [("ca", "one state"), ("pca", "then state@prob pairs")])
def test_a_table_entry_of_a_negative_radius_is_reported(kind, value):
    # the pca table used to index the entry at the negative neighborhood size and raise IndexError
    text = LATTICE_BLOCK.format(kind=kind, rule="rule table:\n    0 ->").replace("radius: 1", "radius: -2")
    _, diags = parse(text)
    assert diags[0].message == f"rule entry expects -3 states, '->', {value}"


def test_a_property_field_its_kind_does_not_use_is_reported():
    text = (MODELS / "parity.ma").read_text()
    text = text.replace("  predicate: cell0_state(odd)\n", "  predicate: cell0_state(odd)\n  pattern: nothing_here\n")
    _, diags = parse(text, "parity.ma")
    line = text.splitlines().index("  pattern: nothing_here") + 1
    assert [(d.line, d.col, d.message) for d in diags] == [
        (line, 3, "field 'pattern' does not apply to a reach property")
    ]
    flip = (MODELS / "flip.ma").read_text()
    bad_prefix = "property bad {\n  kind: bad_prefix\n  pattern: idle\n  predicate: lattice_has(1)\n}\n"
    _, diags = parse(flip + bad_prefix, "flip.ma")
    line = len(flip.splitlines()) + 4
    assert [(d.line, d.col, d.message) for d in diags] == [
        (line, 3, "field 'predicate' does not apply to a bad_prefix property")
    ]


def test_comments_and_blank_lines_are_ignored():
    text = "# header\n\n" + PARITY_BLOCK.replace(
        "delta: even 0 -> even / 0", "delta: even 0 -> even / 0   # self loop"
    )
    doc, diags = parse(text)
    assert diags == []
    assert "parity" in doc.sas


def test_empty_document_serializes_to_empty():
    assert serialize(ModelDocument()) == ""
    doc, diags = parse("")
    assert doc == ModelDocument()
    assert diags == []


# --- lazy tokens ---------------------------------------------------------------

PIECES = ["ab", "s0_1", "x", "->", "@", "/", "0.25", " ", "  ", "\t", "\u00a0", "\u2003",
          '"', '"ab"', "{", "}", ":", "#"]


def random_line(rnd: random.Random, pieces=PIECES) -> str:
    return "".join(rnd.choice(pieces) for _ in range(rnd.randint(0, 8)))


def eager(text: str, line: int, col: int):
    diagnostics = []
    return _tokenize(text, line, col, diagnostics, "f.ma"), diagnostics


def assert_same_as_eager(value, expected_tokens, expected_diagnostics, diagnostics):
    assert value.texts == [text for text, _, _ in expected_tokens]
    assert value.tokens == expected_tokens
    assert diagnostics == expected_diagnostics


def test_lazy_tokens_equal_eager_tokens_on_random_values():
    rnd = random.Random(15)
    for _ in range(3000):
        line = random_line(rnd, PIECES + ["\x1c"])
        diagnostics = []
        value = RawValue(line, 7, 5, diagnostics, "f.ma")
        assert_same_as_eager(value, *eager(line, 7, 5), diagnostics)


def test_lazy_tokens_equal_eager_tokens_through_scan():
    # '\x1c' ends a line for str.splitlines, so only a direct call sees it inside a value
    rnd = random.Random(16)
    entries = 0
    for _ in range(3000):
        line = random_line(rnd)
        value = _BEFORE_COMMENT_RE.match(line).group()  # what is left of the line after its comment
        blocks, diagnostics = scan(f"sa x {{\n  states: {line}\n}}\n", "f.ma")
        assert_same_as_eager(blocks[0].fields[0], *eager(value, 2, 11), diagnostics)

        if _FIELD_RE.match(value.strip()) or value.strip() in ("", "}"):
            continue  # scanned as a field, a blank line or the block's end, not as an entry
        blocks, diagnostics = scan(f"ca x {{\n  rule table:\n    {line}\n}}\n", "f.ma")
        (entry,) = blocks[0].fields[0].entries
        assert entry.line == 3
        assert_same_as_eager(entry, *eager(value, 3, 5), diagnostics)
        entries += 1
    assert entries > 1000


def test_lazy_tokens_equal_eager_tokens_on_generated_documents():
    for seed in range(20):
        text = serialize(gen_document(random.Random(seed)))
        lines = text.splitlines()
        blocks, diagnostics = scan(text, "f.ma")
        assert diagnostics == []
        for block in blocks:
            for field in block.fields:
                source = lines[field.line - 1]
                colon = source.index(":")
                assert_same_as_eager(field, *eager(source[colon + 1:], field.line, colon + 2), [])
                for entry in field.entries:
                    assert_same_as_eager(entry, *eager(lines[entry.line - 1], entry.line, 1), [])


PLAIN_DOCUMENT = PARITY_BLOCK + """
ca c {
  cell_states: 0 1
  width: 2
  radius: 1
  boundary: fixed 0
  rule table:
""" + "".join(f"    {a} {b} {c} -> {int(a) ^ int(c)}\n" for a in "01" for b in "01" for c in "01") + """}

binding b {
  mode: sa_from_ca
  ca: c
  seed: 0 1
  cell_map: 0 -> sa parity
  cell_map: 1 -> sa parity
}

ma m {
  sas: parity
  cas: c
  bindings: b
  root_binding: b
}
"""


def test_plain_values_are_never_tokenized(monkeypatch):
    calls = []
    monkeypatch.setattr(modelfile, "_tokenize", lambda *args: calls.append(args) or _tokenize(*args))
    blocks, diagnostics = scan(PLAIN_DOCUMENT)
    assert diagnostics == [] and len(blocks) == 4 and calls == []
    doc, diagnostics = parse(PLAIN_DOCUMENT)
    assert diagnostics == [] and "m" in doc.mas and calls == []
    # a diagnostic on a plain value places its column through _tokenize
    _, diagnostics = parse(PLAIN_DOCUMENT.replace("delta: odd 0 -> odd / 0", "delta: odd 0 -> oops / 0"))
    assert [(d.line, d.col) for d in diagnostics[:1]] == [(10, 19)] and len(calls) == 1


def test_only_a_table_field_has_entries():
    blocks, diagnostics = scan(PLAIN_DOCUMENT)
    assert diagnostics == []
    fields = [field for block in blocks for field in block.fields]
    assert len(fields) == 23  # every other field's entries are ()
    assert [(f.name, f.sub, len(f.entries)) for f in fields if f.entries != ()] == [("rule", "table", 8)]


def test_an_empty_rule_table_reports_where_it_did():
    text = "ca x {\n  cell_states: 0 1\n  width: 2\n  rule table:   \n}\n"
    blocks, diagnostics = scan(text, "f.ma")
    assert diagnostics == [] and blocks[0].fields[-1].entries == []
    _, diagnostics = parse(text, "f.ma")
    assert len(diagnostics) == 8
    assert str(diagnostics[0]) == "f.ma:1:1: ca x: [rule-totality] ('0', '0', '0'): missing rule entry"
    _, diagnostics = parse(text.replace("table:   \n", "table:\n    0 0 -> 1\n"), "f.ma")
    assert str(diagnostics[0]) == "f.ma:5:1: rule entry expects 3 states, '->', one state"


def rule_block(kind: str, states: str, radius: int, rule: str) -> str:
    return f"{kind} big {{\n  cell_states: {states}\n  width: 3\n  radius: {radius}\n  {rule}\n}}\n"


def test_a_rule_above_the_cap_is_refused_before_anything_enumerates_it():
    # majority over two states has 2^17 neighborhoods at radius 8, under the
    # 250,000 cap, and 2^19 at radius 9; expanding radius 9 took about 190 MiB
    cases = [
        (rule_block("ca", "0 1", 9, "rule expr: majority"), "2^19"),
        (rule_block("ca", "0 1 2", 10**9, "rule expr: identity"), "3^2000000001"),
        (rule_block("pca", "0 1", 9, "rule table:"), "2^19"),
    ]
    for text, count in cases:
        tracemalloc.start()
        try:
            _, diagnostics = parse(text, "f.ma")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kind = text.split()[0]
        assert [str(d) for d in diagnostics] == [
            f"f.ma:1:1: {kind} big: [rule-size] big: {count} neighborhoods exceed the cap of 250000; "
            "use fewer cell states or a smaller radius"
        ]
        assert peak < 1 << 20, (count, peak)  # 1 MiB
    doc, diagnostics = parse(rule_block("ca", "0 1", 8, "rule expr: majority"), "f.ma")
    assert diagnostics == [] and len(doc.cas["big"].rule) == 2**17


def test_a_rule_reports_sixteen_missing_entries_then_a_count_of_the_rest():
    for radius, missing in ((4, 2**9), (8, 2**17)):
        _, diagnostics = parse(rule_block("ca", "0 1", radius, "rule table:"), "f.ma")
        lines = [str(d) for d in diagnostics]
        assert len(lines) == 17
        assert all(line.endswith("missing rule entry") for line in lines[:16])
        assert lines[15].endswith(f"{('0',) * (2 * radius - 3) + ('1',) * 4}: missing rule entry")
        assert lines[16] == f"f.ma:1:1: ca big: [rule-totality] big: {missing - 16} more missing rule entries"


def test_text_after_a_table_fields_colon_is_reported_at_its_first_token():
    text = "ca x {\n  cell_states: 0 1\n  width: 2\n  rule table: 0 0 0 -> 1\n    0 0 1 -> 0\n}\n"
    _, diagnostics = parse(text, "f.ma")
    assert str(diagnostics[0]) == (
        "f.ma:4:15: text after 'rule table:' is not an entry (put each entry on its own line below the field)"
    )
    # the header's text is no entry, the next line's is
    assert len(diagnostics) == 1 + 7
    assert all("('0', '0', '1')" not in str(d) for d in diagnostics)


def big_sa_document(machines: int, states: int, symbols: str) -> str:
    rnd = random.Random(30)
    blocks = []
    for m in range(machines):
        names = [f"s{rnd.randrange(10**6):06d}_{i}" for i in range(states)]
        blocks.append("\n".join([
            f"sa big{m} {{", f"  states: {' '.join(names)}", f"  initial: {names[0]}", f"  finals: {names[1]}",
            f"  inputs: {' '.join(symbols)}", f"  outputs: {' '.join(symbols)}",
            *(f"  delta: {q} {a} -> {rnd.choice(names)} / {rnd.choice(symbols)}" for q in names for a in symbols),
            "}",
        ]))
    return "\n\n".join(blocks) + "\n"


def test_scan_and_build_keep_one_object_per_line():
    text = big_sa_document(6, 48, "abcdefgh")  # 2,304 delta lines
    gc.collect()
    gc.disable()  # so that len(gc.get_objects()) counts every tracked object kept
    try:
        start = len(gc.get_objects())
        blocks, diagnostics = scan(text, "big.ma")
        scanned = len(gc.get_objects()) - start
        doc, more = build_document(blocks)
        built = len(gc.get_objects()) - start - scanned
    finally:
        gc.enable()
    assert diagnostics == [] and more == [] and len(doc.sas) == 6
    lines = sum(1 + len(field.entries) for block in blocks for field in block.fields)
    deltas = sum(len(sa.transitions) for sa in doc.sas.values())
    assert deltas == 2304 and lines == 2304 + 6 * 5
    # a field line keeps one RawField; a block keeps itself and its field list; scan returns two lists
    assert scanned <= lines + 2 * len(blocks) + 2
    # a delta keeps one key tuple; a machine keeps itself, four tuples or sets and its two maps;
    # the document keeps itself, its ten maps and the diagnostics list
    assert built <= deltas + 7 * len(doc.sas) + 12
    for sa in doc.sas.values():
        assert all(a is b for a, b in zip(sa.transitions, sa.outputs, strict=True))


def test_the_binding_probe_is_computed_once_per_document(monkeypatch):
    calls = []
    validate_ma = modelfile.validate_ma
    monkeypatch.setattr(modelfile, "validate_ma", lambda ma: calls.append(ma.name) or validate_ma(ma))
    text = (MODELS / "parity.ma").read_text() + "".join(
        f"ma extra{i} {{\n  sas: par\n  bindings: parity_cell\n  root_binding: parity_cell\n}}\n"
        for i in range(3))
    _, diagnostics = parse(text, "parity.ma")
    assert calls == ["<document>", "parity_ma", "extra0", "extra1", "extra2"]  # the probe, then each ma
    assert [str(d) for d in diagnostics] == [
        line
        for i in range(3)
        for line in (
            f"parity.ma:{55 + 5 * i}:8: unknown reference 'par' in 'sas'",
            f"parity.ma:{54 + 5 * i}:1: ma extra{i}: [binding-ca] binding parity_cell: "
            "cellular automaton 'ident1' not in ca_set",
        )
    ]


def test_a_valid_sa_is_validated_without_sorting_its_transitions(monkeypatch):
    sorted_args = []
    monkeypatch.setattr(sequential, "sorted", lambda items: sorted_args.append(items) or sorted(items),
                        raising=False)
    doc, diagnostics = parse(PARITY_BLOCK)
    assert diagnostics == [] and "parity" in doc.sas
    assert sorted_args == [frozenset({"even"})]  # the finals only
    _, diagnostics = parse(PARITY_BLOCK.replace("delta: odd 1 -> even / 1\n", ""))
    assert [d.message for d in diagnostics] == ["sa parity: [totality] (odd,1): missing transition"]
    assert len(sorted_args) == 2  # a missing transition needs no sorted loop
    _, diagnostics = parse(PARITY_BLOCK.replace("odd 1 -> even / 1", "odd 1 -> even / 2"))
    assert [d.message for d in diagnostics] == ["sa parity: [output-range] (odd,1): output '2' not in output alphabet"]
    assert len(sorted_args) == 6  # the finals, then the three sorted loops that find the report


# --- predicate expression round-trips ----------------------------------------

ATOMS = st.sampled_from(["lattice_has(0)", "cell0_state(even)", "p", "true", "false"])


@st.composite
def predicates(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(ATOMS)
    kind = draw(st.sampled_from(["not", "and", "or", "parens"]))
    if kind == "not":
        return f"not {draw(predicates(depth + 1))}"
    if kind == "parens":
        return f"({draw(predicates(depth + 1))})"
    return f"{draw(predicates(depth + 1))} {kind} {draw(predicates(depth + 1))}"


@given(predicates())
@settings(max_examples=200)
def test_predicate_render_parse_fixpoint(text):
    ast = parse_predicate(text)
    rendered = render_predicate(ast)
    assert parse_predicate(rendered) == ast
    assert render_predicate(parse_predicate(rendered)) == rendered


@pytest.mark.parametrize("text, message", [
    ("  ", "empty predicate"),
    ("(true", "predicate ended unexpectedly"),
    ("(true false", "missing ')' in predicate"),
    (")", "unexpected ')' in predicate"),
    ("true false", "trailing tokens in predicate: false"),
])
def test_malformed_predicates_are_refused(text, message):
    with pytest.raises(PropertyError) as caught:
        parse_predicate(text)
    assert str(caught.value) == message


def test_predicates_ignore_trailing_space_and_refuse_foreign_nodes():
    assert parse_predicate("not p  ") == parse_predicate("not p")
    with pytest.raises(PropertyError, match="unknown predicate node 'p'"):
        render_predicate("p")
    with pytest.raises(PropertyError, match="unknown predicate node 'p'"):
        eval_predicate("p", frozenset())


def test_a_parity_readout_round_trips_and_multi_character_words_do_not_serialize():
    text = MODE2_TABLE_DOC.replace(TABLE_READOUT, "  readout expr: parity 1\n")
    doc, diags = parse(text)
    assert diags == []
    assert "  readout expr: parity 1\n" in serialize(doc)
    assert parse(serialize(doc)) == (doc, [])
    doc.properties["p"] = Property("p", "reach", parse_predicate("true"), inputs=(("ab",),))
    with pytest.raises(MimicError, match=r"only single-character symbols serialize into words: \('ab',\)"):
        serialize(doc)
