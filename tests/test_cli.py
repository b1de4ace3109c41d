import itertools
import json

import pytest

import mimic_automata.cli as cli
from mimic_automata import check_property, dhr_run, inject_fault, pca_step
from mimic_automata.cli import main
from mimic_automata.modelfile import parse_files
from mimic_automata.rng import master_stream

from helpers import DATA, MODELS, SIGNATURES

PARITY = str(MODELS / "parity.ma")
FLIP = str(MODELS / "flip.ma")
DHR = str(MODELS / "dhr_echo.ma")
DETECT = str(MODELS / "dhr_detect.ma")
SIG = str(SIGNATURES / "emits_b.ma")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run(capsys, ["validate", PARITY, FLIP, DHR])
    assert code == 0
    assert err == ""


def test_validate_reports_diagnostics_on_stderr(capsys, tmp_path):
    bad = tmp_path / "bad.ma"
    bad.write_text("sa x {\n  states: a\n}\n")
    code, out, err = run(capsys, ["validate", str(bad)])
    assert code == 3
    assert "bad.ma" in err
    assert out == ""


def test_validate_refuses_a_rule_above_the_cap(capsys, tmp_path):
    big = tmp_path / "big.ma"
    big.write_text("ca big {\n  cell_states: 0 1\n  width: 3\n  radius: 9\n  rule expr: majority\n}\n")
    code, out, err = run(capsys, ["validate", str(big)])
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "[rule-size] big: 2^19 neighborhoods exceed the cap of 250000" in err


def test_validate_reports_a_file_that_is_not_utf8_and_reads_the_others(capsys, tmp_path):
    bad = tmp_path / "bad.ma"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, ["validate", str(bad), PARITY])
    assert code == 3
    assert err.splitlines() == [f"{bad}:1:1: cannot read file: 'utf-8' codec can't decode byte 0xff "
                                "in position 0: invalid start byte"]
    assert out == ""


NESTED_DEFECTS = """\
sa p {
  states: s0 s1
  initial: s0
  inputs: a b
  outputs: a b
  delta: s0 a -> s9 / a
  delta: s0 b -> s1 / z
  delta: s1 a -> s0 / a
  delta: s1 b -> s1 / b
}

ca sched {
  cell_states: 0 1
  width: 2
  rule expr: identity
}

dhr d {
  executors: p p
  scheduler: sched
  width: 2
}

serial_dhr sd {
  stages: d d
}

binding top {
  mode: sa_from_ca
  ca: sched
  cell_map: 0 -> sa p
  cell_map: 1 -> sa nope
}

ma m {
  sas: p
  cas: sched
  bindings: top
  root_binding: top
}
"""


def test_validate_reports_each_defect_once_at_the_block_that_owns_it(capsys, tmp_path):
    # two delta defects in a machine that a dhr hosts twice and a serial dhr twice more,
    # and an unknown machine in an ma-owned binding: one line each, where the field is
    model = tmp_path / "nested.ma"
    model.write_text(NESTED_DEFECTS)
    assert run(capsys, ["validate", str(model)]) == (3, "", "".join(f"{model}:{line}\n" for line in (
        "6:18: sa p: [transition-target] (s0,a): target 's9' not in states",
        "7:3: sa p: [output-range] (s0,b): output 'z' not in output alphabet",
        "28:1: binding top: [unit-membership] binding top: cell state '1': machine 'nope' not in sa_set",
    )))
    # any one of the defects alone still rejects the document
    fixed = {"s0 a -> s9": "s0 a -> s1", "s1 / z": "s1 / b", "1 -> sa nope": "1 -> sa p"}
    for defect in fixed:
        text = NESTED_DEFECTS
        for other, repair in fixed.items():
            if other != defect:
                text = text.replace(other, repair)
        model.write_text(text)
        code, out, err = run(capsys, ["validate", str(model)])
        assert (code, out, len(err.splitlines())) == (3, "", 1)
    model.write_text(text.replace(defect, fixed[defect]))
    assert run(capsys, ["validate", str(model)]) == (0, "", "")


def test_validate_and_simulate_reject_a_nan_probability_at_its_block(capsys, tmp_path):
    text = (MODELS / "flip.ma").read_text()
    model = tmp_path / "nan.ma"
    model.write_text(text.replace("0 0 0 -> 0@0.5 1@0.5", "0 0 0 -> 0@nan 1@1.0"))
    line = text.splitlines().index("pca flip {") + 1
    diagnostic = f"{model}:{line}:1: pca flip: [probability-nan] ('0', '0', '0'): probability is not a number\n"
    assert run(capsys, ["validate", str(model)]) == (3, "", diagnostic)
    assert run(capsys, ["simulate", str(model), "--model", "flip", "--input", "0", "--steps", "3"]) == (
        3, "", diagnostic)


def test_check_violated_exits_one_and_matches_golden(capsys):
    code, out, _ = run(capsys, ["check", PARITY, "--model", "parity_ma",
                                "--property", "even_always", "--format", "json"])
    assert code == 1
    golden = (DATA / "golden" / "check_even_always.json").read_text()
    assert out == golden


def test_check_holds_exits_zero(capsys):
    code, out, _ = run(capsys, ["check", PARITY, "--model", "parity_ma",
                                "--property", "true_inv"])
    assert code == 0
    assert "holds" in out


def test_check_probability_matches_golden(capsys):
    code, out, _ = run(capsys, ["check", FLIP, "--model", "flip_ma",
                                "--property", "hit_one", "--format", "json"])
    assert code == 0
    assert out == (DATA / "golden" / "check_hit_one.json").read_text()
    payload = json.loads(out)
    assert set(payload) >= {"verdict", "counterexample", "probability", "error_bound", "stats"}
    assert payload["probability"] == 0.75


def test_check_monte_carlo_is_seed_reproducible(capsys):
    args = ["check", FLIP, "--model", "flip_ma", "--property", "hit_one",
            "--trials", "2000", "--seed", "11", "--format", "json"]
    code1, out1, _ = run(capsys, args)
    code2, out2, _ = run(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert abs(json.loads(out1)["probability"] - 0.75) < 0.05


def test_check_unknown_property_is_usage_error(capsys):
    code, _, err = run(capsys, ["check", PARITY, "--model", "parity_ma",
                                "--property", "nope"])
    assert code == 3
    assert "nope" in err


def test_check_bound_exceeded_is_resource_error(capsys):
    code, _, err = run(capsys, ["check", PARITY, "--model", "parity_ma",
                                "--property", "even_always", "--bound", "1"])
    assert code == 2
    assert "bound" in err


SAW_ONE = """
sa saw1 {
  states: w hit
  initial: w
  finals: hit
  inputs: 1
  outputs: 1
  partial: true
  delta: w 1 -> hit / 1
  delta: hit 1 -> hit / 1
}

property saw_one {
  kind: bad_prefix
  pattern: saw1
}
"""


def test_bad_prefix_search_over_the_bound_is_resource_error(capsys, tmp_path):
    model = tmp_path / "parity_saw.ma"
    model.write_text((MODELS / "parity.ma").read_text() + SAW_ONE)
    args = ["check", str(model), "--model", "parity_ma", "--property", "saw_one"]
    code, _, _ = run(capsys, args + ["--bound", "2"])
    assert code == 1  # 2 flattened states, matched at the second pair
    code, _, err = run(capsys, args + ["--bound", "1"])
    assert code == 2  # the flatten's second state is over the bound
    assert "state bound 1 exceeded" in err


def test_detect_search_over_the_bound_is_resource_error(capsys):
    args = ["detect", DETECT, "--model", "rogue3", "--signatures", SIG]
    code, _, _ = run(capsys, args + ["--bound", "2"])
    assert code == 1  # 1 flattened state, matched at the second pair
    code, _, err = run(capsys, args + ["--bound", "1"])
    assert code == 2
    assert "state bound 1 exceeded" in err


NEVER_ONE = """
sa never1 {
  states: w seen
  initial: w
  inputs: 1
  outputs: 1
  partial: true
  delta: w 1 -> seen / 1
  delta: seen 1 -> seen / 1
}

property saw_never {
  kind: bad_prefix
  pattern: never1
}
"""


def test_bad_prefix_pattern_without_finals_exits_three_in_validate_and_check(capsys, tmp_path):
    model = tmp_path / "parity_never.ma"
    model.write_text((MODELS / "parity.ma").read_text() + NEVER_ONE)
    for argv in (["validate", str(model)],
                 ["check", str(model), "--model", "parity_ma", "--property", "saw_never"]):
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert "property saw_never: [matchable] saw_never: pattern has no final states" in err


@pytest.mark.parametrize("argv, message", [
    (["check", "--property", "true_inv"], "'parity' is not a checkable model (expected ma or dhr)"),
    (["detect", "--signatures", SIG], "'parity' is not a scannable model (expected ma or dhr)"),
    (["export-dot", "--out", "unused.dot"], "'parity' is not flattenable (expected ma or dhr)"),
])
def test_composite_commands_reject_a_plain_machine(capsys, argv, message):
    code, out, err = run(capsys, [argv[0], PARITY, "--model", "parity", *argv[1:]])
    assert code == 3
    assert out == ""
    assert err == f"ma: error: {message}\n"


@pytest.mark.parametrize("model, want", [("rogue3", 1), ("const3", 0)])
def test_bad_prefix_check_gives_detect_s_witness_and_stats(capsys, tmp_path, model, want):
    prop = tmp_path / "saw_b.ma"
    prop.write_text("property saw_b {\n  kind: bad_prefix\n  pattern: pat_b\n}\n")
    check_code, check_out, _ = run(capsys, ["check", DETECT, SIG, str(prop), "--model", model,
                                            "--property", "saw_b", "--format", "json"])
    detect_code, detect_out, _ = run(capsys, ["detect", DETECT, "--model", model,
                                              "--signatures", SIG, "--format", "json"])
    assert check_code == detect_code == want
    checked, detected = json.loads(check_out), json.loads(detect_out)
    assert checked["counterexample"] == detected["counterexample"]
    assert {k: checked["stats"][k] for k in ("states", "transitions")} == detected["stats"]
    if want:  # one flattened state, matched by its own B edge
        assert checked["counterexample"] == [{"state": "s0", "action": {"input": "x", "output": "B"}},
                                             {"state": "s0", "action": None}]
        assert checked["stats"] == {"states": 1, "transitions": 1, "pattern": "pat_b"}


def test_simulate_zero_steps_echoes_initial(capsys):
    code, out, _ = run(capsys, ["simulate", PARITY, "--model", "parity_ma",
                                "--input", "1", "--steps", "0"])
    assert code == 0
    assert "macro_clock: 0" in out
    assert "even" in out


def test_simulate_json_shape_and_trace_file(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    code, out, _ = run(capsys, ["simulate", PARITY, "--model", "parity_ma",
                                "--input", "11", "--steps", "2",
                                "--format", "json", "--trace", str(trace)])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"verdict", "counterexample", "probability", "error_bound",
                            "stats", "result"}
    assert payload["result"]["macro_clock"] == 2
    saved = json.loads(trace.read_text())
    assert saved["macro_clock"] == 2
    assert len(saved["ticks"]) == 2


def test_simulate_json_shares_one_list_per_distinct_lattice_and_one_text_per_word():
    doc, _ = parse_files([FLIP])
    args = cli._build_parser().parse_args(["simulate", FLIP, "--model", "flip_ma", "--input", "a",
                                           "--steps", "40", "--seed", "3", "--format", "json"])
    ticks = cli._simulate_ma(doc.mas["flip_ma"], args)[1]()["ticks"]
    lists = {id(tick[key]) for tick in ticks for key in ("lattice_before", "lattice_after")}
    assert len(lists) == len({tuple(tick["lattice_before"]) for tick in ticks} |
                             {tuple(tick["lattice_after"]) for tick in ticks}) == 2
    assert len({id(tick["input"]) for tick in ticks}) == 1


# a hierarchy whose child fires once on 1 and then is stuck, a ca_from_sa
# binding, and a root whose cells are that binding nested: together they
# reach every kind of unit state a configuration renders
COMPOSITE = """
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

sa top {
  states: t0
  initial: t0
  finals: t0
  inputs: 0 1
  outputs: 0 1
  partial: true
  delta: t0 0 -> t0 / 0
}

sa kid {
  states: k0 k1
  initial: k0
  finals: k1
  inputs: 0 1
  outputs: 0 1
  partial: true
  delta: k0 1 -> k1 / 1
}

ha h {
  sas: top kid
  root: top
  gamma: top t0 -> kid
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
  readout expr: parity 1
  cell_map: 0 -> sa drive
  cell_map: 1 -> sa drive
}

binding ha_cells {
  mode: sa_from_ca
  ca: pair
  cell_map: 0 -> ha h
  cell_map: 1 -> sa drive
}

binding nest {
  mode: sa_from_ca
  ca: pair
  cell_map: 0 -> binding stepper
  cell_map: 1 -> binding stepper
}

ma stepper_ma {
  sas: drive
  cas: pair
  bindings: stepper
  root_binding: stepper
}

ma ha_ma {
  sas: drive top kid
  cas: pair
  has: h
  bindings: ha_cells
  root_binding: ha_cells
}

ma nest_ma {
  sas: drive
  cas: pair
  bindings: nest stepper
  root_binding: nest
}

property anything {
  kind: invariant
  predicate: true
}

property anything_fed {
  kind: invariant
  predicate: true
  inputs: "0"
}
"""


def test_hierarchical_nested_and_ca_from_sa_models_simulate_and_check(capsys, tmp_path):
    path = tmp_path / "composite.ma"
    path.write_text(COMPOSITE)

    def simulate(model, word, steps):
        return run(capsys, ["simulate", str(path), "--model", model, "--input", word, "--steps", str(steps)])

    assert simulate("ha_ma", "11", 1) == (0, "model: ha_ma\nmacro_clock: 1\n"
                                          "final: [0 0] | kid=k1,top=t0 / kid=k1,top=t0\n"
                                          "tick 0: lattice ['0', '0'] -> ['0', '0'], output '1'\n", "")
    assert simulate("nest_ma", "11", 1) == (
        0, "model: nest_ma\nmacro_clock: 1\n"
        "final: [0 0] | {[0 1] | even / even | outer=odd} / {[0 1] | even / even | outer=odd}\n"
        "tick 0: lattice ['0', '0'] -> ['0', '0'], output '1'\n", "")
    assert simulate("stepper_ma", "11", 2) == (0, "model: stepper_ma\nmacro_clock: 2\n"
                                               "final: [1 1] | even / even | outer=even\n"
                                               "tick 0: lattice ['0', '1'] -> ['1', '1'], output '0'\n"
                                               "tick 1: lattice ['1', '1'] -> ['1', '1'], output '0'\n", "")

    def check(model):
        return run(capsys, ["check", str(path), "--model", model, "--property", "anything"])

    # a ca_from_sa root is fed its seed; a hierarchy consumes its members' symbols
    assert check("stepper_ma") == (0, "verdict: holds\nstats.states: 2\nstats.transitions: 2\n", "")
    assert check("ha_ma") == (0, "verdict: holds\nstats.states: 2\nstats.transitions: 4\n", "")
    # cells that are all nested ca_from_sa bindings consume no input symbol
    assert check("nest_ma") == (3, "", "ma: error: cannot derive an input universe (no common input "
                                       "alphabet); set 'inputs:' on the property\n")
    # two cells share one nested binding: walked once, it is still deterministic
    assert run(capsys, ["check", str(path), "--model", "nest_ma", "--property", "anything_fed"]) == (
        0, "verdict: holds\nstats.states: 2\nstats.transitions: 2\n", "")


# flip.ma's probabilistic lattice over cells that are all the nested
# ca_from_sa binding ``stepper``: the cells share no input alphabet
FLIP_NEST = """
binding flip_nest {
  mode: sa_from_ca
  ca: flip
  cell_map: 0 -> binding stepper
  cell_map: 1 -> binding stepper
}

ma flip_nest_ma {
  sas: drive
  cas: pair flip
  bindings: flip_nest stepper
  root_binding: flip_nest
}

property flip_hit {
  kind: reach
  predicate: lattice_has(1)
  policy: "a"
  horizon: 3
}
"""


def test_a_policy_checks_a_probabilistic_model_without_a_common_input_alphabet(capsys, tmp_path):
    path = tmp_path / "composite.ma"
    path.write_text(COMPOSITE + (MODELS / "flip.ma").read_text() + FLIP_NEST)
    doc, _ = parse_files([str(path)])
    want = check_property(doc.mas["flip_nest_ma"], doc.properties["flip_hit"])
    assert (want.probability, want.method) == (0.875, "exact-value-iteration")
    assert run(capsys, ["check", str(path), "--model", "flip_nest_ma", "--property", "flip_hit"]) == (
        0, "probability: 0.875 +/- 0  (exact-value-iteration)\n"
           "stats.iterations: 3\nstats.states: 4\nstats.transitions: 6\n", "")


def test_a_ca_from_sa_seed_with_a_value_that_is_not_a_cell_state_exits_3(capsys, tmp_path):
    path = tmp_path / "composite.ma"
    path.write_text(COMPOSITE + '\nproperty bad_seed {\n  kind: invariant\n  predicate: true\n  inputs: "0x"\n}\n')
    error = "ma: error: stepper: seed lattice value 'x' is not a cell state\n"
    assert run(capsys, ["simulate", str(path), "--model", "stepper_ma", "--input", "0x", "--steps", "1"]) == (
        3, "", error)
    assert run(capsys, ["check", str(path), "--model", "stepper_ma", "--property", "bad_seed"]) == (3, "", error)
    # a seed lattice of cell states steps as before
    assert run(capsys, ["simulate", str(path), "--model", "stepper_ma", "--input", "01", "--steps", "1"])[0] == 0

def test_simulate_reads_a_word_from_a_file_one_symbol_per_line(capsys, tmp_path):
    word = tmp_path / "word.txt"
    word.write_text("1\n0\n\n1\n")
    code, out, err = run(capsys, ["simulate", PARITY, "--model", "parity", "--input", f"@{word}", "--steps", "0"])
    assert (code, err) == (0, "")
    assert out == run(capsys, ["simulate", PARITY, "--model", "parity", "--input", "101", "--steps", "0"])[1]


def test_simulate_a_bare_ca_as_json(capsys):
    code, out, err = run(capsys, ["simulate", DHR, "--model", "ident3", "--input", "012", "--steps", "3",
                                  "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == {"model": "ident3", "terminated_by": "fixpoint", "trace": [["0", "1", "2"]]}


@pytest.mark.parametrize("argv, message", [
    (["simulate", DHR, "--model", "echo_chain", "--input", "a", "--steps", "1"], "model 'echo_chain' is not simulatable"),
    (["check", PARITY, "{ambiguous}", "--model", "parity_ma", "--property", "true_inv"],
     "model name 'parity_ma' is ambiguous across kinds; rename one block"),
    (["export-dot", PARITY, "--model", "parity", "--raw-ca", "--out", "unused.dot"],
     "'parity' has no lattice rule to export"),
])
def test_models_that_a_command_cannot_pick_exit_three(capsys, tmp_path, argv, message):
    ambiguous = tmp_path / "ambiguous.ma"
    ambiguous.write_text("ca parity_ma {\n  cell_states: 0 1\n  width: 1\n  rule expr: identity\n}\n")
    code, out, err = run(capsys, [str(ambiguous) if arg == "{ambiguous}" else arg for arg in argv])
    assert (code, out, err) == (3, "", f"ma: error: {message}\n")


@pytest.mark.parametrize("path, model, ca", [(PARITY, "parity_ma", "ident1"), (DHR, "echo3", "ident3")])
def test_export_dot_raw_takes_the_lattice_rule_of_an_ma_or_a_dhr(capsys, tmp_path, path, model, ca):
    by_model, by_ca = tmp_path / "model.dot", tmp_path / "ca.dot"
    assert run(capsys, ["export-dot", path, "--model", model, "--raw-ca", "--out", str(by_model)])[0] == 0
    assert run(capsys, ["export-dot", path, "--model", ca, "--raw-ca", "--out", str(by_ca)])[0] == 0
    assert by_model.read_text() == by_ca.read_text()


def test_export_dot_raw_of_too_many_lattices_is_a_resource_error(capsys, tmp_path):
    path = tmp_path / "wide.ma"
    path.write_text("ca wide {\n  cell_states: 0 1\n  width: 13\n  rule expr: identity\n}\n")
    code, out, err = run(capsys, ["export-dot", str(path), "--model", "wide", "--raw-ca",
                                  "--out", str(tmp_path / "wide.dot")])
    assert (code, out) == (2, "")
    assert err == ("ma: resource bound: exact expansion needs 8192 entries, cap is 4096; "
                   "export a smaller width or raise the cap\n")

def test_simulate_plain_sa_and_ca(capsys):
    code, out, _ = run(capsys, ["simulate", PARITY, "--model", "parity",
                                "--input", "101", "--steps", "0"])
    assert code == 0
    assert "final_state: even" in out
    code, out, _ = run(capsys, ["simulate", DHR, "--model", "ident3",
                                "--input", "012", "--steps", "3"])
    assert code == 0
    assert "fixpoint" in out


def test_simulate_seeded_pca_is_reproducible(capsys):
    args = ["simulate", FLIP, "--model", "flip_ma", "--input", "a",
            "--steps", "3", "--seed", "9", "--format", "json"]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    assert out1 == out2


@pytest.mark.parametrize("quorum", [2, 3])  # a flipped slot: outvoted, or the vote abstains
def test_simulate_dhr_reports_each_tick_of_dhr_run(capsys, tmp_path, quorum):
    model = tmp_path / "faulty.ma"
    model.write_text((MODELS / "dhr_echo.ma").read_text() + f"""
dhr faulty {{
  executors: e0 e1 flipper
  scheduler: ident3
  width: 3
  voter: strict_majority
  quorum: {quorum}
  initial_lattice: 0 1 2
}}
""")
    doc, diagnostics = parse_files([str(model)])
    assert diagnostics == []
    reports = dhr_run(doc.dhrs["faulty"], [("a", "b")] * 4)
    ticks = [{"index": i, "voted": "".join(rep.voted_output) if rep.voted_output is not None else "<abstain>",
              "dissenters": sorted(rep.dissenters)} for i, rep in enumerate(reports)]
    assert {tick["voted"] for tick in ticks} == {"ab" if quorum == 2 else "<abstain>"}
    args = ["simulate", str(model), "--model", "faulty", "--input", "ab", "--steps", "4"]
    code, out, err = run(capsys, args)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["model: faulty", *(f"tick {t['index']}: voted {t['voted']!r}, "
                                                   f"dissenters {t['dissenters']}" for t in ticks)]
    code, out, err = run(capsys, [*args, "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == {"model": "faulty", "ticks": ticks}



def test_simulate_dhr_shows_each_tick_s_report_and_shares_one_row_part_per_distinct_report(capsys, tmp_path):
    rule = "\n".join(f"    {l} {c} {r} -> {l}" for l, c, r in itertools.product("012", repeat=3))
    model = tmp_path / "rotating.ma"
    model.write_text((MODELS / "dhr_echo.ma").read_text() + f"""
ca rot3 {{
  cell_states: 0 1 2
  width: 3
  radius: 1
  boundary: periodic
  rule table:
{rule}
}}

dhr rotating {{
  executors: e0 e1 flipper
  scheduler: rot3
  width: 3
  initial_lattice: 0 1 2
}}
""")
    doc, diagnostics = parse_files([str(model)])
    assert diagnostics == []
    reports = dhr_run(doc.dhrs["rotating"], [("a", "b")] * 7)
    ticks = [{"index": i, "voted": "".join(rep.voted_output), "dissenters": sorted(rep.dissenters)}
             for i, rep in enumerate(reports)]
    assert [tick["dissenters"] for tick in ticks[:3]] == [[2], [0], [1]]  # the flipper moves one slot a tick
    args = ["simulate", str(model), "--model", "rotating", "--input", "ab", "--steps", "7"]
    code, out, err = run(capsys, args)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["model: rotating", *(f"tick {t['index']}: voted {t['voted']!r}, "
                                                     f"dissenters {t['dissenters']}" for t in ticks)]
    code, out, err = run(capsys, [*args, "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == {"model": "rotating", "ticks": ticks}
    rows = cli._simulate_dhr(doc.dhrs["rotating"], cli._build_parser().parse_args(args))[1]()["ticks"]
    assert rows == ticks
    assert len({id(row["dissenters"]) for row in rows}) == 3  # one list per distinct report, not per tick

def test_simulate_bare_pca_is_a_pca_step_loop_on_the_seeded_stream(capsys, tmp_path):
    rule = "\n".join(f"    {' '.join(nb)} -> 0@0.25 1@0.75" if nb[1] == "0" else f"    {' '.join(nb)} -> 0@0.5 1@0.5"
                     for nb in itertools.product("01", repeat=3))
    model = tmp_path / "coin.ma"
    model.write_text(f"pca coin {{\n  cell_states: 0 1\n  width: 4\n  radius: 1\n  boundary: periodic\n"
                     f"  rule table:\n{rule}\n}}\n")
    doc, diagnostics = parse_files([str(model)])
    assert diagnostics == []
    rng = master_stream(11)
    lattices = [("0", "1", "1", "0")]
    for _ in range(30):
        lattices.append(pca_step(doc.pcas["coin"], lattices[-1], rng))
    trace = tmp_path / "trace.json"
    args = ["simulate", str(model), "--model", "coin", "--input", "0110", "--steps", "30", "--seed", "11"]
    code, out, err = run(capsys, [*args, "--format", "json", "--trace", str(trace)])
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result == {"model": "coin", "trace": [list(lattice) for lattice in lattices]}
    assert json.loads(trace.read_text()) == result
    assert len(set(lattices)) > 4
    code, out, err = run(capsys, args)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["model: coin", *(f"t={i}: {list(lat)}" for i, lat in enumerate(lattices))]


def test_dhr_rejects_an_inject_slot_that_is_not_a_number(capsys):
    code, out, err = run(capsys, ["dhr", DHR, "--model", "echo3", "--input", "a", "--inject", "x:foo"])
    assert (code, out, err) == (3, "", "ma: error: --inject expects SLOT:SA, got 'x:foo'\n")


@pytest.mark.parametrize("argv, message", [
    (["--model", "e0"], "'e0' is not a dhr or serial_dhr"),
    (["--model", "echo3", "--inject", "1:nosuch"], "--inject: unknown machine 'nosuch'"),
    (["--model", "echo3", "--inject", "3:flipper"], "1 validation violation(s): [override-slot] 3: slot out of range"),
])
def test_dhr_usage_errors_exit_three(capsys, argv, message):
    code, out, err = run(capsys, ["dhr", DHR, "--input", "a", *argv])
    assert (code, out, err) == (3, "", f"ma: error: {message}\n")


def test_dhr_run_with_injection(capsys, tmp_path):
    sched = tmp_path / "sched.txt"
    sched.write_text("ab\na\n")
    code, out, _ = run(capsys, ["dhr", DHR, "--model", "echo3",
                                "--input", f"@{sched}"])
    assert code == 0
    assert "dissenters []" in out
    code, out, _ = run(capsys, ["dhr", DHR, "--model", "echo3",
                                "--input", f"@{sched}", "--inject", "1:flipper"])
    assert code == 0
    assert "dissenters [1]" in out


def test_dhr_prints_every_tick_as_its_own_report_formatted_alone(capsys, tmp_path):
    rule = "\n".join(f"    {l} {c} {r} -> {l}" for l, c, r in itertools.product("012", repeat=3))
    model = tmp_path / "rotating.ma"
    model.write_text((MODELS / "dhr_echo.ma").read_text() + f"""
ca rot3 {{
  cell_states: 0 1 2
  width: 3
  radius: 1
  boundary: periodic
  rule table:
{rule}
}}

dhr rotating {{
  executors: e0 e1 e2
  scheduler: rot3
  width: 3
  initial_lattice: 0 1 2
}}
""")
    schedule = ["".join(block) for n in (1, 2) for block in itertools.product("ab", repeat=n)] * 8
    sched = tmp_path / "sched.txt"
    sched.write_text("\n".join(schedule) + "\n")
    code, out, _ = run(capsys, ["dhr", str(model), "--model", "rotating", "--input", f"@{sched}",
                                "--inject", "1:flipper"])
    assert code == 0
    doc, diagnostics = parse_files([str(model)])
    assert diagnostics == []
    reports = dhr_run(inject_fault(doc.dhrs["rotating"], 1, doc.sas["flipper"]), schedule)
    expected = []
    for i, rep in enumerate(reports):
        voted = "".join(rep.voted_output) if rep.voted_output is not None else "<abstain>"
        slots = " ".join("".join(w) for w in rep.per_slot_outputs)
        expected.append(
            f"tick {i}: input {''.join(rep.input_block)!r} slots [{slots}] "
            f"voted {voted!r} dissenters {sorted(rep.dissenters)} "
            f"lattice {list(rep.lattice_before)} -> {list(rep.lattice_after)}"
        )
    assert out == "".join(f"{line}\n" for line in expected)  # byte for byte what one print per tick wrote
    assert len({line.split(" ", 4)[4] for line in expected}) < len(expected)  # some ticks repeat a report
    assert len({rep.lattice_before for rep in reports}) == 3


def test_detect_healthy_exits_zero(capsys):
    code, out, _ = run(capsys, ["detect", DETECT, "--model", "const3",
                                "--signatures", SIG])
    assert code == 0
    assert "clean" in out


def test_detect_matched_exits_one_with_witness(capsys):
    code, out, _ = run(capsys, ["detect", DETECT, "--model", "rogue3",
                                "--signatures", SIG, "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "matched"
    assert payload["result"]["signatures"][0]["matched"] is True
    assert len(payload["counterexample"]) == 2  # one action plus the final state


def test_export_dot_flat_and_raw(capsys, tmp_path):
    out_path = tmp_path / "graph.dot"
    code, _, _ = run(capsys, ["export-dot", PARITY, "--model", "parity_ma",
                              "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().startswith("digraph ts")
    code, _, _ = run(capsys, ["export-dot", PARITY, "--model", "ident1",
                              "--raw-ca", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().startswith("digraph lattice_rule")


def test_export_dot_probabilistic_paths(capsys, tmp_path):
    out_path = tmp_path / "graph.dot"
    code, _, _ = run(capsys, ["export-dot", FLIP, "--model", "flip",
                              "--raw-ca", "--out", str(out_path)])
    assert code == 0
    assert "0.5" in out_path.read_text()
    code, _, _ = run(capsys, ["export-dot", FLIP, "--model", "flip_ma",
                              "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().startswith("digraph dtmc")


def test_dhr_serial_composition_runs(capsys, tmp_path):
    sched = tmp_path / "sched.txt"
    sched.write_text("ab\n")
    code, out, _ = run(capsys, ["dhr", DHR, "--model", "echo_chain",
                                "--input", f"@{sched}"])
    assert code == 0
    assert "voted 'ab'" in out
    code, _, err = run(capsys, ["dhr", DHR, "--model", "echo_chain",
                                "--input", f"@{sched}", "--inject", "0:flipper"])
    assert code == 3  # injection targets a single structure, not a chain
    assert "stage" in err


def test_check_unbounded_probability_with_tol(capsys):
    code, out, _ = run(capsys, ["check", FLIP, "--model", "flip_ma",
                                "--property", "hit_one_unbounded",
                                "--tol", "1e-6", "--format", "json"])
    assert code == 0
    assert abs(json.loads(out)["probability"] - 1.0) < 1e-4



FLIP_PROPERTIES = """
property always_true {
  kind: invariant
  predicate: true
}

property hit_one_by_universe {
  kind: reach
  predicate: lattice_has(1)
  horizon: 2
}

property hit_one_two_inputs {
  kind: reach
  predicate: lattice_has(1)
  inputs: "a" "aa"
}
"""


@pytest.mark.parametrize("prop, extra, message", [
    ("always_true", [], "probabilistic models support reach properties only"),
    ("hit_one_two_inputs", [], "a probabilistic reach check needs an input policy"),
    ("hit_one_unbounded", ["--trials", "10"], "Monte Carlo estimation needs a horizon on the property"),
])
def test_check_refuses_what_a_probabilistic_model_cannot_answer(capsys, tmp_path, prop, extra, message):
    path = tmp_path / "flip.ma"
    path.write_text((MODELS / "flip.ma").read_text() + FLIP_PROPERTIES)
    code, out, err = run(capsys, ["check", str(path), "--model", "flip_ma", "--property", prop, *extra])
    assert (code, out, err) == (3, "", f"ma: error: {message}\n")


def test_a_probabilistic_reach_without_a_policy_feeds_its_sole_input_block(capsys, tmp_path):
    path = tmp_path / "flip.ma"
    path.write_text((MODELS / "flip.ma").read_text() + FLIP_PROPERTIES)
    by_universe = run(capsys, ["check", str(path), "--model", "flip_ma", "--property", "hit_one_by_universe"])
    assert by_universe == run(capsys, ["check", FLIP, "--model", "flip_ma", "--property", "hit_one"])
    assert by_universe[0] == 0 and by_universe[1].startswith("probability: 0.75 ")

def test_negative_horizon_exits_three_in_validate_and_check(capsys, tmp_path):
    bad = tmp_path / "flip.ma"
    bad.write_text((MODELS / "flip.ma").read_text().replace("horizon: 2", "horizon: -3"))
    for argv in (["validate", str(bad)],
                 ["check", str(bad), "--model", "flip_ma", "--property", "hit_one"],
                 ["check", str(bad), "--model", "flip_ma", "--property", "hit_one", "--trials", "100"]):
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert "field 'horizon' must be >= 0, got -3" in err


@pytest.mark.parametrize("horizon, code", [(0, 1), (1, 0)])
def test_deterministic_reach_horizon_decides_the_exit_code(capsys, tmp_path, horizon, code):
    path = tmp_path / "parity.ma"
    path.write_text(
        (MODELS / "parity.ma").read_text().replace(
            "  predicate: cell0_state(odd)\n", f"  predicate: cell0_state(odd)\n  horizon: {horizon}\n"
        )
    )
    got, out, _ = run(capsys, ["check", str(path), "--model", "parity_ma", "--property", "reach_odd",
                               "--format", "json"])
    assert got == code
    assert json.loads(out)["verdict"] == ("holds" if code == 0 else "violated")


def test_horizon_on_an_invariant_exits_three(capsys, tmp_path):
    path = tmp_path / "parity.ma"
    path.write_text(
        (MODELS / "parity.ma").read_text().replace(
            "  predicate: cell0_state(even)\n", "  predicate: cell0_state(even)\n  horizon: 3\n"
        )
    )
    code, out, err = run(capsys, ["check", str(path), "--model", "parity_ma", "--property", "even_always"])
    assert code == 3
    assert out == ""
    assert "horizon applies to reach properties only" in err


def test_usage_error_exit_three(capsys):
    code, _, err = run(capsys, ["check", PARITY, "--model", "missing",
                                "--property", "true_inv"])
    assert code == 3
    assert "missing" in err


def test_argparse_errors_exit_three(capsys):
    code, _, _ = run(capsys, ["simulate", PARITY, "--model", "parity_ma"])
    assert code == 3


def test_simulate_bare_lattice_rejects_non_cell_states(capsys):
    # a value outside cell_states is a usage error, not a crash read as "violated"
    for path, model in ((PARITY, "ident1"), (FLIP, "flip")):
        code, out, err = run(capsys, ["simulate", path, "--model", model,
                                      "--input", "2", "--steps", "2"])
        assert code == 3
        assert out == ""
        assert err == f"ma: error: --input: cell 0 value '2' is not a cell state of {model}\n"


@pytest.mark.parametrize("path, model, word", [
    (PARITY, "parity_ma", "1"),  # ma
    (FLIP, "flip_ma", "a"),  # ma with a probabilistic lattice
    (DHR, "echo3", "a"),  # dhr
    (FLIP, "flip", "0"),  # pca
    (PARITY, "ident1", "0"),  # ca
    (PARITY, "parity", "1"),  # sa
])
def test_simulate_rejects_negative_steps(capsys, path, model, word):
    # a negative tick count is a usage error, not an empty run that exits 0
    code, out, err = run(capsys, ["simulate", path, "--model", model,
                                  "--input", word, "--steps", "-1"])
    assert code == 3
    assert out == ""
    assert err == "ma: error: --steps must be >= 0, got -1\n"


@pytest.mark.parametrize("path, model, word", [
    (PARITY, "parity_ma", "1"),  # ma
    (FLIP, "flip_ma", "a"),  # ma with a probabilistic lattice
    (DHR, "echo3", "a"),  # dhr
    (FLIP, "flip", "0"),  # pca
    (PARITY, "ident1", "0"),  # ca
    (PARITY, "parity", "1"),  # sa
])
def test_simulate_rejects_a_negative_seed(capsys, path, model, word):
    # rejected before any file is read: a pca run used to fail inside numpy,
    # and the deterministic kinds ignored the seed and exited 0
    code, out, err = run(capsys, ["simulate", path, "--model", model,
                                  "--input", word, "--steps", "2", "--seed", "-1"])
    assert (code, out, err) == (3, "", "ma: error: --seed must be >= 0, got -1\n")


@pytest.mark.parametrize("path, model, prop, extra", [
    (PARITY, "parity_ma", "even_always", []),  # flattened: the seed is never used
    (FLIP, "flip_ma", "hit_one", []),  # exact chain
    (FLIP, "flip_ma", "hit_one", ["--trials", "100"]),  # Monte Carlo
    ("/nonexistent/model.ma", "flip_ma", "hit_one", ["--trials", "100"]),  # before any file is read
])
def test_check_rejects_a_negative_seed(capsys, path, model, prop, extra):
    code, out, err = run(capsys, ["check", path, "--model", model, "--property", prop,
                                  *extra, "--seed", "-1"])
    assert (code, out, err) == (3, "", "ma: error: --seed must be >= 0, got -1\n")


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("path, model, prop", [
    (FLIP, "flip_ma", "hit_one_unbounded"),  # exact chain: used to sweep max_iter times, then exit 2
    (PARITY, "parity_ma", "even_always"),  # flattened: the tol is never used
    ("/nonexistent/model.ma", "flip_ma", "hit_one"),  # before any file is read
])
def test_check_rejects_a_tol_that_is_not_a_finite_positive_number(capsys, path, model, prop, tol):
    code, out, err = run(capsys, ["check", path, "--model", model, "--property", prop, "--tol", tol])
    assert (code, out, err) == (3, "", f"ma: error: --tol must be a finite number > 0, got {float(tol)}\n")


@pytest.mark.parametrize("bound", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["check", PARITY, "--model", "parity_ma", "--property", "even_always"],  # flattened
    ["check", FLIP, "--model", "flip_ma", "--property", "hit_one_unbounded"],  # exact chain
    ["check", "/nonexistent/model.ma", "--model", "parity_ma", "--property", "even_always"],
    ["detect", DETECT, "--model", "const3", "--signatures", SIG],  # one state: used to print clean
    ["detect", "/nonexistent/model.ma", "--model", "const3", "--signatures", SIG],
])
def test_check_and_detect_reject_a_bound_below_one_before_reading_a_file(capsys, argv, bound):
    code, out, err = run(capsys, [*argv, "--bound", bound])
    assert (code, out, err) == (3, "", f"ma: error: --bound must be >= 1, got {bound}\n")



@pytest.mark.parametrize("trials", ["0", "-5"])
@pytest.mark.parametrize("path, model, prop", [
    (PARITY, "parity_ma", "even_always"),  # flattened: used to ignore the flag and exit 1
    (FLIP, "flip_ma", "hit_one"),  # Monte Carlo: used to refuse only after parsing
    ("/nonexistent/model.ma", "flip_ma", "hit_one"),
])
def test_check_rejects_trials_below_one_before_reading_a_file(capsys, path, model, prop, trials):
    code, out, err = run(capsys, ["check", path, "--model", model, "--property", prop, "--trials", trials])
    assert (code, out, err) == (3, "", f"ma: error: --trials must be >= 1, got {trials}\n")

def test_check_and_detect_accept_a_bound_of_one(capsys):
    code, out, err = run(capsys, ["detect", DETECT, "--model", "const3", "--signatures", SIG, "--bound", "1"])
    assert (code, err) == (0, "")
    code, out, err = run(capsys, ["check", PARITY, "--model", "parity_ma", "--property", "even_always",
                                  "--bound", "1"])
    assert code == 2 and err.startswith("ma: resource bound: state bound 1 exceeded")


@pytest.mark.parametrize("model", ["echo3", "nonexistent"])
def test_dhr_rejects_a_negative_seed(capsys, model):
    code, out, err = run(capsys, ["dhr", DHR, "--model", model, "--input", "a", "--seed", "-1"])
    assert (code, out, err) == (3, "", "ma: error: --seed must be >= 0, got -1\n")


@pytest.mark.parametrize("message", ["boom", "two\nlines"])
def test_unexpected_exception_exits_four_on_one_line(capsys, monkeypatch, message):
    # a crash is "internal error", never exit 1 ("violated")
    def crash(args):
        raise RuntimeError(message)

    monkeypatch.setattr(cli, "_cmd_validate", crash)
    code, out, err = run(capsys, ["validate", PARITY])
    assert code == 4
    assert out == ""
    assert err == f"ma: internal error: RuntimeError: {' '.join(message.splitlines())}\n"
    assert "Traceback" not in err
