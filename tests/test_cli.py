import itertools
import json

import pytest

import mimic_automata.cli as cli
from mimic_automata import dhr_run, inject_fault, pca_step
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


def test_validate_reports_a_file_that_is_not_utf8_and_reads_the_others(capsys, tmp_path):
    bad = tmp_path / "bad.ma"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, ["validate", str(bad), PARITY])
    assert code == 3
    assert err.splitlines() == [f"{bad}:1:1: cannot read file: 'utf-8' codec can't decode byte 0xff "
                                "in position 0: invalid start byte"]
    assert out == ""


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
    assert out.splitlines() == expected
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
