import json

import pytest

from mimic_automata.cli import main

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
