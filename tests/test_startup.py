"""Start-up contract: numpy is loaded only by the commands that compute with it.

Seeded random streams, exact chain solving and Monte Carlo import numpy when
they first run; parsing, validation, flattening, detection and deterministic
simulation never do. Each case runs ``cli.main`` in a fresh interpreter, so a
module imported by an earlier test cannot hide a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mimic_automata.cli import main

from helpers import MODELS, SIGNATURES

SRC = Path(__file__).resolve().parent.parent / "src"
PARITY = str(MODELS / "parity.ma")
FLIP = str(MODELS / "flip.ma")
DHR = str(MODELS / "dhr_echo.ma")
DETECT = str(MODELS / "dhr_detect.ma")
SIG = str(SIGNATURES / "emits_b.ma")

CHILD = """
import contextlib, io, json, sys
from mimic_automata.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "out": out.getvalue(), "numpy": "numpy" in sys.modules}))
"""


def fresh_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def fresh_main(argv):
    return json.loads(fresh_python("-c", CHILD, *argv))


def test_bare_import_leaves_numpy_unloaded():
    out = fresh_python("-c", "import sys, mimic_automata; print('numpy' in sys.modules)")
    assert out.strip() == "False"


DETERMINISTIC = {
    "validate": ["validate", PARITY, FLIP, DHR],
    "check_invariant": ["check", PARITY, "--model", "parity_ma", "--property", "even_always"],
    "simulate": ["simulate", PARITY, "--model", "parity_ma", "--input", "11", "--steps", "2"],
    "dhr": ["dhr", DHR, "--model", "echo3", "--input", "ab", "--inject", "1:flipper"],
    "detect": ["detect", DETECT, "--model", "rogue3", "--signatures", SIG],
}


@pytest.mark.parametrize("name", sorted(DETERMINISTIC))
def test_deterministic_command_leaves_numpy_unloaded(capsys, name):
    got = fresh_main(DETERMINISTIC[name])
    code = main(DETERMINISTIC[name])
    assert got["numpy"] is False
    assert (got["code"], got["out"]) == (code, capsys.readouterr().out)


def test_export_dot_of_a_chain_leaves_numpy_unloaded(tmp_path):
    out_path = tmp_path / "chain.dot"
    got = fresh_main(["export-dot", FLIP, "--model", "flip_ma", "--out", str(out_path)])
    assert got["code"] == 0
    assert out_path.read_text().startswith("digraph dtmc")
    assert got["numpy"] is False


@pytest.mark.parametrize("extra", [[], ["--trials", "2000", "--seed", "11"]], ids=["exact", "monte_carlo"])
def test_probabilistic_check_loads_numpy_with_the_same_output(capsys, extra):
    argv = ["check", FLIP, "--model", "flip_ma", "--property", "hit_one", "--format", "json", *extra]
    got = fresh_main(argv)
    code = main(argv)
    assert got["numpy"] is True
    assert (got["code"], got["out"]) == (code, capsys.readouterr().out)
