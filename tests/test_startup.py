"""Start-up contract: numpy is loaded only by the commands that compute with it,
and the package's classes are made without generating code for each.

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


GENERATED = """
import inspect, json, sys
import mimic_automata.cli
found = {}
for name, module in sorted(sys.modules.items()):
    if name.partition(".")[0] == "mimic_automata":
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == name:
                for attr, value in vars(cls).items():
                    code = getattr(getattr(value, "__func__", value), "__code__", None)
                    if code is not None and code.co_filename == "<string>":
                        found.setdefault(cls.__qualname__, []).append(attr)
print(json.dumps(found))
"""

# classes whose methods are still compiled from generated source when the package is imported
GENERATED_ALLOWED = {
    "RunResult": "slots dataclass built once per unit run: its generated __init__ is faster than value_class's",
    "MacroTick": "slots dataclass built once per macro step, for the same reason",
    "PcaRows": "NamedTuple: one generated __new__",
    "_Store": "NamedTuple: one generated __new__",
    "_FieldSpec": "NamedTuple: one generated __new__",
}


def test_import_generates_code_only_for_the_listed_classes():
    """``@dataclass`` runs ``exec`` on several methods per class; ``value_class`` runs none."""
    found = json.loads(fresh_python("-c", GENERATED))
    assert set(found) == set(GENERATED_ALLOWED), found
