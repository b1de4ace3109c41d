"""The benchmark scripts import only names the package still has.

``perfbench/`` is read as source, not imported: its scripts import their
sibling modules by bare name (``import checks``), which only works from that
directory. A name deleted from the package would otherwise break the traced
benchmark run without failing any test.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def package_imports(script: Path):
    """``(module, name)`` for every ``from mimic_automata... import name`` in ``script``."""
    for node in ast.walk(ast.parse(script.read_text(), str(script))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "mimic_automata":
                yield from ((node.module, alias.name) for alias in node.names)


def test_tracing_is_among_the_scripts_read():
    imported = {module for module, _ in package_imports(PERFBENCH / "tracing.py")}
    assert {"mimic_automata", "mimic_automata.checker", "mimic_automata.composition",
            "mimic_automata.rng"} <= imported


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_every_name_a_benchmark_script_imports_exists(script):
    for module, name in package_imports(script):
        assert hasattr(importlib.import_module(module), name), f"{script.name}: {module}.{name}"
