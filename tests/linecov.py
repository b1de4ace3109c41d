"""Line coverage of ``src/mimic_automata`` with the standard library only.

    python tests/linecov.py run OUT [PYTEST_ARGS...]   # trace a pytest run, CLI children too
    python tests/linecov.py report OUT                 # list the lines no traced process ran

``run`` writes a ``sitecustomize`` hook into ``OUT/hook`` and starts pytest
with that directory first on ``PYTHONPATH``. Every Python process that
inherits the path (pytest itself and the ``python -m mimic_automata.cli``
children the tests start) then traces the package's frames with
``sys.settrace`` and writes the lines it ran to ``OUT/<pid>.json`` when it
exits. A child given a ``PYTHONPATH`` of its own (the benchmark runner's)
is not traced.

``report`` merges those files and compares them with the lines the
package's compiled code objects can execute. The file is not named
``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import atexit
import json
import os
import subprocess
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mimic_automata"

HOOK = """\
import sys
sys.path.insert(0, {tests!r})
import linecov
del sys.path[0]
linecov.start({out!r})
"""


def start(out: str) -> None:
    """Trace this process's lines in the package; dump them to ``out/<pid>.json`` at exit."""
    prefix = str(PACKAGE.resolve()) + os.sep
    names: dict[str, str | None] = {}  # code file -> its name in the package, or None
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        name = names.get(filename, "")
        if name == "":
            real = os.path.realpath(filename)
            name = names[filename] = real[len(prefix):] if real.startswith(prefix) else None
        if name is None:
            return None
        hits[filename].add(frame.f_lineno)
        return local

    def dump() -> None:
        sys.settrace(None)
        merged: dict[str, set[int]] = defaultdict(set)
        for filename, lines in hits.items():
            merged[names[filename]] |= lines
        with open(os.path.join(out, f"{os.getpid()}.json"), "w", encoding="utf-8") as handle:
            json.dump({name: sorted(lines) for name, lines in merged.items()}, handle)

    atexit.register(dump)
    threading.settrace(on_call)
    sys.settrace(on_call)


def executable_lines(path: Path) -> set[int]:
    """Lines that some instruction of the compiled module or its nested code objects maps to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def run(out: Path, pytest_args: list[str]) -> int:
    out.mkdir(parents=True, exist_ok=True)
    for old in out.glob("*.json"):
        old.unlink()
    hook = out / "hook"
    hook.mkdir(exist_ok=True)
    (hook / "sitecustomize.py").write_text(HOOK.format(tests=str(ROOT / "tests"), out=str(out)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(hook), str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.call([sys.executable, "-m", "pytest", *pytest_args], env=env, cwd=ROOT)


def report(out: Path) -> int:
    dumps = sorted(out.glob("*.json"))
    if not dumps:
        print(f"no traces in {out}; run 'python tests/linecov.py run {out}' first", file=sys.stderr)
        return 2
    hits: dict[str, set[int]] = defaultdict(set)
    for dump in dumps:
        for name, lines in json.loads(dump.read_text()).items():
            hits[name].update(lines)
    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        text = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(lines - hits[path.name])
        total += len(lines)
        unreached += len(missed)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{unreached} of {total} executable lines unreached ({len(dumps)} traced processes)")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in ("run", "report") or (argv[0] == "report" and len(argv) != 2):
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    out = Path(argv[1]).resolve()
    return run(out, argv[2:]) if argv[0] == "run" else report(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
