"""The benchmark's seed-invariance self-test passes against the package.

It exercises what the benchmark calls on the chain (``build_dtmc``,
``Dtmc.states``, ``transition_count``, ``reach_probability_exact``) and on
the flattened structure, beyond the imported names that
``test_bench_imports.py`` checks. It runs as a script, as the benchmark does,
with bytecode writing off so that ``perfbench/`` is only read.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_bench_selftest_passes_on_seeds_one_to_three():
    done = subprocess.run([sys.executable, "-B", str(SELFTEST), "1", "2", "3"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "seed invariance: ok for seeds [1, 2, 3]" in done.stdout
