"""Benchmark of the ``ma`` command line on four generated workloads.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload dhr_explore --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

With ``--trace 0`` every command of the workload runs as a fresh ``ma``
process (``python -m mimic_automata.cli`` with ``src`` on the path), one at
a time in a closed loop with one client, for about ``--seconds``; each
command's CPU time is taken from ``os.wait4`` and its output is checked.
Before every timed process a fixed reference program (``reference.py``)
measures the host's speed, and the reported times are scaled by it. With
``--trace 1`` the benchmark instead calls the library's public functions in
one process and records a span around each call (see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human-readable
report goes to standard error, and the full record (samples, provenance,
spans) to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "out"

WORKLOADS = ("dhr_explore", "chain", "simulate", "parse")
RUN_LIMIT_S = 165.0  # every run ends well inside the 180 s a run may take
MIN_CYCLES = 2  # so that every command has at least two samples
# CPU seconds of reference.py on the bench host (2-vCPU Intel Xeon at 2.0 GHz:
# 0.249 s, the median of its 502 runs in forty benchmark runs); a run's
# timings are scaled by this over the run's own mean.
REFERENCE_S = 0.25
# numpy's BLAS pool would otherwise start a spinning thread per core in every
# child, which on a small host competes with the single-threaded program.
CHILD_ENV = {"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass
class Command:
    """One program invocation with its expected exit code and output check."""

    name: str
    argv: list[str]
    exit_code: int
    check: Callable[[str], None]
    counted: bool = True  # False for the reference program, which is not an operation of ``ma``


@dataclass
class Sample:
    wall_s: float
    cpu_s: float  # the child's own user + system time
    peak_mib: float
    ok: bool


@dataclass
class Runner:
    """Runs commands as fresh processes, one at a time, and keeps every sample."""

    work: Path
    deadline: float
    samples: dict[str, list[Sample]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def run(self, cmd: Command, record: bool = True) -> Sample:
        """Spawn, wait, time and check one command; a failure is counted, never raised."""
        out_path = self.work / f"{cmd.name}.out"
        err_path = self.work / f"{cmd.name}.err"
        env = {**os.environ, **CHILD_ENV}
        timeout = max(1.0, self.deadline - time.monotonic())
        killed = threading.Event()
        self.attempted += cmd.counted
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd.argv, stdout=out, stderr=err, env=env, cwd=ROOT)

            def kill() -> None:
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux
        sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, True)
        problem = None
        if killed.is_set():
            problem = f"timed out after {timeout:.0f} s"
        elif proc.returncode != cmd.exit_code:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            problem = f"exit {proc.returncode}, want {cmd.exit_code} {tail}"
        else:
            try:
                cmd.check(out_path.read_text())
            except Exception as exc:  # malformed output is a failed check, never fatal
                problem = f"output check: {type(exc).__name__}: {exc}"
        if problem is not None:
            sample.ok = False
            self.fail(f"{cmd.name}: {problem}")
        if record:
            self.samples.setdefault(cmd.name, []).append(sample)
        return sample


def ma(*args: str) -> list[str]:
    return [sys.executable, "-m", "mimic_automata.cli", *map(str, args)]


def build(workload: str, seed: int, work: Path) -> tuple[Command, list[Command], dict]:
    """Write the workload's files under ``work``; return its set-up command and commands."""

    def write(name: str, text: str) -> Path:
        path = work / name
        path.write_text(text)
        return path

    if workload in ("dhr_explore", "simulate"):
        gen = wl.dhr_structure(seed)
    elif workload == "chain":
        gen = wl.chain(seed)
    else:
        gen = wl.parse_document(seed)
    paths = {name: write(name, text) for name, text in gen.files.items()}
    model_file = paths["model.ma"]
    facts = gen.facts
    setup = Command("setup", ma("validate", model_file), 0, checks.empty)

    if workload == "dhr_explore":
        m = facts["model"]
        commands = [
            Command("check", ma("check", model_file, "--model", m, "--property", facts["safe"],
                                "--format", "json"), 0, checks.invariant_holds),
            Command("cex", ma("check", model_file, "--model", m, "--property", facts["cex"],
                              "--format", "json"), 1, checks.invariant_violated),
            Command("detect", ma("detect", model_file, "--model", m, "--signatures",
                                 paths["signatures.ma"], "--format", "json"), 1,
                    checks.detection(facts)),
        ]
    elif workload == "chain":
        m = facts["model"]
        mc_seed = facts["mc_seed"] = seed * 7919 + 1
        commands = [
            Command("exact", ma("check", model_file, "--model", m, "--property", facts["unbounded"],
                                "--format", "json"), 0,
                    checks.probability(wl.CHAIN_P_UNBOUNDED, wl.UNBOUNDED_TOL)),
            Command("bounded", ma("check", model_file, "--model", m, "--property", facts["horizon"],
                                  "--format", "json"), 0,
                    checks.probability(wl.CHAIN_P_BOUNDED, wl.BOUNDED_TOL)),
            Command("mc", ma("check", model_file, "--model", m, "--property", facts["horizon"],
                             "--trials", wl.MC_TRIALS, "--seed", mc_seed, "--format", "json"), 0,
                    checks.monte_carlo(wl.CHAIN_P_BOUNDED, wl.MC_TRIALS)),
            Command("simulate", ma("simulate", model_file, "--model", m, "--input", "a",
                                   "--steps", wl.CHAIN_TICKS, "--seed", mc_seed, "--format", "json"),
                    0, checks.pca_run(wl.CHAIN_TICKS)),
        ]
    elif workload == "simulate":
        m = facts["model"]
        block = wl.simulate_block(seed)
        schedule = wl.dhr_schedule(seed, wl.DHR_TICKS)
        sched_file = write("schedule.txt", "\n".join(schedule) + "\n")
        slot = wl.inject_slot(seed)
        commands = [
            Command("simulate", ma("simulate", model_file, "--model", m, "--input", block,
                                   "--steps", wl.SIM_TICKS, "--format", "json"), 0,
                    checks.dhr_simulation(facts, block, wl.SIM_TICKS)),
            Command("dhr", ma("dhr", model_file, "--model", m, "--input", f"@{sched_file}",
                              "--inject", f"{slot}:{facts['flipper']}"), 0,
                    checks.dhr_schedule(facts, schedule, slot)),
        ]
        facts = {**facts, "block": block, "schedule": schedule, "slot": slot}
    else:
        commands = [
            Command("roundtrip", [sys.executable, str(HERE / "roundtrip.py"), str(model_file)], 0,
                    checks.roundtrip(wl.PARSE_BLOCKS)),
        ]
    facts = {**facts, "seed": seed, "files": {name: str(path) for name, path in paths.items()}}
    return setup, commands, facts


def measure(workload: str, seed: int, seconds: float, runner: Runner) -> tuple[dict, list[str]]:
    """Closed loop over (reference, set-up, reference, command) for about ``seconds``.

    Whole cycles only, at least ``MIN_CYCLES`` of them; the run stops at the
    cycle boundary nearest to ``seconds``. Every timing is the child's CPU
    time scaled by the host's speed during the run: ``REFERENCE_S`` over the
    mean CPU time of the reference program.
    """
    setup, commands, _ = build(workload, seed, runner.work)
    reference = Command("reference", [sys.executable, str(HERE / "reference.py")], 0,
                        checks.reference, counted=False)
    runner.run(setup, record=False)  # warm-up: bytecode compile and file cache
    start = time.monotonic()
    cycles = 0
    while True:
        cycle_start = time.monotonic()
        for cmd in commands:
            runner.run(reference)
            runner.run(setup)
            runner.run(reference)
            runner.run(cmd)
        cycles += 1
        now = time.monotonic()
        cycle_s = now - cycle_start
        if (now + cycle_s / 2 - start >= seconds and cycles >= MIN_CYCLES) or now + cycle_s > runner.deadline:
            break

    cpus = {name: [s.cpu_s for s in samples] for name, samples in runner.samples.items()}
    walls = {name: [s.wall_s for s in samples] for name, samples in runner.samples.items()}
    peaks = {name: statistics.median(s.peak_mib for s in samples)
             for name, samples in runner.samples.items() if name != reference.name}
    largest = max(peaks, key=peaks.get)
    speed = REFERENCE_S / statistics.fmean(cpus[reference.name])
    setup_cpu = statistics.median(cpus["setup"])
    commands_cpu = sum(statistics.fmean(cpus[c.name]) for c in commands)
    metrics = {
        "setup_s": (setup_cpu * speed, "s"),
        "commands_s": (commands_cpu * speed, "s"),
        "peak_mib": (peaks[largest], "MiB"),
    }
    lines = [f"{workload} seed={seed} cycles={cycles} (fresh process per command, one client)",
             f"  host speed {speed:.4f} = {REFERENCE_S} s / mean reference cpu; raw cpu: setup median"
             f" {setup_cpu:.4f} s, commands {commands_cpu:.4f} s",
             f"  {'':<12} {'cpu median':>10}   {'cpu mean':>8}   {'wall median':>11}  samples  cpu [min, max]"]
    for name in ["setup", reference.name] + [c.name for c in commands]:
        values = cpus[name]
        lines.append(f"  {name + '_s':<12} {statistics.median(values):8.4f} s  {statistics.fmean(values):8.4f} s  "
                     f"{statistics.median(walls[name]):9.4f} s  {len(values):7d}"
                     f"  [{min(values):.4f}, {max(values):.4f}]")
    lines.append(f"  {'setup_s':<14} {metrics['setup_s'][0]:8.4f} s  median setup cpu x host speed")
    lines.append(f"  {'commands_s':<14} {metrics['commands_s'][0]:8.4f} s  sum of the command cpu means x host speed")
    lines.append(f"  {'peak_mib':<14} {peaks[largest]:8.1f} MiB  median peak RSS of '{largest}'")
    return metrics, lines


def provenance() -> dict:
    """Where and on what a result was measured."""
    probe = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        probe.append(time.perf_counter() - start)
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=20)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = 0
    for path in sorted((SRC / "mimic_automata").rglob("*.py")):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "host_probe_s": statistics.median(probe),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_lines": src_lines,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, deadline)
    try:
        if trace:
            sys.path.insert(0, str(SRC))
            import tracing

            metrics, lines, trace_record = tracing.traced_run(workload, seed, runner, build)
        else:
            metrics, lines = measure(workload, seed, seconds, runner)
            trace_record = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(runner.failures)
    lines.append(f"  {'ops_failed':<12} {failed}/{runner.attempted} commands or calls")
    lines += [f"  FAILED {what}" for what in runner.failures]
    prov = provenance()
    lines.append("  provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": bool(trace),
        "provenance": prov,
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "failures": runner.failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "samples": {name: [vars(s) for s in samples] for name, samples in runner.samples.items()},
        "trace": trace_record,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print("\n".join(lines), file=sys.stderr)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mimic_automata" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC / 'mimic_automata'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        records.append(run_one(name, args.seed, args.seconds, bool(args.trace), deadline))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
