"""Traced run: spans around the public calls into each layer, in one process.

Every traced run covers all four workloads, so each per-layer metric is
measured on the workload it belongs to, whichever ``--workload`` asked for
the run. For each section the benchmark calls the public functions that the
corresponding ``ma`` commands reach (``parse_files``, ``flatten``,
``check_invariant``, ``detect``, ``build_dtmc``, ``reach_probability_exact``,
``reach_probability_mc``, ``ma_run``, ``dhr_run``, ...) and records a span
per call: name, layer (the module that defines the function), start, end,
parent span and command id. Spans stay in memory and are written out at the
end. Layer probes (labeling, products, unit and lattice counts, rule-table
samplers, a tracemalloc pass) run after the commands, under their own
command id.

For the requested workload only, the tracing overhead is the wall time of
its traced commands minus that of the same commands run untraced right
after, and its commands also run once each as fresh ``ma`` processes;
``cli.overhead_s`` is the median over them of wall time minus the traced
time of the same command.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import checks
import workloads as wl
from checks import expect
from mimic_automata import (
    build_dhr,
    build_dtmc,
    ca_step,
    check_invariant,
    check_reach,
    common_input_alphabet,
    detect,
    dhr_run,
    flatten,
    inject_fault,
    load_signatures,
    ma_initial,
    ma_run,
    parse,
    parse_files,
    pca_step,
    pca_step_distribution,
    product,
    reach_probability_exact,
    reach_probability_mc,
    sa_run,
    serialize,
)
from mimic_automata.checker import builtin_labeling
from mimic_automata.composition import binding_seed
from mimic_automata.rng import master_stream

LAYERS = ("modelfile", "checker", "detect", "composition", "sequential", "cellular", "dhr")
PROBE_REPEATS = 20_000


class Tracer:
    """Span recorder; a disabled tracer runs the same calls without recording."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.labels: dict[str, str] = {}
        self._open: list[dict] = []

    @contextmanager
    def _record(self, name: str, layer: str, command: str):
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "command": command,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def span(self, name: str, layer: str, command: str):
        return self._record(name, layer, command) if self.enabled else nullcontext()

    def call(self, command: str, fn, *args, **kwargs):
        layer = fn.__module__.rsplit(".", 1)[-1]
        with self.span(fn.__name__, layer, command):
            return fn(*args, **kwargs)

    def durations(self, name: str, command: str | None = None) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (command is None or s["command"] == command)]

    def duration(self, name: str, command: str | None = None) -> float:
        return sum(self.durations(name, command))


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer: span time minus the part of it that child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["layer"]] += s["end"] - s["start"] - covered[s["id"]]
    return out


def span_cost_s(repeats: int = 20_000) -> float:
    """Wall time of recording one empty span, to read the overhead differences against."""
    probe = Tracer(True)
    start = time.perf_counter()
    for _ in range(repeats):
        with probe.span("empty", "bench", "calibration"):
            pass
    return (time.perf_counter() - start) / repeats


# ---------------------------------------------------------------------------
# sections: one per workload, mirroring its commands call for call

def _load(t: Tracer, cmd: str, *paths):
    doc, diagnostics = t.call(cmd, parse_files, list(paths))
    expect(not diagnostics, f"{cmd}: diagnostics {diagnostics[:2]}")
    return doc


def _commands(t: Tracer, section: str, names, body) -> dict:
    """Run ``body(name, command_id)`` for each command name inside a command span."""
    results = {}
    for name in names:
        cmd = f"{section}/{name}"
        with t.span(cmd, "bench", cmd):
            results[name] = body(name, cmd)
    return results


def explore_commands(t: Tracer, f: dict) -> dict:
    model, sigfile = f["files"]["model.ma"], f["files"]["signatures.ma"]

    def body(name, cmd):
        doc = _load(t, cmd, model)
        if name == "setup":
            return None
        ma = t.call(cmd, build_dhr, doc.dhrs[f["model"]])
        if name == "detect":
            sigs = t.call(cmd, load_signatures, [sigfile])
            universe = tuple((s,) for s in t.call(cmd, common_input_alphabet, ma))
            ts = t.call(cmd, flatten, ma, universe)
            report = t.call(cmd, detect, ma, universe, sigs, ts=ts)
            got = {r.signature_id: (len(r.witness) if r.matched else None) for r in report.results}
            expect(got == f["signatures"], f"detect results {got}")
            return ma, ts, sigs
        prop = doc.properties[f["safe"] if name == "check" else f["cex"]]
        ts = t.call(cmd, flatten, ma, prop.inputs)
        result = t.call(cmd, check_invariant, ts, prop.predicate)
        if name == "check":
            expect(result.verdict == "holds", f"check verdict {result.verdict}")
            expect(len(ts.states) == wl.SIZES["explore_states"], f"{len(ts.states)} states")
            expect(ts.transition_count == wl.SIZES["explore_transitions"],
                   f"{ts.transition_count} transitions")
        else:
            expect(result.verdict == "violated" and len(result.counterexample) == wl.CEX_LENGTH,
                   f"cex verdict {result.verdict}")
        return ma, ts

    return _commands(t, "dhr_explore", ("setup", "check", "cex", "detect"), body)


def explore_probes(t: Tracer, f: dict, res: dict) -> dict:
    cmd = "dhr_explore/probe"
    ma, ts = res["check"]
    _, ts_detect, sigs = res["detect"]
    props_fn, _ = t.call(cmd, builtin_labeling, ma)
    with t.span("labeling", "checker", cmd):
        for cfg in ts.states.values():
            props_fn(cfg)
    product_states = []
    for sig in sigs:
        prod = t.call(cmd, product, ts_detect, sig.pattern)
        t.call(cmd, check_reach, prod, "accepting")
        product_states.append(len(prod.states))

    # counts of the work a flatten does: one unit run per (state, universe entry, cell)
    # and one lattice step per (state, universe entry)
    cell_map = ma.root().cell_map
    universe = ts.metadata["universe"]
    distinct_runs = set()
    for cfg in ts.states.values():
        for block in universe:
            for q, unit_state in zip(cfg.lattice, cfg.unit_states):
                distinct_runs.add((cell_map[q], unit_state, block))
    unit_runs = len(ts.states) * len(universe) * len(ma.root().seed)
    lattice_steps = len(ts.states) * len(universe)
    distinct_lattices = len({cfg.lattice for cfg in ts.states.values()})

    flatten_s = t.duration("flatten", "dhr_explore/check")
    return {
        "checker.flatten_s": (flatten_s, "s"),
        "checker.flatten_states": (len(ts.states), "count"),
        "checker.flatten_transitions": (ts.transition_count, "count"),
        "checker.flatten_states_per_s": (len(ts.states) / flatten_s, "1/s"),
        "checker.labeling_s": (t.duration("labeling", cmd), "s"),
        "checker.bfs_s": (t.duration("check_invariant", "dhr_explore/check")
                          + t.duration("check_invariant", "dhr_explore/cex"), "s"),
        "checker.product_s": (statistics.mean(t.durations("product", cmd)), "s"),
        "checker.product_states": (statistics.mean(product_states), "count"),
        "detect.detect_s": (t.duration("detect", "dhr_explore/detect"), "s"),
        "composition.unit_runs": (unit_runs, "count"),
        "composition.unit_run_distinct_ratio": (len(distinct_runs) / unit_runs, "ratio"),
        "cellular.lattice_steps": (lattice_steps, "count"),
        "cellular.lattice_step_distinct_ratio": (distinct_lattices / lattice_steps, "ratio"),
    }


def explore_memory(res: dict) -> dict:
    """Peak traced allocation of one flatten (the detect universe), per state."""
    ma, ts_detect, _ = res["detect"]
    universe = ts_detect.metadata["universe"]
    tracemalloc.start()
    try:
        ts = flatten(ma, universe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"checker.flatten_bytes_per_state": (peak / len(ts.states), "B/state")}


def chain_commands(t: Tracer, f: dict) -> dict:
    model = f["files"]["model.ma"]
    mc_seed = f["mc_seed"]

    def body(name, cmd):
        doc = _load(t, cmd, model)
        if name == "setup":
            return None
        ma = doc.mas[f["model"]]
        prop = doc.properties[f["unbounded"] if name == "exact" else f["horizon"]]
        if name == "mc":
            result = t.call(cmd, reach_probability_mc, ma, prop.policy, prop.predicate, prop.horizon,
                            trials=wl.MC_TRIALS, seed=mc_seed)
            checks.in_binomial_band(result.probability, wl.CHAIN_P_BOUNDED, wl.MC_TRIALS)
            t.labels["checker.mc_method"] = result.method
            return result
        if name == "simulate":
            cfg = t.call(cmd, ma_initial, ma, binding_seed(ma, ma.root()))
            cfg, ticks = t.call(cmd, ma_run, ma, cfg, [("a",)] * wl.CHAIN_TICKS, seed=mc_seed)
            expect(cfg.lattice == ("2",) * 4 and len(ticks) == wl.CHAIN_TICKS, "chain run not absorbed")
            return None
        dtmc = t.call(cmd, build_dtmc, ma, prop.policy)
        result = t.call(cmd, reach_probability_exact, dtmc, prop.predicate, horizon=prop.horizon)
        want, tol = ((wl.CHAIN_P_UNBOUNDED, wl.UNBOUNDED_TOL) if name == "exact"
                     else (wl.CHAIN_P_BOUNDED, wl.BOUNDED_TOL))
        expect(abs(result.probability - want) <= tol, f"{name}: probability {result.probability!r}")
        return ma, dtmc, result

    return _commands(t, "chain", ("setup", "exact", "bounded", "mc", "simulate"), body)


def chain_probes(t: Tracer, f: dict, res: dict) -> dict:
    cmd = "chain/probe"
    ma, dtmc, exact = res["exact"]
    ca = ma.ca_set[ma.root().ca]
    lattices = [cfg.lattice for cfg in dtmc.states.values()]
    successors = 0
    with t.span("pca_step_distribution", "cellular", cmd):
        for lattice in lattices:
            successors += len(pca_step_distribution(ca, lattice))
    dist_s = t.duration("pca_step_distribution", cmd)
    rng = master_stream(f["seed"])
    start = ("0", "1", "0", "1")
    with t.span("pca_step", "cellular", cmd):
        for _ in range(PROBE_REPEATS):
            pca_step(ca, start, rng)
    build_s = t.duration("build_dtmc", "chain/exact")
    vi_s = t.duration("reach_probability_exact", "chain/exact")
    sweeps = exact.stats["iterations"]
    mc_s = t.duration("reach_probability_mc", "chain/mc")
    return {
        "checker.build_dtmc_s": (build_s, "s"),
        "checker.chain_states": (len(dtmc.states), "count"),
        "checker.chain_transitions": (dtmc.transition_count, "count"),
        "checker.chain_transitions_per_s": (dtmc.transition_count / build_s, "1/s"),
        "cellular.pca_dist_calls_per_s": (len(lattices) / dist_s, "1/s"),
        "cellular.pca_successors_per_call": (successors / len(lattices), "count"),
        "checker.vi_sweeps": (sweeps, "count"),
        "checker.vi_sweep_ms": (1000.0 * vi_s / sweeps, "ms"),
        "checker.mc_s": (mc_s, "s"),
        "checker.mc_trials_per_s": (wl.MC_TRIALS / mc_s, "1/s"),
        "cellular.pca_steps_per_s": (PROBE_REPEATS / t.duration("pca_step", cmd), "1/s"),
    }


def simulate_commands(t: Tracer, f: dict) -> dict:
    model = f["files"]["model.ma"]

    def body(name, cmd):
        doc = _load(t, cmd, model)
        if name == "setup":
            return None
        structure = doc.dhrs[f["model"]]
        if name == "simulate":
            schedule, injected = [f["block"]] * wl.SIM_TICKS, None
        else:
            structure = t.call(cmd, inject_fault, structure, f["slot"], doc.sas[f["flipper"]])
            schedule, injected = f["schedule"], f["slot"]
        reports = t.call(cmd, dhr_run, structure, [tuple(b) for b in schedule])
        abstained = 0
        for i, (rep, (_, words)) in enumerate(zip(reports, wl.expected_slot_words(f, schedule, injected))):
            voted, dissenters = wl.strict_majority(words)
            got = "".join(rep.voted_output) if rep.voted_output is not None else None
            expect(got == voted and sorted(rep.dissenters) == dissenters, f"{name}: tick {i} vote")
            abstained += got is None
        expect(len(reports) == len(schedule), f"{name}: {len(reports)} ticks")
        return structure, abstained

    return _commands(t, "simulate", ("setup", "simulate", "dhr"), body)


def simulate_probes(t: Tracer, f: dict, res: dict) -> dict:
    cmd = "simulate/probe"
    structure, _ = res["simulate"]
    _, abstained = res["dhr"]
    ma = build_dhr(structure)
    cfg = ma_initial(ma, ma.root().seed)
    t.call(cmd, ma_run, ma, cfg, [tuple(f["block"])] * PROBE_REPEATS)
    word = tuple("ab" * (PROBE_REPEATS // 2))
    with t.span("sa_run", "sequential", cmd):
        for sa in structure.executors:
            sa_run(sa, word)
    lattice = structure.start_lattice()
    with t.span("ca_step", "cellular", cmd):
        for _ in range(PROBE_REPEATS):
            lattice = ca_step(structure.scheduler, lattice)
    symbols = len(word) * len(structure.executors)
    return {
        "composition.macro_steps_per_s": (PROBE_REPEATS / t.duration("ma_run", cmd), "1/s"),
        "sequential.sa_run_symbols_per_s": (symbols / t.duration("sa_run", cmd), "1/s"),
        "cellular.ca_steps_per_s": (PROBE_REPEATS / t.duration("ca_step", cmd), "1/s"),
        "dhr.ticks_per_s": (len(f["schedule"]) / t.duration("dhr_run", "simulate/dhr"), "1/s"),
        "dhr.abstain_ratio": (abstained / len(f["schedule"]), "ratio"),
    }


def parse_commands(t: Tracer, f: dict) -> dict:
    model = f["files"]["model.ma"]

    def body(name, cmd):
        doc = _load(t, cmd, model)
        if name == "roundtrip":
            text = t.call(cmd, serialize, doc)
            again, diagnostics = t.call(cmd, parse, text, "<canonical>")
            expect(not diagnostics and t.call(cmd, serialize, again) == text, "round trip differs")
        return None

    return _commands(t, "parse", ("setup", "roundtrip"), body)


def parse_probes(t: Tracer, f: dict, res: dict) -> dict:
    parse_s = t.duration("parse_files", "parse/setup")
    megabytes = Path(f["files"]["model.ma"]).stat().st_size / 1e6
    return {
        "modelfile.parse_s": (parse_s, "s"),
        "modelfile.parse_mb_per_s": (megabytes / parse_s, "MB/s"),
        "modelfile.serialize_s": (t.durations("serialize", "parse/roundtrip")[0], "s"),
    }


SECTIONS = {
    "dhr_explore": (explore_commands, explore_probes),
    "chain": (chain_commands, chain_probes),
    "simulate": (simulate_commands, simulate_probes),
    "parse": (parse_commands, parse_probes),
}


def traced_run(workload: str, seed: int, runner, build) -> tuple[dict, list[str], dict]:
    """Trace every section, measure tracing and CLI overhead; failures are counted.

    ``build`` writes a workload's files and returns its CLI commands (see run.py).
    """
    tracer = Tracer(True)
    metrics: dict[str, tuple[float, str]] = {}
    lines = [f"traced run seed={seed} (all sections; overheads from '{workload}')"]
    overheads = {}
    cli_overheads = {}
    span_cost = span_cost_s()
    for section, (commands, probes) in SECTIONS.items():
        sub = runner.work / section
        sub.mkdir(exist_ok=True)
        setup, cli, facts = build(section, seed, sub)
        runner.attempted += 1
        try:
            start = time.perf_counter()
            res = commands(tracer, facts)
            traced = time.perf_counter() - start
            if section == workload:
                start = time.perf_counter()
                commands(Tracer(False), facts)
                overheads[section] = traced - (time.perf_counter() - start)
                # the same commands as fresh processes, right after their traced twins
                for cmd in [setup] + cli:
                    wall = runner.run(cmd).wall_s
                    cli_overheads[cmd.name] = wall - tracer.duration(f"{section}/{cmd.name}")
            metrics.update(probes(tracer, facts, res))
            if section == "dhr_explore":
                metrics.update(explore_memory(res))
        except Exception as exc:  # a failed section is counted and reported, never fatal
            runner.fail(f"traced {section}: {type(exc).__name__}: {exc}")
        if section in overheads:
            n_spans = sum(1 for s in tracer.spans if s["command"].startswith(f"{section}/")
                          and not s["command"].endswith("/probe"))
            lines.append(f"  tracing overhead {section:<12} {overheads[section]:+.4f} s"
                         f" traced minus untraced; bookkeeping of its {n_spans} spans"
                         f" ~{n_spans * span_cost * 1e6:.0f} us")

    lines += [f"  cli overhead {name:<16} {value:+.4f} s" for name, value in cli_overheads.items()]
    if cli_overheads:  # empty only when its section failed, which is already counted
        metrics["cli.overhead_s"] = (statistics.median(cli_overheads.values()), "s")
    if overheads:
        metrics["trace.overhead_s"] = (overheads[workload], "s")
    spans = tracer.spans
    for layer, value in sorted(self_times(spans).items()):
        if layer in LAYERS:
            metrics[f"{layer}.self_s"] = (value, "s")
    for name in sorted(metrics):
        value, unit = metrics[name]
        lines.append(f"  {name:<40} {value:14.6g} {unit}")
    lines += [f"  {name:<40} {value:>14} (label)" for name, value in sorted(tracer.labels.items())]
    return metrics, lines, {"spans": spans, "labels": tracer.labels}
