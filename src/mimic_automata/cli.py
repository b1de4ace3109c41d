"""Command-line surface.

Exit codes: 0 success (property holds / nothing matched), 1 violated or
matched, 2 resource bound exceeded, 3 usage or parse errors, 4 internal
error (any other exception, reported on one line). All diagnostics
go to standard error as ``file:line:col: message``. JSON output always has
the shape ``{"verdict", "counterexample", "probability", "error_bound",
"stats"}``; ``simulate`` and ``detect`` add a command-specific ``result``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .cellular import CellularAutomaton, ProbabilisticCellularAutomaton, ca_run, pca_sampler
from .checker import (
    CheckResult,
    DEFAULT_FLATTEN_BOUND,
    DEFAULT_TOL,
    Path,
    build_dtmc,
    check_property,
    flatten,
)
from .composition import (
    MODE_SA_FROM_CA,
    MimicAutomaton,
    binding_seed,
    common_input_alphabet,
    has_randomness,
    ma_initial,
    ma_run,
)
from .detect import detect, load_signatures
from .dhr import DhrStructure, SerialDhr, dhr_run, inject_fault
from .dot import ca_graph_dot, dtmc_to_dot, render_config, ts_to_dot
from .errors import (
    ConvergenceError,
    ExplosionError,
    MimicError,
    ModelFormatError,
    SizeCapError,
)
from .modelfile import parse_files
from .rng import master_stream
from .sequential import SequentialAutomaton, sa_run

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 3, not argparse's default 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ma", description="Build, simulate and check composite automata models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> _Parser:
        p = sub.add_parser(name, help=help)
        p.add_argument("files", nargs="+")
        p.add_argument("--model", required=True)
        return p

    p = sub.add_parser("validate", help="parse and validate model files")
    p.add_argument("files", nargs="+")

    p = command("simulate", "run a model and report the final configuration")
    p.add_argument("--input", required=True, help="word, or @file with one symbol per line")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace", default=None, help="write a JSON trace to this path")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("check", "check a property against a model")
    p.add_argument("--property", dest="property_name", required=True)
    p.add_argument("--bound", type=int, default=DEFAULT_FLATTEN_BOUND)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("dhr", "run a redundant structure over a schedule")
    p.add_argument("--input", required=True, help="word, or @file with one input block per line")
    p.add_argument("--inject", action="append", default=[], metavar="SLOT:SA",
                   help="route one slot to a faulty variant (repeatable)")
    p.add_argument("--seed", type=int, default=None)

    p = command("detect", "scan a model against behavioral signatures")
    p.add_argument("--signatures", nargs="+", required=True)
    p.add_argument("--bound", type=int, default=DEFAULT_FLATTEN_BOUND)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("export-dot", "export the flattened graph (or raw lattice rule graph)")
    p.add_argument("--out", required=True)
    p.add_argument("--raw-ca", action="store_true")

    return parser


def _load(files) -> "ModelDocument":
    doc, diagnostics = parse_files(list(files))
    if diagnostics:
        raise ModelFormatError(diagnostics)
    return doc


def _resolve_model(doc, name: str):
    hits = []
    for attr in ("mas", "dhrs", "serial_dhrs", "sas", "cas", "pcas"):
        table = getattr(doc, attr)
        if name in table:
            hits.append(table[name])
    if not hits:
        raise _UsageError(f"no model named {name!r} in the given files")
    if len(hits) > 1:
        raise _UsageError(f"model name {name!r} is ambiguous across kinds; rename one block")
    return hits[0]


def _composite(doc, name: str, what: str) -> MimicAutomaton:
    """The named ``ma``, or a ``dhr``'s automaton; any other kind is a usage error."""
    model = _resolve_model(doc, name)
    if isinstance(model, DhrStructure):
        model = model.automaton
    if not isinstance(model, MimicAutomaton):
        raise _UsageError(f"{name!r} is not {what} (expected ma or dhr)")
    return model


def _read_input(spec: str, per_line_blocks: bool):
    """A word (single-character symbols) or @file content.

    With ``per_line_blocks`` each file line is one block; otherwise the file
    holds one symbol per line forming a single word.
    """
    if not spec.startswith("@"):
        return [tuple(spec)] if per_line_blocks else tuple(spec)
    with open(spec[1:], "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if per_line_blocks:
        return [tuple(line) for line in lines]
    return tuple(lines)


def _read_lattice(ca, spec: str) -> tuple:
    """An initial lattice for a bare ``ca``/``pca``, every value checked against its cell states."""
    lattice = _read_input(spec, per_line_blocks=False)
    states = set(ca.cell_states)
    for i, q in enumerate(lattice):
        if q not in states:
            raise _UsageError(f"--input: cell {i} value {q!r} is not a cell state of {ca.name}")
    return lattice


def _default_universe(ma: MimicAutomaton):
    if ma.root().mode == MODE_SA_FROM_CA:
        alphabet = common_input_alphabet(ma)
        if not alphabet:
            raise _UsageError(
                "cannot derive an input universe (no common input alphabet); "
                "set 'inputs:' on the property"
            )
        return tuple((sym,) for sym in alphabet)
    return (binding_seed(ma, ma.root()),)


def _path_json(path: Path | None) -> list[dict] | None:
    """Each state of the path and the action taken from it, its input word and output label; the last has none."""
    if path is None:
        return None
    actions = [{"input": _word_text(a.macro_input), "output": a.label()} for a in path.actions]
    actions += [None] * (len(path.states) - len(actions))
    return [{"state": state, "action": action} for state, action in zip(path.states, actions)]


def _write_json(verdict: str, stats, counterexample=None, probability=None, error_bound=None, result=None) -> None:
    """Print the documented envelope as one JSON line; ``result`` only when the command has one."""
    payload = {
        "verdict": verdict,
        "counterexample": counterexample,
        "probability": probability,
        "error_bound": error_bound,
        "stats": dict(stats),
    }
    if result is not None:
        payload["result"] = result
    print(json.dumps(payload, sort_keys=True))


def _report(result: CheckResult, fmt: str) -> None:
    if fmt == "json":
        _write_json(result.verdict, result.stats, _path_json(result.counterexample),
                    result.probability, result.error_bound)
        return
    if result.verdict == "probability":
        bound = f" +/- {result.error_bound:.6g}" if result.error_bound is not None else ""
        print(f"probability: {result.probability:.10g}{bound}  ({result.method})")
    else:
        print(f"verdict: {result.verdict}")
        if result.counterexample is not None:
            kind = "witness" if result.verdict == "holds" else "counterexample"
            print(f"{kind} ({len(result.counterexample)} steps):")
            for step in _path_json(result.counterexample):
                print(f"  {step['state']}")
                if step["action"] is not None:
                    print(f"    --[{step['action']['input']} / {step['action']['output']}]-->")
    for key in sorted(result.stats):
        print(f"stats.{key}: {result.stats[key]}")


# ---------------------------------------------------------------------------
# commands

def _require_seed(args) -> None:
    """Reject a negative ``--seed`` before any file is read, whatever the model kind."""
    if args.seed is not None and args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")


def _require_bound(args) -> None:
    """Reject a ``--bound`` below 1 before any file is read: no search could hold its start state."""
    if args.bound < 1:
        raise _UsageError(f"--bound must be >= 1, got {args.bound}")


def _cmd_validate(args) -> int:
    doc, diagnostics = parse_files(list(args.files))
    for diag in diagnostics:
        print(str(diag), file=sys.stderr)
    del doc
    return EXIT_OK if not diagnostics else EXIT_USAGE


def _word_text(word) -> str:
    return "".join(str(s) for s in word or ())


def _voted_text(rep) -> str:
    return "".join(rep.voted_output) if rep.voted_output is not None else "<abstain>"


def _simulate_ma(ma: MimicAutomaton, args):
    entry = _read_input(args.input, per_line_blocks=False)
    cfg, trace = ma_run(ma, ma_initial(ma), [entry] * args.steps, seed=args.seed)
    final = render_config(cfg)

    def lines():
        yield from (f"model: {ma.name}", f"macro_clock: {cfg.macro_clock}", f"final: {final}")
        for tick in trace:
            yield (f"tick {tick.index}: lattice {list(tick.lattice_before)} -> {list(tick.lattice_after)}"
                   f", output {_word_text(tick.output)!r}")

    def result():
        listed = functools.cache(lambda lattice: [str(q) for q in lattice])  # one list shared by every tick showing it
        text = functools.cache(_word_text)
        ticks = [
            {
                "index": tick.index,
                "input": text(tick.macro_input),
                "lattice_before": listed(tick.lattice_before),
                "lattice_after": listed(tick.lattice_after),
                "output": text(tick.output),
            }
            for tick in trace
        ]
        return {"model": ma.name, "macro_clock": cfg.macro_clock, "final": final, "ticks": ticks}

    return lines, result


def _simulate_dhr(model: DhrStructure, args):
    block = _read_input(args.input, per_line_blocks=False)
    reports = dhr_run(model, [block] * args.steps, seed=args.seed)
    shown: dict = {}  # id of a report (ticks with equal outcomes share one) -> (voted text, sorted dissenters)

    def ticks():
        for i, rep in enumerate(reports):
            pair = shown.get(id(rep))
            if pair is None:
                pair = shown[id(rep)] = (_voted_text(rep), sorted(rep.dissenters))
            yield i, pair

    def lines():
        yield f"model: {model.name}"
        for i, (voted, dissenters) in ticks():
            yield f"tick {i}: voted {voted!r}, dissenters {dissenters}"

    def result():
        rows = [{"index": i, "voted": voted, "dissenters": dissenters} for i, (voted, dissenters) in ticks()]
        return {"model": model.name, "ticks": rows}

    return lines, result


def _simulate_sa(model: SequentialAutomaton, args):
    run = sa_run(model, _read_input(args.input, per_line_blocks=False))
    fields = {
        "model": model.name,
        "final_state": run.final_state,
        "accepted": run.accepted,
        "output": "".join(run.output_word),
        "steps": run.steps,
    }
    return (lambda: (f"{key}: {value}" for key, value in fields.items())), lambda: fields


def _lattice_trace(head: dict, trace) -> tuple:
    """A bare lattice run's text lines and JSON result: the ``head`` fields, then the trace."""

    def lines():
        yield from (f"{key}: {value}" for key, value in head.items())
        yield from (f"t={i}: {list(lat)}" for i, lat in enumerate(trace))

    return lines, lambda: {**head, "trace": [[str(q) for q in lat] for lat in trace]}


def _simulate_ca(model: CellularAutomaton, args):
    run = ca_run(model, _read_lattice(model, args.input), t_max=args.steps)
    return _lattice_trace({"model": model.name, "terminated_by": run.terminated_by}, run.trace)


def _simulate_pca(model: ProbabilisticCellularAutomaton, args):
    trace = [_read_lattice(model, args.input)]
    rng = master_stream(args.seed)
    step = pca_sampler(model)
    for _ in range(args.steps):
        trace.append(step(trace[-1], rng))
    return _lattice_trace({"model": model.name}, trace)


# model kind -> simulate(model, args) giving (text lines, JSON result), each built only when called
_SIMULATORS = (
    (MimicAutomaton, _simulate_ma),
    (DhrStructure, _simulate_dhr),
    (SequentialAutomaton, _simulate_sa),
    (CellularAutomaton, _simulate_ca),
    (ProbabilisticCellularAutomaton, _simulate_pca),
)


def _cmd_simulate(args) -> int:
    if args.steps < 0:
        raise _UsageError(f"--steps must be >= 0, got {args.steps}")
    _require_seed(args)
    doc = _load(args.files)
    model = _resolve_model(doc, args.model)
    simulate = next((fn for kind, fn in _SIMULATORS if isinstance(model, kind)), None)
    if simulate is None:
        raise _UsageError(f"model {args.model!r} is not simulatable")
    lines, result = simulate(model, args)

    if args.trace or args.format == "json":
        result = result()
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
    if args.format == "json":
        _write_json("ok", {"steps": args.steps}, result=result)
    else:
        print("\n".join(lines()))
    return EXIT_OK


def _cmd_check(args) -> int:
    _require_seed(args)
    _require_bound(args)
    if args.trials is not None and args.trials < 1:
        raise _UsageError(f"--trials must be >= 1, got {args.trials}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise _UsageError(f"--tol must be a finite number > 0, got {args.tol}")
    doc = _load(args.files)
    model = _composite(doc, args.model, "a checkable model")
    prop = doc.properties.get(args.property_name)
    if prop is None:
        raise _UsageError(f"no property named {args.property_name!r}")
    universe = prop.inputs
    if universe is None and not (prop.policy is not None and has_randomness(model)):
        universe = _default_universe(model)  # read unless a policy drives a probabilistic model
    result = check_property(
        model,
        prop,
        input_universe=universe,
        bound=args.bound,
        tol=args.tol,
        trials=args.trials,
        seed=args.seed,
    )
    _report(result, args.format)
    return EXIT_VIOLATED if result.verdict == "violated" else EXIT_OK


def _cmd_dhr(args) -> int:
    _require_seed(args)
    doc = _load(args.files)
    model = _resolve_model(doc, args.model)
    if not isinstance(model, (DhrStructure, SerialDhr)):
        raise _UsageError(f"{args.model!r} is not a dhr or serial_dhr")
    for spec in args.inject:
        slot_text, _, sa_name = spec.partition(":")
        try:
            slot = int(slot_text)
        except ValueError:
            raise _UsageError(f"--inject expects SLOT:SA, got {spec!r}")
        faulty = doc.sas.get(sa_name)
        if faulty is None:
            raise _UsageError(f"--inject: unknown machine {sa_name!r}")
        if isinstance(model, SerialDhr):
            raise _UsageError("--inject applies to a single dhr; inject into a stage instead")
        model = inject_fault(model, slot, faulty)
    schedule = _read_input(args.input, per_line_blocks=True)
    reports = dhr_run(model, schedule, seed=args.seed)
    texts: dict = {}  # id of a report (ticks with equal outcomes share one) -> its text
    write = sys.stdout.write
    for i, rep in enumerate(reports):
        text = texts.get(id(rep))
        if text is None:
            slots = " ".join("".join(w) for w in rep.per_slot_outputs)
            text = texts[id(rep)] = (
                f"input {''.join(rep.input_block)!r} slots [{slots}] voted {_voted_text(rep)!r} "
                f"dissenters {sorted(rep.dissenters)} lattice {list(rep.lattice_before)} -> {list(rep.lattice_after)}"
            )
        write(f"tick {i}: {text}\n")
    return EXIT_OK


def _cmd_detect(args) -> int:
    _require_bound(args)
    doc = _load(args.files)
    model = _composite(doc, args.model, "a scannable model")
    signatures = load_signatures(args.signatures)
    report = detect(model, _default_universe(model), signatures, bound=args.bound)
    matched = report.matched
    if args.format == "json":
        results = [
            {"id": r.signature_id, "severity": r.severity, "matched": r.matched, "witness": _path_json(r.witness)}
            for r in report.results
        ]
        _write_json("matched" if matched else "clean", report.stats,
                    _path_json(matched[0].witness) if matched else None,
                    result={"model": report.model, "signatures": results})
    else:
        print(f"model: {report.model}")
        for r in report.results:
            status = "MATCHED" if r.matched else "clean"
            extra = f" (witness length {len(r.witness)})" if r.witness is not None else ""
            print(f"  {r.signature_id} [severity {r.severity}]: {status}{extra}")
    return EXIT_VIOLATED if matched else EXIT_OK


def _cmd_export_dot(args) -> int:
    doc = _load(args.files)
    if args.raw_ca:
        model = _resolve_model(doc, args.model)
        if isinstance(model, MimicAutomaton):
            ca = model.ca_set[model.root().ca]
        elif isinstance(model, DhrStructure):
            ca = model.scheduler
        elif isinstance(model, (CellularAutomaton, ProbabilisticCellularAutomaton)):
            ca = model
        else:
            raise _UsageError(f"{args.model!r} has no lattice rule to export")
        text = ca_graph_dot(ca)
    else:
        model = _composite(doc, args.model, "flattenable")
        if has_randomness(model):
            dtmc = build_dtmc(model, _default_universe(model)[0])
            text = dtmc_to_dot(dtmc)
        else:
            ts = flatten(model, _default_universe(model))
            text = ts_to_dot(ts)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        command = {
            "validate": _cmd_validate,
            "simulate": _cmd_simulate,
            "check": _cmd_check,
            "dhr": _cmd_dhr,
            "detect": _cmd_detect,
            "export-dot": _cmd_export_dot,
        }[args.command]
        return command(args)
    except _UsageError as exc:
        print(f"ma: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelFormatError as exc:
        for diag in exc.diagnostics:
            print(str(diag), file=sys.stderr)
        return EXIT_USAGE
    except (ExplosionError, SizeCapError, ConvergenceError) as exc:
        print(f"ma: resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MimicError, ValueError, OSError) as exc:
        print(f"ma: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash must never read as exit 1, "violated"
        message = " ".join(str(exc).splitlines())
        print(f"ma: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
