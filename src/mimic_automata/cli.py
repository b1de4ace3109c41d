"""Command-line surface.

Exit codes: 0 success (property holds / nothing matched), 1 violated or
matched, 2 resource bound exceeded, 3 usage or parse errors, 4 internal
error (any other exception, reported on one line). All diagnostics
go to standard error as ``file:line:col: message``. JSON output always has
the shape ``{"verdict", "counterexample", "probability", "error_bound",
"stats"}`` plus a command-specific ``result``.
"""

from __future__ import annotations

import argparse
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

    p = sub.add_parser("validate", help="parse and validate model files")
    p.add_argument("files", nargs="+")

    p = sub.add_parser("simulate", help="run a model and report the final configuration")
    p.add_argument("files", nargs="+")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="word, or @file with one symbol per line")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace", default=None, help="write a JSON trace to this path")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="check a property against a model")
    p.add_argument("files", nargs="+")
    p.add_argument("--model", required=True)
    p.add_argument("--property", dest="property_name", required=True)
    p.add_argument("--bound", type=int, default=DEFAULT_FLATTEN_BOUND)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("dhr", help="run a redundant structure over a schedule")
    p.add_argument("files", nargs="+")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="word, or @file with one input block per line")
    p.add_argument("--inject", action="append", default=[], metavar="SLOT:SA",
                   help="route one slot to a faulty variant (repeatable)")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("detect", help="scan a model against behavioral signatures")
    p.add_argument("files", nargs="+")
    p.add_argument("--model", required=True)
    p.add_argument("--signatures", nargs="+", required=True)
    p.add_argument("--bound", type=int, default=DEFAULT_FLATTEN_BOUND)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("export-dot", help="export the flattened graph (or raw lattice rule graph)")
    p.add_argument("files", nargs="+")
    p.add_argument("--model", required=True)
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


def _path_json(path: Path | None):
    if path is None:
        return None
    steps = []
    for i, state in enumerate(path.states):
        action = path.actions[i] if i < len(path.actions) else None
        steps.append(
            {
                "state": state,
                "action": None
                if action is None
                else {"input": "".join(str(s) for s in action.macro_input), "output": action.label()},
            }
        )
    return steps


def _report(result: CheckResult, fmt: str, extra: dict | None = None) -> None:
    if fmt == "json":
        payload = {
            "verdict": result.verdict,
            "counterexample": _path_json(result.counterexample),
            "probability": result.probability,
            "error_bound": result.error_bound,
            "stats": dict(result.stats),
        }
        if extra:
            payload["result"] = extra
        print(json.dumps(payload, sort_keys=True))
        return
    if result.verdict == "probability":
        bound = f" +/- {result.error_bound:.6g}" if result.error_bound is not None else ""
        print(f"probability: {result.probability:.10g}{bound}  ({result.method})")
    else:
        print(f"verdict: {result.verdict}")
        if result.counterexample is not None:
            kind = "witness" if result.verdict == "holds" else "counterexample"
            print(f"{kind} ({len(result.counterexample)} steps):")
            for i, state in enumerate(result.counterexample.states):
                print(f"  {state}")
                if i < len(result.counterexample.actions):
                    action = result.counterexample.actions[i]
                    word = "".join(str(s) for s in action.macro_input)
                    print(f"    --[{word} / {action.label()}]-->")
    for key in sorted(result.stats):
        print(f"stats.{key}: {result.stats[key]}")


# ---------------------------------------------------------------------------
# commands

def _require_seed(args) -> None:
    """Reject a negative ``--seed`` before any file is read, whatever the model kind."""
    if args.seed is not None and args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")


def _cmd_validate(args) -> int:
    doc, diagnostics = parse_files(list(args.files))
    for diag in diagnostics:
        print(str(diag), file=sys.stderr)
    del doc
    return EXIT_OK if not diagnostics else EXIT_USAGE


def _word_text(word) -> str:
    return "".join(str(s) for s in word or ())


def _simulate_ma(ma: MimicAutomaton, args):
    entry = _read_input(args.input, per_line_blocks=False)
    cfg = ma_initial(ma, binding_seed(ma, ma.root()))
    cfg, trace = ma_run(ma, cfg, [entry] * args.steps, seed=args.seed)
    final = render_config(cfg)

    def lines():
        yield from (f"model: {ma.name}", f"macro_clock: {cfg.macro_clock}", f"final: {final}")
        for tick in trace:
            yield (f"tick {tick.index}: lattice {list(tick.lattice_before)} -> {list(tick.lattice_after)}"
                   f", output {_word_text(tick.output)!r}")

    def result():
        lists: dict = {}  # lattice -> its list of cell texts, one list shared by every tick showing it
        texts: dict = {}  # word -> its text

        def listed(lattice) -> list[str]:
            cells = lists.get(lattice)
            if cells is None:
                cells = lists[lattice] = [str(q) for q in lattice]
            return cells

        def text(word) -> str:
            joined = texts.get(word)
            if joined is None:
                joined = texts[word] = _word_text(word)
            return joined

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

    def voted(rep) -> str:
        return "".join(rep.voted_output) if rep.voted_output is not None else "<abstain>"

    def lines():
        yield f"model: {model.name}"
        for i, rep in enumerate(reports):
            yield f"tick {i}: voted {voted(rep)!r}, dissenters {sorted(rep.dissenters)}"

    def result():
        ticks = [{"index": i, "voted": voted(rep), "dissenters": sorted(rep.dissenters)}
                 for i, rep in enumerate(reports)]
        return {"model": model.name, "ticks": ticks}

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


def _simulate_ca(model: CellularAutomaton, args):
    run = ca_run(model, _read_lattice(model, args.input), t_max=args.steps)

    def lines():
        yield from (f"model: {model.name}", f"terminated_by: {run.terminated_by}")
        yield from (f"t={i}: {list(lat)}" for i, lat in enumerate(run.trace))

    def result():
        return {
            "model": model.name,
            "terminated_by": run.terminated_by,
            "trace": [[str(q) for q in lat] for lat in run.trace],
        }

    return lines, result


def _simulate_pca(model: ProbabilisticCellularAutomaton, args):
    trace = [_read_lattice(model, args.input)]
    rng = master_stream(args.seed)
    step = pca_sampler(model)
    for _ in range(args.steps):
        trace.append(step(trace[-1], rng))

    def lines():
        yield f"model: {model.name}"
        yield from (f"t={i}: {list(lat)}" for i, lat in enumerate(trace))

    return lines, lambda: {"model": model.name, "trace": [[str(q) for q in lat] for lat in trace]}


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
        payload = {
            "verdict": "ok",
            "counterexample": None,
            "probability": None,
            "error_bound": None,
            "stats": {"steps": args.steps},
            "result": result,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(lines()))
    return EXIT_OK


def _cmd_check(args) -> int:
    _require_seed(args)
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise _UsageError(f"--tol must be a finite number > 0, got {args.tol}")
    doc = _load(args.files)
    model = _composite(doc, args.model, "a checkable model")
    prop = doc.properties.get(args.property_name)
    if prop is None:
        raise _UsageError(f"no property named {args.property_name!r}")
    universe = prop.inputs if prop.inputs is not None else _default_universe(model)
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
    if result.verdict == "violated":
        return EXIT_VIOLATED
    return EXIT_OK


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
    texts: dict = {}  # everything of a report but its input -> its text
    for i, rep in enumerate(reports):
        key = (rep.per_slot_outputs, rep.voted_output, rep.dissenters, rep.lattice_before, rep.lattice_after)
        text = texts.get(key)
        if text is None:
            voted = "".join(rep.voted_output) if rep.voted_output is not None else "<abstain>"
            slots = " ".join("".join(w) for w in rep.per_slot_outputs)
            text = texts[key] = (
                f"slots [{slots}] voted {voted!r} dissenters {sorted(rep.dissenters)} "
                f"lattice {list(rep.lattice_before)} -> {list(rep.lattice_after)}"
            )
        print(f"tick {i}: input {''.join(rep.input_block)!r} {text}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    doc = _load(args.files)
    model = _composite(doc, args.model, "a scannable model")
    signatures = load_signatures(args.signatures)
    report = detect(model, _default_universe(model), signatures, bound=args.bound)
    matched = report.matched
    if args.format == "json":
        payload = {
            "verdict": "matched" if matched else "clean",
            "counterexample": _path_json(matched[0].witness) if matched else None,
            "probability": None,
            "error_bound": None,
            "stats": dict(report.stats),
            "result": {
                "model": report.model,
                "signatures": [
                    {
                        "id": r.signature_id,
                        "severity": r.severity,
                        "matched": r.matched,
                        "witness": _path_json(r.witness),
                    }
                    for r in report.results
                ],
            },
        }
        print(json.dumps(payload, sort_keys=True))
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
