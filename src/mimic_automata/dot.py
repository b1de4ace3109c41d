"""Graphviz DOT rendering of flattened graphs, chains, and raw lattice maps."""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Mapping

from .cellular import AnyCellular, ProbabilisticCellularAutomaton, ca_step
from .checker import ACCEPTING, Dtmc, TransitionSystem, render_word
from .composition import MimicConfiguration
from .errors import SizeCapError


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return '"' + escaped + '"'


def render_config(cfg: MimicConfiguration) -> str:
    lattice = "[" + " ".join(str(q) for q in cfg.lattice) + "]"
    units = []
    for u in cfg.unit_states:
        if isinstance(u, MimicConfiguration):
            units.append("{" + render_config(u) + "}")
        elif hasattr(u, "active"):
            units.append(",".join(f"{n}={s}" for n, s in u.active))
        else:
            units.append(str(u))
    text = f"{lattice} | {' / '.join(units)}"
    if cfg.outer_state is not None:
        text += f" | outer={cfg.outer_state}"
    return text


def _graph_dot(kind: str, states: Mapping[str, MimicConfiguration], initial: str,
               edges: Iterable[tuple[str, str, str]], accepting: Callable[[str], bool] | None = None) -> str:
    """A state graph's DOT text: ``edges`` are ``(source, target, label)``; ``accepting(sid)`` draws a double box."""
    lines = [f"digraph {kind} {{", "  rankdir=LR;", "  node [shape=box, fontname=monospace];"]
    for sid, cfg in states.items():
        shape = " peripheries=2" if accepting is not None and accepting(sid) else ""
        label = f"{sid}\n{render_config(cfg)}"
        lines.append(f"  {sid} [label={_quote(label)}{shape}];")
    lines.append(f"  __init [shape=point]; __init -> {initial};")
    for sid, tid, label in edges:
        lines.append(f"  {sid} -> {tid} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def ts_to_dot(ts: TransitionSystem) -> str:
    """A system's DOT text; its states are labeled, to draw ``accepting`` ones, only when its vocabulary has it."""
    edges = ((sid, tid, f"{render_word(tuple(action.macro_input))} / {action.label()}")
             for sid, row in ts.transitions.items() for action, tid in row)
    accepting = (lambda sid: ACCEPTING in ts.atomic_props.get(sid, ())) if ACCEPTING in ts.vocabulary else None
    return _graph_dot("ts", ts.states, ts.initial, edges, accepting)


def dtmc_to_dot(dtmc: Dtmc) -> str:
    edges = ((sid, tid, f"{prob:g}") for sid, row in dtmc.rows.items() for tid, prob in row)
    return _graph_dot("dtmc", dtmc.states, dtmc.initial, edges)


def ca_graph_dot(ca: AnyCellular, cap: int = 4096) -> str:
    """The full lattice-to-lattice map of a rule, over all width-sized lattices."""
    count = len(ca.cell_states) ** ca.width
    if count > cap:
        raise SizeCapError(count, cap, hint="export a smaller width or raise the cap")
    lattices = list(itertools.product(ca.cell_states, repeat=ca.width))
    ids = {lat: f"n{i}" for i, lat in enumerate(lattices)}
    lines = ["digraph lattice_rule {", "  node [shape=box, fontname=monospace];"]
    for lat, nid in ids.items():
        label = "[" + " ".join(str(q) for q in lat) + "]"
        lines.append(f"  {nid} [label={_quote(label)}];")
    if isinstance(ca, ProbabilisticCellularAutomaton):
        from .cellular import pca_step_distribution

        for lat, nid in ids.items():
            for succ, prob in pca_step_distribution(ca, lat, cap=cap).items():
                lines.append(f"  {nid} -> {ids[succ]} [label={_quote(f'{prob:g}')}];")
    else:
        for lat, nid in ids.items():
            lines.append(f"  {nid} -> {ids[ca_step(ca, lat)]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
