"""Seed-invariance self-test: every seed generates the same amount of work.

    python3 perfbench/selftest.py [SEED ...]      (default: 1 2 3)

Generates every workload for each seed and asserts identical structural
counts through the library: the dhr_explore state space (10,010 states,
60,060 transitions), the chain (1,296 states, 38,416 transitions), 100
bounded value-iteration sweeps, the same unbounded sweep count on every
seed, and parse documents whose sizes differ by at most a few percent.
``simulate`` uses the dhr_explore structure and a schedule of fixed length,
so it is covered by the same counts. Exits 1 on the first mismatch.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from mimic_automata import build_dtmc, flatten, parse, reach_probability_exact  # noqa: E402

PARSE_SIZE_SPREAD = 0.03


def _parse(text: str):
    doc, diagnostics = parse(text)
    if diagnostics:
        raise SystemExit(f"generated model does not parse: {diagnostics[:2]}")
    return doc


def counts(seed: int) -> dict:
    explore = wl.dhr_structure(seed)
    doc = _parse(explore.files["model.ma"])
    structure = doc.dhrs[explore.facts["model"]]
    ts = flatten(structure.automaton, doc.properties[explore.facts["safe"]].inputs)

    chain = wl.chain(seed)
    doc = _parse(chain.files["model.ma"])
    ma = doc.mas[chain.facts["model"]]
    bounded = doc.properties[chain.facts["horizon"]]
    unbounded = doc.properties[chain.facts["unbounded"]]
    dtmc = build_dtmc(ma, bounded.policy)
    b = reach_probability_exact(dtmc, bounded.predicate, horizon=bounded.horizon)
    u = reach_probability_exact(dtmc, unbounded.predicate)
    return {
        "explore_states": len(ts.states),
        "explore_transitions": ts.transition_count,
        "chain_states": len(dtmc.states),
        "chain_transitions": dtmc.transition_count,
        "bounded_sweeps": b.stats["iterations"],
        "unbounded_sweeps": u.stats["iterations"],
        "parse_bytes": len(wl.parse_document(seed).files["model.ma"].encode()),
        "p_bounded": b.probability,
        "p_unbounded": u.probability,
    }


def main(seeds: list[int]) -> int:
    rows = {}
    for seed in seeds:
        rows[seed] = counts(seed)
        print(f"seed {seed}: {rows[seed]}")
    problems = []
    for seed, row in rows.items():
        for key, want in wl.SIZES.items():
            if row[key] != want:
                problems.append(f"seed {seed}: {key} = {row[key]}, want {want}")
        if abs(row["p_bounded"] - wl.CHAIN_P_BOUNDED) > wl.BOUNDED_TOL:
            problems.append(f"seed {seed}: bounded probability {row['p_bounded']!r}")
        if abs(row["p_unbounded"] - wl.CHAIN_P_UNBOUNDED) > wl.UNBOUNDED_TOL:
            problems.append(f"seed {seed}: unbounded probability {row['p_unbounded']!r}")
    if len({row["unbounded_sweeps"] for row in rows.values()}) != 1:
        problems.append("unbounded sweep counts differ across seeds")
    sizes = [row["parse_bytes"] for row in rows.values()]
    if (max(sizes) - min(sizes)) / min(sizes) > PARSE_SIZE_SPREAD:
        problems.append(f"parse document sizes {sizes} differ by more than {PARSE_SIZE_SPREAD:.0%}")
    for problem in problems:
        print("FAIL", problem)
    print("seed invariance:", "FAILED" if problems else f"ok for seeds {seeds}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]] or [1, 2, 3]))
