"""Output checks for every benchmarked command.

Each check reads a command's standard output and raises ``CheckFailed`` when
the output is wrong. The expected values come from the workload generators
(``workloads.py``) or, for the chain probabilities, from values recorded
when the benchmark was introduced. Structural counts are asserted only where
a ``holds`` verdict implies that the whole state space was explored; an
on-the-fly engine may legitimately explore less on ``violated``/``matched``.
"""

from __future__ import annotations

import json
import math
import re

import reference as reference_program
import workloads as wl


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _json(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not one JSON object: {exc}") from None


def empty(out: str) -> None:
    expect(out.strip() == "", f"unexpected output {out[:80]!r}")


def reference(out: str) -> None:
    doc = _json(out)
    expect(doc == {"states": reference_program.STATES, "edges": reference_program.EDGES},
           f"reference program printed {doc}")


def invariant_holds(out: str) -> None:
    doc = _json(out)
    expect(doc["verdict"] == "holds", f"verdict {doc['verdict']!r}, want holds")
    expect(doc["counterexample"] is None, "a holding invariant has no counterexample")
    stats = doc["stats"]
    expect(stats.get("states") == wl.SIZES["explore_states"], f"states {stats.get('states')}")
    expect(stats.get("transitions") == wl.SIZES["explore_transitions"],
           f"transitions {stats.get('transitions')}")


def invariant_violated(out: str) -> None:
    doc = _json(out)
    expect(doc["verdict"] == "violated", f"verdict {doc['verdict']!r}, want violated")
    path = doc["counterexample"] or []
    steps = len(path) - 1
    expect(steps == wl.CEX_LENGTH, f"counterexample has {steps} steps, want {wl.CEX_LENGTH}")
    expect(path[-1]["action"] is None and all(p["action"] for p in path[:-1]),
           "counterexample steps must alternate state and action")


def detection(facts: dict):
    def check(out: str) -> None:
        doc = _json(out)
        want = facts["signatures"]
        got = {s["id"]: s for s in doc["result"]["signatures"]}
        expect(set(got) == set(want), f"signatures {sorted(got)}")
        for sig, depth in want.items():
            entry = got[sig]
            expect(entry["matched"] == (depth is not None), f"{sig}: matched={entry['matched']}")
            if depth is not None:
                steps = len(entry["witness"]) - 1
                expect(steps == depth, f"{sig}: witness has {steps} steps, want {depth}")
                labels = [p["action"]["output"] for p in entry["witness"][:-1]]
                expect(labels == ["y", "y", "x"], f"{sig}: witness labels {labels}")
        expect(doc["verdict"] == "matched", f"verdict {doc['verdict']!r}, want matched")

    return check


def probability(expected: float, tol: float):
    def check(out: str) -> None:
        doc = _json(out)
        expect(doc["verdict"] == "probability", f"verdict {doc['verdict']!r}")
        p = doc["probability"]
        expect(abs(p - expected) <= tol, f"probability {p!r}, want {expected!r} +/- {tol:g}")

    return check


# Half-width of the acceptance band for a Monte Carlo estimate, in standard
# errors of the binomial proportion at the exact value: a correct sampler
# falls outside it with probability about 6e-7 per run.
MC_BAND_SIGMAS = 5.0


def in_binomial_band(p_hat: float, exact: float, trials: int) -> None:
    band = MC_BAND_SIGMAS * math.sqrt(exact * (1.0 - exact) / trials)
    expect(abs(p_hat - exact) <= band, f"estimate {p_hat!r} outside {exact:.6f} +/- {band:.6f}")


def monte_carlo(exact: float, trials: int):
    def check(out: str) -> None:
        doc = _json(out)
        expect(doc["verdict"] == "probability", f"verdict {doc['verdict']!r}")
        in_binomial_band(doc["probability"], exact, trials)

    return check


def pca_run(steps: int):
    """A sampled chain run: legal rule moves only, and absorbed by the end."""
    support = {c: {s for s, _ in pairs} for c, pairs in wl.CHAIN_RULE.items()}

    def check(out: str) -> None:
        doc = _json(out)
        ticks = doc["result"]["ticks"]
        expect(len(ticks) == steps and doc["result"]["macro_clock"] == steps,
               f"{len(ticks)} ticks, want {steps}")
        previous = ticks[0]["lattice_before"]
        for tick in ticks:
            expect(tick["lattice_before"] == previous, f"tick {tick['index']}: lattice jumps")
            for q, q_next in zip(tick["lattice_before"], tick["lattice_after"]):
                expect(q_next in support[q], f"tick {tick['index']}: illegal move {q}->{q_next}")
            previous = tick["lattice_after"]
        expect(previous == ["2"] * 4, f"final lattice {previous}, want all absorbed")

    return check


def dhr_simulation(facts: dict, block: str, steps: int):
    """``ma simulate`` of the structure with one block per tick: vote and dissenters."""

    def check(out: str) -> None:
        ticks = _json(out)["result"]["ticks"]
        expect(len(ticks) == steps, f"{len(ticks)} ticks, want {steps}")
        for tick, (_, words) in zip(ticks, wl.expected_slot_words(facts, [block] * steps, None)):
            voted, dissenters = wl.strict_majority(words)
            expect(tick["voted"] == voted, f"tick {tick['index']}: voted {tick['voted']!r}, want {voted!r}")
            expect(tick["dissenters"] == dissenters,
                   f"tick {tick['index']}: dissenters {tick['dissenters']}, want {dissenters}")

    return check


_DHR_LINE = re.compile(r"^tick (\d+): input '(\w*)' slots \[([^\]]*)\] voted '([^']*)' "
                       r"dissenters \[([^\]]*)\] lattice \[([^\]]*)\] -> \[([^\]]*)\]$")


def dhr_schedule(facts: dict, schedule: list[str], slot: int):
    """``ma dhr`` with one injected slot: per-slot words, vote, dissenters and lattice per tick."""
    clock = facts["slots"].index("k0")

    def lattice(tick: int) -> list[str]:
        slots = list(facts["slots"])
        slots[clock] = "k1" if tick % 2 else "k0"
        return slots

    def check(out: str) -> None:
        lines = out.splitlines()
        expect(len(lines) == len(schedule), f"{len(lines)} ticks, want {len(schedule)}")
        for i, (line, (block, words)) in enumerate(
            zip(lines, wl.expected_slot_words(facts, schedule, slot))
        ):
            match = _DHR_LINE.match(line)
            expect(match is not None, f"tick {i}: unparsable line {line[:80]!r}")
            voted, dissenters = wl.strict_majority(words)
            got = (int(match[1]), match[2], match[3].split(), match[4],
                   [int(x) for x in match[5].replace(",", " ").split()],
                   [q.strip("' ") for q in match[6].split(",")], [q.strip("' ") for q in match[7].split(",")])
            want = (i, block, words, voted or "<abstain>", dissenters, lattice(i), lattice(i + 1))
            expect(got == want, f"tick {i}: got {got}, want {want}")

    return check


def roundtrip(kinds: dict):
    def check(out: str) -> None:
        doc = _json(out)
        expect(doc["byte_equal"] is True, "serialize(parse(serialize(doc))) differs from serialize(doc)")
        expect(doc["blocks"] == kinds, f"block counts {doc['blocks']}, want {kinds}")

    return check
