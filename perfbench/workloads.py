"""Seeded generators for the benchmark's model files.

Every generator takes an integer seed and returns the text of the files the
commands read plus the facts the output checks need. A seed changes tables,
names and orderings, never the size of the work: the structural counts in
``SIZES`` hold for every seed (``selftest.py`` asserts them on three seeds).
The generators are pure Python and import nothing from the program, so a
program change cannot change its own inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

# Macro-input universe of the explicit-state checks: every block of length 1-2.
UNIVERSE = ("a", "b", "aa", "ab", "ba", "bb")
MODULI = (5, 7, 11, 13)
ECHO = {"a": "x", "b": "y"}
FAULT_SYMBOL = "z"

SIZES = {
    "explore_states": 5 * 7 * 11 * 13 * 2,  # lockstep counter pairs x clock phase
    "explore_transitions": 5 * 7 * 11 * 13 * 2 * len(UNIVERSE),
    "chain_states": 6**4,  # per cell: 2 + 3 + 1 (cell state, machine state) pairs
    "chain_transitions": 14**4,  # per cell: 2*2 + 3*3 + 1*1 successor pairs
    "bounded_sweeps": 100,
}

CEX_LENGTH = 3  # mod-13 value 5*d is at least three ticks away (two 'a' per tick)
BURST_DEPTH = 3  # the 'burst' signature needs outputs y, y, x on consecutive ticks
SIM_TICKS = 20_000
DHR_TICKS = 20_000
CHAIN_TICKS = 20_000
MC_TRIALS = 16_384
CHAIN_HORIZON = 100
# Exact reach probabilities of the chain target, recorded on the commit that
# introduced this benchmark. Unbounded queries allow a sounder solver to
# move the value by up to UNBOUNDED_TOL.
CHAIN_P_BOUNDED = 0.06623686340079876
CHAIN_P_UNBOUNDED = 0.06637845960670188
BOUNDED_TOL = 1e-9
UNBOUNDED_TOL = 1e-6


@dataclass
class Workload:
    files: dict[str, str]
    facts: dict = field(default_factory=dict)


def _tag(rng: random.Random) -> str:
    return f"{rng.getrandbits(24):06x}"


def _sa(name, states, initial, finals, inputs, outputs, delta, partial=False) -> str:
    lines = [
        f"sa {name} {{",
        f"  states: {' '.join(states)}",
        f"  initial: {initial}",
        f"  finals: {' '.join(finals)}",
        f"  inputs: {' '.join(inputs)}",
        f"  outputs: {' '.join(outputs)}",
    ]
    if partial:
        lines.append("  partial: true")
    lines += [f"  delta: {src} {sym} -> {dst} / {out}" for src, sym, dst, out in delta]
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# redundant structure: dhr_explore and simulate

def dhr_structure(seed: int) -> Workload:
    """Four counter variants (mod 5, 7, 11, 13) in two slots each plus a clock slot.

    Each counter adds a seed-drawn nonzero increment on ``a`` and holds on
    ``b``; all variants echo ``a -> x`` and ``b -> y``. The mod-13 variant
    emits ``z`` instead of ``x`` at one seed-drawn value, a fault the
    strict-majority vote masks. The identity scheduler keeps every counter
    pair in lockstep, and the clock cell alternates between two states whose
    1-state variants also echo, so exactly 5*7*11*13*2 configurations are
    reachable whatever the seed.
    """
    rng = random.Random(f"dhr:{seed}")
    t = _tag(rng)
    incs = {m: rng.randrange(1, m) for m in MODULI}
    fault_value = rng.randrange(13)
    texts = []
    executors = {}
    for m in MODULI:
        name = f"ctr{m}_{t}"
        states = [f"m{m}v{i}" for i in range(m)]
        delta = []
        for i in range(m):
            out_a = FAULT_SYMBOL if (m == 13 and i == fault_value) else "x"
            delta.append((states[i], "a", states[(i + incs[m]) % m], out_a))
            delta.append((states[i], "b", states[i], "y"))
        rng.shuffle(delta)
        texts.append(_sa(name, states, states[0], [states[0]], ["a", "b"], ["x", "y", "z"], delta))
        executors[f"v{m}"] = name
    for clock in ("k0", "k1"):
        name = f"{'tick' if clock == 'k0' else 'tock'}_{t}"
        delta = [("s", "a", "s", "x"), ("s", "b", "s", "y")]
        texts.append(_sa(name, ["s"], "s", ["s"], ["a", "b"], ["x", "y", "z"], delta))
        executors[clock] = name
    flipper = f"flip_{t}"
    texts.append(_sa(flipper, ["s"], "s", ["s"], ["a", "b"], ["x", "y", "z"],
                     [("s", "a", "s", "y"), ("s", "b", "s", "x")]))

    cell_states = [f"v{m}" for m in MODULI] + ["k0", "k1"]
    rng.shuffle(cell_states)
    flip = {"k0": "k1", "k1": "k0"}
    table = [f"    {l} {c} {r} -> {flip.get(c, c)}"
             for l, c, r in itertools.product(cell_states, repeat=3)]
    rng.shuffle(table)
    sched = f"sched_{t}"
    texts.append("\n".join([
        f"ca {sched} {{",
        f"  cell_states: {' '.join(cell_states)}",
        "  width: 9",
        "  radius: 1",
        "  boundary: periodic",
        "  rule table:",
        *table,
        "}",
    ]) + "\n")

    slots = [f"v{m}" for m in MODULI for _ in range(2)] + ["k0"]
    rng.shuffle(slots)
    model = f"red_{t}"
    texts.append("\n".join([
        f"dhr {model} {{",
        f"  executors: {' '.join(executors[q] for q in cell_states)}",
        f"  scheduler: {sched}",
        "  width: 9",
        "  voter: strict_majority",
        f"  initial_lattice: {' '.join(slots)}",
        "}",
    ]) + "\n")

    i13, j13 = [i for i, q in enumerate(slots) if q == "v13"]
    fv = f"m13v{fault_value}"
    cex_value = f"m13v{(CEX_LENGTH * 2 - 1) * incs[13] % 13}"
    universe = " ".join(f'"{w}"' for w in UNIVERSE)
    safe, cex = f"safe_{t}", f"reach_{t}"
    texts.append("\n".join([
        f"property {safe} {{",
        "  kind: invariant",
        f"  predicate: (lattice_has(k0) or lattice_has(k1)) and "
        f"not (cell{i13}_state({fv}) and not cell{j13}_state({fv}))",
        f"  inputs: {universe}",
        "}",
        f"property {cex} {{",
        "  kind: invariant",
        f"  predicate: not cell{i13}_state({cex_value})",
        f"  inputs: {universe}",
        "}",
    ]) + "\n")

    return Workload(
        files={"model.ma": "\n".join(texts), "signatures.ma": _signatures(t)},
        facts={
            "model": model,
            "safe": safe,
            "cex": cex,
            "slots": slots,
            "inc13": incs[13],
            "fault_value": fault_value,
            "flipper": flipper,
            "signatures": {f"abstain_{t}": None, f"leak_{t}": None, f"burst_{t}": BURST_DEPTH},
        },
    )


def _signatures(t: str) -> str:
    """Three monitors over voted output labels: two never match, one at a fixed depth."""
    texts = [
        _sa(f"pat_abstain_{t}", ["w", "m"], "w", ["m"], ["<abstain>"], ["<abstain>"],
            [("w", "<abstain>", "m", "<abstain>"), ("m", "<abstain>", "m", "<abstain>")],
            partial=True),
        _sa(f"pat_leak_{t}", ["w", "m"], "w", ["m"], [FAULT_SYMBOL], [FAULT_SYMBOL],
            [("w", FAULT_SYMBOL, "m", FAULT_SYMBOL), ("m", FAULT_SYMBOL, "m", FAULT_SYMBOL)],
            partial=True),
        _sa(f"pat_burst_{t}", ["w", "p", "q", "m"], "w", ["m"], ["x", "y"], ["x", "y"],
            [("w", "y", "p", "y"), ("p", "y", "q", "y"), ("q", "x", "m", "x"),
             ("m", "x", "m", "x"), ("m", "y", "m", "y")],
            partial=True),
    ]
    for sig, desc, severity in (
        ("abstain", "the vote fails to reach a strict majority", 3),
        ("leak", "the injected fault symbol reaches the voted output", 5),
        ("burst", "two y outputs followed by an x", 1),
    ):
        texts.append(
            f"signature {sig}_{t} {{\n  description: \"{desc}\"\n  severity: {severity}\n"
            f"  pattern: pat_{sig}_{t}\n}}\n"
        )
    return "\n".join(texts)


def dhr_schedule(seed: int, ticks: int) -> list[str]:
    """Seed-drawn input blocks of length 1-3 for ``ma dhr``."""
    rng = random.Random(f"schedule:{seed}")
    return ["".join(rng.choice("ab") for _ in range(rng.randint(1, 3))) for _ in range(ticks)]


def simulate_block(seed: int) -> str:
    rng = random.Random(f"block:{seed}")
    return rng.choice(("ab", "ba", "aab", "aba", "abb", "bab"))


def inject_slot(seed: int) -> int:
    return random.Random(f"inject:{seed}").randrange(9)


def expected_slot_words(facts: dict, schedule, injected: int | None):
    """Reference per-slot output words for each block, by direct counter arithmetic."""
    slots = facts["slots"]
    inc, fault = facts["inc13"], facts["fault_value"]
    value = 0
    for block in schedule:
        counter_word = []
        for sym in block:
            counter_word.append(FAULT_SYMBOL if sym == "a" and value == fault else ECHO[sym])
            if sym == "a":
                value = (value + inc) % 13
        echo = "".join(ECHO[s] for s in block)
        flipped = "".join(ECHO["b" if s == "a" else "a"] for s in block)
        words = []
        for i, q in enumerate(slots):
            if i == injected:
                words.append(flipped)
            elif q == "v13":
                words.append("".join(counter_word))
            else:
                words.append(echo)
        yield block, words


def strict_majority(words: list[str]) -> tuple[str | None, list[int]]:
    """Reference vote with the default quorum floor(width/2)+1."""
    counts: dict[str, int] = {}
    for w in words:
        counts[w] = counts.get(w, 0) + 1
    top = max(counts.values())
    leaders = [w for w, c in counts.items() if c == top]
    if top < len(words) // 2 + 1 or len(leaders) != 1:
        return None, []
    return leaders[0], [i for i, w in enumerate(words) if w != leaders[0]]


# ---------------------------------------------------------------------------
# probabilistic lattice: chain

CHAIN_RULE = {"0": (("0", 0.9), ("1", 0.1)), "1": (("0", 0.2), ("1", 0.75), ("2", 0.05)), "2": (("2", 1.0),)}


def chain(seed: int) -> Workload:
    """Width-4 PCA whose rule ignores neighbours; 2 is absorbing.

    Cell state 0 hosts a counter mod 2, state 1 a counter mod 3 and state 2 a
    1-state machine, so each cell has 6 (state, machine state) pairs and the
    chain has 6**4 states whatever the seed. The target asks two
    seed-chosen cells to sit in the mod-3 counter's state 2 before any cell
    is absorbed; since the rule ignores neighbours, every pair has the same
    probability.
    """
    rng = random.Random(f"chain:{seed}")
    t = _tag(rng)
    two, three, sink = f"two_{t}", f"three_{t}", f"sink_{t}"
    texts = [
        _sa(two, ["e0", "e1"], "e0", ["e0"], ["a"], ["a"], [("e0", "a", "e1", "a"), ("e1", "a", "e0", "a")]),
        _sa(three, ["o0", "o1", "o2"], "o0", ["o0"], ["a"], ["a"],
            [("o0", "a", "o1", "a"), ("o1", "a", "o2", "a"), ("o2", "a", "o0", "a")]),
        _sa(sink, ["s"], "s", ["s"], ["a"], ["a"], [("s", "a", "s", "a")]),
    ]
    table = []
    for l, c, r in itertools.product("012", repeat=3):
        pairs = list(CHAIN_RULE[c])
        rng.shuffle(pairs)
        table.append(f"    {l} {c} {r} -> " + " ".join(f"{s}@{p}" for s, p in pairs))
    rng.shuffle(table)
    pca, binding, model = f"noisy_{t}", f"cells_{t}", f"chain_{t}"
    i, j = rng.sample(range(4), 2)
    target = f"cell{i}_state(o2) and cell{j}_state(o2) and not lattice_has(2)"
    unb, hor = f"p_unbounded_{t}", f"p_horizon_{t}"
    texts.append("\n".join([
        f"pca {pca} {{",
        "  cell_states: 0 1 2",
        "  width: 4",
        "  radius: 1",
        "  boundary: periodic",
        "  rule table:",
        *table,
        "}",
        f"binding {binding} {{",
        "  mode: sa_from_ca",
        f"  ca: {pca}",
        "  seed: 0 0 0 0",
        f"  cell_map: 0 -> sa {two}",
        f"  cell_map: 1 -> sa {three}",
        f"  cell_map: 2 -> sa {sink}",
        "}",
        f"ma {model} {{",
        f"  sas: {two} {three} {sink}",
        f"  cas: {pca}",
        f"  bindings: {binding}",
        f"  root_binding: {binding}",
        "}",
        f"property {unb} {{",
        "  kind: reach",
        f"  predicate: {target}",
        '  policy: "a"',
        "}",
        f"property {hor} {{",
        "  kind: reach",
        f"  predicate: {target}",
        '  policy: "a"',
        f"  horizon: {CHAIN_HORIZON}",
        "}",
    ]) + "\n")
    return Workload(
        files={"model.ma": "\n".join(texts)},
        facts={"model": model, "unbounded": unb, "horizon": hor},
    )


# ---------------------------------------------------------------------------
# parse: one large document using every block kind

PARSE_MACHINES = 72
PARSE_STATES = 48
PARSE_SYMBOLS = "abcdefgh"
PARSE_BLOCKS = {"sas": PARSE_MACHINES, "cas": 2, "pcas": 1, "has": 1, "bindings": 1, "mas": 1,
                "dhrs": 1, "serial_dhrs": 1, "properties": 2, "signatures": 1}


def parse_document(seed: int) -> Workload:
    """A document of every block kind, dominated by large sa and rule tables.

    The block counts and field shapes are fixed; the seed draws names,
    transition targets and table orderings, so the size varies only with
    the lengths of the drawn state names (a few percent at most).
    """
    rng = random.Random(f"parse:{seed}")
    t = _tag(rng)
    sym = list(PARSE_SYMBOLS)
    texts = []
    machines = []
    machine_states = []
    for k in range(PARSE_MACHINES):
        name = f"big{k}_{t}"
        states = [f"s{rng.randrange(10**6):06d}_{i}" for i in range(PARSE_STATES)]
        delta = [(s, a, rng.choice(states), rng.choice(sym)) for s in states for a in sym]
        rng.shuffle(delta)
        texts.append(_sa(name, states, states[0], rng.sample(states, 4), sym, sym, delta))
        machines.append(name)
        machine_states.append(states)

    cells = ["p", "q", "r", "s"]
    rule5 = [f"    {' '.join(nb)} -> {rng.choice(cells)}" for nb in itertools.product(cells, repeat=5)]
    rng.shuffle(rule5)
    texts.append("\n".join([f"ca wide_{t} {{", f"  cell_states: {' '.join(cells)}", "  width: 6",
                            "  radius: 2", "  boundary: fixed p", "  rule table:", *rule5, "}"]) + "\n")
    prules = []
    for nb in itertools.product(cells, repeat=3):
        weights = [rng.randint(1, 7) for _ in cells]
        total = sum(weights)
        probs = [w / total for w in weights[:-1]]
        probs.append(1.0 - sum(probs))
        prules.append(f"    {' '.join(nb)} -> " + " ".join(f"{c}@{p!r}" for c, p in zip(cells, probs)))
    rng.shuffle(prules)
    texts.append("\n".join([f"pca fuzzy_{t} {{", f"  cell_states: {' '.join(cells)}", "  width: 4",
                            "  radius: 1", "  boundary: periodic", "  rule table:", *prules, "}"]) + "\n")
    texts.append("\n".join([f"ca three_{t} {{", "  cell_states: p q r", "  width: 3", "  radius: 1",
                            "  boundary: periodic", "  rule expr: identity", "}"]) + "\n")

    root, child = machines[0], machines[1]
    root_state = machine_states[0][1]
    texts.append(f"ha tree_{t} {{\n  sas: {root} {child}\n  root: {root}\n"
                 f"  gamma: {root} {root_state} -> {child}\n}}\n")
    texts.append("\n".join([
        f"binding grid_{t} {{", "  mode: sa_from_ca", f"  ca: wide_{t}", "  t_max: 50",
        "  seed: p q r s p q",
        *(f"  cell_map: {c} -> sa {machines[2 + n]}" for n, c in enumerate(cells)), "}",
        f"ma grid_ma_{t} {{", f"  sas: {' '.join(machines[2:6])}", f"  cas: wide_{t}",
        f"  bindings: grid_{t}", f"  root_binding: grid_{t}", "  max_depth: 4", "}",
    ]) + "\n")
    texts.append("\n".join([
        f"dhr trio_{t} {{", f"  executors: {' '.join(machines[6:9])}", f"  scheduler: three_{t}",
        "  width: 3", "  voter: plurality", '  prefs: "a" "b"', "  initial_lattice: p q r", "}",
        f"serial_dhr pipe_{t} {{", f"  stages: trio_{t} trio_{t}", "}",
        f"property always_{t} {{", "  kind: invariant",
        "  predicate: lattice_has(p) or lattice_has(q) or not lattice_has(r)",
        '  inputs: "a" "ab" "ba"', "}",
        f"property bad_{t} {{", "  kind: bad_prefix", f"  pattern: {machines[9]}", "}",
        f"signature sig_{t} {{", '  description: "a generated monitor"', "  severity: 2",
        f"  pattern: {machines[10]}", "}",
    ]) + "\n")
    rng.shuffle(texts)
    return Workload(files={"model.ma": "\n".join(texts)}, facts={})
