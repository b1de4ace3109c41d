"""Shared model builders for the test suite."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from pathlib import Path

from mimic_automata import (
    Binding,
    CellularAutomaton,
    DhrStructure,
    HaUnit,
    HierarchicalAutomaton,
    MODE_CA_FROM_SA,
    MODE_SA_FROM_CA,
    MimicAutomaton,
    MimicConfiguration,
    NestedUnit,
    ProbabilisticCellularAutomaton,
    Readout,
    SaUnit,
    SequentialAutomaton,
    SerialDhr,
    VoterPolicy,
)
from mimic_automata.cellular import builtin_rule_table
from mimic_automata.hierarchical import HaConfiguration

DATA = Path(__file__).parent / "data"
MODELS = DATA / "models"
SIGNATURES = DATA / "signatures"


def make_sa(name, states, initial, finals, inputs, outputs=None, delta=(), partial=False):
    """delta entries: (src, sym, dst) or (src, sym, dst, out); default out = sym."""
    outputs = tuple(outputs) if outputs is not None else tuple(inputs)
    transitions, out_map = {}, {}
    for entry in delta:
        src, sym, dst = entry[:3]
        out = entry[3] if len(entry) > 3 else sym
        transitions[(src, sym)] = dst
        out_map[(src, sym)] = out
    return SequentialAutomaton(
        name=name,
        states=tuple(states),
        initial=initial,
        finals=frozenset(finals),
        input_alphabet=tuple(inputs),
        output_alphabet=outputs,
        transitions=transitions,
        outputs=out_map,
        allow_partial=partial,
    )


def parity_sa(name="parity"):
    return make_sa(
        name,
        ("even", "odd"),
        "even",
        ("even",),
        ("0", "1"),
        delta=[
            ("even", "0", "even"),
            ("even", "1", "odd"),
            ("odd", "0", "odd"),
            ("odd", "1", "even"),
        ],
    )


def echo_sa(name, cycle=1, inputs=("a", "b")):
    """Copies input to output while walking a cycle of ``cycle`` states."""
    states = tuple(f"s{i}" for i in range(cycle))
    delta = []
    for i, s in enumerate(states):
        for sym in inputs:
            delta.append((s, sym, states[(i + 1) % cycle], sym))
    return make_sa(name, states, "s0", ("s0",), inputs, delta=delta)


def const_sa(name, out, inputs=("x",), outputs=("A", "B")):
    return make_sa(name, ("s",), "s", ("s",), inputs, outputs,
                   delta=[("s", sym, "s", out) for sym in inputs])


def flipper_sa(name="flipper", inputs=("a", "b")):
    a, b = inputs
    return make_sa(name, ("u",), "u", (), inputs,
                   delta=[("u", a, "u", b), ("u", b, "u", a)])


def xor_ca(name="xor", width=4):
    return CellularAutomaton(name, ("0", "1"), width, 1,
                             rule=builtin_rule_table("xor", ("0", "1")), rule_expr="xor")


def identity_ca(name="ident", width=1, states=("0", "1"), radius=1):
    return CellularAutomaton(name, tuple(states), width, radius,
                             rule=builtin_rule_table("identity", tuple(states), radius),
                             rule_expr="identity")


def majority_ca(name="maj", width=5, radius=1):
    return CellularAutomaton(name, ("0", "1"), width, radius,
                             rule=builtin_rule_table("majority", ("0", "1"), radius),
                             rule_expr="majority")


def flip_pca(name="flip"):
    """One cell; 0 flips to 1 with probability one half, 1 is absorbing."""
    rule = {}
    for nb in itertools.product("01", repeat=3):
        rule[nb] = ((("0", 0.5), ("1", 0.5)) if nb[1] == "0" else (("1", 1.0),))
    return ProbabilisticCellularAutomaton(name, ("0", "1"), 1, 1, rule=rule)


def uniform_pca(name="uni", width=2, states=("0", "1")):
    dist = tuple((q, 1.0 / len(states)) for q in states)
    rule = {nb: dist for nb in itertools.product(states, repeat=3)}
    return ProbabilisticCellularAutomaton(name, tuple(states), width, 1, rule=rule)


def parity_ma():
    """One identity-rule cell hosting the parity machine."""
    sa = parity_sa()
    ca = identity_ca("ident1", width=1)
    binding = Binding("b", MODE_SA_FROM_CA, "ident1",
                      {"0": SaUnit("parity"), "1": SaUnit("parity")}, seed=("0",))
    return MimicAutomaton("parity_ma", {"parity": sa}, {"ident1": ca}, {}, {"b": binding}, "b")


def x11_parity_ma():
    """Width-11 periodic xor scheduler seeded with a single 1; every cell hosts one parity machine.

    The lattice orbit has 32 lattices whatever the input; under the blocks
    "0" and "1" the composite reaches 240 states.
    """
    v = parity_sa("v")
    ca = xor_ca("x11", width=11)
    b = Binding("b", MODE_SA_FROM_CA, "x11", {"0": SaUnit("v"), "1": SaUnit("v")},
                seed=("0",) * 10 + ("1",))
    return MimicAutomaton("m11", {"v": v}, {"x11": ca}, {}, {"b": b}, "b")


def flip_ma():
    sa = const_sa("idle", "a", inputs=("a",), outputs=("a",))
    pca = flip_pca()
    binding = Binding("b", MODE_SA_FROM_CA, "flip",
                      {"0": SaUnit("idle"), "1": SaUnit("idle")}, seed=("0",))
    return MimicAutomaton("flip_ma", {"idle": sa}, {"flip": pca}, {}, {"b": binding}, "b")


def echo_dhr(name="echo3", scheduler=None, quorum=2):
    executors = (echo_sa("e0", 1), echo_sa("e1", 2), echo_sa("e2", 3))
    scheduler = scheduler or identity_ca("ident3", width=3, states=("0", "1", "2"))
    return DhrStructure(name, executors, scheduler, 3,
                        VoterPolicy(quorum=quorum), ("0", "1", "2"))


def rotate_ca(name="rot3", width=3, states=("0", "1", "2")):
    """Each cell takes its left neighbor's value: variants rotate across slots."""
    rule = {nb: nb[0] for nb in itertools.product(states, repeat=3)}
    return CellularAutomaton(name, tuple(states), width, 1, rule=rule)


def plain(x):
    """Structural plain-data form of run-time states, for oracle comparison."""
    if isinstance(x, MimicConfiguration):
        return (
            "cfg",
            tuple(x.lattice),
            tuple(plain(u) for u in x.unit_states),
            x.macro_clock,
            x.outer_state,
        )
    if isinstance(x, HaConfiguration):
        return ("ha", x.active)
    return x


# ---------------------------------------------------------------------------
# pseudo-random model family for oracle-equivalence runs

ALPHABET = ("a", "b")


def gen_sa(rnd: random.Random, name: str, max_states=4) -> SequentialAutomaton:
    n = rnd.randint(1, max_states)
    states = tuple(f"q{i}" for i in range(n))
    outputs = ("x", "y")
    delta = []
    for s in states:
        for sym in ALPHABET:
            delta.append((s, sym, rnd.choice(states), rnd.choice(outputs)))
    finals = tuple(s for s in states if rnd.random() < 0.5)
    return make_sa(name, states, states[0], finals, ALPHABET, outputs, delta)


def gen_ca(rnd: random.Random, name: str, width: int, n_states: int) -> CellularAutomaton:
    states = tuple(str(i) for i in range(n_states))
    rule = {nb: rnd.choice(states) for nb in itertools.product(states, repeat=3)}
    boundary = rnd.choice(["periodic", "fixed"])
    return CellularAutomaton(
        name, states, width, 1,
        boundary=boundary,
        boundary_value=rnd.choice(states) if boundary == "fixed" else None,
        rule=rule,
    )


def gen_ha(rnd: random.Random, prefix: str) -> HierarchicalAutomaton:
    root = gen_sa(rnd, f"{prefix}_root", max_states=3)
    children = tuple(
        gen_sa(rnd, f"{prefix}_child{i}", max_states=3)
        for i in range(rnd.randint(1, 2))
    )
    refined_state = rnd.choice(root.states)
    return HierarchicalAutomaton(
        name=f"{prefix}_ha",
        sas=(root,) + children,
        root=root.name,
        gamma={(root.name, refined_state): frozenset(sa.name for sa in children)},
    )


def gen_instance(rnd: random.Random):
    """One random composite (depth <= 2) plus a start lattice and a schedule."""
    flavor = rnd.choice(["plain", "plain", "plain", "ha", "nested1", "nested2", "mode2"])
    sa_set, ca_set, ha_set, bindings = {}, {}, {}, {}

    def new_sa(tag):
        sa = gen_sa(rnd, tag)
        sa_set[sa.name] = sa
        return sa

    width = rnd.randint(1, 4)
    n_states = rnd.randint(1, 3)
    root_ca = gen_ca(rnd, "root_ca", width, n_states)
    ca_set[root_ca.name] = root_ca

    if flavor == "mode2":
        outer = gen_sa(rnd, "outer")
        sa_set[outer.name] = outer
        inner = CellularAutomaton(
            "inner", ALPHABET, rnd.randint(1, 2), 1,
            rule={nb: rnd.choice(ALPHABET) for nb in itertools.product(ALPHABET, repeat=3)},
        )
        ca_set[inner.name] = inner
        binding = Binding(
            "root", MODE_CA_FROM_SA, inner.name,
            {q: SaUnit(new_sa(f"passive{q}").name) for q in inner.cell_states},
            t_max=rnd.randint(0, 3),
            outer_sa=outer.name,
            readout=Readout(kind="cell", cell=rnd.randrange(inner.width)),
            seed=tuple(rnd.choice(ALPHABET) for _ in range(inner.width)),
        )
        bindings["root"] = binding
        ma = MimicAutomaton("inst", sa_set, ca_set, ha_set, bindings, "root")
        lattice0 = binding.seed
        schedule = [tuple(rnd.choice(ALPHABET) for _ in range(inner.width))
                    for _ in range(rnd.randint(0, 3))]
        return ma, lattice0, schedule

    cell_map = {}
    for q in root_ca.cell_states:
        if flavor == "ha" and rnd.random() < 0.6:
            ha = gen_ha(rnd, f"h{q}")
            ha_set[ha.name] = ha
            for sa in ha.sas:
                sa_set[sa.name] = sa
            cell_map[q] = HaUnit(ha.name)
        elif flavor == "nested1" and rnd.random() < 0.6:
            inner_ca = gen_ca(rnd, f"n1ca{q}", rnd.randint(1, 2), 2)
            ca_set[inner_ca.name] = inner_ca
            inner_map = {p: SaUnit(new_sa(f"n1sa{q}{p}").name) for p in inner_ca.cell_states}
            nested = Binding(f"n1b{q}", MODE_SA_FROM_CA, inner_ca.name, inner_map,
                             seed=tuple(rnd.choice(inner_ca.cell_states)
                                        for _ in range(inner_ca.width)))
            bindings[nested.name] = nested
            cell_map[q] = NestedUnit(nested.name)
        elif flavor == "nested2" and rnd.random() < 0.6:
            inner_ca = CellularAutomaton(
                f"n2ca{q}", ALPHABET, rnd.randint(1, 2), 1,
                rule={nb: rnd.choice(ALPHABET) for nb in itertools.product(ALPHABET, repeat=3)},
            )
            ca_set[inner_ca.name] = inner_ca
            outer = new_sa(f"n2out{q}")
            inner_map = {p: SaUnit(new_sa(f"n2sa{q}{p}").name) for p in inner_ca.cell_states}
            nested = Binding(
                f"n2b{q}", MODE_CA_FROM_SA, inner_ca.name, inner_map,
                t_max=rnd.randint(0, 3),
                outer_sa=outer.name,
                readout=Readout(kind="cell", cell=rnd.randrange(inner_ca.width)),
                seed=tuple(rnd.choice(ALPHABET) for _ in range(inner_ca.width)),
            )
            bindings[nested.name] = nested
            cell_map[q] = NestedUnit(nested.name)
        else:
            cell_map[q] = SaUnit(new_sa(f"u{q}").name)

    binding = Binding("root", MODE_SA_FROM_CA, root_ca.name, cell_map)
    bindings["root"] = binding
    ma = MimicAutomaton("inst", sa_set, ca_set, ha_set, bindings, "root")
    lattice0 = tuple(rnd.choice(root_ca.cell_states) for _ in range(width))
    schedule = [tuple(rnd.choice(ALPHABET) for _ in range(rnd.randint(0, 2)))
                for _ in range(rnd.randint(0, 3))]
    return ma, lattice0, schedule


def gen_pca(rnd: random.Random, ca: CellularAutomaton) -> ProbabilisticCellularAutomaton:
    """A random rule on ``ca``'s cell states, width and boundary; at most two outcomes per neighborhood."""
    rule = {}
    for nb in itertools.product(ca.cell_states, repeat=ca.neighborhood_size):
        targets = rnd.sample(ca.cell_states, rnd.randint(1, min(2, len(ca.cell_states))))
        weights = [rnd.random() + 0.05 for _ in targets]
        total = sum(weights)
        rule[nb] = tuple((q, w / total) for q, w in zip(targets, weights))
    return ProbabilisticCellularAutomaton(
        ca.name, ca.cell_states, ca.width, ca.radius,
        boundary=ca.boundary, boundary_value=ca.boundary_value, rule=rule,
    )


def gen_pca_instance(rnd: random.Random):
    """``gen_instance``'s plain, ha, nested1 or nested2 composite with a random PCA as root lattice.

    Returns the model and its start lattice; nested lattices stay deterministic.
    """
    while True:
        ma, lattice0, _ = gen_instance(rnd)
        if ma.root().mode == MODE_SA_FROM_CA:
            break
    root_ca = ma.root().ca
    ca_set = {**ma.ca_set, root_ca: gen_pca(rnd, ma.ca_set[root_ca])}
    return replace(ma, ca_set=ca_set), lattice0


# ---------------------------------------------------------------------------
# random documents for serialization round-trips

def gen_document(rnd: random.Random):
    """A random, fully valid document touching every block kind."""
    from mimic_automata import Property, Signature
    from mimic_automata.modelfile import ModelDocument
    from mimic_automata.props import parse_predicate

    doc = ModelDocument()

    ma, lattice0, _ = gen_instance(rnd)
    for name, sa in ma.sa_set.items():
        doc.sas[name] = sa
    for name, ca in ma.ca_set.items():
        doc.cas[name] = ca
    for name, ha in ma.ha_set.items():
        doc.has[name] = ha
    for name, binding in ma.bindings.items():
        doc.bindings[name] = binding
    doc.mas[ma.name] = ma

    if rnd.random() < 0.7:
        expr_kind = rnd.choice(["xor", "identity", "majority"])
        states = ("0", "1")
        ca = CellularAutomaton(
            "builtin_ca", states, rnd.randint(1, 4), 1,
            rule=builtin_rule_table(expr_kind, states), rule_expr=expr_kind,
        )
        doc.cas[ca.name] = ca
    if rnd.random() < 0.7:
        doc.pcas["upca"] = uniform_pca("upca", width=rnd.randint(1, 3))
    if rnd.random() < 0.6:
        bias = round(rnd.uniform(0.05, 0.95), 3)
        rule = {nb: (("0", bias), ("1", 1.0 - bias))
                for nb in itertools.product("01", repeat=3)}
        doc.pcas["bpca"] = ProbabilisticCellularAutomaton(
            "bpca", ("0", "1"), rnd.randint(1, 2), 1, rule=rule)

    executors = tuple(echo_sa(f"ex{i}", i + 1) for i in range(3))
    for sa in executors:
        doc.sas[sa.name] = sa
    scheduler = identity_ca("sched3", width=rnd.randint(1, 4), states=("0", "1", "2"))
    doc.cas[scheduler.name] = scheduler
    dhr = DhrStructure(
        "gen_dhr", executors, scheduler, scheduler.width,
        VoterPolicy(
            kind=rnd.choice(["strict_majority", "plurality"]),
            quorum=rnd.choice([None, 1, scheduler.width]),
            preferences=(("a",), ("b",)) if rnd.random() < 0.4 else (),
        ),
        tuple(rnd.choice(("0", "1", "2")) for _ in range(scheduler.width)),
    )
    doc.dhrs[dhr.name] = dhr
    if rnd.random() < 0.6:
        doc.serial_dhrs["chain"] = SerialDhr("chain", (dhr, dhr))

    atoms = ["lattice_has(0)", "cell0_state(q0)", "true", "false"]
    expr = rnd.choice(atoms)
    if rnd.random() < 0.5:
        expr = f"not {expr} or ({rnd.choice(atoms)} and {rnd.choice(atoms)})"
    doc.properties["p_inv"] = Property(
        "p_inv", "invariant", predicate=parse_predicate(expr),
        inputs=(("a",), ("b",)) if rnd.random() < 0.5 else None,
    )
    doc.properties["p_reach"] = Property(
        "p_reach", "reach", predicate=parse_predicate(rnd.choice(atoms)),
        policy=(("a",),) if rnd.random() < 0.5 else None,
        horizon=rnd.choice([None, 1, 5]),
    )
    pattern = echo_sa("gen_pat", 2)
    doc.sas[pattern.name] = pattern
    doc.properties["p_bad"] = Property("p_bad", "bad_prefix", pattern=pattern)
    doc.signatures["gen_sig"] = Signature(
        "gen_sig", "generated signature", pattern, severity=rnd.randint(1, 5))
    return doc
