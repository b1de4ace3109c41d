import itertools

import pytest
from hypothesis import given, strategies as st

from mimic_automata import (
    DimensionError,
    MimicError,
    SizeCapError,
    ca_run,
    ca_step,
    pca_step,
    pca_step_distribution,
    point_mass_pca,
    validate_ca,
    validate_pca,
)
from mimic_automata.cellular import CellularAutomaton, ProbabilisticCellularAutomaton, builtin_rule_table
from mimic_automata.rng import master_stream
from helpers import identity_ca, majority_ca, uniform_pca, xor_ca


def brute_step(ca, lattice):
    """Independent per-cell neighborhood gather, as the oracle."""
    n = len(lattice)
    result = []
    for i in range(n):
        nb = []
        for off in range(-ca.radius, ca.radius + 1):
            j = i + off
            if ca.boundary == "periodic":
                nb.append(lattice[j % n])
            elif 0 <= j < n:
                nb.append(lattice[j])
            else:
                nb.append(ca.boundary_value)
        result.append(ca.rule[tuple(nb)])
    return tuple(result)


def test_xor_step_example():
    ca = xor_ca(width=4)
    lattice = tuple("0010")
    expected = brute_step(ca, lattice)
    assert expected == tuple("0101")  # frozen from the oracle
    assert ca_step(ca, lattice) == expected


def test_step_does_not_mutate_and_is_pure():
    ca = xor_ca(width=4)
    lattice = tuple("0010")
    once = ca_step(ca, lattice)
    twice = ca_step(ca, lattice)
    assert once == twice
    assert lattice == tuple("0010")


def test_all_zero_is_quiescent_for_xor():
    ca = xor_ca(width=6)
    assert ca_step(ca, tuple("000000")) == tuple("000000")


def test_identity_rule_fixes_everything():
    ca = identity_ca(width=5)
    for lattice in itertools.product("01", repeat=5):
        assert ca_step(ca, lattice) == lattice


def test_step_checks_width():
    with pytest.raises(DimensionError):
        ca_step(xor_ca(width=4), tuple("001"))


def test_run_quiescent_start_stops_immediately():
    run = ca_run(xor_ca(width=4), tuple("0000"), t_max=10)
    assert run.trace == (tuple("0000"),)
    assert run.terminated_by == "fixpoint"


def test_run_identity_is_a_fixpoint_after_zero_steps():
    run = ca_run(identity_ca(width=3), tuple("010"), t_max=10)
    assert run.trace == (tuple("010"),)
    assert run.terminated_by == "fixpoint"


def test_run_xor_trace_from_0010():
    # oracle: 0010 -> 0101 -> 0000, which is quiescent
    ca = xor_ca(width=4)
    start = tuple("0010")
    step1 = brute_step(ca, start)
    step2 = brute_step(ca, step1)
    assert (step1, step2) == (tuple("0101"), tuple("0000"))

    run = ca_run(ca, start, t_max=2)
    assert run.trace == (start, step1, step2)
    # the cap and the fixpoint coincide here; the fixpoint is reported since
    # no further productive step exists
    assert run.terminated_by == "fixpoint"

    capped = ca_run(ca, start, t_max=1)
    assert capped.trace == (start, step1)
    assert capped.terminated_by == "step_cap"


def test_run_includes_initial_and_respects_cap():
    ca = xor_ca(width=5)
    run = ca_run(ca, tuple("00100"), t_max=3)
    assert run.trace[0] == tuple("00100")
    assert len(run.trace) <= 4


def test_fixed_boundary():
    rule = {nb: nb[0] for nb in itertools.product("01", repeat=3)}  # copy left neighbor
    ca = CellularAutomaton("left", ("0", "1"), 3, 1, boundary="fixed",
                           boundary_value="1", rule=rule)
    assert not validate_ca(ca)
    assert ca_step(ca, tuple("000")) == tuple("100")


def test_xor_linearity_small():
    for width in (1, 2, 3, 4):
        ca = xor_ca(width=width)
        for x in itertools.product("01", repeat=width):
            for y in itertools.product("01", repeat=width):
                xy = tuple("1" if a != b else "0" for a, b in zip(x, y))
                fx, fy = ca_step(ca, x), ca_step(ca, y)
                fxy = tuple("1" if a != b else "0" for a, b in zip(fx, fy))
                assert ca_step(ca, xy) == fxy


def test_validate_flags_incomplete_rule():
    rule = {nb: "0" for nb in itertools.product("01", repeat=3)}
    del rule[("1", "1", "1")]
    ca = CellularAutomaton("gap", ("0", "1"), 2, 1, rule=rule)
    report = validate_ca(ca)
    assert any(v.invariant == "rule-totality" for v in report)


def test_validate_flags_an_unknown_boundary_kind_built_in_the_library():
    # the text format builds only periodic and fixed boundaries
    ca = CellularAutomaton("wrap", ("0", "1"), 2, 1, boundary="wrap", rule=identity_ca(width=2).rule)
    pca = ProbabilisticCellularAutomaton("wrap", ("0", "1"), 2, 1, boundary="wrap",
                                         rule=uniform_pca("u", width=2).rule)
    for report in (validate_ca(ca), validate_pca(pca)):
        assert [str(v) for v in report] == ["[boundary-kind] wrap: unknown boundary 'wrap'"]


# --- probabilistic ----------------------------------------------------------

def test_point_mass_behaves_deterministically():
    ca = xor_ca(width=4)
    pm = point_mass_pca(ca)
    assert not validate_pca(pm)
    for lattice in itertools.product("01", repeat=4):
        assert pca_step(pm, lattice, master_stream(7)) == ca_step(ca, lattice)


def test_equal_seeds_reproduce_and_runs_repeat():
    pca = uniform_pca(width=6, states=("0", "1"))
    lattice = tuple("010101")
    a = pca_step(pca, lattice, master_stream(123))
    b = pca_step(pca, lattice, master_stream(123))
    assert a == b
    c = [pca_step(pca, lattice, master_stream(s)) for s in range(20)]
    assert len(set(c)) > 1  # different seeds do explore


def test_certain_transition_width_one():
    rule = {nb: (("1", 1.0),) for nb in itertools.product("01", repeat=3)}
    pca = ProbabilisticCellularAutomaton("sure", ("0", "1"), 1, 1, rule=rule)
    assert pca_step(pca, ("0",), master_stream(0)) == ("1",)


def test_distribution_point_mass_single_successor():
    pm = point_mass_pca(xor_ca(width=3))
    dist = pca_step_distribution(pm, tuple("010"))
    assert dist == {ca_step(xor_ca(width=3), tuple("010")): 1.0}


def test_distribution_uniform_two_cells():
    dist = pca_step_distribution(uniform_pca(width=2), tuple("00"))
    assert len(dist) == 4
    for prob in dist.values():
        assert prob == pytest.approx(0.25, abs=1e-12)


def test_distribution_biased_single_cell():
    rule = {nb: (("1", 0.3), ("0", 0.7)) for nb in itertools.product("01", repeat=3)}
    pca = ProbabilisticCellularAutomaton("bias", ("0", "1"), 1, 1, rule=rule)
    dist = pca_step_distribution(pca, ("0",))
    assert dist[("1",)] == pytest.approx(0.3)
    assert dist[("0",)] == pytest.approx(0.7)


def test_distribution_cap():
    pca = uniform_pca(width=13)  # 2^13 successors
    with pytest.raises(SizeCapError):
        pca_step_distribution(pca, ("0",) * 13)


def test_pca_fixed_boundary_samples_with_padding():
    # left edge sees the padding value; rule keys must cover those neighborhoods
    rule = {nb: ((nb[0], 1.0),) for nb in itertools.product("01", repeat=3)}  # copy left
    pca = ProbabilisticCellularAutomaton("pleft", ("0", "1"), 2, 1,
                                         boundary="fixed", boundary_value="1", rule=rule)
    assert not validate_pca(pca)
    assert pca_step(pca, ("0", "0"), master_stream(0)) == ("1", "0")


def test_validate_flags_bad_normalization():
    rule = {nb: (("0", 0.4), ("1", 0.5)) for nb in itertools.product("01", repeat=3)}
    pca = ProbabilisticCellularAutomaton("short", ("0", "1"), 1, 1, rule=rule)
    report = validate_pca(pca)
    assert any(v.invariant == "normalization" for v in report)


def test_validate_flags_a_nan_probability_at_its_neighborhood():
    # NaN is neither negative nor off the sum's tolerance: every comparison with it is false
    rule = {nb: (("0", 0.5), ("1", 0.5)) for nb in itertools.product("01", repeat=3)}
    rule["0", "1", "0"] = (("0", float("nan")), ("1", 1.0))
    pca = ProbabilisticCellularAutomaton("nan", ("0", "1"), 2, 1, rule=rule)
    report = validate_pca(pca)
    assert [(v.invariant, v.subject) for v in report] == [("probability-nan", repr(("0", "1", "0")))]


@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from("01"), min_size=3, max_size=3))
def test_distribution_sums_to_one_on_reachable_lattices(seed, cells):
    pca = uniform_pca(width=3)
    lattice = tuple(cells)
    for _ in range(3):
        dist = pca_step_distribution(pca, lattice)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        lattice = pca_step(pca, lattice, master_stream(seed))


def test_quiescence_of_builtins():
    for ca in (xor_ca(width=5), identity_ca(width=5), majority_ca(width=5)):
        zero = ("0",) * 5
        assert ca_step(ca, zero) == zero


def test_run_refuses_a_negative_step_cap():
    with pytest.raises(ValueError, match="t_max must be >= 0"):
        ca_run(identity_ca(), ("0",), t_max=-1)


def test_an_unknown_builtin_rule_is_refused():
    with pytest.raises(MimicError, match="unknown builtin rule 'rot13'"):
        builtin_rule_table("rot13", ("0", "1"))
