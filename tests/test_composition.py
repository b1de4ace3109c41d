import random
from dataclasses import replace

import pytest

from mimic_automata import (
    Binding,
    DimensionError,
    HaUnit,
    InputRejectedError,
    MODE_CA_FROM_SA,
    MODE_SA_FROM_CA,
    MimicAutomaton,
    MimicError,
    NestedUnit,
    NestingError,
    Readout,
    ReadoutError,
    SaUnit,
    StuckError,
    ca_step,
    common_input_alphabet,
    ha_initial,
    ma_initial,
    ma_run,
    validate_ma,
)
from mimic_automata.composition import has_randomness
from mimic_automata.hierarchical import HierarchicalAutomaton

from helpers import (
    flip_ma,
    flip_pca,
    gen_instance,
    identity_ca,
    make_sa,
    parity_ma,
    parity_sa,
    plain,
    xor_ca,
)
from reference_interpreter import ref_run


def test_initial_single_cell():
    ma = parity_ma()
    cfg = ma_initial(ma, ("0",))
    assert cfg.lattice == ("0",)
    assert cfg.unit_states == ("even",)
    assert cfg.macro_clock == 0


def test_initial_three_cells_are_independent():
    sa = parity_sa()
    ca = identity_ca("i3", width=3)
    b = Binding("b", MODE_SA_FROM_CA, "i3", {"0": SaUnit("parity"), "1": SaUnit("parity")})
    ma = MimicAutomaton("m", {"parity": sa}, {"i3": ca}, {}, {"b": b}, "b")
    cfg = ma_initial(ma, ("0", "1", "0"))
    assert cfg.unit_states == ("even", "even", "even")


def test_initial_ha_cell_uses_hierarchy_initial():
    root = make_sa("root", ("r0",), "r0", (), ("0", "1"), delta=[("r0", "0", "r0"), ("r0", "1", "r0")])
    child = make_sa("kid", ("k0", "k1"), "k0", (), ("0", "1"),
                    delta=[("k0", "1", "k1"), ("k1", "1", "k0"), ("k0", "0", "k0"), ("k1", "0", "k1")])
    ha = HierarchicalAutomaton("h", (root, child), "root", {("root", "r0"): frozenset({"kid"})})
    ca = identity_ca("i1", width=1)
    b = Binding("b", MODE_SA_FROM_CA, "i1", {"0": HaUnit("h"), "1": HaUnit("h")})
    ma = MimicAutomaton("m", {s.name: s for s in (root, child)}, {"i1": ca}, {"h": ha}, {"b": b}, "b")
    cfg = ma_initial(ma, ("0",))
    assert cfg.unit_states[0] == ha_initial(ha)


def test_mode1_identity_cell_runs_and_clock_advances():
    ma = parity_ma()
    cfg = ma_initial(ma, ("0",))
    cfg2, (tick,) = ma_run(ma, cfg, ["11"])
    per_cell = tick.per_cell
    assert cfg2.lattice == ("0",)  # identity rule
    assert cfg2.unit_states == ("even",)  # even -> odd -> even
    assert cfg2.macro_clock == 1
    assert per_cell[0].output_word == ("1", "1")
    assert per_cell[0].steps == 2


def test_mode1_empty_block_still_steps_lattice_once():
    ma = parity_ma()
    cfg = ma_initial(ma, ("0",))
    cfg2, (tick,) = ma_run(ma, cfg, [""])
    per_cell = tick.per_cell
    assert cfg2.macro_clock == 1
    assert per_cell[0].steps == 0
    assert per_cell[0].output_word == ()


def test_mode1_two_cell_xor_reinitializes_changed_cells():
    # two distinguishable machine variants
    v0 = make_sa("v0", ("p", "q"), "p", (), ("0", "1"),
                 delta=[("p", "0", "q"), ("p", "1", "q"), ("q", "0", "p"), ("q", "1", "p")])
    v1 = make_sa("v1", ("r",), "r", (), ("0", "1"), delta=[("r", "0", "r"), ("r", "1", "r")])
    ca = xor_ca("x2", width=2)
    b = Binding("b", MODE_SA_FROM_CA, "x2", {"0": SaUnit("v0"), "1": SaUnit("v1")})
    ma = MimicAutomaton("m", {"v0": v0, "v1": v1}, {"x2": ca}, {}, {"b": b}, "b")

    start = ("0", "1")
    assert ca_step(ca, start) == ("0", "0")  # oracle: each cell sees the other twice

    cfg = ma_initial(ma, start)
    cfg2, (tick,) = ma_run(ma, cfg, ["1"])
    per_cell = tick.per_cell
    assert cfg2.lattice == ("0", "0")
    # cell 0 kept its state (ran p -> q), cell 1 was rebuilt for variant v0
    assert per_cell[0].final_state == "q"
    assert cfg2.unit_states == ("q", "p")


def test_mode1_rejects_foreign_symbol_naming_cell_and_position():
    ma = parity_ma()
    cfg = ma_initial(ma, ("0",))
    with pytest.raises(InputRejectedError) as exc:
        ma_run(ma, cfg, [("1", "z")])
    assert exc.value.cell == 0
    assert exc.value.position == 1


def mode2_ma(readout, t_max=1000, ca=None, seed=("0",)):
    sa = parity_sa()
    ca = ca or identity_ca("inner", width=len(seed))
    b = Binding("b", MODE_CA_FROM_SA, ca.name, {q: SaUnit("parity") for q in ca.cell_states},
                t_max=t_max, outer_sa="parity", readout=readout, seed=tuple(seed))
    return MimicAutomaton("m2", {"parity": sa}, {ca.name: ca}, {}, {"b": b}, "b")


def test_mode2_identity_inner_moves_outer_to_odd():
    ma = mode2_ma(Readout(kind="cell", cell=0))
    cfg = ma_initial(ma, ("0",))
    assert cfg.outer_state == "even"
    cfg2, (tick,) = ma_run(ma, cfg, [("1",)])
    inner = tick.inner_run
    assert inner.trace == (("1",),)
    assert cfg2.outer_state == "odd"
    assert cfg2.macro_clock == 1


def test_mode2_zero_readout_self_loops():
    ma = mode2_ma(Readout(kind="cell", cell=0))
    cfg = ma_initial(ma, ("0",))
    cfg2, _ = ma_run(ma, cfg, [("0",)])
    assert cfg2.outer_state == "even"


def test_mode2_xor_inner_with_parity_readout():
    ca = xor_ca("xi", width=4)
    ma = mode2_ma(Readout(kind="parity", target="1"), t_max=2, ca=ca, seed=("0",) * 4)
    cfg = ma_initial(ma, ("0",) * 4)
    cfg2, (tick,) = ma_run(ma, cfg, [tuple("0010")])
    inner = tick.inner_run
    # oracle trace: 0010 -> 0101 -> 0000; zero ones is even parity -> '0'
    assert inner.trace == (tuple("0010"), tuple("0101"), tuple("0000"))
    assert cfg2.outer_state == "even"
    assert cfg2.lattice == tuple("0000")


def test_run_empty_schedule_is_identity():
    ma = parity_ma()
    cfg = ma_initial(ma, ("0",))
    cfg2, trace = ma_run(ma, cfg, [])
    assert cfg2 == cfg
    assert trace == ()


def test_run_clock_counts_schedule():
    ma = parity_ma()
    cfg = ma_initial(ma, ("0",))
    cfg2, trace = ma_run(ma, cfg, ["1", "0", "11"])
    assert cfg2.macro_clock == 3
    assert [t.index for t in trace] == [0, 1, 2]


def test_run_is_deterministic_without_randomness():
    ma = parity_ma()
    cfg = ma_initial(ma, ("0",))
    a = ma_run(ma, cfg, ["1", "01"])
    b = ma_run(ma, cfg, ["1", "01"])
    assert a == b


def test_run_with_randomness_is_seed_determined():
    ma = flip_ma()
    cfg = ma_initial(ma, ("0",))
    a = ma_run(ma, cfg, ["a", "a", "a"], seed=5)
    b = ma_run(ma, cfg, ["a", "a", "a"], seed=5)
    assert a == b
    outcomes = {ma_run(ma, cfg, ["a"], seed=s)[0].lattice for s in range(16)}
    assert outcomes == {("0",), ("1",)}


def test_lattice_constant_within_tick():
    ma = parity_ma()
    cfg = ma_initial(ma, ("0",))
    _, trace = ma_run(ma, cfg, ["1", "11"])
    current = ("0",)
    for tick in trace:
        assert tick.lattice_before == current
        current = tick.lattice_after


def test_reinit_locality_unchanged_cells_keep_state():
    ma = parity_ma()  # identity rule: cell state never changes
    cfg = ma_initial(ma, ("0",))
    cfg, _ = ma_run(ma, cfg, ["1"])
    assert cfg.unit_states == ("odd",)
    cfg, _ = ma_run(ma, cfg, [""])
    assert cfg.unit_states == ("odd",)  # survived a tick with no input


def test_nesting_depth_overflow_detected():
    sa = parity_sa()
    ca = identity_ca("i", width=1)
    inner = Binding("b3", MODE_SA_FROM_CA, "i", {"0": SaUnit("parity"), "1": SaUnit("parity")})
    mid = Binding("b2", MODE_SA_FROM_CA, "i", {"0": NestedUnit("b3"), "1": NestedUnit("b3")})
    top = Binding("b1", MODE_SA_FROM_CA, "i", {"0": NestedUnit("b2"), "1": NestedUnit("b2")})
    ma = MimicAutomaton("deep", {"parity": sa}, {"i": ca}, {},
                        {"b1": top, "b2": mid, "b3": inner}, "b1", max_depth=2)
    assert any(v.invariant == "nesting-depth" for v in validate_ma(ma))
    with pytest.raises(NestingError):
        ma_initial(ma, ("0",))


def test_binding_cycle_rejected():
    sa = parity_sa()
    ca = identity_ca("i", width=1)
    a = Binding("a", MODE_SA_FROM_CA, "i", {"0": NestedUnit("b"), "1": SaUnit("parity")})
    b = Binding("b", MODE_SA_FROM_CA, "i", {"0": NestedUnit("a"), "1": SaUnit("parity")})
    ma = MimicAutomaton("cyc", {"parity": sa}, {"i": ca}, {}, {"a": a, "b": b}, "a")
    assert any(v.invariant == "binding-acyclic" for v in validate_ma(ma))


def test_has_randomness_follows_the_nesting_walk():
    ca = identity_ca("i", width=1)
    inner = Binding("inner", MODE_SA_FROM_CA, "flip", {"0": SaUnit("parity"), "1": SaUnit("parity")})
    top = Binding("top", MODE_SA_FROM_CA, "i", {"0": NestedUnit("inner"), "1": NestedUnit("ghost")})
    ma = MimicAutomaton("nest", {"parity": parity_sa()}, {"i": ca, "flip": flip_pca()}, {},
                        {"top": top, "inner": inner}, "top")
    assert has_randomness(ma)  # through a nested binding; the unknown 'ghost' is skipped
    assert not has_randomness(replace(ma, bindings={"top": replace(top, cell_map={"0": SaUnit("parity")})}))
    a = Binding("a", MODE_SA_FROM_CA, "i", {"0": NestedUnit("b"), "1": SaUnit("parity")})
    b = Binding("b", MODE_SA_FROM_CA, "i", {"0": NestedUnit("a"), "1": SaUnit("parity")})
    with pytest.raises(NestingError):
        has_randomness(MimicAutomaton("cyc", {"parity": parity_sa()}, {"i": ca}, {}, {"a": a, "b": b}, "a"))


def test_reference_agreement_on_small_family():
    rnd = random.Random(90125)
    checked = 0
    for _ in range(120):
        ma, lattice0, schedule = gen_instance(rnd)
        assert validate_ma(ma) == []
        cfg = ma_initial(ma, lattice0)
        final, trace = ma_run(ma, cfg, schedule)
        ref_final, ref_ticks = ref_run(ma, lattice0, schedule)
        assert plain(final) == ref_final
        for tick, (ref_lattice, ref_cells, ref_output) in zip(trace, ref_ticks):
            assert tick.lattice_after == ref_lattice
            assert tuple(tick.output or ()) == tuple(ref_output)
            if ref_cells is not None:
                got = tuple(
                    (plain(r.final_state), r.output_word, r.steps, r.accepted)
                    for r in tick.per_cell
                )
                assert got == ref_cells
        checked += 1
    assert checked == 120


def test_readout_refuses_an_unlisted_lattice_and_an_unknown_kind():
    with pytest.raises(ReadoutError, match=r"readout table undefined on lattice \('0',\)"):
        Readout(kind="table", table={}).apply(("0",))
    with pytest.raises(ReadoutError, match="unknown readout kind 'bogus'"):
        Readout(kind="bogus").apply(("0",))


def test_initial_refuses_a_lattice_of_the_wrong_width_or_values():
    with pytest.raises(DimensionError, match="initial lattice length 2 != width 1"):
        ma_initial(parity_ma(), ("0", "0"))
    with pytest.raises(MimicError, match="initial lattice value '7' is not a cell state"):
        ma_initial(parity_ma(), ("7",))


def test_validate_ma_reports_bindings_the_text_format_cannot_build():
    ma = mode2_ma(Readout(kind="cell", cell=0))
    letters = make_sa("letters", ("s",), "s", (), ("a", "b"), delta=[("s", "a", "s"), ("s", "b", "s")])

    def report(**changes):
        bindings = {"b": replace(ma.bindings["b"], **changes)}
        return [str(v) for v in validate_ma(replace(ma, sa_set={**ma.sa_set, "letters": letters}, bindings=bindings))]

    assert report(mode="diagonal") == ["[binding-mode] binding b: unknown mode 'diagonal'"]
    assert report(readout=Readout(kind="bogus")) == ["[readout-kind] binding b: unknown readout kind 'bogus'"]
    assert report(outer_sa="letters", readout=Readout(kind="parity", target="1")) == [
        "[readout-range] binding b: parity readout emits '0', missing from letters's alphabet",
        "[readout-range] binding b: parity readout emits '1', missing from letters's alphabet",
    ]


def test_an_unvalidated_ca_from_sa_model_fails_its_outer_step_with_a_named_error():
    ma = mode2_ma(Readout(kind="cell", cell=0), ca=identity_ca("inner", states=("0", "1", "2")))
    with pytest.raises(ReadoutError, match="b: readout produced '2', not an input of parity"):
        ma_run(ma, ma_initial(ma, ("0",)), [("2",)])
    partial = make_sa("parity", ("even", "odd"), "even", ("even",), ("0", "1"), delta=[("even", "0", "even")],
                      partial=True)
    ma = replace(mode2_ma(Readout(kind="cell", cell=0)), sa_set={"parity": partial})
    with pytest.raises(StuckError, match=r"b: outer machine has no transition on \('even', '1'\)"):
        ma_run(ma, ma_initial(ma, ("0",)), [("1",)])


def test_common_input_alphabet_collects_through_nested_sa_from_ca_bindings():
    ones_twos = make_sa("ones_twos", ("s",), "s", (), ("2", "1"), delta=[("s", "2", "s"), ("s", "1", "s")])
    ca = identity_ca("i", width=1)
    inner = Binding("inner", MODE_SA_FROM_CA, "i", {"0": SaUnit("parity"), "1": SaUnit("parity")})
    top = Binding("top", MODE_SA_FROM_CA, "i", {"0": NestedUnit("inner"), "1": SaUnit("ones_twos")})
    ma = MimicAutomaton("m", {"parity": parity_sa(), "ones_twos": ones_twos}, {"i": ca}, {},
                        {"top": top, "inner": inner}, "top")
    assert validate_ma(ma) == []
    assert common_input_alphabet(ma) == ("1",)  # in the order of the first alphabet met: the nested parity's
    assert common_input_alphabet(ma, inner) == ("0", "1")
