import pytest
from hypothesis import given, strategies as st

from mimic_automata import (
    HierarchicalAutomaton,
    StuckError,
    ha_initial,
    ha_step,
    ha_step_with_output,
    sa_run,
    validate_ha,
)
from helpers import make_sa, parity_sa


def two_level():
    """Root refines its 'busy' state into a child; both machines are total."""
    root = make_sa(
        "root", ("idle", "busy"), "idle", ("idle",), ("go", "stop"),
        delta=[
            ("idle", "go", "busy"),
            ("busy", "stop", "idle"),
        ],
        partial=True,
    )
    child = make_sa(
        "child", ("c0", "c1"), "c0", ("c0",), ("go", "stop"),
        delta=[("c0", "go", "c1"), ("c1", "go", "c0")],
        partial=True,
    )
    return HierarchicalAutomaton(
        "h", (root, child), "root", {("root", "busy"): frozenset({"child"})}
    )


def three_level_chain():
    a = make_sa("a", ("a0",), "a0", ("a0",), ("t",), delta=[("a0", "t", "a0")])
    b = make_sa("b", ("b0",), "b0", ("b0",), ("t",), delta=[("b0", "t", "b0")])
    c = make_sa("c", ("c0",), "c0", ("c0",), ("t",), delta=[("c0", "t", "c0")])
    return HierarchicalAutomaton(
        "chain", (a, b, c), "a",
        {("a", "a0"): frozenset({"b"}), ("b", "b0"): frozenset({"c"})},
    )


def test_initial_single_machine():
    ha = HierarchicalAutomaton("solo", (parity_sa(),), "parity", {})
    assert ha_initial(ha).as_dict() == {"parity": "even"}


def test_initial_opens_refined_initial_state():
    root = make_sa("root", ("r0",), "r0", (), ("t",), delta=[("r0", "t", "r0")])
    child = make_sa("kid", ("k0", "k1"), "k0", (), ("t",), delta=[("k0", "t", "k1"), ("k1", "t", "k0")])
    ha = HierarchicalAutomaton("h", (root, child), "root", {("root", "r0"): frozenset({"kid"})})
    assert ha_initial(ha).as_dict() == {"root": "r0", "kid": "k0"}


def test_initial_three_level_closure():
    assert ha_initial(three_level_chain()).as_dict() == {"a": "a0", "b": "b0", "c": "c0"}


def test_degenerate_ha_equals_root_machine():
    sa = parity_sa()
    ha = HierarchicalAutomaton("solo", (sa,), "parity", {})
    config = ha_initial(ha)
    word = "110101"
    states = []
    for sym in word:
        config = ha_step(ha, config, sym)
        states.append(config.state_of("parity"))
    # trace equality with the plain run
    plain_states = []
    state = sa.initial
    for sym in word:
        state = sa.transitions[(state, sym)]
        plain_states.append(state)
    assert states == plain_states
    assert sa_run(sa, word).final_state == states[-1]


def test_child_fires_when_root_has_no_transition():
    ha = two_level()
    config = ha_step(ha, ha_initial(ha), "go")  # root: idle -> busy opens child
    assert config.as_dict() == {"root": "busy", "child": "c0"}
    # root has no 'go' transition in busy, the active child does
    config2, output, fired = ha_step_with_output(ha, config, "go")
    assert fired == ("child",)
    assert output == "go"
    assert config2.as_dict() == {"root": "busy", "child": "c1"}


def test_exiting_refined_state_deactivates_child():
    ha = two_level()
    config = ha_step(ha, ha_initial(ha), "go")
    config = ha_step(ha, config, "go")  # child to c1
    config = ha_step(ha, config, "stop")  # root leaves busy; child must vanish
    assert config.as_dict() == {"root": "idle"}
    # re-entering resets the child to its initial state
    config = ha_step(ha, config, "go")
    assert config.as_dict() == {"root": "busy", "child": "c0"}


def test_outermost_priority_root_wins():
    ha = two_level()
    config = ha_step(ha, ha_initial(ha), "go")
    # both root (busy--stop) and child would... child has no 'stop'; make sure
    # root fires on stop even while child is active
    config2, _, fired = ha_step_with_output(ha, config, "stop")
    assert fired == ("root",)
    assert config2.as_dict() == {"root": "idle"}


def test_self_loop_keeps_descendants():
    root = make_sa("root", ("r",), "r", (), ("t",), delta=[("r", "t", "r")])
    child = make_sa("kid", ("k0", "k1"), "k0", (), ("t",), delta=[], partial=True)
    ha = HierarchicalAutomaton("h", (root, child), "root", {("root", "r"): frozenset({"kid"})})
    config = ha_initial(ha)
    stepped = ha_step(ha, config, "t")
    assert stepped.as_dict() == {"root": "r", "kid": "k0"}


def orthogonal():
    """One state refined into two sibling machines (disjoint subtrees)."""
    root = make_sa("root", ("r",), "r", (), ("t", "u"), delta=[], partial=True)
    left = make_sa("left", ("l0", "l1"), "l0", ("l1",), ("t",),
                   delta=[("l0", "t", "l1"), ("l1", "t", "l0")])
    right = make_sa("right", ("r0", "r1"), "r0", ("r1",), ("t", "u"),
                    delta=[("r0", "t", "r1"), ("r1", "t", "r0"),
                           ("r0", "u", "r0"), ("r1", "u", "r1")])
    return HierarchicalAutomaton(
        "orth", (root, left, right), "root", {("root", "r"): frozenset({"left", "right"})}
    )


def test_orthogonal_children_both_open_and_fire_together():
    ha = orthogonal()
    assert not validate_ha(ha)
    config = ha_initial(ha)
    assert config.as_dict() == {"root": "r", "left": "l0", "right": "r0"}
    config, output, fired = ha_step_with_output(ha, config, "t")
    # both siblings are at the same depth and enabled: both fire
    assert fired == ("left", "right")
    assert output == "t"  # member order decides the reported symbol
    assert config.as_dict() == {"root": "r", "left": "l1", "right": "r1"}
    # a symbol only one sibling knows fires just that one
    config, _, fired = ha_step_with_output(ha, config, "u")
    assert fired == ("right",)
    assert config.as_dict() == {"root": "r", "left": "l1", "right": "r1"}


def test_stuck_when_nothing_enabled():
    root = make_sa("root", ("r",), "r", (), ("t",), delta=[], partial=True)
    ha = HierarchicalAutomaton("h", (root,), "root", {})
    with pytest.raises(StuckError):
        ha_step(ha, ha_initial(ha), "t")


def test_validation_rejects_shared_child_and_rooted_gamma():
    a = make_sa("a", ("a0", "a1"), "a0", (), ("t",), delta=[("a0", "t", "a1"), ("a1", "t", "a0")])
    b = make_sa("b", ("b0",), "b0", (), ("t",), delta=[("b0", "t", "b0")])
    shared = HierarchicalAutomaton(
        "bad", (a, b), "a",
        {("a", "a0"): frozenset({"b"}), ("a", "a1"): frozenset({"b"})},
    )
    assert any(v.invariant == "tree-unique-parent" for v in validate_ha(shared))

    rooted = HierarchicalAutomaton("bad2", (a, b), "a", {("b", "b0"): frozenset({"a"})})
    kinds = {v.invariant for v in validate_ha(rooted)}
    assert "tree-root" in kinds


def test_validation_requires_connectedness():
    a = make_sa("a", ("a0",), "a0", (), ("t",), delta=[("a0", "t", "a0")])
    b = make_sa("b", ("b0",), "b0", (), ("t",), delta=[("b0", "t", "b0")])
    ha = HierarchicalAutomaton("loose", (a, b), "a", {})
    assert any(v.invariant == "tree-connected" for v in validate_ha(ha))


def _config_is_legal(ha, config):
    active = config.as_dict()
    if ha.root not in active:
        return False
    expected = {ha.root}
    queue = [ha.root]
    while queue:
        name = queue.pop()
        state = active[name]
        for child in ha.refinements(name, state):
            if child not in active:
                return False
            expected.add(child)
            queue.append(child)
    return set(active) == expected


@given(st.lists(st.sampled_from(("go", "stop")), max_size=12))
def test_closure_invariant_holds_after_every_step(word):
    ha = two_level()
    config = ha_initial(ha)
    assert _config_is_legal(ha, config)
    for sym in word:
        try:
            config = ha_step(ha, config, sym)
        except StuckError:
            break
        assert _config_is_legal(ha, config)


def test_state_of_answers_for_active_machines_only():
    config = ha_initial(three_level_chain())
    assert [config.state_of(name) for name in "abc"] == ["a0", "b0", "c0"]
    with pytest.raises(KeyError):
        config.state_of("ghost")
