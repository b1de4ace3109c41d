import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from mimic_automata import InputRejectedError, MimicError, sa_run, sa_step, validate_sa
from helpers import gen_sa, make_sa, parity_sa


def test_step_parity_table():
    sa = parity_sa()
    assert sa_step(sa, "even", "1") == ("odd", "1")
    assert sa_step(sa, "even", "0") == ("even", "0")
    assert sa_step(sa, "odd", "1") == ("even", "1")


def test_run_101_traces_three_steps():
    # hand trace: even -1-> odd -0-> odd -1-> even
    result = sa_run(parity_sa(), "101")
    assert result.final_state == "even"
    assert result.accepted  # even is final
    assert result.steps == 3
    assert result.output_word == ("1", "0", "1")


def test_run_empty_word_is_identity():
    result = sa_run(parity_sa(), "")
    assert result.final_state == "even"
    assert result.steps == 0
    assert result.output_word == ()


def test_run_single_symbol():
    assert sa_run(parity_sa(), "1").final_state == "odd"


def test_run_rejects_foreign_symbol_with_position():
    with pytest.raises(InputRejectedError) as exc:
        sa_run(parity_sa(), ("1", "2", "0"))
    assert exc.value.position == 1
    assert exc.value.symbol == "2"


def test_partial_map_gets_stuck_and_rejects():
    sa = make_sa(
        "half", ("even", "odd"), "even", ("even",), ("0", "1"),
        delta=[("even", "1", "odd"), ("even", "0", "even"), ("odd", "1", "even")],
        partial=True,
    )
    assert not validate_sa(sa)
    stuck = sa_run(sa, "10")  # odd has no '0' transition
    assert stuck.final_state == "odd"
    assert not stuck.accepted
    assert stuck.steps == 1
    assert stuck.output_word == ("1",)


def test_validation_flags_missing_transition():
    sa = make_sa(
        "broken", ("even", "odd"), "even", ("even",), ("0", "1"),
        delta=[("even", "0", "even"), ("even", "1", "odd"), ("odd", "1", "even")],
    )
    report = validate_sa(sa)
    assert [v.invariant for v in report] == ["totality"]
    assert report[0].subject == "(odd,0)"


def test_validation_flags_bad_targets_and_memberships():
    sa = make_sa(
        "bad", ("a",), "ghost", ("b",), ("0",),
        delta=[("a", "0", "nowhere", "9")],
    )
    kinds = {v.invariant for v in validate_sa(sa)}
    assert "initial-membership" in kinds
    assert "finals-membership" in kinds
    assert "transition-target" in kinds
    assert "output-range" in kinds


def _edit(transitions, outputs, key, target, output):
    """Copies of both maps with ``key`` set to ``target``/``output``, or removed where None."""
    transitions, outputs = dict(transitions), dict(outputs)
    transitions.pop(key, None)
    outputs.pop(key, None)
    if target is not None:
        transitions[key] = target
    if output is not None:
        outputs[key] = output
    return transitions, outputs


EDITS = {  # name -> the invariant it breaks, and the edit of (transitions, outputs, an existing key)
    "target": ("transition-target", lambda t, o, k: _edit(t, o, k, "zz", o[k])),
    "output": ("output-range", lambda t, o, k: _edit(t, o, k, t[k], "zz")),
    "no-output": ("output-totality", lambda t, o, k: _edit(t, o, k, t[k], None)),
    "no-transition": ("output-domain", lambda t, o, k: _edit(t, o, (k[0], "zz"), None, "x")),
    "source": ("transition-domain", lambda t, o, k: _edit(t, o, ("zz", k[1]), t[k], o[k])),
    "symbol": ("transition-domain", lambda t, o, k: _edit(t, o, (k[0], "zz"), t[k], o[k])),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_validation_finds_each_transition_and_output_violation(edit):
    invariant, apply = EDITS[edit]
    for seed in range(20):
        sa = gen_sa(random.Random(seed), "g")
        assert validate_sa(sa) == []
        key = random.Random(seed).choice(sorted(sa.transitions))
        transitions, outputs = apply(sa.transitions, sa.outputs, key)
        report = validate_sa(dataclasses.replace(sa, transitions=transitions, outputs=outputs))
        assert invariant in [v.invariant for v in report], f"seed {seed}"


@st.composite
def total_machines(draw):
    n = draw(st.integers(1, 4))
    states = tuple(f"s{i}" for i in range(n))
    inputs = ("a", "b")
    delta = []
    for s in states:
        for sym in inputs:
            delta.append((s, sym, states[draw(st.integers(0, n - 1))],
                          draw(st.sampled_from(("x", "y")))))
    finals = tuple(s for s in states if draw(st.booleans()))
    return make_sa("rand", states, states[0], finals, inputs, ("x", "y"), delta)


@given(total_machines(), st.lists(st.sampled_from(("a", "b")), max_size=8))
def test_run_is_deterministic_and_matches_manual_fold(sa, word):
    first = sa_run(sa, word)
    second = sa_run(sa, word)
    assert first == second

    state = sa.initial
    outputs = []
    for sym in word:
        outputs.append(sa.outputs[(state, sym)])
        state = sa.transitions[(state, sym)]
    assert first.final_state == state
    assert first.output_word == tuple(outputs)
    assert first.accepted == (state in sa.finals)
    assert first.steps == len(word)


@pytest.mark.parametrize("state, symbol, error, message", [
    ("ghost", "0", MimicError, "parity: unknown state 'ghost'"),
    ("even", "z", InputRejectedError, "input symbol 'z' rejected at position 0"),
    ("odd", "1", MimicError, "parity: no transition on ('odd', '1') (partial map)"),
])
def test_step_refuses_an_unknown_state_a_foreign_symbol_and_a_missing_transition(state, symbol, error, message):
    sa = dataclasses.replace(parity_sa(), allow_partial=True,
                             transitions={k: v for k, v in parity_sa().transitions.items() if k != ("odd", "1")})
    with pytest.raises(error) as caught:
        sa_step(sa, state, symbol)
    assert str(caught.value) == message
