import itertools
import pickle
from collections import Counter
from dataclasses import replace

import pytest

from mimic_automata import (
    DhrStructure,
    MimicError,
    ModelValidationError,
    SerialDhr,
    VoterPolicy,
    build_dhr,
    dhr_initial,
    dhr_run,
    inject_fault,
    ma_initial,
    ma_run,
    serial_run,
    validate_ma,
    vote,
)
from mimic_automata.dhr import FaultTagged, validate_dhr, validate_serial
from mimic_automata.dot import render_config
from mimic_automata.modelfile import parse

from mimic_automata import sa_run

from helpers import (
    MODELS,
    echo_dhr,
    echo_sa,
    flipper_sa,
    identity_ca,
    make_sa,
    rotate_ca,
    uniform_pca,
)


def brute_vote(words, quorum):
    """Counting oracle for strict majority."""
    counts = Counter(words)
    best = counts.most_common()
    top = best[0][1]
    winners = [w for w, c in counts.items() if c == top]
    if top >= quorum and len(winners) == 1:
        return winners[0]
    return None


def test_vote_unanimity():
    voted, dissenters = vote(VoterPolicy(quorum=2), [("a",)] * 3)
    assert voted == ("a",)
    assert dissenters == frozenset()


def test_vote_two_of_three():
    voted, dissenters = vote(VoterPolicy(quorum=2), [("a",), ("a",), ("b",)])
    assert voted == ("a",)
    assert dissenters == frozenset({2})


def test_vote_no_quorum_abstains_without_dissenters():
    voted, dissenters = vote(VoterPolicy(quorum=2), [("a",), ("b",), ("c",)])
    assert voted is None
    assert dissenters == frozenset()


def test_vote_matches_counting_oracle_exhaustively():
    words = [("a",), ("b",), ("a", "b"), ()]
    for picks in itertools.product(words, repeat=3):
        voted, _ = vote(VoterPolicy(quorum=2), list(picks))
        assert voted == brute_vote(picks, 2)


def test_vote_plurality_prefers_listed_words():
    policy = VoterPolicy(kind="plurality", quorum=1, preferences=(("b",),))
    voted, _ = vote(policy, [("a",), ("b",)])
    assert voted == ("b",)
    # without preference the tie breaks lexicographically
    voted, _ = vote(VoterPolicy(kind="plurality", quorum=1), [("b",), ("a",)])
    assert voted == ("a",)


def test_voter_soundness_quorum_respected():
    for picks in itertools.product([("a",), ("b",)], repeat=3):
        voted, _ = vote(VoterPolicy(quorum=2), list(picks))
        if voted is not None:
            assert sum(1 for w in picks if w == voted) >= 2


def test_build_dhr_triple_parity_equals_fanout():
    d = echo_dhr()
    ma = build_dhr(d)
    assert validate_ma(ma) == []
    cfg = ma_initial(ma, ma.root().seed)
    block = ("a", "b", "a")
    cfg, trace = ma_run(ma, cfg, [block])
    per_cell = trace[0].per_cell
    singles = [sa_run(executor, block).output_word for executor in d.executors]
    assert [r.output_word for r in per_cell] == singles


def test_build_dhr_width_one_degenerates():
    e0 = echo_sa("e0", 1)
    d = DhrStructure("solo", (e0,), identity_ca("i1", width=1, states=("0",)), 1,
                     VoterPolicy(quorum=1), ("0",))
    reports = dhr_run(d, [("a",), ("b",)])
    assert [r.voted_output for r in reports] == [("a",), ("b",)]


def test_pca_scheduler_is_seed_determined():
    d = echo_dhr(scheduler=uniform_pca("u3", width=3, states=("0", "1", "2")))
    a = dhr_run(d, [("a",)] * 4, seed=11)
    b = dhr_run(d, [("a",)] * 4, seed=11)
    assert a == b
    lattices = {tuple(r.lattice_after) for s in range(10) for r in dhr_run(d, [("a",)], seed=s)}
    assert len(lattices) > 1


def test_step_unanimity_report():
    d = echo_dhr()
    (report,) = dhr_run(d, [("a",)])
    assert report.voted_output == ("a",)
    assert report.dissenters == frozenset()
    assert report.per_slot_outputs == (("a",),) * 3
    assert report.lattice_before == ("0", "1", "2")


def test_inject_single_flipper_masked():
    d = echo_dhr()
    faulty = inject_fault(d, 1, flipper_sa())
    (report,) = dhr_run(faulty, [("a", "b")])
    assert report.voted_output == ("a", "b")
    assert report.dissenters == frozenset({1})
    assert report.per_slot_outputs[1] == ("b", "a")


def test_inject_into_width_one_no_masking():
    e0 = echo_sa("e0", 1)
    d = DhrStructure("solo", (e0,), identity_ca("i1", width=1, states=("0",)), 1,
                     VoterPolicy(quorum=1), ("0",))
    faulty = inject_fault(d, 0, flipper_sa())
    (report,) = dhr_run(faulty, [("a",)])
    assert report.voted_output == ("b",)


def test_two_identical_faults_capture_majority():
    d = echo_dhr()
    faulty = inject_fault(inject_fault(d, 0, flipper_sa()), 1, flipper_sa())
    (report,) = dhr_run(faulty, [("a",)])
    assert report.voted_output == ("b",)
    assert report.dissenters == frozenset({2})


def test_inject_slot_out_of_range():
    with pytest.raises(MimicError, match=r"\[override-slot\] 3: slot out of range"):
        inject_fault(echo_dhr(), 3, flipper_sa())


def test_inject_alphabet_mismatch_rejected():
    alien = make_sa("alien", ("s",), "s", (), ("z",), delta=[("s", "z", "s")])
    with pytest.raises(ModelValidationError):
        inject_fault(echo_dhr(), 0, alien)


def test_fault_tag_follows_slot_under_rotation():
    d = echo_dhr(scheduler=rotate_ca())
    faulty = inject_fault(d, 1, flipper_sa())
    schedule = [("a",)] * 4
    _, trace = ma_run(faulty.automaton, dhr_initial(faulty), schedule)
    for tick in trace:
        tagged = [i for i, q in enumerate(tick.lattice_before) if isinstance(q, FaultTagged)]
        assert tagged == [1]
    for report in dhr_run(faulty, schedule):
        assert report.dissenters == frozenset({1})
        assert report.voted_output == ("a",)


def test_fault_masking_under_probabilistic_scheduler():
    # the tag must survive random reconfiguration, and one fault stays masked
    pca = uniform_pca("u3", width=3, states=("0", "1", "2"))
    healthy = echo_dhr(scheduler=pca)
    faulty = inject_fault(healthy, 1, flipper_sa())
    for seed in range(8):
        want = [r.voted_output for r in dhr_run(healthy, [("a",), ("b", "a")], seed=seed)]
        got_reports = dhr_run(faulty, [("a",), ("b", "a")], seed=seed)
        got = [r.voted_output for r in got_reports]
        assert want == got
        assert all(r.dissenters == frozenset({1}) for r in got_reports)


def test_scheduler_and_compute_are_separated():
    d = echo_dhr(scheduler=rotate_ca())
    (report,) = dhr_run(d, [("a",)])
    assert report.lattice_before == ("0", "1", "2")
    assert report.lattice_after == ("2", "0", "1")  # outputs computed before the move


def test_run_empty_schedule():
    assert dhr_run(echo_dhr(), []) == []


def test_run_deterministic_scheduler_repeats():
    d = echo_dhr()
    schedule = [("a",), ("b", "a"), ()]
    assert dhr_run(d, schedule) == dhr_run(d, schedule)


# --- serial composition ------------------------------------------------------

def test_serial_two_stages_chain_votes():
    s = SerialDhr("chain", (echo_dhr("st0"), echo_dhr("st1")))
    states, ticks = serial_run(s, [("a",)])
    tick = ticks[0]
    assert tick.aborted_at is None
    assert tick.stage_reports[0].voted_output == ("a",)
    assert tick.stage_reports[1].input_block == ("a",)
    assert tick.output == ("a",)


def test_serial_matches_manual_feeding():
    stage0, stage1 = echo_dhr("st0"), echo_dhr("st1")
    s = SerialDhr("chain", (stage0, stage1))
    schedule = [("a", "b"), ("b",), ("a",)]
    _, ticks = serial_run(s, schedule)

    first = dhr_run(stage0, schedule)
    second = dhr_run(stage1, [r.voted_output for r in first])
    assert [t.output for t in ticks] == [r.voted_output for r in second]


def test_serial_fault_in_one_stage_masked_end_to_end():
    healthy = SerialDhr("h", (echo_dhr("st0"), echo_dhr("st1")))
    faulty = SerialDhr("f", (echo_dhr("st0"), inject_fault(echo_dhr("st1"), 2, flipper_sa())))
    schedule = [("a",), ("b", "b")]
    _, healthy_ticks = serial_run(healthy, schedule)
    _, faulty_ticks = serial_run(faulty, schedule)
    assert [t.output for t in healthy_ticks] == [t.output for t in faulty_ticks]


def test_serial_abstention_aborts():
    # on "bb" the three variants emit bb, aa and ab: no quorum, stage 0 abstains
    v0 = echo_sa("v0", 1)
    v1 = flipper_sa("v1")
    v2 = make_sa("v2", ("s0", "s1"), "s0", ("s0",), ("a", "b"),
                 delta=[("s0", "a", "s1", "a"), ("s0", "b", "s1", "a"),
                        ("s1", "a", "s0", "b"), ("s1", "b", "s0", "b")])
    stage0 = DhrStructure("s0", (v0, v1, v2),
                          identity_ca("i3", width=3, states=("0", "1", "2")), 3,
                          VoterPolicy(quorum=2), ("0", "1", "2"))
    s = SerialDhr("ab", (stage0, echo_dhr("st1")))
    reports = dhr_run(s, [("b", "b"), ("a",)])
    assert len(reports) == 1
    assert reports[0].voted_output is None
    assert reports[0].per_slot_outputs == (("b", "b"), ("a", "a"), ("a", "b"))


@pytest.mark.parametrize("old, new, invariant", [
    ("quorum: 2", "quorum: 4", "quorum-range"),
    ("quorum: 2", "quorum: 0", "quorum-range"),
    ("initial_lattice: 0 1 2", "initial_lattice: 0 1", "initial-lattice-width"),
    ("initial_lattice: 0 1 2", "initial_lattice: 0 1 7", "initial-lattice-range"),
])
def test_text_format_reports_dhr_quorum_and_initial_lattice_violations(old, new, invariant):
    text = (MODELS / "dhr_echo.ma").read_text()
    assert old in text
    _, diagnostics = parse(text.replace(old, new))
    assert any(f"[{invariant}]" in str(diag) for diag in diagnostics)


@pytest.mark.parametrize("old, new, invariant", [
    ("executors: e0 e1 e2", "executors:", "executors-nonempty"),
    ("executors: e0 e1 e2", "executors: e0 e1", "executors-per-state"),
    ("width: 3\n  voter", "width: 0\n  voter", "width-positive"),
    ("width: 3\n  voter", "width: 4\n  voter", "scheduler-width"),
])
def test_text_format_reports_dhr_executor_and_width_violations(old, new, invariant):
    text = (MODELS / "dhr_echo.ma").read_text()
    assert text.count(old) == 1
    _, diagnostics = parse(text.replace(old, new))
    assert any(f"dhr echo3: [{invariant}]" in str(diag) for diag in diagnostics)


@pytest.mark.parametrize("slot, faulty, invariant", [
    (3, flipper_sa(), "override-slot"),
    (0, make_sa("alien", ("s",), "s", (), ("z",), delta=[("s", "z", "s")]), "override-alphabets"),
])
def test_validate_dhr_reports_overrides_that_inject_fault_refuses(slot, faulty, invariant):
    structure = replace(echo_dhr(), overrides={slot: faulty})
    report = validate_dhr(structure)
    assert [v.invariant for v in report] == [invariant]
    with pytest.raises(ModelValidationError):
        structure.check()
    with pytest.raises(ModelValidationError) as exc:
        inject_fault(echo_dhr(), slot, faulty)
    assert exc.value.violations == report


def test_single_stage_serial_rejected():
    assert any(v.invariant == "serial-length" for v in validate_serial(SerialDhr("one", (echo_dhr(),))))


def test_fault_masking_exhaustive_small():
    blocks = [tuple(w) for n in range(0, 4) for w in itertools.product("ab", repeat=n)]
    for scheduler in (identity_ca("i3", width=3, states=("0", "1", "2")), rotate_ca()):
        d = echo_dhr(scheduler=scheduler)
        for slot in range(3):
            faulty = inject_fault(d, slot, flipper_sa())
            for block in blocks:
                healthy_reports = dhr_run(d, [block])
                faulty_reports = dhr_run(faulty, [block])
                assert healthy_reports[0].voted_output == faulty_reports[0].voted_output


def test_fault_tagged_hashes_once_as_its_fields_and_compares_by_them():
    tagged = FaultTagged("1", 2)
    assert hash(tagged) == hash(("1", 2)) == hash(FaultTagged("1", 2))
    assert tagged == FaultTagged("1", 2)
    assert tagged != FaultTagged("1", 0) and tagged != FaultTagged("0", 2) and tagged != ("1", 2)
    assert replace(tagged, slot=0) == FaultTagged("1", 0)
    assert hash(replace(tagged, slot=0)) == hash(("1", 0))
    assert pickle.loads(pickle.dumps(tagged)) == tagged
    assert tagged.__reduce__() == (FaultTagged, ("1", 2))  # the hash is recomputed where it is loaded


def test_fault_tagged_cells_render_with_their_slot():
    injected = inject_fault(echo_dhr(), 1, flipper_sa())
    assert str(FaultTagged("1", 2)) == "1!f2"
    assert render_config(dhr_initial(injected)).startswith("[0 1!f1 2]")


def test_vote_refuses_an_unknown_voter_kind():
    with pytest.raises(MimicError, match="unknown voter kind 'loudest'"):
        vote(VoterPolicy(kind="loudest"), [("a",), ("a",), ("b",)])


def test_a_structure_without_an_initial_lattice_starts_every_slot_at_the_first_scheduler_state():
    d = replace(echo_dhr(), initial_lattice=None)
    assert d.start_lattice() == ("0", "0", "0")
    assert dhr_run(d, [("a",), ("b",)]) == dhr_run(replace(d, initial_lattice=("0", "0", "0")), [("a",), ("b",)])


def test_a_widened_rule_table_over_its_cap_is_refused_before_it_is_built():
    # 3 states and 4 injected slots give 15 states; radius 2 gives 15^5 = 759,375 neighborhoods
    d = echo_dhr(scheduler=identity_ca("r2", width=4, states=("0", "1", "2"), radius=2))
    d = replace(d, width=4, initial_lattice=("0", "1", "2", "0"))
    for slot in range(4):
        d = inject_fault(d, slot, flipper_sa())
    with pytest.raises(MimicError, match=r"widened rule table needs 759375 entries \(cap 250000\)"):
        build_dhr(d)
