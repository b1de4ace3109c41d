"""The memoised replay that every replay loop holds, and the sliced lattice step.

``ma_run``, ``dhr_run``, ``serial_run``, per-trial Monte Carlo, nested
units and ``replay_path`` hold one ``_replay`` per call, for either mode.
It carries interned states: a row names one (unit, unit state) and learns
its run on each block once, a deterministic lattice learns its step and
fresh units once, a nested unit runs every tick, each inner seed lattice
runs once, and a probabilistic lattice builds its sampling rows once and
draws once per tick. These tests fold the reference interpreter's tick
over long schedules and require every tick and the final configuration,
clocks included; they count the work and the configurations built, pin
the first error, and check the padded ``ca_step``, ``pca_step`` and
``pca_step_distribution`` against the reference's ``ref_neighborhood``
form.
"""

import itertools
import random
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mimic_automata.cellular as cellular
import mimic_automata.composition as composition
import mimic_automata.dhr as dhr
from mimic_automata import (
    Binding,
    CellularAutomaton,
    DhrStructure,
    InputRejectedError,
    MODE_CA_FROM_SA,
    MODE_SA_FROM_CA,
    MimicAutomaton,
    MimicConfiguration,
    NestedUnit,
    ProbabilisticCellularAutomaton,
    SaUnit,
    SerialDhr,
    VoterPolicy,
    dhr_initial,
    dhr_run,
    inject_fault,
    ma_initial,
    ma_run,
    serial_run,
    vote,
)
from mimic_automata.cellular import ca_step, pca_step, pca_step_distribution
from mimic_automata.composition import _replay
from mimic_automata.dhr import base_state
from mimic_automata.rng import master_stream

from helpers import (
    ALPHABET,
    echo_dhr,
    echo_sa,
    flipper_sa,
    gen_instance,
    gen_nested_pca_instance,
    gen_pca_instance,
    gen_sa,
    identity_ca,
    make_sa,
    plain,
    rotate_ca,
    uniform_pca,
    x11_parity_ma,
)
from reference_interpreter import (
    ref_ca_run,
    ref_ca_step,
    ref_mode1_tick,
    ref_mode2_tick,
    ref_neighborhood,
    ref_pca_distribution,
    ref_pca_step,
    ref_readout,
    ref_run_unit,
    ref_unit_initial,
)


def long_schedule(rnd, ticks=24, max_len=2):
    """Blocks over the generators' alphabet, few enough that most ticks repeat one."""
    return [tuple(rnd.choice(ALPHABET) for _ in range(rnd.randint(0, max_len))) for _ in range(ticks)]


def plain_result(result):
    return (plain(result.final_state), result.output_word, result.steps, result.accepted)


def reference_fold(ma, lattice0, schedule):
    """Per tick (lattice before, lattice after, per-cell records, output, inner run's final lattice,
    readout symbol), and the final configuration."""
    binding = ma.root()
    cfg = plain(ma_initial(ma, lattice0))
    ticks = []
    for entry in schedule:
        before = cfg[1]
        if binding.mode == MODE_SA_FROM_CA:
            cfg, per_cell, output = ref_mode1_tick(ma, binding, cfg, tuple(entry))
            final = symbol = None
        else:
            cfg, output = ref_mode2_tick(ma, binding, cfg, tuple(entry))
            per_cell = None
            final = ref_ca_run(ma.ca_set[binding.ca], tuple(entry), binding.t_max)[-1]
            symbol = ref_readout(binding.readout, final)
        ticks.append((before, cfg[1], per_cell, output, final, symbol))
    return ticks, cfg


def replayed(ma, lattice0, schedule, seed=None):
    final, trace = ma_run(ma, ma_initial(ma, lattice0), schedule, seed=seed)
    ticks = [
        (
            tick.lattice_before,
            tick.lattice_after,
            None if tick.per_cell is None else tuple(plain_result(r) for r in tick.per_cell),
            tick.output,
            None if tick.inner_run is None else tick.inner_run.trace[-1],
            tick.readout_symbol,
        )
        for tick in trace
    ]
    return ticks, plain(final)


def test_ma_run_equals_a_reference_fold_on_every_generated_flavor():
    flavors = set()
    compared = 0
    for seed in range(60):
        rnd = random.Random(seed)
        ma, lattice0, schedule = gen_instance(rnd)
        binding = ma.root()
        if binding.mode == MODE_SA_FROM_CA:
            schedule = schedule + long_schedule(rnd)
        try:
            expected = reference_fold(ma, lattice0, schedule)
        except (KeyError, ValueError):
            with pytest.raises(Exception):
                replayed(ma, lattice0, schedule)
            continue
        assert replayed(ma, lattice0, schedule) == expected, f"seed {seed}"
        compared += 1
        units = binding.cell_map.values()
        if binding.mode == MODE_CA_FROM_SA:
            flavors.add("mode2")
        elif any(isinstance(u, NestedUnit) for u in units):
            flavors.add("nested")
        elif all(isinstance(u, SaUnit) for u in units):
            flavors.add("plain")
        else:
            flavors.add("ha")
    assert flavors == {"plain", "ha", "nested", "mode2"}
    assert compared >= 50


def generated_dhr(seed=0):
    """Three generated machines on a still lattice: the votes vary from tick to tick."""
    rnd = random.Random(seed)
    executors = tuple(gen_sa(rnd, f"g{i}") for i in range(3))
    scheduler = identity_ca("ident3", width=3, states=("0", "1", "2"))
    return DhrStructure("gen3", executors, scheduler, 3, VoterPolicy(), ("0", "1", "2"))


def twin_sa(name="twin"):
    """The states of ``echo_sa("e1", 2)``, s0 and s1, under other moves and outputs."""
    return make_sa(name, ("s0", "s1"), "s0", ("s1",), ("a", "b"),
                   delta=[("s0", "a", "s0", "b"), ("s0", "b", "s1", "a"),
                          ("s1", "a", "s1", "a"), ("s1", "b", "s0", "b")])


STRUCTURES = [
    echo_dhr(scheduler=rotate_ca()),
    inject_fault(echo_dhr(scheduler=rotate_ca()), 1, flipper_sa()),
    inject_fault(echo_dhr(quorum=3), 0, flipper_sa()),
    generated_dhr(),
    # the faulty variant and e1 share state names: a row is a (unit, state), not a state
    inject_fault(echo_dhr(scheduler=rotate_ca()), 1, twin_sa()),
]
STRUCTURE_IDS = ["rotating", "rotating-injected", "injected-quorum3", "generated", "same-state-names"]


def reference_dhr_tick(structure, cfg, block):
    """The reference tick plus ``vote``, reported the way ``DhrStepReport`` reports it."""
    ma = structure.automaton
    new_cfg, per_cell, _ = ref_mode1_tick(ma, ma.root(), cfg, block)
    words = tuple(record[1] for record in per_cell)
    voted, dissenters = vote(structure.voter, words)
    report = (block, words, voted, dissenters,
              tuple(base_state(q) for q in cfg[1]), tuple(base_state(q) for q in new_cfg[1]))
    return new_cfg, report


def report_tuple(report):
    return (report.input_block, report.per_slot_outputs, report.voted_output, report.dissenters,
            report.lattice_before, report.lattice_after)


@pytest.mark.parametrize("structure", STRUCTURES, ids=STRUCTURE_IDS)
def test_dhr_run_equals_a_reference_fold_plus_vote(structure):
    schedule = long_schedule(random.Random(7), ticks=40, max_len=3)
    cfg = plain(dhr_initial(structure))
    expected = []
    for block in schedule:
        cfg, report = reference_dhr_tick(structure, cfg, block)
        expected.append(report)
    assert [report_tuple(r) for r in dhr_run(structure, schedule)] == expected
    # the final configuration, clocks included, through the same stepper in ma_run
    ma = structure.automaton
    final, _ = ma_run(ma, dhr_initial(structure), schedule)
    assert plain(final) == cfg


def test_serial_run_equals_a_reference_fold_stage_by_stage():
    stages = (STRUCTURES[0], inject_fault(echo_dhr("st1"), 2, flipper_sa()))
    s = SerialDhr("pipe", stages)
    schedule = long_schedule(random.Random(3), ticks=30, max_len=3)
    states = [plain(dhr_initial(stage)) for stage in stages]
    expected = []
    for block in schedule:
        word = block
        reports = []
        for i, stage in enumerate(stages):
            states[i], report = reference_dhr_tick(stage, states[i], word)
            reports.append(report)
            word = report[2]
            if word is None:
                break
        expected.append(reports)
        if word is None:
            break
    final, ticks = serial_run(s, schedule)
    assert [[report_tuple(r) for r in tick.stage_reports] for tick in ticks] == expected
    assert [plain(cfg) for cfg in final] == states


def assert_shared_reports(reports):
    """One frozen report object per distinct report, and some ticks share one; equal dissenter sets are one set."""
    assert len({id(r) for r in reports}) == len({report_tuple(r) for r in reports}) < len(reports)
    assert len({id(r.dissenters) for r in reports}) == len({r.dissenters for r in reports})
    with pytest.raises(FrozenInstanceError):
        reports[0].voted_output = None


SHARING_STRUCTURES = STRUCTURES + [
    echo_dhr(scheduler=uniform_pca("u3", width=3, states=("0", "1", "2"))),
    inject_fault(echo_dhr(scheduler=uniform_pca("u3", width=3, states=("0", "1", "2"))), 2, flipper_sa()),
]


@pytest.mark.parametrize("structure", SHARING_STRUCTURES, ids=STRUCTURE_IDS + ["pca", "pca-injected"])
def test_ticks_with_equal_outcomes_share_one_report_and_one_vote_per_word_tuple(monkeypatch, structure):
    votes = []
    real_vote = dhr.vote

    def counting_vote(policy, words):
        votes.append(words)
        return real_vote(policy, words)

    monkeypatch.setattr(dhr, "vote", counting_vote)
    reports = dhr_run(structure, long_schedule(random.Random(5), ticks=200, max_len=2), seed=3)
    assert_shared_reports(reports)
    assert len(votes) == len(set(votes)) == len({r.per_slot_outputs for r in reports})


def test_serial_stages_share_one_report_per_distinct_report():
    s = SerialDhr("pipe", (STRUCTURES[0], inject_fault(echo_dhr("st1"), 2, flipper_sa())))
    _, ticks = serial_run(s, long_schedule(random.Random(4), ticks=200, max_len=2))
    assert len(ticks) == 200
    for stage in range(2):
        assert_shared_reports([tick.stage_reports[stage] for tick in ticks])


def test_seeded_pca_runs_equal_a_neighborhood_of_reference():
    for seed in range(40):
        rnd = random.Random(seed)
        ma, lattice0 = gen_pca_instance(rnd)
        binding = ma.root()
        schedule = long_schedule(rnd, ticks=30)
        run_seed = rnd.randrange(1000)
        ticks, final = replayed(ma, lattice0, schedule, seed=run_seed)

        rng = master_stream(run_seed)
        cfg = plain(ma_initial(ma, lattice0))
        for i, block in enumerate(schedule):
            _, lattice, units, clock, outer = cfg
            ran, per_cell = [], []
            for j, q in enumerate(lattice):
                state, record = ref_run_unit(ma, binding.cell_map[q], units[j], block)
                ran.append(state)
                per_cell.append(record)
            after = ref_pca_step(ma.ca_set[binding.ca], lattice, rng)
            units = tuple(state if after[j] == lattice[j] else ref_unit_initial(ma, binding.cell_map[after[j]])
                          for j, state in enumerate(ran))
            cfg = ("cfg", after, units, clock + 1, outer)
            output = per_cell[0][1] if per_cell else ()
            assert ticks[i] == (lattice, after, tuple(per_cell), output, None, None), f"seed {seed}, tick {i}"
        assert final == cfg, f"seed {seed}"


def test_nested_probabilistic_lattices_draw_as_a_reference_fold():
    # a nested unit runs every tick, so each tick draws its lattice's uniforms
    # before the root's, even where a fresh nested entry is shared by several ticks
    compared = 0
    for seed in range(40):
        rnd = random.Random(seed)
        ma, lattice0 = gen_nested_pca_instance(rnd)
        binding = ma.root()
        schedule = long_schedule(rnd, ticks=30)
        run_seed = rnd.randrange(1000)
        rng = master_stream(run_seed)
        cfg = plain(ma_initial(ma, lattice0))
        expected = []
        try:
            for block in schedule:
                lattice = cfg[1]
                cfg, per_cell, output = ref_mode1_tick(ma, binding, cfg, block, rng)
                expected.append((lattice, cfg[1], per_cell, output, None, None))
        except (KeyError, InputRejectedError):
            with pytest.raises((KeyError, InputRejectedError)):
                replayed(ma, lattice0, schedule, seed=run_seed)
            continue
        assert replayed(ma, lattice0, schedule, seed=run_seed) == (expected, cfg), f"seed {seed}"
        compared += 1
    assert compared >= 20


def test_each_pure_run_happens_once_and_each_lattice_steps_once(monkeypatch):
    ma = x11_parity_ma()
    binding = ma.root()
    schedule = long_schedule(random.Random(5), ticks=200)
    schedule = [tuple("1" if s == "a" else "0" for s in block) for block in schedule]
    cfg = ma_initial(ma, binding.seed)
    triples, pairs = set(), set()
    for block in schedule:  # the unit states each tick starts from, by one-shot steps
        triples.update(zip((binding.cell_map[q] for q in cfg.lattice), cfg.unit_states,
                           itertools.repeat(block)))
        encode, step, decode = _replay(ma, binding, 1)
        nxt = decode(step(encode(cfg), block, None)[0], cfg.macro_clock + 1)
        pairs.add((cfg.lattice, nxt.lattice))
        cfg = nxt

    runs, steps, rebinds = [], [], []
    run_unit, step, fresh_units = composition._run_unit, composition.ca_step, composition._fresh_units

    def counting_run(ma, unit, state, block, *rest):
        runs.append((unit, state, block))
        return run_unit(ma, unit, state, block, *rest)

    def counting_step(ca, lattice):
        steps.append(lattice)
        return step(ca, lattice)

    def counting_fresh(ma, binding, before, after, depth):
        rebinds.append((before, after))
        return fresh_units(ma, binding, before, after, depth)

    monkeypatch.setattr(composition, "_run_unit", counting_run)
    monkeypatch.setattr(composition, "ca_step", counting_step)
    monkeypatch.setattr(composition, "_fresh_units", counting_fresh)
    final, trace = ma_run(ma, ma_initial(ma, binding.seed), schedule)
    assert final.macro_clock == len(schedule)
    assert len(runs) == len(set(runs)) == len(triples) < len(schedule) * 11 // 10
    assert set(runs) == triples
    assert len(steps) == len(set(steps)) == len({tick.lattice_before for tick in trace})
    assert len(rebinds) == len(set(rebinds)) == len(pairs)
    assert plain(final) == plain(cfg)


def test_steps_and_inner_runs_happen_once_per_lattice_and_samples_once_per_tick(monkeypatch):
    calls = {"ca_step": [], "ca_run": [], "pca_rows": []}  # per function: (automaton, lattice) per call
    modules = {"ca_step": composition, "ca_run": composition, "pca_rows": cellular}
    real = {name: getattr(modules[name], name) for name in calls}
    draws = []  # the rows of each pca_sample call
    real_sample = cellular.pca_sample

    def counting_sample(rows, rng):
        draws.append(rows)
        return real_sample(rows, rng)

    def counting(name):
        def call(ca, lattice, *rest):
            calls[name].append((ca.name, lattice))
            return real[name](ca, lattice, *rest)

        return call

    for name in calls:
        monkeypatch.setattr(modules[name], name, counting(name))
    monkeypatch.setattr(cellular, "pca_sample", counting_sample)
    flavors = set()
    for seed in range(80):
        rnd = random.Random(seed)
        ma, lattice0, _ = gen_instance(rnd)
        binding = ma.root()
        if binding.mode == MODE_SA_FROM_CA:
            schedule = long_schedule(rnd, ticks=40)
        else:  # seed lattices drawn from a few, so most repeat
            seeds = [tuple(rnd.choice(ALPHABET) for _ in binding.seed) for _ in range(3)]
            schedule = [rnd.choice(seeds) for _ in range(40)]
        for lattice_calls in calls.values():
            lattice_calls.clear()
        try:
            _, trace = ma_run(ma, ma_initial(ma, lattice0), schedule)
        except (KeyError, InputRejectedError):
            continue
        flavors.add(binding.mode)
        # every binding has its own automaton and each run holds one stepper per binding
        assert len(calls["ca_step"]) == len(set(calls["ca_step"])), f"seed {seed}"
        assert len(calls["ca_run"]) == len(set(calls["ca_run"])), f"seed {seed}"
        assert calls["pca_rows"] == draws == []
        if binding.mode == MODE_SA_FROM_CA:
            root = [lattice for ca, lattice in calls["ca_step"] if ca == binding.ca]
            assert set(root) == {tick.lattice_before for tick in trace}, f"seed {seed}"
        else:
            assert {lattice for ca, lattice in calls["ca_run"] if ca == binding.ca} == set(schedule)
            assert len(set(schedule)) < len(schedule)
    assert flavors == {MODE_SA_FROM_CA, MODE_CA_FROM_SA}

    sampled = 0
    for seed in range(20):
        rnd = random.Random(seed)
        ma, lattice0 = gen_pca_instance(rnd)
        schedule = long_schedule(rnd, ticks=40)
        calls["pca_rows"].clear()
        draws.clear()
        try:
            _, trace = ma_run(ma, ma_initial(ma, lattice0), schedule, seed=seed)
        except (KeyError, InputRejectedError):
            continue
        befores = [(ma.root().ca, tick.lattice_before) for tick in trace]
        assert calls["pca_rows"] == list(dict.fromkeys(befores)), f"seed {seed}"  # first-seen order
        assert len(draws) == len(trace), f"seed {seed}"
        assert len(set(befores)) < len(befores)
        sampled += 1
    assert sampled >= 10


def test_nested_units_run_every_tick_and_votes_happen_once_per_word_tuple(monkeypatch):
    nested_runs, votes = [], []
    run_unit, real_vote = composition._run_unit, dhr.vote

    def counting_run(ma, unit, state, block, rng, depth, cell, steppers):
        if isinstance(unit, NestedUnit) and depth == 1:
            nested_runs.append(cell)
        return run_unit(ma, unit, state, block, rng, depth, cell, steppers)

    def counting_vote(policy, words):
        votes.append(words)
        return real_vote(policy, words)

    monkeypatch.setattr(composition, "_run_unit", counting_run)
    monkeypatch.setattr(dhr, "vote", counting_vote)
    for seed in range(60):
        rnd = random.Random(seed)
        ma, lattice0, _ = gen_instance(rnd)
        if ma.root().mode != MODE_SA_FROM_CA:
            continue
        schedule = long_schedule(rnd)
        nested_runs.clear()
        try:
            _, trace = ma_run(ma, ma_initial(ma, lattice0), schedule)
        except (KeyError, InputRejectedError):
            continue
        cell_map = ma.root().cell_map
        expected = sum(isinstance(cell_map[q], NestedUnit) for t in trace for q in t.lattice_before)
        assert len(nested_runs) == expected, f"seed {seed}"

    reports = dhr_run(STRUCTURES[3], long_schedule(random.Random(9), ticks=60, max_len=3))
    assert len(votes) == len(set(votes)) == len({r.per_slot_outputs for r in reports})


def test_a_run_builds_each_replay_once_however_many_ticks(monkeypatch):
    builds = []
    real_replay = composition._replay

    def counting_replay(ma, binding, depth):
        builds.append(binding.name)
        return real_replay(ma, binding, depth)

    monkeypatch.setattr(composition, "_replay", counting_replay)
    compared = 0
    for seed in range(60):
        rnd = random.Random(seed)
        ma, lattice0, _ = gen_instance(rnd)
        cell_map = ma.root().cell_map
        if ma.root().mode != MODE_SA_FROM_CA or not any(isinstance(u, NestedUnit) for u in cell_map.values()):
            continue
        schedule = long_schedule(rnd, ticks=200)
        counts = []
        for ticks in (10, 200):
            builds.clear()
            try:
                _, trace = ma_run(ma, ma_initial(ma, lattice0), schedule[:ticks])
            except (KeyError, InputRejectedError):
                break
            hosted = {cell_map[q] for t in trace for q in t.lattice_before if isinstance(cell_map[q], NestedUnit)}
            # the root's replay, then one per nested binding, built at its first run
            assert len(builds) == 1 + len(hosted), f"seed {seed}, {ticks} ticks"
            counts.append(len(builds))
        else:
            assert counts[0] == counts[1], f"seed {seed}"
            compared += 1
    assert compared >= 10


def test_ticks_build_no_configuration_and_hash_fault_tags_per_lattice_not_per_tick(monkeypatch):
    builds, hashes = [], []
    real_post, real_hash = MimicConfiguration.__post_init__, dhr.FaultTagged.__hash__

    def counting_post(cfg):
        builds.append(cfg)
        real_post(cfg)

    def counting_hash(tagged):
        hashes.append(tagged)
        return real_hash(tagged)

    injected = inject_fault(echo_dhr(scheduler=rotate_ca()), 1, flipper_sa())
    injected.automaton  # widening the scheduler hashes every tagged neighborhood once, before the count
    pca = x11_parity_ma()
    pca = MimicAutomaton(pca.name, pca.sa_set, {"x11": uniform_pca("x11", width=11)}, {}, pca.bindings,
                         pca.root_binding)
    monkeypatch.setattr(MimicConfiguration, "__post_init__", counting_post)
    monkeypatch.setattr(dhr.FaultTagged, "__hash__", counting_hash)
    schedule = long_schedule(random.Random(8), ticks=2000, max_len=3)
    counts = []
    for ticks in (200, 2000):
        builds.clear()
        hashes.clear()
        reports = dhr_run(injected, schedule[:ticks])
        lattices = {r.lattice_before for r in reports} | {r.lattice_after for r in reports}
        assert len(builds) == 1  # the initial configuration
        # the set-up, then per distinct lattice its step, its number and its fresh units
        assert len(hashes) <= 16 * len(lattices), ticks
        counts.append(len(hashes))

        builds.clear()
        bits = [tuple("1" if s == "a" else "0" for s in block) for block in schedule[:ticks]]
        final, trace = ma_run(pca, ma_initial(pca, pca.root().seed), bits, seed=4)
        assert len(builds) == 2  # the initial configuration and the final one
        assert final.macro_clock == len(trace) == ticks
    assert counts[0] == counts[1]


def test_a_replay_where_no_row_repeats_numbers_one_row_per_visited_unit_state(monkeypatch):
    numbered = []
    real_numbering = composition._numbering

    def recording_numbering(values):
        numbered.append(values)
        return real_numbering(values)

    # three counters with more states than the schedule has symbols, on a still lattice
    sas = {f"k{n}": echo_sa(f"k{n}", n) for n in (200, 201, 202)}
    b = Binding("b", MODE_SA_FROM_CA, "still3", {str(j): SaUnit(f"k{200 + j}") for j in range(3)},
                seed=("0", "1", "2"))
    ma = MimicAutomaton("noreuse", sas, {"still3": identity_ca("still3", 3, ("0", "1", "2"))}, {}, {"b": b}, "b")
    rnd = random.Random(12)
    schedule = [tuple(rnd.choice("ab") for _ in range(rnd.randint(1, 3))) for _ in range(60)]
    monkeypatch.setattr(composition, "_numbering", recording_numbering)
    ticks, final = replayed(ma, b.seed, schedule)
    assert (ticks, final) == reference_fold(ma, b.seed, schedule)
    visited = {(b.cell_map[str(j)], state) for j, state in enumerate(ma_initial(ma, b.seed).unit_states)}
    visited |= {(b.cell_map[str(j)], record[0]) for tick in ticks for j, record in enumerate(tick[2])}
    # one numbering of lattices and one of rows, each row a (unit, unit state) pair
    rows = [values for values in numbered if values and isinstance(values[0][0], SaUnit)]
    assert len(numbered) == 2 and len(rows) == 1
    assert len(rows[0]) == len(visited) == 3 * (len(schedule) + 1)
    assert set(rows[0]) == visited


def late_rejection_ma():
    """Two cells on a machine over {a, b, c}; after one tick cell 1 hosts one over {a, b}."""
    wide = echo_sa("wide", 1, inputs=("a", "b", "c"))
    ab = echo_sa("ab", 2, inputs=("a", "b"))
    rule = {nb: nb[1] for nb in itertools.product(("0", "1"), repeat=3)}
    rule[("0", "0", "1")] = "1"
    ca = CellularAutomaton("late", ("0", "1"), 2, 1, boundary="fixed", boundary_value="1", rule=rule)
    b = Binding("b", MODE_SA_FROM_CA, "late", {"0": SaUnit("wide"), "1": SaUnit("ab")}, seed=("0", "0"))
    return MimicAutomaton("late", {"wide": wide, "ab": ab}, {"late": ca}, {}, {"b": b}, "b")


def test_a_rejection_after_table_hits_raises_the_unmemoised_message():
    # tick 1 fills cell 0's ("c",) run, which tick 2 reuses; cell 1 then
    # hosts "ab" and rejects "c", so the error must name cell 1
    ma = late_rejection_ma()
    start = ma_initial(ma, ("0", "0"))
    with pytest.raises(InputRejectedError) as exc:
        ma_run(ma, start, [("c",), ("a",), ("c",)])
    assert str(exc.value) == "input symbol 'c' rejected at cell 1, position 0"
    # a run that raised is not stored: the same replay raises it again
    encode, step, decode = _replay(ma, ma.root(), 1)
    state = step(encode(start), ("c",), None)[0]
    for _ in range(2):
        with pytest.raises(InputRejectedError) as exc:
            step(state, ("a", "c"), None)
        assert str(exc.value) == "input symbol 'c' rejected at cell 1, position 1"
    # when both cells reject, the earlier one fails first, as in an unmemoised step
    with pytest.raises(InputRejectedError) as exc:
        step(state, ("d",), None)
    assert str(exc.value) == "input symbol 'd' rejected at cell 0, position 0"
    # an unmapped cell state fails at its own cell, after the cells before it ran
    cfg = decode(state, 1)
    unmapped = encode(MimicConfiguration(("0", "9"), cfg.unit_states, cfg.macro_clock))
    with pytest.raises(KeyError) as exc:
        step(unmapped, ("a",), None)
    assert exc.value.args == ("9",)
    with pytest.raises(InputRejectedError, match="cell 0, position 0"):
        step(unmapped, ("d",), None)


# --- the padded lattice step against the reference's neighborhood form -------


@st.composite
def lattice_rules(draw):
    n_states = draw(st.integers(1, 3))
    radius = draw(st.integers(1, 4 if n_states <= 2 else 2))
    width = draw(st.integers(1, 5))
    states = tuple(str(i) for i in range(n_states))
    boundary = draw(st.sampled_from(["periodic", "fixed"]))
    boundary_value = draw(st.sampled_from(states)) if boundary == "fixed" else None
    rnd = random.Random(draw(st.integers(0, 2**32)))
    neighborhoods = list(itertools.product(states, repeat=2 * radius + 1))
    rule = {nb: rnd.choice(states) for nb in neighborhoods}
    dist = {}
    for nb in neighborhoods:
        targets = rnd.sample(states, rnd.randint(1, n_states))
        weights = [rnd.random() + 0.05 for _ in targets]
        dist[nb] = tuple((q, w / sum(weights)) for q, w in zip(targets, weights))
    hole = draw(st.none() | st.sampled_from(neighborhoods))
    if hole is not None:
        del rule[hole]
        del dist[hole]
    ca = CellularAutomaton("c", states, width, radius, boundary, boundary_value, rule)
    pca = ProbabilisticCellularAutomaton("p", states, width, radius, boundary, boundary_value, dist)
    lattice = tuple(draw(st.lists(st.sampled_from(states), min_size=width, max_size=width)))
    return ca, pca, lattice, draw(st.integers(0, 2**16))


def outcome(fn, *args):
    try:
        return fn(*args)
    except KeyError as exc:
        return ("KeyError", exc.args)


def test_pca_step_scans_an_unchecked_rule_like_the_reference():
    # a negative or NaN probability makes the sums fall or stay NaN; each
    # cell still takes the first successor whose sum exceeds its uniform
    rows = [(("0", 0.5), ("1", -0.3), ("2", 0.8)), (("0", 0.2), ("1", float("nan")), ("2", 0.8)),
            (("0", float("nan")), ("1", 1.0)), (("0", 0.3), ("1", 0.3), ("2", -0.2), ("0", 0.6))]
    for row in rows:
        pca = ProbabilisticCellularAutomaton("p", ("0", "1", "2"), 3, 1,
                                             rule={nb: row for nb in itertools.product("012", repeat=3)})
        for seed in range(60):
            lattice = tuple(random.Random(seed).choice("012") for _ in range(3))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert pca_step(pca, lattice, rng) == ref_pca_step(pca, lattice, ref_rng), (row, seed)


@settings(max_examples=300, deadline=None)
@given(lattice_rules())
def test_padded_lattice_steps_equal_the_neighborhood_of_form(case):
    ca, pca, lattice, seed = case
    assert outcome(ca_step, ca, lattice) == outcome(ref_ca_step, ca, lattice)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert outcome(pca_step, pca, lattice, rng) == outcome(ref_pca_step, pca, lattice, ref_rng)
    assert rng.random() == ref_rng.random()  # the same number of uniforms was drawn
    assert outcome(pca_step_distribution, pca, lattice) == outcome(ref_pca_distribution, pca, lattice)


@pytest.mark.parametrize("radius, width, hole", [(3, 1, False), (4, 2, False), (3, 2, True), (1, 3, True)])
def test_padded_lattice_steps_equal_the_neighborhood_of_form_on_fixed_cases(radius, width, hole):
    # the examples above, fixed, under either boundary: a radius that wraps the lattice
    # more than once, and a rule with no entry for the last cell's neighborhood
    states = ("0", "1")
    rnd = random.Random(10 * radius + width)
    neighborhoods = list(itertools.product(states, repeat=2 * radius + 1))
    targets = [rnd.choice(states) for _ in neighborhoods]
    lattice = tuple(rnd.choice(states) for _ in range(width))
    for boundary, boundary_value in (("periodic", None), ("fixed", "1")):
        rule = dict(zip(neighborhoods, targets))
        dist = {nb: (("0", 0.25), ("1", 0.75)) for nb in neighborhoods}
        ca = CellularAutomaton("c", states, width, radius, boundary, boundary_value, rule)
        if hole:
            missing = ref_neighborhood(ca, lattice, width - 1)
            del rule[missing], dist[missing]
            ca = CellularAutomaton("c", states, width, radius, boundary, boundary_value, rule)
        pca = ProbabilisticCellularAutomaton("p", states, width, radius, boundary, boundary_value, dist)
        assert outcome(ca_step, ca, lattice) == outcome(ref_ca_step, ca, lattice)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        assert outcome(pca_step, pca, lattice, rng) == outcome(ref_pca_step, pca, lattice, ref_rng)
        assert rng.random() == ref_rng.random()
        assert outcome(pca_step_distribution, pca, lattice) == outcome(ref_pca_distribution, pca, lattice)
        assert (outcome(ca_step, ca, lattice)[0] == "KeyError") == hole
        assert isinstance(outcome(pca_step_distribution, pca, lattice), tuple) == hole  # a dict unless it raised
