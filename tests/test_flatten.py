"""The memoised flatten kernel against the single-step semantics it caches.

``flatten`` steps each lattice once, runs each (unit, unit state, block)
once and builds each Action once per call. These tests check that the graph
it builds is still the one the unmemoised single step defines, edge by edge
and id by id, that the work really is done once, and that a failing run
fails at the same place as before.
"""

import collections
import dataclasses
import itertools
import random
import tracemalloc

import pytest

import mimic_automata.checker as checker
import mimic_automata.composition as composition
import mimic_automata.dhr as dhr
from mimic_automata import (
    Binding,
    CellularAutomaton,
    HaUnit,
    InputRejectedError,
    MODE_CA_FROM_SA,
    MODE_SA_FROM_CA,
    MimicAutomaton,
    MimicError,
    NestedUnit,
    SaUnit,
    Signature,
    build_dtmc,
    check_invariant,
    check_reach,
    detect,
    flatten,
    inject_fault,
    ma_initial,
    ma_run,
    point_mass_pca,
    reach_probability_exact,
    replay_path,
    strip_clocks,
)
from mimic_automata.checker import Action, Path, _observable_output, builtin_labeling
from mimic_automata.composition import _replay, has_randomness
from mimic_automata.dot import dtmc_to_dot
from mimic_automata.props import And, Atom, Not, Or, eval_predicate

from helpers import (
    ALPHABET,
    echo_dhr,
    echo_sa,
    flipper_sa,
    gen_instance,
    generated_dhr,
    identity_ca,
    lockstep_counters_ma,
    make_sa,
    plain,
    rotate_ca,
    uniform_idle_ma,
    x11_parity_ma,
)
from reference_interpreter import ref_reachable

BLOCKS = [("a",), ("b",), ("b", "a"), ()]


def single_step_edges(ma, cfg, universe):
    """Each entry's (action, clock-stripped successor) by the unmemoised single step."""
    binding = ma.root()
    edges = []
    for entry in universe:
        encode, step, decode = _replay(ma, binding, depth=1)
        nxt, _, _, per_cell, _, _, output = step(encode(cfg), entry, None)
        if per_cell is not None:
            output = _observable_output(ma, tuple(r.output_word for r in per_cell))
        edges.append((Action(entry, output), strip_clocks(decode(nxt, 0))))
    return edges


def assert_flatten_is_single_step_bfs(ma, universe, lattice0=None):
    """Rebuild the graph by a BFS over the single step and compare everything."""
    ts = flatten(ma, universe, lattice0=lattice0)
    universe = ts.metadata["universe"]
    start = strip_clocks(ma_initial(ma, ts.metadata["lattice0"]))
    props_fn, vocabulary = builtin_labeling(ma)

    ids = {start: "s0"}
    order = ["s0"]
    configs = {"s0": start}
    for sid in order:  # grows while it is walked: breadth-first order
        cfg = configs[sid]
        assert ts.states[sid] == cfg
        assert ts.atomic_props[sid] == props_fn(cfg)
        edges = []
        for action, nxt in single_step_edges(ma, cfg, universe):
            if nxt not in ids:  # first discovery takes the next id
                ids[nxt] = f"s{len(ids)}"
                configs[ids[nxt]] = nxt
                order.append(ids[nxt])
            edges.append((action, ids[nxt]))
        assert ts.transitions[sid] == tuple(edges)

    assert list(ts.states) == order
    assert list(ts.transitions) == order
    assert list(ts.atomic_props) == order
    assert ts.initial == "s0"
    assert ts.vocabulary == vocabulary
    assert ts.metadata == {"model": ma.name, "universe": universe,
                           "lattice0": ts.metadata["lattice0"]}
    return ts


def flavor(ma):
    binding = ma.root()
    if binding.mode == MODE_CA_FROM_SA:
        return "mode2"
    units = list(binding.cell_map.values())
    if any(isinstance(u, HaUnit) for u in units):
        return "ha"
    for unit in units:
        if isinstance(unit, NestedUnit):
            return "nested2" if ma.bindings[unit.binding].mode == MODE_CA_FROM_SA else "nested1"
    return "plain"


def generated_universe(ma):
    binding = ma.root()
    if binding.mode == MODE_CA_FROM_SA:
        return list(itertools.product(ALPHABET, repeat=ma.ca_set[binding.ca].width))
    return BLOCKS


def test_flatten_matches_single_step_on_every_generated_flavor():
    seen = set()
    for seed in range(60):
        ma, lattice0, _ = gen_instance(random.Random(seed))
        universe = generated_universe(ma)
        ts = assert_flatten_is_single_step_bfs(ma, universe, lattice0)
        reached = {plain(cfg) for cfg in ts.states.values()}
        assert reached == ref_reachable(ma, universe, lattice0), f"seed {seed}"
        seen.add(flavor(ma))
    assert seen == {"plain", "ha", "nested1", "nested2", "mode2"}


def test_ca_from_sa_flatten_builds_one_action_per_entry_and_output():
    checked = 0
    for seed in range(60):
        ma, lattice0, _ = gen_instance(random.Random(seed))
        if ma.root().mode != MODE_CA_FROM_SA:
            continue
        ts = flatten(ma, generated_universe(ma), lattice0=lattice0)
        actions = ts.transitions.store.labels
        assert len({id(action) for action in actions}) == len(set(actions)), f"seed {seed}"
        checked += 1
    assert checked >= 5


def test_replay_path_replays_ca_from_sa_evidence_and_rejects_a_changed_hop():
    # the universe is seed lattices: each hop is one replay step of the ca_from_sa root
    replayed = 0
    for seed in range(60):
        ma, lattice0, _ = gen_instance(random.Random(seed))
        if ma.root().mode != MODE_CA_FROM_SA:
            continue
        ts = flatten(ma, generated_universe(ma), lattice0=lattice0)
        for atom in sorted(ts.vocabulary):
            path = check_invariant(ts, f"not {atom}").counterexample
            if path is None or not path.actions:
                continue
            assert replay_path(ma, ts, path), f"seed {seed}, {atom}"
            wrong = next(sid for sid in ts.states if sid != path.states[-1])
            assert not replay_path(ma, ts, Path((*path.states[:-1], wrong), path.actions)), f"seed {seed}, {atom}"
            replayed += 1
    assert replayed >= 5


def test_sa_from_ca_flatten_builds_one_action_per_entry_and_observable_output():
    voted = generated_dhr(0).automaton  # different per-cell words often vote one output
    actions = flatten(voted, [("a",), ("b",), ("a", "b"), ("b", "b")]).transitions.store.labels
    assert (len(actions), len({id(action) for action in actions}), len(set(actions))) == (44, 10, 10)
    checked = 0
    for seed in range(60):
        ma, lattice0, _ = gen_instance(random.Random(seed))
        if ma.root().mode != MODE_SA_FROM_CA:
            continue
        actions = flatten(ma, generated_universe(ma), lattice0=lattice0).transitions.store.labels
        assert len({id(action) for action in actions}) == len(set(actions)), f"seed {seed}"
        checked += 1
    assert checked >= 20


def single_step_graph(ma, universe, lattice0):
    """The single step's BFS graph as plain dicts: states, rows and propositions by name."""
    start = strip_clocks(ma_initial(ma, lattice0))
    props_fn, _ = builtin_labeling(ma)
    ids = {start: "s0"}
    order = [start]
    transitions = {}
    for cfg in order:  # grows while it is walked: breadth-first order
        edges = []
        for action, nxt in single_step_edges(ma, cfg, universe):
            if nxt not in ids:
                ids[nxt] = f"s{len(ids)}"
                order.append(nxt)
            edges.append((action, ids[nxt]))
        transitions[ids[cfg]] = tuple(edges)
    states = {sid: cfg for cfg, sid in ids.items()}
    return states, transitions, {sid: props_fn(cfg) for sid, cfg in states.items()}


def test_flatten_views_copy_to_the_single_step_dicts_on_every_generated_flavor():
    seen = set()
    for seed in range(60):
        ma, lattice0, _ = gen_instance(random.Random(seed))
        ts = flatten(ma, generated_universe(ma), lattice0=lattice0)
        states, transitions, props = single_step_graph(ma, ts.metadata["universe"], ts.metadata["lattice0"])
        assert dict(ts.states) == states, f"seed {seed}"
        assert dict(ts.transitions) == transitions, f"seed {seed}"
        assert dict(ts.atomic_props) == props, f"seed {seed}"
        assert ts.transition_count == sum(len(edges) for edges in transitions.values())
        seen.add(flavor(ma))
    assert seen == {"plain", "ha", "nested1", "nested2", "mode2"}


NOT_NAMES = ["s240", "s01", "s00", "x", 0, 1, "s", "s-1", "s+1", " s1", "s1 ", "s1_0", "s\u0661",
             "S1", None, ("s", 1)]


def x11_graph():
    return flatten(x11_parity_ma(), [("0",), ("1",)])


def uniform_chain():
    return build_dtmc(uniform_idle_ma(), ("a",))


@pytest.mark.parametrize("build, field, edges, size, transitions", [
    *(pytest.param(x11_graph, field, "transitions", 240, 480, id=field)
      for field in ("states", "transitions", "atomic_props")),
    *(pytest.param(uniform_chain, field, "rows", 216, 5832, id=f"chain-{field}")
      for field in ("states", "rows", "atomic_props")),
])
def test_flatten_views_behave_as_dicts(build, field, edges, size, transitions):
    graph = build()
    view = getattr(graph, field)
    copy = dict(view)
    assert len(view) == len(copy) == size
    assert list(view) == list(view.keys()) == list(copy) == [f"s{i}" for i in range(size)]
    assert list(view.values()) == list(copy.values())
    assert list(view.items()) == list(copy.items())
    assert view == copy and copy == view and not view != copy
    assert view != {**copy, "s0": "other"} and view != {}
    assert view == getattr(build(), field)
    for name in ("s0", "s17", f"s{size - 1}"):
        assert name in view
        assert view[name] == view.get(name) == view.get(name, "absent") == copy[name]
    for key in [f"s{size}", *NOT_NAMES]:
        assert key not in view and key not in copy
        assert view.get(key) is None and view.get(key, "absent") == "absent"
        with pytest.raises(KeyError):
            view[key]
        with pytest.raises(KeyError):
            copy[key]
    with pytest.raises(TypeError):
        view["s0"] = copy["s0"]
    assert graph.transition_count == sum(len(row) for row in getattr(graph, edges).values()) == transitions


def counting_labeling(ma):
    """The builtin labeling plus the list of configurations it was called on."""
    props_fn, vocabulary = builtin_labeling(ma)
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return props_fn(cfg)

    return (counted, vocabulary), calls


@pytest.mark.parametrize("invariant, verdict", [
    ("lattice_has(0) or lattice_has(1)", "holds"),
    ("not cell3_state(odd)", "violated"),
])
def test_labeling_is_called_on_access_once_per_searched_state(invariant, verdict):
    ma = x11_parity_ma()
    labeling, calls = counting_labeling(ma)
    ts = flatten(ma, [("0",), ("1",)], labeling=labeling)
    assert calls == []
    result = check_invariant(ts, invariant)
    assert result.verdict == verdict
    assert len(calls) == len(set(calls))  # no state labeled twice
    if verdict == "holds":
        assert set(calls) == set(ts.states.values())
    else:  # the search stops at the violation, short of the whole graph
        assert 0 < len(calls) < len(ts.states)
        assert calls[-1] == ts.states[result.counterexample.states[-1]]


def test_detect_on_a_voted_structure_never_labels():
    ma = inject_fault(echo_dhr(scheduler=rotate_ca()), 1, flipper_sa()).automaton
    universe = [("a",), ("b",), ("a", "b")]
    labeling, calls = counting_labeling(ma)
    ts = flatten(ma, universe, labeling=labeling)
    pattern = make_sa("pat_b", ("w", "m"), "w", ("m",), ("a", "b"),
                      delta=[("w", "b", "m"), ("m", "a", "m"), ("m", "b", "m")], partial=True)
    report = detect(ma, universe, [Signature("emits_b", "voted output b", pattern)], ts=ts)
    assert [r.matched for r in report.results] == [True]
    assert report.stats == {"states": len(ts.states), "transitions": ts.transition_count}
    assert calls == []


def test_chain_is_labeled_only_by_the_exact_solver_once_per_state():
    ma = uniform_idle_ma()
    labeling, calls = counting_labeling(ma)
    dtmc = build_dtmc(ma, ("a",), labeling=labeling)
    dtmc_to_dot(dtmc)
    assert calls == []
    result = reach_probability_exact(dtmc, "lattice_has(2) and not lattice_has(0)")
    assert result.probability == pytest.approx(1.0)
    assert calls == list(dtmc.states.values())  # once per state, in index order


ALL_BLOCKS = [("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]


def test_flatten_peak_memory_per_state():
    # keys and CSR edges only: configurations, rows and propositions are built on access
    ma = lockstep_counters_ma()
    tracemalloc.start()
    try:
        ts = flatten(ma, ALL_BLOCKS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ts.states) == 5 * 7 * 11 * 13
    assert ts.transition_count == len(ts.states) * len(ALL_BLOCKS)
    assert peak / len(ts.states) <= 600


def test_flatten_and_the_chain_builder_agree_on_point_mass_copies():
    # the two drivers of the one exploration loop: a deterministic model
    # flattened under one entry is the chain of its point-mass copy under
    # that entry as the policy, id for id, with every row a probability-1 edge
    checked = skipped = 0
    cases = [(x11_parity_ma(), None, [("0",), ("1",)])]
    cases += [(*gen_instance(random.Random(seed))[:2], BLOCKS) for seed in range(80)]
    for ma, lattice0, universe in cases:
        binding = ma.root()
        if binding.mode != MODE_SA_FROM_CA or has_randomness(ma):
            skipped += 1
            continue
        entry = universe[0]
        try:
            ts = flatten(ma, [entry], lattice0=lattice0)
        except (KeyError, MimicError):
            skipped += 1
            continue
        pca = point_mass_pca(ma.ca_set[binding.ca])
        copy = dataclasses.replace(ma, ca_set={**ma.ca_set, binding.ca: pca})
        dtmc = build_dtmc(copy, entry, lattice0=lattice0)
        assert list(dtmc.states) == list(ts.states)
        assert dtmc.states == ts.states
        assert dtmc.atomic_props == ts.atomic_props
        assert dtmc.rows == {sid: tuple((tid, 1.0) for _, tid in edges)
                             for sid, edges in ts.transitions.items()}
        checked += 1
    assert checked >= 70 and checked + skipped == 81


@pytest.mark.parametrize("structure", [
    echo_dhr(scheduler=rotate_ca()),
    inject_fault(echo_dhr(scheduler=rotate_ca()), 1, flipper_sa()),
    inject_fault(echo_dhr(quorum=3), 0, flipper_sa()),
    generated_dhr(),
], ids=["rotating", "rotating-injected", "injected-quorum3", "generated"])
def test_flatten_matches_single_step_on_voted_structures(structure, monkeypatch):
    ma = structure.automaton
    assert ma.voter is not None
    universe = [("a",), ("b",), ("a", "b"), ("b", "b")]
    ts = assert_flatten_is_single_step_bfs(ma, universe)
    assert {plain(cfg) for cfg in ts.states.values()} == ref_reachable(ma, universe)

    # one vote per distinct (entry, per-cell output words), however many states share them
    encode, step, _ = _replay(ma, ma.root(), depth=1)
    voted = {(entry, tuple(r.output_word for r in step(encode(cfg), entry, None)[3]))
             for cfg in ts.states.values() for entry in ts.metadata["universe"]}
    votes, real_vote = [], dhr.vote
    monkeypatch.setattr(dhr, "vote", lambda policy, words: votes.append(words) or real_vote(policy, words))
    flatten(ma, universe)
    assert len(votes) == len(voted) < len(ts.states) * len(universe)
    assert collections.Counter(votes) == collections.Counter(words for _, words in voted)


def test_flatten_runs_each_unit_once_and_steps_each_lattice_once(monkeypatch):
    runs, steps = [], []
    run_unit, ca_step = composition._run_unit, composition.ca_step

    def counting_run(ma, unit, state, block, *rest):
        runs.append((unit, state, block))
        return run_unit(ma, unit, state, block, *rest)

    def counting_step(ca, lattice):
        steps.append(lattice)
        return ca_step(ca, lattice)

    monkeypatch.setattr(composition, "_run_unit", counting_run)
    monkeypatch.setattr(composition, "ca_step", counting_step)
    ma = x11_parity_ma()
    ts = flatten(ma, [("0",), ("1",)])
    assert len(ts.states) == 240

    cell_map = ma.root().cell_map
    triples = {
        (cell_map[q], unit_state, block)
        for cfg in ts.states.values()
        for q, unit_state in zip(cfg.lattice, cfg.unit_states)
        for block in ts.metadata["universe"]
    }
    lattices = {cfg.lattice for cfg in ts.states.values()}
    assert len(runs) == len(triples)
    assert set(runs) == triples
    assert len(steps) == len(lattices) == 32
    assert set(steps) == lattices


def split_ma(rule_hole=False):
    """Two cells that start on a machine taking a, b and c, then split.

    After one tick cell 0 hosts a machine over {a, b} and cell 1 one over
    {a, c}, so the block "cb" is rejected by both cells, on different
    symbols at different positions, but only from the second state on.
    With ``rule_hole`` the rule has no entry for cell 0 of that second
    lattice, so stepping it fails too.
    """
    wide = echo_sa("wide", 1, inputs=("a", "b", "c"))
    ab = echo_sa("ab", 2, inputs=("a", "b"))
    ac = echo_sa("ac", 2, inputs=("a", "c"))
    states = ("0", "1", "2")
    rule = {nb: nb[1] for nb in itertools.product(states, repeat=3)}
    rule[("1", "0", "0")] = "1"
    rule[("0", "0", "1")] = "2"
    if rule_hole:
        del rule[("1", "1", "2")]
    ca = CellularAutomaton("split", states, 2, 1, boundary="fixed", boundary_value="1", rule=rule)
    b = Binding("b", MODE_SA_FROM_CA, "split",
                {"0": SaUnit("wide"), "1": SaUnit("ab"), "2": SaUnit("ac")}, seed=("0", "0"))
    return MimicAutomaton("m", {s.name: s for s in (wide, ab, ac)}, {"split": ca}, {}, {"b": b}, "b")


def test_flatten_raises_the_first_rejection_of_the_single_step():
    # The message is the one the per-edge engine raised before memoisation:
    # the second state, block "cb" (tried before "bc"), cell 0, position 0.
    expected = "input symbol 'c' rejected at cell 0, position 0"
    ma = split_ma()
    with pytest.raises(InputRejectedError) as exc:
        flatten(ma, [("a",), ("c", "b"), ("b", "c")])
    assert str(exc.value) == expected
    with pytest.raises(InputRejectedError) as exc:
        ma_run(ma, ma_initial(ma, ("0", "0")), [("a",), ("c", "b")])
    assert str(exc.value) == expected


def test_flatten_raises_the_first_rejection_in_entry_order_not_cell_order():
    # Cell 0 rejects "b" and cell 1 rejects "a". Entry by entry, as the single
    # step runs, "a" fails first, at cell 1; cell by cell, cell 0's "b" would.
    ca = identity_ca("ident2", width=2)
    b = Binding("b", MODE_SA_FROM_CA, "ident2", {"0": SaUnit("on_a"), "1": SaUnit("on_b")}, seed=("0", "1"))
    sas = {"on_a": echo_sa("on_a", inputs=("a",)), "on_b": echo_sa("on_b", inputs=("b",))}
    ma = MimicAutomaton("m", sas, {"ident2": ca}, {}, {"b": b}, "b")
    expected = "input symbol 'a' rejected at cell 1, position 0"
    with pytest.raises(InputRejectedError) as exc:
        flatten(ma, [("a",), ("b",)])
    assert str(exc.value) == expected
    with pytest.raises(InputRejectedError) as exc:
        ma_run(ma, ma_initial(ma, ("0", "1")), [("a",)])
    assert str(exc.value) == expected


def test_flatten_gives_a_lattice_of_no_cells_one_edge_per_entry():
    # width 0 fails validation, which flatten does not run: each entry is still a step
    ca = CellularAutomaton("none", ("0",), 0, 1, rule={("0", "0", "0"): "0"})
    b = Binding("b", MODE_SA_FROM_CA, "none", {"0": SaUnit("e")}, seed=())
    ma = MimicAutomaton("m", {"e": echo_sa("e")}, {"none": ca}, {}, {"b": b}, "b")
    ts = assert_flatten_is_single_step_bfs(ma, [("a",), ("b",)])
    assert ts.transitions["s0"] == ((Action(("a",), ()), "s0"), (Action(("b",), ()), "s0"))


def test_flatten_drops_repeated_entries_in_first_seen_order():
    ts = flatten(x11_parity_ma(), [["1"], ("0",), ("1",), "0", ("1",)])
    assert ts.metadata["universe"] == (("1",), ("0",))
    assert [action.macro_input for action, _ in ts.transitions["s0"]] == [("1",), ("0",)]


@pytest.mark.parametrize("universe, error, message", [
    ([("c", "b"), ("a",)], InputRejectedError, "input symbol 'c' rejected at cell 0, position 0"),
    ([("a",), ("c", "b")], KeyError, "('1', '1', '2')"),
])
def test_flatten_steps_a_lattice_after_its_first_entry_runs(universe, error, message):
    # As in the per-edge engine: the second state's first entry runs its
    # units, and only then is its lattice stepped.
    with pytest.raises(error) as exc:
        flatten(split_ma(rule_hole=True), universe)
    assert str(exc.value) == message


def test_flatten_rebinds_a_stepped_lattice_before_the_next_entry_runs():
    # The first step leaves cell 1 in state 2, which here maps to no unit. The
    # single step on "a" raises that when it rebinds, before "d" is rejected.
    ma = split_ma()
    cell_map = {q: unit for q, unit in ma.root().cell_map.items() if q != "2"}
    ma = dataclasses.replace(ma, bindings={"b": dataclasses.replace(ma.root(), cell_map=cell_map)})
    with pytest.raises(KeyError) as exc:
        flatten(ma, [("a",), ("d",)])
    assert str(exc.value) == "'2'"
    with pytest.raises(KeyError) as exc:
        ma_run(ma, ma_initial(ma, ("0", "0")), [("a",)])
    assert str(exc.value) == "'2'"


def random_predicate(rnd, vocabulary, depth=3):
    """An and/or/not formula over atoms drawn from ``vocabulary``."""
    atoms = sorted(vocabulary)

    def draw(level):
        roll = rnd.random()
        if level == 0 or roll < 0.3:
            return Atom(rnd.choice(atoms))
        if roll < 0.45:
            return Not(draw(level - 1))
        return (And if roll < 0.75 else Or)(draw(level - 1), draw(level - 1))

    return draw(depth)


def breadth_first_path(states, transitions, hit):
    """The path along each state's first discovering edge, from s0 to ``hit``."""
    parent = {"s0": None}
    for sid in states:  # breadth-first order
        for action, tid in transitions[sid]:
            parent.setdefault(tid, (sid, action))
    names, actions = [hit], []
    while parent[names[-1]] is not None:
        sid, action = parent[names[-1]]
        names.append(sid)
        actions.append(action)
    return Path(tuple(reversed(names)), tuple(reversed(actions)))


ORACLE_STRUCTURES = [
    echo_dhr(scheduler=rotate_ca()),
    inject_fault(echo_dhr(scheduler=rotate_ca()), 1, flipper_sa()),
    inject_fault(echo_dhr(quorum=3), 0, flipper_sa()),
    *(generated_dhr(seed) for seed in range(3)),
]


def oracle_models():
    """Every generated flavor, and voted structures with plain and ``FaultTagged`` cells."""
    for seed in range(60):
        ma, lattice0, _ = gen_instance(random.Random(seed))
        yield f"seed {seed}", ma, lattice0, generated_universe(ma)
    for i, structure in enumerate(ORACLE_STRUCTURES):
        yield f"structure {i}", structure.automaton, None, [("a",), ("b",), ("a", "b"), ("b", "b")]


def test_checks_give_the_verdict_and_path_of_a_per_state_scan():
    # The search labels one state per support class; the oracle labels every
    # state of the unmemoised single step's graph and takes the first match.
    rnd = random.Random(23)
    checked = tagged = 0
    for case, ma, lattice0, universe in oracle_models():
        ts = flatten(ma, universe, lattice0=lattice0)
        store = ts.atomic_props.store
        states, transitions, _ = single_step_graph(ma, ts.metadata["universe"], ts.metadata["lattice0"])
        assert [store.config(i) for i in range(len(store.keys))] == list(states.values()), case
        tagged += any(isinstance(q, dhr.FaultTagged) for cfg in states.values() for q in cfg.lattice)
        props_fn, _ = builtin_labeling(ma)
        for _ in range(20):
            pred = random_predicate(rnd, ts.vocabulary)
            values = [eval_predicate(pred, props_fn(cfg)) for cfg in states.values()]
            for check, holds, found, missing in ((check_invariant, False, "violated", "holds"),
                                                (check_reach, True, "holds", "violated")):
                result = check(ts, pred)
                hit = next((f"s{i}" for i, value in enumerate(values) if value == holds), None)
                if hit is None:
                    assert (result.verdict, result.counterexample) == (missing, None), case
                else:
                    assert result.verdict == found, case
                    assert result.counterexample == breadth_first_path(states, transitions, hit), case
            checked += 1
    assert tagged >= 2 and checked == 20 * (60 + len(ORACLE_STRUCTURES))


def test_the_builtin_labeling_is_evaluated_once_per_support_class(monkeypatch):
    # x11: 240 states over 32 lattices; a class is a lattice and the states
    # of the cells the predicate names, and it is labeled at its first state
    evals, labels = [], []
    real_eval, real_labeling = checker.eval_predicate, checker._builtin_labeling

    def counting_labeling(ma):
        props_fn, vocabulary, cell_of = real_labeling(ma)
        return (lambda cfg: labels.append(cfg) or props_fn(cfg)), vocabulary, cell_of

    monkeypatch.setattr(checker, "eval_predicate", lambda pred, props: evals.append(props) or real_eval(pred, props))
    monkeypatch.setattr(checker, "_builtin_labeling", counting_labeling)
    ts = x11_graph()
    configs = list(ts.states.values())
    cases = [
        ("lattice_has(0) or lattice_has(1)", (), 32),
        ("false", (), 32),
        ("cell3_state(even) or cell3_state(odd)", (3,), None),
        ("cell0_state(odd) and not cell7_state(even) or lattice_has(0)", (0, 7), None),
        (" or ".join(f"cell{i}_state(even) or cell{i}_state(odd)" for i in range(11)), tuple(range(11)), 240),
    ]
    for text, read, count in cases:
        for check in (check_invariant, check_reach):
            evals.clear()
            labels.clear()
            result = check(ts, text)
            searched = len(configs)
            if result.counterexample is not None:
                searched = int(result.counterexample.states[-1][1:]) + 1
            classes = {(cfg.lattice, tuple(cfg.unit_states[i] for i in read)) for cfg in configs[:searched]}
            assert len(evals) == len(labels) == len(classes), (text, check.__name__)
            assert len(set(labels)) == len(labels) and labels[0] == configs[0]
            if count is not None and searched == len(configs):
                assert len(classes) == count
