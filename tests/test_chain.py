"""The memoised chain builder, the CSR sweep and the vectorised sampler against per-state references.

``build_dtmc`` and Monte Carlo share one expansion that computes each
lattice's distribution once, runs each (unit, unit state, block) once and
rebinds each (lattice, successor lattice) once. Value iteration sweeps edge
arrays with ``np.bincount``, and the sampler searches all live trials' rows
at once. These tests rebuild each result the unmemoised, per-state way and
require it bit for bit: the same ids, rows, floats, errors, iterations and
hits.
"""

import itertools
import random
import time

import numpy as np
import pytest

import mimic_automata.checker as checker
import mimic_automata.composition as composition
from mimic_automata import (
    Binding,
    ConvergenceError,
    ExplosionError,
    InputRejectedError,
    MODE_CA_FROM_SA,
    MODE_SA_FROM_CA,
    MimicAutomaton,
    MimicConfiguration,
    NestedUnit,
    ProbabilisticCellularAutomaton,
    Readout,
    SaUnit,
    PropertyError,
    SizeCapError,
    build_dtmc,
    check_property,
    ma_initial,
    reach_probability_exact,
    reach_probability_mc,
    strip_clocks,
)
from mimic_automata.cellular import DEFAULT_SUCCESSOR_CAP, pca_step_distribution
from mimic_automata.checker import ROW_TOL, builtin_labeling
from mimic_automata.composition import _fresh_units, _run_unit, binding_seed
from mimic_automata.errors import MimicError
from mimic_automata.modelfile import parse_files
from mimic_automata.props import eval_predicate, parse_predicate
from mimic_automata.rng import derive_stream

from helpers import (
    ALPHABET,
    MODELS,
    echo_sa,
    flip_ma,
    flip_pca,
    gen_nested_pca_instance,
    gen_pca_instance,
    make_sa,
    uniform_pca,
)
from reference_interpreter import ref_binding_initial, ref_mode1_tick


def reference_chain(ma, policy, bound=checker.DEFAULT_FLATTEN_BOUND, lattice0=None, horizon=None,
                    successor_cap=DEFAULT_SUCCESSOR_CAP):
    """The per-state expansion: a run per cell, the distribution, a rebind per successor.

    Returns (states, rows, props) keyed by ``s<i>`` in breadth-first order;
    states at depth ``horizon`` get a self-loop and rows are checked only
    when ``horizon`` is None.
    """
    binding = ma.root()
    ca = ma.ca_set[binding.ca]
    props_fn, _ = builtin_labeling(ma)
    period = len(policy)
    start = strip_clocks(ma_initial(ma, lattice0 if lattice0 is not None else binding_seed(ma, binding)))
    ids = {(start, 0): "s0"}
    order = [(start, 0)]
    depth = {(start, 0): 0}
    states, rows, props = {"s0": start}, {}, {"s0": props_fn(start)}
    for k, node in enumerate(order):  # grows while it is walked: breadth-first order
        cfg, phase = node
        sid = ids[node]
        if horizon is not None and depth[node] >= horizon:
            rows[sid] = ((sid, 1.0),)
            continue
        ran = tuple(
            _run_unit(ma, binding.cell_map[q], cfg.unit_states[i], policy[phase], None, 1, i, {})[0]
            for i, q in enumerate(cfg.lattice)
        )
        row = {}
        for after, prob in pca_step_distribution(ca, cfg.lattice, successor_cap).items():
            units = list(ran)
            for i, unit_state in _fresh_units(ma, binding, cfg.lattice, after, 1):
                units[i] = unit_state
            key = (strip_clocks(MimicConfiguration(after, units, 0, cfg.outer_state)), (phase + 1) % period)
            if key not in ids:
                if len(ids) >= bound:
                    raise ExplosionError(bound, len(order) - k)
                ids[key] = f"s{len(ids)}"
                states[ids[key]] = key[0]
                props[ids[key]] = props_fn(key[0])
                depth[key] = depth[node] + 1
                order.append(key)
            row[ids[key]] = row.get(ids[key], 0.0) + prob
        total = sum(row.values())
        if horizon is None and abs(total - 1.0) > ROW_TOL:
            raise MimicError(f"chain row for {sid} sums to {total!r}")
        rows[sid] = tuple(row.items())
    return states, rows, props


def outcome(fn, *args, **kwargs):
    """The value of ``fn``, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except MimicError as exc:
        return type(exc), str(exc)


def assert_dtmc_is_reference(ma, policy, **kwargs):
    got = outcome(build_dtmc, ma, policy, **kwargs)
    want = outcome(reference_chain, ma, checker._normalize_policy(policy), **kwargs)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return None
    states, rows, props = want
    assert list(got.states) == list(states)
    assert got.states == states
    assert list(got.rows) == list(rows)
    assert got.rows == rows  # exact floats, in distribution order
    assert got.atomic_props == props
    assert got.initial == "s0"
    assert got.vocabulary == builtin_labeling(ma)[1]
    assert got.metadata == {"model": ma.name, "policy": checker._normalize_policy(policy)}
    return got


def generated(count):
    """(model, start lattice, period-1 policy, period-2 policy) per seed."""
    for seed in range(count):
        rnd = random.Random(seed)
        ma, lattice0 = gen_pca_instance(rnd)
        policies = [
            tuple(tuple(rnd.choice(ALPHABET) for _ in range(rnd.randint(0, 2))) for _ in range(period))
            for period in (1, 2)
        ]
        yield seed, ma, lattice0, policies


def flavor(ma):
    units = list(ma.root().cell_map.values())
    if ma.ha_set:
        return "ha"
    for unit in units:
        if isinstance(unit, NestedUnit):
            return "nested2" if ma.bindings[unit.binding].mode == MODE_CA_FROM_SA else "nested1"
    return "plain"


def corpus_flip():
    doc, diagnostics = parse_files([str(MODELS / "flip.ma")])
    assert not diagnostics
    return doc.mas["flip_ma"], doc.properties


def test_build_dtmc_matches_per_state_reference_on_generated_models():
    seen = set()
    for seed, ma, lattice0, policies in generated(40):
        for policy in policies:
            assert_dtmc_is_reference(ma, policy, lattice0=lattice0)
        seen.add(flavor(ma))
    assert seen == {"plain", "ha", "nested1", "nested2"}


def test_build_dtmc_matches_per_state_reference_on_corpus_flip():
    ma, _ = corpus_flip()
    dtmc = assert_dtmc_is_reference(ma, ("a",))
    assert len(dtmc.states) == 2
    assert_dtmc_is_reference(ma, (("a",), ("a",)))


def test_build_dtmc_bound_fails_with_the_reference_frontier():
    # seeds whose chains pass 30 states: the same ExplosionError, frontier included
    raised = 0
    for seed, ma, lattice0, policies in generated(30):
        policy = checker._normalize_policy(policies[1])
        got = outcome(build_dtmc, ma, policy, bound=30, lattice0=lattice0)
        want = outcome(reference_chain, ma, policy, bound=30, lattice0=lattice0)
        if isinstance(want, tuple) and want[0] is ExplosionError:
            assert got == want, f"seed {seed}"
            raised += 1
        else:
            assert not isinstance(got, tuple)
    assert raised >= 5


def split_flip(unit0="idle", unit1="idle", pca=None):
    """flip_ma with a chosen machine per cell state; ``only_b`` rejects the policy block "a"."""
    only_b = echo_sa("only_b", 1, inputs=("b",))
    idle = make_sa("idle", ("s",), "s", ("s",), ("a", "b"),
                   delta=[("s", "a", "s"), ("s", "b", "s")])
    pca = pca or flip_pca()
    b = Binding("b", MODE_SA_FROM_CA, pca.name, {"0": SaUnit(unit0), "1": SaUnit(unit1)},
                seed=("0",) * pca.width)
    return MimicAutomaton("split", {"idle": idle, "only_b": only_b}, {pca.name: pca}, {}, {"b": b}, "b")


def test_build_dtmc_raises_the_first_unit_error_of_the_reference():
    ma = split_flip(unit1="only_b")  # fails in the second state
    got = outcome(build_dtmc, ma, ("a",))
    assert got == outcome(reference_chain, ma, (("a",),))
    assert got == (InputRejectedError, "input symbol 'a' rejected at cell 0, position 0")


def test_build_dtmc_runs_the_units_before_the_distribution():
    # the first state fails both its run and, with a cap of 1, its distribution
    for unit0, error in (("only_b", InputRejectedError), ("idle", SizeCapError)):
        ma = split_flip(unit0=unit0)
        got = outcome(build_dtmc, ma, ("a",), successor_cap=1)
        assert got == outcome(reference_chain, ma, (("a",),), successor_cap=1)
        assert got[0] is error


def leaky_pca():
    """flip's rule with 0 -> {0: .5, 1: .4}: rows that do not sum to one."""
    rule = {nb: ((("0", 0.5), ("1", 0.4)) if nb[1] == "0" else (("1", 1.0),))
            for nb in itertools.product("01", repeat=3)}
    return ProbabilisticCellularAutomaton("leaky", ("0", "1"), 1, 1, rule=rule)


def test_unnormalised_rows_fail_the_exact_chain_and_are_sampled_as_they_are():
    ma = split_flip(pca=leaky_pca())
    got = outcome(build_dtmc, ma, ("a",))
    assert got == outcome(reference_chain, ma, (("a",),))
    assert got[0] is MimicError and got[1].startswith("chain row for s0 sums to 0.9")
    # the depth-limited expansion Monte Carlo samples never checked its rows
    result = reach_probability_mc(ma, ("a",), "lattice_has(1)", 3, trials=2_000, seed=6)
    assert result.method == "monte-carlo"
    assert result.stats["hits"] == reference_hits(ma, ("a",), "lattice_has(1)", 3, 2_000, 6)[0]


def test_build_dtmc_computes_each_distribution_run_and_rebind_once(monkeypatch):
    dists, runs, rebinds = [], [], []
    real_dist, real_run, real_fresh = checker.pca_step_distribution, composition._run_unit, composition._fresh_units

    def counting_dist(ca, lattice, cap):
        dists.append(lattice)
        return real_dist(ca, lattice, cap)

    def counting_run(ma, unit, state, block, rng, depth, cell, steppers):
        if depth == 1:  # nested steps run their own units at depth 2 and below
            runs.append((unit, state, block))
        return real_run(ma, unit, state, block, rng, depth, cell, steppers)

    def counting_fresh(ma, binding, before, after, depth):
        if depth == 1:
            rebinds.append((before, after))
        return real_fresh(ma, binding, before, after, depth)

    monkeypatch.setattr(checker, "pca_step_distribution", counting_dist)
    monkeypatch.setattr(composition, "_run_unit", counting_run)
    monkeypatch.setattr(composition, "_fresh_units", counting_fresh)
    shared = 0
    for seed, ma, lattice0, policies in generated(40):
        for policy in policies:
            del dists[:], runs[:], rebinds[:]
            dtmc = build_dtmc(ma, policy, lattice0=lattice0)
            phase_of = {"s0": 0}  # each state's policy phase: one more than its discoverer's
            for sid, row in dtmc.rows.items():
                for tid, _ in row:
                    phase_of.setdefault(tid, (phase_of[sid] + 1) % len(policy))
            cell_map = ma.root().cell_map
            lattices = {cfg.lattice for cfg in dtmc.states.values()}
            triples = {
                (cell_map[q], unit_state, policy[phase_of[sid]])
                for sid, cfg in dtmc.states.items()
                for q, unit_state in zip(cfg.lattice, cfg.unit_states)
            }
            pairs = {
                (dtmc.states[sid].lattice, dtmc.states[tid].lattice)
                for sid, row in dtmc.rows.items()
                for tid, _ in row
            }
            assert sorted(dists) == sorted(lattices) and len(dists) == len(lattices)
            assert len(runs) == len(set(runs)) and set(runs) == triples
            assert len(rebinds) == len(set(rebinds)) and set(rebinds) == pairs
            shared += len(dtmc.states) > len(lattices)  # states share a lattice
    assert shared >= 10


# --- value iteration ---------------------------------------------------------

def reference_sweeps(dtmc, target, tol=checker.DEFAULT_TOL, max_iter=checker.DEFAULT_MAX_ITER, horizon=None):
    """Value iteration as a per-state Python loop: (probability, error bound, iterations).

    States are numbered once, in ``dtmc.states`` order, so a sweep reads
    lists by integer, not dicts by name.
    """
    pred = parse_predicate(target)
    order = list(dtmc.states)
    index = {sid: i for i, sid in enumerate(order)}
    is_target = [eval_predicate(pred, dtmc.atomic_props[sid]) for sid in order]
    x = [1.0 if hit else 0.0 for hit in is_target]
    rows = dict(dtmc.rows)  # the view rebuilds a row on every read
    plan = [None if hit else [(index[tid], prob) for tid, prob in rows.get(sid, ())]  # None: a target
            for sid, hit in zip(order, is_target)]

    def sweep(values):
        new, residual = [], 0.0
        for i, row in enumerate(plan):
            if row is None:
                new.append(1.0)
                continue
            total = 0.0
            for tid, prob in row:
                total += prob * values[tid]
            new.append(total)
            change = abs(total - values[i])
            if change > residual:
                residual = change
        return new, residual

    start = index[dtmc.initial]
    if horizon is not None:
        for _ in range(horizon):
            x, _ = sweep(x)
        return x[start], 0.0, horizon
    for iteration in range(1, max_iter + 1):
        x, residual = sweep(x)
        if residual < tol:
            return x[start], residual, iteration
    raise ConvergenceError(max_iter, residual)


def assert_sweeps_are_reference(dtmc, target, **kwargs):
    got = outcome(reach_probability_exact, dtmc, target, **kwargs)
    want = outcome(reference_sweeps, dtmc, target, **kwargs)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    assert (got.probability, got.error_bound, got.stats["iterations"]) == want
    assert type(got.probability) is float and type(got.error_bound) is float


def reference_prob0(dtmc, target):
    """The states that cannot reach a target state, by iterating predecessors to a fixpoint."""
    pred = parse_predicate(target)
    rows = dict(dtmc.rows)
    reaching = {sid for sid in rows if eval_predicate(pred, dtmc.atomic_props[sid])}
    grown = True
    while grown:
        before = len(reaching)
        reaching |= {sid for sid, row in rows.items() if any(tid in reaching for tid, _ in row)}
        grown = len(reaching) > before
    return set(rows) - reaching


def test_sweeps_match_the_per_state_loop_bit_for_bit():
    pruned_states = pruned_edges = pruned_chains = 0
    for seed, ma, lattice0, policies in generated(40):
        rnd = random.Random(1000 + seed)
        dtmc = build_dtmc(ma, policies[1], lattice0=lattice0)
        atoms = sorted(dtmc.vocabulary)
        for target in rnd.sample(atoms, min(3, len(atoms))):
            assert_sweeps_are_reference(dtmc, target, max_iter=3_000)
            assert_sweeps_are_reference(dtmc, target, horizon=rnd.randint(0, 30))
            # the sweeps leave out these states and every edge into them
            prob0 = reference_prob0(dtmc, target)
            into = sum(tid in prob0 for sid, row in dtmc.rows.items() if sid not in prob0 for tid, _ in row)
            pruned_states += len(prob0)
            pruned_edges += into
            pruned_chains += bool(prob0) and into > 0
    assert pruned_chains >= 10 and pruned_states >= 1_000 and pruned_edges >= 500  # 17, 2,600 and 848
    ma, props = corpus_flip()
    dtmc = build_dtmc(ma, ("a",))
    for name in ("hit_one", "hit_one_unbounded"):
        assert_sweeps_are_reference(dtmc, "lattice_has(1)", horizon=props[name].horizon)
    assert_sweeps_are_reference(dtmc, "lattice_has(1)", tol=1e-12, max_iter=3)  # ConvergenceError


def test_an_unreachable_target_has_probability_zero_after_one_sweep():
    # every state is prob0, so every edge is left out of the sweeps
    absorbed = build_dtmc(flip_ma(), ("a",), lattice0=("1",))  # 1 is absorbing
    assert reference_prob0(absorbed, "lattice_has(0)") == set(absorbed.states)
    contradiction = build_dtmc(flip_ma(), ("a",))
    for dtmc, target in ((absorbed, "lattice_has(0)"), (contradiction, "lattice_has(0) and lattice_has(1)")):
        assert_sweeps_are_reference(dtmc, target)
        assert_sweeps_are_reference(dtmc, target, horizon=5)
        result = reach_probability_exact(dtmc, target)
        assert (result.probability, result.error_bound, result.stats["iterations"]) == (0.0, 0.0, 1)


def path_ma(length):
    """A flip cell whose state 0 hosts a ``length``-state counter and 1 a sink.

    Each tick the counter moves on with probability one half and the cell
    is absorbed into the sink otherwise, so the chain is a path of
    ``length`` states, each with an edge to the one prob0 state.
    """
    counter = make_sa("count", [f"c{i}" for i in range(length)], "c0", ("c0",), ("a",),
                      delta=[(f"c{i}", "a", f"c{min(i + 1, length - 1)}") for i in range(length)])
    sink = make_sa("sink", ("s",), "s", ("s",), ("a",), delta=[("s", "a", "s")])
    b = Binding("b", MODE_SA_FROM_CA, "flip", {"0": SaUnit("count"), "1": SaUnit("sink")}, seed=("0",))
    return MimicAutomaton("path", {"count": counter, "sink": sink}, {"flip": flip_pca()}, {}, {"b": b}, "b")


def test_sweeps_on_a_path_chain_and_a_linear_backward_search(monkeypatch):
    length = 300
    dtmc = build_dtmc(path_ma(length), ("a",))
    target = f"cell0_state(c{length - 1})"
    assert len(dtmc.states) == length + 1
    assert reference_prob0(dtmc, target) == {"s2"}  # the sink, found second
    swept = []  # the edge count of every sweep
    bincount = np.bincount

    def counting(rows, *args, **kwargs):
        swept.append(len(rows))
        return bincount(rows, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting)
    assert_sweeps_are_reference(dtmc, target, max_iter=3_000)
    monkeypatch.undo()
    # only the path's edges: not the target's or the sink's self-loop, nor the edges into the sink
    assert set(swept[1:]) == {length - 1}  # the first call builds the backward search's offsets
    assert_sweeps_are_reference(dtmc, target, horizon=length + 5)
    assert reach_probability_exact(dtmc, target, horizon=length + 5).probability == 0.5 ** (length - 1)

    # a 200,000-state path is 200,000 levels deep: a search that paid for
    # every state (or even a numpy call) per level would take seconds to minutes
    n = 200_000
    rows = np.arange(n - 1)
    last, first = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    last[-1] = first[0] = True
    started = time.perf_counter()
    reached = checker._reaching(last, rows, rows + 1)
    assert time.perf_counter() - started < 1.0
    assert reached.all()
    assert np.flatnonzero(checker._reaching(first, rows, rows + 1)).tolist() == [0]  # edges point forward


def test_sweeps_on_a_uniform_chain_with_inexact_floats():
    # thirds do not add up exactly: the summation order shows in the last bits
    idle = make_sa("idle", ("s", "t"), "s", ("s",), ("a",), delta=[("s", "a", "t"), ("t", "a", "s")])
    pca = uniform_pca("u3", width=3, states=("0", "1", "2"))
    b = Binding("b", MODE_SA_FROM_CA, "u3", {q: SaUnit("idle") for q in "012"}, seed=("0", "0", "0"))
    dtmc = build_dtmc(MimicAutomaton("m", {"idle": idle}, {"u3": pca}, {}, {"b": b}, "b"), ("a",))
    assert len(dtmc.states) > 27
    for target in ("cell0_state(t) and cell1_state(t)", "lattice_has(2) and not lattice_has(0)"):
        assert_sweeps_are_reference(dtmc, target)
        assert_sweeps_are_reference(dtmc, target, horizon=7)


# --- Monte Carlo -------------------------------------------------------------

def reference_hits(ma, policy, target, horizon, trials, seed, stream=derive_stream):
    """Per-unique-state ``searchsorted`` sampling of the chain expanded to depth ``horizon``."""
    states, rows, props = reference_chain(ma, checker._normalize_policy(policy), bound=100_000,
                                          horizon=horizon)
    order = list(states)
    index = {sid: i for i, sid in enumerate(order)}
    pred = parse_predicate(target)
    is_target = np.array([eval_predicate(pred, props[sid]) for sid in order], dtype=bool)
    rows_cum = [np.cumsum(np.array([p for _, p in rows[sid]])) for sid in order]
    rows_succ = [np.array([index[t] for t, _ in rows[sid]], dtype=np.int64) for sid in order]
    hits = done = block_index = 0
    while done < trials:
        n = min(checker.MC_BLOCK, trials - done)
        gen = stream(seed, block_index)
        cur = np.zeros(n, dtype=np.int64)
        hit = np.full(n, bool(is_target[0]))
        for _ in range(horizon):
            alive = ~hit
            count = int(alive.sum())
            if count == 0:
                break
            u = gen.random(count)
            cur_alive = cur[alive]
            nxt = np.empty(count, dtype=np.int64)
            for s in np.unique(cur_alive):
                mask = cur_alive == s
                idx = np.searchsorted(rows_cum[s], u[mask], side="right")
                nxt[mask] = rows_succ[s][np.minimum(idx, len(rows_succ[s]) - 1)]
            cur[alive] = nxt
            hit[alive] = is_target[nxt]
        hits += int(hit.sum())
        done += n
        block_index += 1
    return hits, len(order)


def test_sampler_hits_match_per_state_searchsorted():
    rnd = random.Random(5)
    checked = truncated = 0
    for seed, ma, lattice0, policies in generated(40):
        full = len(build_dtmc(ma, policies[0]).states)
        atoms = sorted(builtin_labeling(ma)[1])
        target = rnd.choice(atoms)
        for horizon in (1, 3, 12):
            trials = rnd.choice([700, 5_000])
            mc_seed = rnd.randrange(10_000)
            result = reach_probability_mc(ma, policies[0], target, horizon, trials=trials, seed=mc_seed)
            hits, expanded = reference_hits(ma, policies[0], target, horizon, trials, mc_seed)
            assert result.method == "monte-carlo"
            assert result.stats["hits"] == hits, f"seed {seed}, horizon {horizon}"
            checked += 1
            truncated += expanded < full
    assert checked == 120
    assert truncated >= 10


def test_sampler_hits_match_on_the_corpus_and_a_rich_row_chain():
    ma, props = corpus_flip()
    for mc_seed in (0, 1, 7, 9):
        result = reach_probability_mc(ma, ("a",), "lattice_has(1)", 2, trials=5_000, seed=mc_seed)
        assert result.stats["hits"] == reference_hits(ma, ("a",), "lattice_has(1)", 2, 5_000, mc_seed)[0]
    # 27 successors per row, and the horizon cuts the 54-state chain short
    idle = make_sa("idle", ("s", "t"), "s", ("s",), ("a",), delta=[("s", "a", "t"), ("t", "a", "s")])
    pca = uniform_pca("u3", width=3, states=("0", "1", "2"))
    b = Binding("b", MODE_SA_FROM_CA, "u3", {q: SaUnit("idle") for q in "012"}, seed=("0", "0", "0"))
    rich = MimicAutomaton("m", {"idle": idle}, {"u3": pca}, {}, {"b": b}, "b")
    target = "not lattice_has(0) and cell1_state(s)"
    for horizon, mc_seed in ((1, 3), (4, 4), (25, 5)):
        result = reach_probability_mc(rich, ("a",), target, horizon, trials=9_000, seed=mc_seed)
        assert result.stats["hits"] == reference_hits(rich, ("a",), target, horizon, 9_000, mc_seed)[0]


class BoundaryStream:
    """A stand-in stream whose uniforms land exactly on cumulative row values."""

    VALUES = (0.5, 0.25, 0.0, 0.75, 0.5, 0.999)

    def __init__(self, seed, *key):
        self.drawn = seed + sum(key)

    def random(self, count):
        values = [self.VALUES[(self.drawn + k) % len(self.VALUES)] for k in range(count)]
        self.drawn += count
        return np.array(values)


def test_sampler_breaks_ties_like_searchsorted_right(monkeypatch):
    # a uniform equal to a cumulative value moves past it, as side="right" does
    monkeypatch.setattr(checker, "derive_stream", BoundaryStream)
    quarters = split_flip(pca=uniform_pca("quarters", width=2))  # rows of four 0.25s
    for ma in (flip_ma(), quarters):
        for horizon, trials in ((1, 6), (3, 5_000)):
            result = reach_probability_mc(ma, ("a",), "lattice_has(1)", horizon, trials=trials, seed=2)
            want = reference_hits(ma, ("a",), "lattice_has(1)", horizon, trials, 2, stream=BoundaryStream)
            assert result.stats["hits"] == want[0]
    assert reach_probability_mc(flip_ma(), ("a",), "lattice_has(1)", 1, trials=1, seed=0).stats["hits"] == 1


@pytest.mark.parametrize("states, width, longest", [
    (4, 1, 4), (5, 1, 5), (2, 3, 8), (3, 2, 9), (2, 1, 2), (3, 1, 3),
])
def test_sampler_on_rows_of_a_power_of_two_entries_and_one_more(monkeypatch, states, width, longest):
    # the search takes just enough power-of-two steps for the longest row
    qs = tuple(str(i) for i in range(states))
    idle = make_sa("idle", ("s", "t"), "s", ("s",), ("a",), delta=[("s", "a", "t"), ("t", "a", "s")])
    b = Binding("b", MODE_SA_FROM_CA, "u", {q: SaUnit("idle") for q in qs}, seed=("0",) * width)
    pca = uniform_pca("u", width=width, states=qs)
    ma = MimicAutomaton("m", {"idle": idle}, {"u": pca}, {}, {"b": b}, "b")
    assert max(len(row) for row in build_dtmc(ma, ("a",)).rows.values()) == longest
    target = f"lattice_has({qs[-1]}) and cell0_state(t)"
    for stream in (derive_stream, BoundaryStream):  # quarters and eighths tie with BoundaryStream's values
        monkeypatch.setattr(checker, "derive_stream", stream)
        for horizon, trials, mc_seed in ((1, 40, 3), (5, 3_000, 4)):
            result = reach_probability_mc(ma, ("a",), target, horizon, trials=trials, seed=mc_seed)
            want = reference_hits(ma, ("a",), target, horizon, trials, mc_seed, stream=stream)[0]
            assert result.stats["hits"] == want, f"{stream.__name__}, horizon {horizon}"


# --- Monte Carlo fallback ----------------------------------------------------

def test_mc_refuses_mode2_roots_and_falls_back_to_paths_on_nested_lattices():
    # a ca_from_sa root is refused: per-trial sampling steps only sa_from_ca
    # roots, so it would never step the outer machine
    outer = make_sa("outer", ("o",), "o", ("o",), ("0", "1"), ("x",),
                    delta=[("o", "0", "o", "x"), ("o", "1", "o", "x")])
    idle = make_sa("idle", ("s",), "s", ("s",), ("a",), delta=[("s", "a", "s")])
    mode2 = MimicAutomaton(
        "m2", {"outer": outer, "idle": idle}, {"flip": flip_pca()}, {},
        {"r": Binding("r", MODE_CA_FROM_SA, "flip", {"0": SaUnit("idle"), "1": SaUnit("idle")},
                      t_max=1, outer_sa="outer", readout=Readout(kind="cell", cell=0),
                      seed=("0",))},
        "r",
    )
    assert checker._expansion_refusal(mode2) == "probabilistic expansion supports sa_from_ca roots only"
    with pytest.raises(MimicError, match="^probabilistic expansion supports sa_from_ca roots only$"):
        reach_probability_mc(mode2, ("a",), "lattice_has(1)", 2, trials=50, seed=1)

    # a probabilistic lattice nested under the root's cells is sampled path by path
    inner = flip_ma().bindings["b"]
    nested = MimicAutomaton(
        "nested", {"idle": idle}, {"flip": flip_pca(), "root_u": uniform_pca("root_u", width=1)}, {},
        {"b": inner, "r": Binding("r", MODE_SA_FROM_CA, "root_u",
                                  {"0": NestedUnit("b"), "1": NestedUnit("b")}, seed=("0",))},
        "r",
    )
    assert checker._expansion_refusal(nested) == "nested probabilistic lattices are not exactly expandable"
    result = reach_probability_mc(nested, ("a",), "lattice_has(1)", 3, trials=50, seed=1)
    assert result.method == "monte-carlo-paths"


def reference_path_hits(ma, policy, pred, horizon, trials, seed, props_fn):
    """Per-trial fold of ``ref_mode1_tick`` from the root's seed; block ``j`` draws from ``derive_stream(seed, j)``."""
    binding = ma.root()
    start = ref_binding_initial(ma, binding)
    hits = done = block_index = 0
    while done < trials:
        n = min(checker.MC_BLOCK, trials - done)
        rng = derive_stream(seed, block_index)
        for _ in range(n):
            cfg = start
            for t in range(horizon + 1):
                if eval_predicate(pred, props_fn(MimicConfiguration(cfg[1], cfg[2], 0, cfg[4]))):
                    hits += 1
                    break
                if t < horizon:
                    cfg = ref_mode1_tick(ma, binding, cfg, policy[t % len(policy)], rng)[0]
        done += n
        block_index += 1
    return hits


def test_per_trial_hits_match_a_reference_fold_across_blocks(monkeypatch):
    # 7-trial blocks: 31 trials cross four whole blocks and end with a partial one
    monkeypatch.setattr(checker, "MC_BLOCK", 7)
    trials = 31
    mixed = 0  # runs with some trials hitting and some not
    for seed in range(24):
        rnd = random.Random(seed)
        ma, _ = gen_nested_pca_instance(rnd)
        assert checker._expansion_refusal(ma) is not None  # sampled path by path
        props_fn, atoms = builtin_labeling(ma)
        target = rnd.choice(sorted(atoms - props_fn(ma_initial(ma))) or sorted(atoms))  # mostly false at the start
        policy = tuple(tuple(rnd.choice(ALPHABET) for _ in range(rnd.randint(1, 2))) for _ in range(2))
        mc_seed = rnd.randrange(1000)
        for horizon in (0, 1, 3):
            want = reference_path_hits(ma, policy, parse_predicate(target), horizon, trials, mc_seed, props_fn)
            result = reach_probability_mc(ma, policy, target, horizon, trials=trials, seed=mc_seed)
            assert (result.method, result.stats["hits"]) == ("monte-carlo-paths", want), f"seed {seed}, horizon {horizon}"
            mixed += 0 < want < trials
    assert mixed >= 5


UNUSED_SPARE = """
binding spare {
  mode: sa_from_ca
  ca: flip
  t_max: 1000
  seed: 0
  cell_map: 0 -> sa idle
  cell_map: 1 -> sa idle
}
"""


def test_an_unused_probabilistic_binding_leaves_the_chain_exactly_expandable(tmp_path):
    text = (MODELS / "flip.ma").read_text()
    assert "  bindings: flip_cell\n" in text
    path = tmp_path / "spare.ma"
    path.write_text(text.replace("  bindings: flip_cell\n", "  bindings: flip_cell spare\n") + UNUSED_SPARE)
    doc, diagnostics = parse_files([str(path)])
    assert not diagnostics
    (ma, props), (flip, _) = (doc.mas["flip_ma"], doc.properties), corpus_flip()
    assert checker._expansion_refusal(ma) is None
    assert check_property(ma, props["hit_one"]).probability == 0.75
    spare, plain = (check_property(m, props["hit_one"], trials=2000, seed=3) for m in (ma, flip))
    assert spare.method == plain.method == "monte-carlo"
    assert spare.stats["hits"] == plain.stats["hits"]


def test_mc_falls_back_to_paths_on_size_and_state_bounds(monkeypatch):
    calls = []
    per_trial = checker._mc_per_trial

    def counting(*args):
        calls.append(args)
        return per_trial(*args)

    monkeypatch.setattr(checker, "_mc_per_trial", counting)
    result = reach_probability_mc(flip_ma(), ("a",), "lattice_has(1)", 2, trials=200, seed=2, bound=1)
    assert result.method == "monte-carlo-paths" and len(calls) == 1  # ExplosionError
    wide = uniform_pca("wide", width=13)  # 2**13 successors per state, over the cap
    b = Binding("b", MODE_SA_FROM_CA, "wide", {"0": SaUnit("idle"), "1": SaUnit("idle")},
                seed=("0",) * 13)
    ma = MimicAutomaton("wide_ma", flip_ma().sa_set, {"wide": wide}, {}, {"b": b}, "b")
    result = reach_probability_mc(ma, ("a",), "lattice_has(1)", 1, trials=20, seed=2)
    assert result.method == "monte-carlo-paths" and len(calls) == 2  # SizeCapError
    with pytest.raises(SizeCapError):  # the exact chain has the same cap
        build_dtmc(ma, ("a",))


def test_mc_unit_error_during_expansion_propagates(monkeypatch):
    # per-trial sampling stops every trial on reaching 1 and never runs the
    # rejecting machine, so a silent fallback would report about 0.75
    ma = split_flip(unit1="only_b")
    monkeypatch.setattr(checker, "_mc_per_trial", None)  # a fallback would fail differently
    with pytest.raises(InputRejectedError, match="cell 0, position 0"):
        reach_probability_mc(ma, ("a",), "lattice_has(1)", 2, trials=100, seed=1)
    # at horizon 1 the rejecting state lies at the depth limit and is never expanded
    result = reach_probability_mc(ma, ("a",), "lattice_has(1)", 1, trials=100, seed=1)
    assert result.method == "monte-carlo"
    assert result.stats["hits"] == reference_hits(ma, ("a",), "lattice_has(1)", 1, 100, 1)[0]


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("horizon", [None, 3])
def test_exact_reach_rejects_a_tol_that_is_not_a_finite_positive_number(tol, horizon):
    # a tol of 0 or below is never met, even by an exact fixpoint: the sweeps ran to max_iter
    dtmc = build_dtmc(flip_ma(), ("a",))
    with pytest.raises(ValueError, match="tol must be a finite number > 0"):
        reach_probability_exact(dtmc, "lattice_has(1)", tol=tol, horizon=horizon)


@pytest.mark.parametrize("max_iter", [0, -1])
@pytest.mark.parametrize("horizon", [None, 3])
def test_exact_reach_rejects_a_max_iter_below_one(max_iter, horizon):
    # no sweep would run, so there would be no residual to report
    dtmc = build_dtmc(flip_ma(), ("a",))
    with pytest.raises(ValueError, match=f"max_iter must be >= 1, got {max_iter}"):
        reach_probability_exact(dtmc, "lattice_has(1)", max_iter=max_iter, horizon=horizon)
    with pytest.raises(ConvergenceError, match=r"after 1 iterations \(residual 5\.000e-01\)"):
        reach_probability_exact(dtmc, "lattice_has(1)", max_iter=1)  # one sweep: a residual to report


def test_monte_carlo_from_another_lattice_is_refused():
    # sampling starts from the binding's seed, 0; from 1, which is absorbing, the exact answer is 1.0
    ma, props = corpus_flip()
    assert check_property(ma, props["hit_one"], lattice0=("1",)).probability == 1.0
    assert check_property(ma, props["hit_one"], trials=100, seed=1).method == "monte-carlo"
    with pytest.raises(PropertyError, match="lattice0"):
        check_property(ma, props["hit_one"], lattice0=("1",), trials=100, seed=1)
