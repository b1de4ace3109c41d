import itertools
from dataclasses import replace

import pytest

from mimic_automata import (
    Action,
    Binding,
    ConvergenceError,
    Dtmc,
    ExplosionError,
    MODE_SA_FROM_CA,
    MimicAutomaton,
    MimicError,
    ModelValidationError,
    Path,
    Property,
    PropertyError,
    SaUnit,
    TransitionSystem,
    build_dtmc,
    check_components,
    check_invariant,
    check_property,
    check_reach,
    flatten,
    ma_initial,
    ma_run,
    product,
    reach_probability_exact,
    reach_probability_mc,
    replay_path,
    strip_clocks,
    validate_ca,
    validate_ha,
    validate_ma,
    validate_pca,
    validate_sa,
)
from mimic_automata.checker import builtin_labeling
from mimic_automata.detect import validate_signature
from mimic_automata.dhr import dhr_rules, serial_rules, validate_dhr, validate_serial
from mimic_automata.dot import ca_graph_dot, dtmc_to_dot, ts_to_dot
from mimic_automata.hierarchical import HierarchicalAutomaton, ha_rules
from mimic_automata.modelfile import parse_files
from mimic_automata.props import parse_predicate

from helpers import (
    MODELS,
    SIGNATURES,
    flip_ma,
    identity_ca,
    lockstep_counters_ma,
    make_sa,
    parity_ma,
    parity_sa,
    plain,
    uniform_pca,
    x11_parity_ma,
    xor_ca,
)
from reference_interpreter import ref_reachable

UNIVERSE = [("0",), ("1",)]


def test_check_components_groups_are_clean_on_valid_model():
    groups = check_components(flip_ma())
    assert set(groups) == {"sa", "ca", "pa", "ha"}
    assert all(not v for v in groups.values())


def test_check_components_flags_broken_parity_and_short_pca():
    broken = make_sa("broken", ("even", "odd"), "even", ("even",), ("0", "1"),
                     delta=[("even", "0", "even"), ("even", "1", "odd"), ("odd", "1", "even")])
    import itertools as it
    from mimic_automata import ProbabilisticCellularAutomaton

    short = ProbabilisticCellularAutomaton(
        "short", ("0", "1"), 1, 1,
        rule={nb: (("0", 0.4), ("1", 0.5)) for nb in it.product("01", repeat=3)},
    )
    ma = parity_ma()
    ma2 = MimicAutomaton("m", {**ma.sa_set, "broken": broken}, {**ma.ca_set, "short": short},
                         {}, ma.bindings, ma.root_binding)
    groups = check_components(ma2)
    assert any(v.invariant == "totality" for v in groups["sa"])
    assert any(v.invariant == "normalization" for v in groups["pa"])
    assert not groups["ca"]
    assert not groups["ha"]



def test_check_components_scopes_a_hierarchy_s_violations_under_its_name():
    ma = parity_ma()
    broken = HierarchicalAutomaton("h", (parity_sa(),), "ghost", {})
    groups = check_components(replace(ma, ha_set={"h": broken}))
    assert groups["ha"] == [v.within("h") for v in validate_ha(broken)]
    assert [str(v) for v in groups["ha"]] == ["[root-membership] h/ghost: root is not a member machine"]


def test_check_components_reports_a_machine_in_the_sa_set_and_a_hierarchy_once():
    broken = make_sa("broken", ("even", "odd"), "even", ("even",), ("0", "1"),
                     delta=[("even", "0", "even"), ("even", "1", "odd"), ("odd", "1", "even")])
    other = replace(broken, name="other")
    h = HierarchicalAutomaton("h", (broken, other), "broken", {("broken", "odd"): {"other", "ghost"}})
    ma = parity_ma()
    groups = check_components(replace(ma, sa_set={**ma.sa_set, "broken": broken}, ha_set={"h": h}))
    assert groups["sa"] == [v.within("broken") for v in validate_sa(broken)] != []
    # the hierarchy keeps its own rules and its other member, but not the shared machine
    assert groups["ha"] == [v.within("h") for v in ha_rules(h) + [v.within("other") for v in validate_sa(other)]]
    assert [v.invariant for v in groups["ha"]] == ["gamma-target", "totality"]
    assert not any(v.subject.startswith("h/broken/") for v in groups["ha"])


CORPUS, _ = parse_files([str(MODELS / name) for name in ("parity.ma", "flip.ma", "dhr_echo.ma")]
                        + [str(SIGNATURES / "emits_b.ma")])


@pytest.mark.parametrize("model, broken, validate", [
    (CORPUS.sas["parity"], lambda m: replace(m, initial="ghost"), validate_sa),
    (CORPUS.cas["ident1"], lambda m: replace(m, width=0), validate_ca),
    (CORPUS.pcas["flip"], lambda m: replace(m, width=0), validate_pca),
    (HierarchicalAutomaton("h", (parity_sa(),), "parity", {}), lambda m: replace(m, root="ghost"), validate_ha),
    (CORPUS.mas["parity_ma"], lambda m: replace(m, root_binding="ghost"), validate_ma),
    (CORPUS.dhrs["echo3"], lambda m: replace(m, width=0), validate_dhr),
    (CORPUS.serial_dhrs["echo_chain"], lambda m: replace(m, stages=(replace(m.stages[0], width=0),)),
     validate_serial),
    (CORPUS.signatures["emits_b"], lambda m: replace(m, pattern=replace(m.pattern, initial="ghost")),
     validate_signature),
], ids=["sa", "ca", "pca", "ha", "ma", "dhr", "serial_dhr", "signature"])
def test_check_returns_a_valid_model_and_raises_the_report_of_a_broken_one(model, broken, validate):
    assert model.check() is model
    broken = broken(model)
    report = validate(broken)
    assert report
    with pytest.raises(ModelValidationError) as caught:
        broken.check()
    assert caught.value.violations == report


def test_nested_reports_scope_their_subjects_under_the_owner():
    serial = CORPUS.serial_dhrs["echo_chain"]
    stage = replace(serial.stages[0], width=0)
    assert [str(v) for v in validate_serial(replace(serial, stages=(stage, stage)))] == [
        f"[{v.invariant}] echo3/{v.subject}: {v.message}" for v in validate_dhr(stage)
    ]
    pattern = replace(CORPUS.signatures["emits_b"].pattern, initial="ghost")
    assert [str(v) for v in validate_signature(replace(CORPUS.signatures["emits_b"], pattern=pattern))] == [
        "[initial-membership] emits_b/ghost: initial state not in states"
    ]
    # a member hosted twice is reported once, after the owner's own rules
    broken = replace(stage.executors[0], initial="ghost")
    member = [v.within(broken.name) for v in validate_sa(broken)]
    twice = replace(stage, executors=(broken, broken, stage.executors[2]))
    assert validate_dhr(twice) == dhr_rules(twice) + member
    assert dhr_rules(twice) and not any("/" in v.subject for v in dhr_rules(twice))
    serial = replace(CORPUS.serial_dhrs["echo_chain"], stages=(twice, twice))
    assert validate_serial(serial) == serial_rules(serial) + [v.within("echo3") for v in validate_dhr(twice)]
    ha = HierarchicalAutomaton("h", (broken, broken), broken.name, {})
    assert validate_ha(ha) == ha_rules(ha) + member
    assert [v.invariant for v in ha_rules(ha)] == ["unique-members"]

def test_flatten_parity_two_states_four_transitions():
    ts = flatten(parity_ma(), UNIVERSE)
    assert len(ts.states) == 2
    assert ts.transition_count == 4
    views = {tuple(cfg.unit_states) for cfg in ts.states.values()}
    assert views == {("even",), ("odd",)}


def test_flatten_rejects_empty_universe():
    with pytest.raises(ValueError):
        flatten(parity_ma(), [])


def test_flatten_rejects_probabilistic_models():
    with pytest.raises(MimicError):
        flatten(flip_ma(), [("a",)])



def test_chain_analyses_refuse_a_missing_policy_a_deterministic_root_and_no_trials():
    with pytest.raises(ValueError, match="an input policy is required for probabilistic analysis"):
        build_dtmc(flip_ma(), None)
    with pytest.raises(MimicError, match="the root lattice rule is deterministic; use flatten"):
        build_dtmc(parity_ma(), [("0",)])
    with pytest.raises(ValueError, match="trials must be >= 1"):
        reach_probability_mc(flip_ma(), [("a",)], "lattice_has(1)", horizon=2, trials=0)


def test_check_property_refuses_no_universe_and_an_unknown_kind():
    with pytest.raises(PropertyError, match="an input universe is required to flatten the model"):
        check_property(parity_ma(), Property("p", "invariant", parse_predicate("true")))
    with pytest.raises(PropertyError, match="unknown property kind 'eventually'"):
        check_property(parity_ma(), Property("p", "eventually", parse_predicate("true")), UNIVERSE)


def test_an_unknown_kind_is_refused_before_any_flatten(monkeypatch):
    from mimic_automata import checker

    ma = lockstep_counters_ma()  # 5,005 states: far more than a bound of 3
    with pytest.raises(PropertyError, match="unknown property kind 'bogus'"):
        check_property(ma, Property("p", "bogus"), [("a",)], bound=3)

    def explore(*args, **kwargs):
        raise AssertionError("the state space was explored")

    monkeypatch.setattr(checker, "_explore", explore)
    for model in (ma, flip_ma()):
        with pytest.raises(PropertyError, match="unknown property kind 'bogus'"):
            check_property(model, Property("p", "bogus"), [("a",)])


def test_flatten_bound_exceeded_reports_frontier():
    counter = make_sa(
        "count4", tuple(f"c{i}" for i in range(4)), "c0", ("c0",), ("0", "1"),
        delta=[(f"c{i}", sym, f"c{(i + 1) % 4}") for i in range(4) for sym in "01"],
    )
    ca = identity_ca("i1", width=1)
    b = Binding("b", MODE_SA_FROM_CA, "i1", {"0": SaUnit("count4"), "1": SaUnit("count4")},
                seed=("0",))
    ma = MimicAutomaton("m", {"count4": counter}, {"i1": ca}, {}, {"b": b}, "b")
    with pytest.raises(ExplosionError) as exc:
        flatten(ma, UNIVERSE, bound=2)
    assert exc.value.frontier >= 1


def test_flatten_replay_agreement_on_xor_scheduler():
    v = parity_sa("v")
    ca = xor_ca("x2", width=2)
    b = Binding("b", MODE_SA_FROM_CA, "x2", {"0": SaUnit("v"), "1": SaUnit("v")}, seed=("0", "1"))
    ma = MimicAutomaton("m", {"v": v}, {"x2": ca}, {}, {"b": b}, "b")
    ts = flatten(ma, UNIVERSE)
    lattices = {cfg.lattice for cfg in ts.states.values()}
    assert lattices <= set(itertools.product(("0", "1"), repeat=2))
    # decode agreement along every path of length <= 3
    for path in itertools.product(UNIVERSE, repeat=3):
        cfg = ma_initial(ma, ("0", "1"))
        sid = ts.initial
        for block in path:
            cfg = ma_run(ma, cfg, [block])[0]
            match = [tid for action, tid in ts.transitions[sid] if action.macro_input == block]
            assert len(match) == 1
            sid = match[0]
            assert strip_clocks(cfg) == ts.states[sid]


def test_invariant_true_holds():
    ts = flatten(parity_ma(), UNIVERSE)
    assert check_invariant(ts, "true").verdict == "holds"


def test_invariant_violated_with_length_one_counterexample():
    ts = flatten(parity_ma(), UNIVERSE)
    result = check_invariant(ts, "cell0_state(even)")
    assert result.verdict == "violated"
    assert len(result.counterexample) == 1
    assert result.counterexample.actions[0].macro_input == ("1",)
    assert replay_path(parity_ma(), ts, result.counterexample)


def test_replay_path_rejects_a_wrong_start_a_changed_output_and_a_wrong_hop():
    ma = parity_ma()
    ts = flatten(ma, UNIVERSE)
    path = Path(("s0", "s1", "s1"), (Action(("1",), ("1",)), Action(("0",), ("0",))))
    assert replay_path(ma, ts, path)
    assert not replay_path(ma, ts, Path(("s1",) + path.states[1:], path.actions))
    changed = (Action(("1",), ("0",)), path.actions[1])
    assert not replay_path(ma, ts, Path(path.states, changed))
    assert not replay_path(ma, ts, Path(("s0", "s1", "s0"), path.actions))


def test_invariant_ignores_unreachable_states():
    # lattice value 1 is never reached under the identity rule from seed 0
    ts = flatten(parity_ma(), UNIVERSE)
    assert check_invariant(ts, "not lattice_has(1)").verdict == "holds"


def test_unknown_proposition_rejected():
    ts = flatten(parity_ma(), UNIVERSE)
    with pytest.raises(PropertyError):
        check_invariant(ts, "cell0_state(evn)")
    with pytest.raises(PropertyError):
        check_reach(ts, "no_such_prop(1)")


def test_reach_initial_label_is_empty_witness():
    ts = flatten(parity_ma(), UNIVERSE)
    result = check_reach(ts, "cell0_state(even)")
    assert result.verdict == "holds"
    assert len(result.counterexample) == 0


def test_reach_odd_has_witness():
    ts = flatten(parity_ma(), UNIVERSE)
    result = check_reach(ts, "cell0_state(odd)")
    assert result.verdict == "holds"
    assert [a.macro_input for a in result.counterexample.actions] == [("1",)]


@pytest.mark.parametrize("horizon, verdict", [(None, "holds"), (0, "violated"), (1, "holds"), (5, "holds")])
def test_deterministic_reach_holds_only_within_its_horizon(horizon, verdict):
    # the witness check_reach finds is a shortest one: one action to "odd"
    prop = Property("odd", "reach", predicate=parse_predicate("cell0_state(odd)"), horizon=horizon)
    result = check_property(parity_ma(), prop, UNIVERSE)
    assert result.verdict == verdict
    if verdict == "holds":
        assert len(result.counterexample) == 1
    else:
        assert result.counterexample is None
    # a target true at the start needs no action, so horizon 0 suffices
    start = Property("even", "reach", predicate=parse_predicate("cell0_state(even)"), horizon=0)
    assert check_property(parity_ma(), start, UNIVERSE).verdict == "holds"


@pytest.mark.parametrize("kind", ["invariant", "bad_prefix"])
def test_horizon_on_a_non_reach_property_is_rejected(kind):
    prop = Property("p", kind, predicate=parse_predicate("true"), pattern=parity_sa(), horizon=2)
    with pytest.raises(PropertyError, match="horizon"):
        check_property(parity_ma(), prop, UNIVERSE)


def test_negative_horizons_are_rejected_by_every_reach_analysis():
    dtmc = build_dtmc(flip_ma(), ("a",))
    with pytest.raises(ValueError, match="horizon must be >= 0, got -3"):
        reach_probability_exact(dtmc, "lattice_has(1)", horizon=-3)
    with pytest.raises(ValueError, match="horizon must be >= 0, got -1"):
        reach_probability_mc(flip_ma(), ("a",), "lattice_has(1)", horizon=-1, trials=100, seed=1)
    prop = Property("odd", "reach", predicate=parse_predicate("cell0_state(odd)"), horizon=-1)
    with pytest.raises(ValueError, match="horizon must be >= 0, got -1"):
        check_property(parity_ma(), prop, UNIVERSE)
    # horizon 0 is still a valid bound: only the initial state counts
    assert reach_probability_exact(dtmc, "lattice_has(1)", horizon=0).probability == 0.0


@pytest.mark.parametrize("bound", [0, -5])
def test_a_bound_below_one_is_rejected_by_flatten_and_build_dtmc(bound):
    # no search could hold even its start state
    with pytest.raises(ValueError, match=f"bound must be >= 1, got {bound}"):
        flatten(parity_ma(), UNIVERSE, bound=bound)
    with pytest.raises(ValueError, match=f"bound must be >= 1, got {bound}"):
        build_dtmc(flip_ma(), ("a",), bound=bound)
    prop = Property("even", "invariant", predicate=parse_predicate("true"))
    with pytest.raises(ValueError, match=f"bound must be >= 1, got {bound}"):
        check_property(parity_ma(), prop, UNIVERSE, bound=bound)


def test_reach_vocabulary_member_never_assigned_is_unreachable():
    ts = flatten(parity_ma(), UNIVERSE)
    result = check_reach(ts, "lattice_has(1)")
    assert result.verdict == "violated"
    assert result.counterexample is None


# --- product -----------------------------------------------------------------

def monitor(name, accept_label, finals_empty=False):
    """Two-state monitor that accepts after seeing one action labeled accept_label."""
    return make_sa(
        name, ("w", "hit"), "w", () if finals_empty else ("hit",),
        (accept_label,), (accept_label,),
        delta=[("w", accept_label, "hit"), ("hit", accept_label, "hit")],
        partial=True,
    )


def test_product_no_finals_no_accepting():
    ts = flatten(parity_ma(), UNIVERSE)
    prod = product(ts, monitor("m", "1", finals_empty=True))
    assert all("accepting" not in props for props in prod.atomic_props.values())


def test_product_accepts_after_one_labeled_action():
    ts = flatten(parity_ma(), UNIVERSE)
    prod = product(ts, monitor("m", "1"))
    result = check_reach(prod, "accepting")
    assert result.verdict == "holds"
    assert len(result.counterexample) == 1
    assert prod.transition_count == len(prod.states) * len(UNIVERSE)


def test_product_size_bound():
    ts = flatten(parity_ma(), UNIVERSE)
    pattern = monitor("m", "1")
    prod = product(ts, pattern)
    assert len(prod.states) <= len(ts.states) * len(pattern.states)


def test_product_stops_at_its_bound():
    ts = flatten(parity_ma(), UNIVERSE)  # 2 states; the product with monitor "1" has 3
    assert len(product(ts, monitor("m", "1"), bound=3).states) == 3
    with pytest.raises(ExplosionError) as exc:
        product(ts, monitor("m", "1"), bound=2)
    assert (exc.value.bound, exc.value.frontier) == (2, 1)


def twice(name, label):
    """Three-state monitor that accepts after seeing two actions labeled ``label``."""
    return make_sa(name, ("w", "once", "hit"), "w", ("hit",), (label,), (label,),
                   delta=[("w", label, "once"), ("once", label, "hit"), ("hit", label, "hit")],
                   partial=True)


def test_bad_prefix_checks_stop_at_their_bound():
    ma = parity_ma()  # 2 flattened states
    saw_one = Property("saw_one", "bad_prefix", pattern=monitor("m", "1"))
    result = check_property(ma, saw_one, UNIVERSE, bound=2)  # matched at the second pair
    assert result.verdict == "violated"
    assert result.counterexample.states == ("s0", "s1")
    with pytest.raises(ExplosionError) as exc:
        check_property(ma, saw_one, UNIVERSE, bound=1)  # the flatten itself does not fit
    assert (exc.value.bound, exc.value.frontier) == (1, 1)
    # the flatten fits, the pair search does not: two 1s need a third pair
    saw_two = Property("saw_two", "bad_prefix", pattern=twice("m2", "1"))
    assert len(flatten(ma, UNIVERSE, bound=2).states) == 2
    result = check_property(ma, saw_two, UNIVERSE, bound=3)
    assert result.verdict == "violated"
    assert result.counterexample.states == ("s0", "s1", "s0")
    with pytest.raises(ExplosionError) as exc:
        check_property(ma, saw_two, UNIVERSE, bound=2)
    assert (exc.value.bound, exc.value.frontier) == (2, 1)
    # a monitor with no finals visits every pair: 3 here
    never = Property("never", "bad_prefix", pattern=monitor("m", "1", finals_empty=True))
    assert check_property(ma, never, UNIVERSE, bound=3).verdict == "holds"
    with pytest.raises(ExplosionError) as exc:
        check_property(ma, never, UNIVERSE, bound=2)
    assert (exc.value.bound, exc.value.frontier) == (2, 1)


# --- probabilistic -----------------------------------------------------------

def test_dtmc_point_mass_matches_deterministic_flatten():
    from mimic_automata import point_mass_pca

    det = parity_ma()
    pm = point_mass_pca(det.ca_set["ident1"])
    ma = MimicAutomaton("pm", det.sa_set, {"ident1": pm}, {}, det.bindings, det.root_binding)
    dtmc = build_dtmc(ma, ("1",))
    assert all(row == ((sid2, 1.0),) for sid, row in dtmc.rows.items() for sid2 in [row[0][0]])

    ts = flatten(det, [("1",)])
    assert len(dtmc.states) == len(ts.states)
    for sid, row in dtmc.rows.items():
        ts_succ = {tid for _, tid in ts.transitions[sid]}
        assert {tid for tid, _ in row} == ts_succ


def test_dtmc_single_flip_rows():
    dtmc = build_dtmc(flip_ma(), ("a",))
    assert len(dtmc.states) == 2
    rows = {dtmc.states[sid].lattice: dict(row) for sid, row in dtmc.rows.items()}
    zero_row = rows[("0",)]
    assert pytest.approx(0.5) == zero_row[[s for s in dtmc.states if dtmc.states[s].lattice == ("0",)][0]]
    assert rows[("1",)] == {[s for s in dtmc.states if dtmc.states[s].lattice == ("1",)][0]: 1.0}


def test_dtmc_two_cell_uniform_quarter_rows():
    idle = make_sa("idle", ("s",), "s", ("s",), ("a",), delta=[("s", "a", "s")])
    pca = uniform_pca("u2", width=2)
    b = Binding("b", MODE_SA_FROM_CA, "u2", {"0": SaUnit("idle"), "1": SaUnit("idle")},
                seed=("0", "0"))
    ma = MimicAutomaton("m", {"idle": idle}, {"u2": pca}, {}, {"b": b}, "b")
    dtmc = build_dtmc(ma, ("a",))
    assert len(dtmc.states) == 4
    for row in dtmc.rows.values():
        assert len(row) == 4
        for _, prob in row:
            assert prob == pytest.approx(0.25)
        assert sum(p for _, p in row) == pytest.approx(1.0, abs=1e-9)


def test_exact_target_at_initial_is_one():
    dtmc = build_dtmc(flip_ma(), ("a",))
    assert reach_probability_exact(dtmc, "lattice_has(0)").probability == 1.0


def test_exact_unbounded_flip_reaches_one():
    dtmc = build_dtmc(flip_ma(), ("a",))
    result = reach_probability_exact(dtmc, "lattice_has(1)")
    assert result.probability == pytest.approx(1.0, abs=1e-9)
    assert result.stats["iterations"] > 1


def test_exact_bounded_two_steps_is_three_quarters():
    # independent derivation: P(miss twice) = 0.5 * 0.5, so 1 - 0.25
    dtmc = build_dtmc(flip_ma(), ("a",))
    result = reach_probability_exact(dtmc, "lattice_has(1)", horizon=2)
    assert result.probability == pytest.approx(0.75, abs=1e-12)


def test_exact_unreachable_target_is_zero():
    idle = make_sa("idle2", ("s", "t"), "s", ("s",), ("a",), delta=[("s", "a", "s"), ("t", "a", "t")])
    dtmc = build_dtmc(
        MimicAutomaton("m", {"idle2": idle}, flip_ma().ca_set, {},
                       {"b": Binding("b", MODE_SA_FROM_CA, "flip",
                                     {"0": SaUnit("idle2"), "1": SaUnit("idle2")}, seed=("0",))},
                       "b"),
        ("a",),
    )
    assert reach_probability_exact(dtmc, "cell0_state(t)").probability == 0.0


def test_exact_value_iteration_is_monotone():
    dtmc = build_dtmc(flip_ma(), ("a",))
    previous = {sid: 0.0 for sid in dtmc.states}
    import mimic_automata.checker as checker
    pred = checker.parse_predicate("lattice_has(1)")
    from mimic_automata.props import eval_predicate

    x = {sid: 1.0 if eval_predicate(pred, dtmc.atomic_props[sid]) else 0.0 for sid in dtmc.states}
    for _ in range(40):
        assert all(x[s] >= previous[s] - 1e-15 for s in x)
        assert all(x[s] <= 1.0 + 1e-15 for s in x)
        previous = x
        x = {
            s: 1.0 if eval_predicate(pred, dtmc.atomic_props[s]) else
            sum(p * x[t] for t, p in dtmc.rows[s])
            for s in x
        }


def test_exact_convergence_error_when_budget_too_small():
    dtmc = build_dtmc(flip_ma(), ("a",))
    with pytest.raises(ConvergenceError):
        reach_probability_exact(dtmc, "lattice_has(1)", tol=1e-12, max_iter=3)


def test_mc_without_a_horizon_is_rejected_before_any_expansion(monkeypatch):
    from mimic_automata import checker

    def expand(*args, **kwargs):
        raise AssertionError("the chain was expanded")

    monkeypatch.setattr(checker, "_mc_chain", expand)
    monkeypatch.setattr(checker, "_mc_per_trial", expand)
    with pytest.raises(ValueError, match="Monte Carlo estimation needs a horizon"):
        reach_probability_mc(flip_ma(), ("a",), "lattice_has(1)", None, trials=10)


def test_mc_point_mass_hits_with_certainty():
    from mimic_automata import point_mass_pca

    det = parity_ma()
    pm = point_mass_pca(det.ca_set["ident1"])
    ma = MimicAutomaton("pm", det.sa_set, {"ident1": pm}, {}, det.bindings, det.root_binding)
    result = reach_probability_mc(ma, ("1",), "cell0_state(odd)", horizon=1, trials=500, seed=3)
    assert result.probability == 1.0


def test_mc_horizon_zero_checks_initial_only():
    result = reach_probability_mc(flip_ma(), ("a",), "lattice_has(1)", horizon=0, trials=100, seed=1)
    assert result.probability == 0.0
    result = reach_probability_mc(flip_ma(), ("a",), "lattice_has(0)", horizon=0, trials=100, seed=1)
    assert result.probability == 1.0


def test_mc_flip_estimate_near_three_quarters():
    result = reach_probability_mc(flip_ma(), ("a",), "lattice_has(1)", horizon=2,
                                  trials=20_000, seed=7)
    assert abs(result.probability - 0.75) < 0.01
    # the larger distance from the estimate to an end of the 95% Wilson score interval
    p, n, z = result.probability, 20_000, 1.96
    center = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z / (1 + z * z / n) * (p * (1 - p) / n + z * z / (4 * n * n)) ** 0.5
    assert result.error_bound == pytest.approx(max(p - (center - half), center + half - p))


@pytest.mark.parametrize("target, probability", [("false", 0.0), ("true", 1.0)])
def test_mc_error_bound_stays_positive_at_no_and_all_hits(target, probability):
    result = reach_probability_mc(flip_ma(), ("a",), target, horizon=2, trials=500, seed=3)
    assert result.probability == probability
    # the Wilson interval at 0 of 500 hits is [0, 3.84/503.84]; at 500 of 500 its mirror
    assert result.error_bound == pytest.approx(1.96 ** 2 / (500 + 1.96 ** 2))
    assert result.error_bound > 0


def test_mc_is_seed_reproducible():
    a = reach_probability_mc(flip_ma(), ("a",), "lattice_has(1)", horizon=2, trials=5_000, seed=9)
    b = reach_probability_mc(flip_ma(), ("a",), "lattice_has(1)", horizon=2, trials=5_000, seed=9)
    assert a.probability == b.probability


def test_mc_fallback_path_agrees_roughly():
    from mimic_automata.checker import _mc_per_trial, _normalize_policy
    from mimic_automata.checker import builtin_labeling
    from mimic_automata.props import parse_predicate

    ma = flip_ma()
    props_fn, _ = builtin_labeling(ma)
    hits = _mc_per_trial(ma, _normalize_policy(("a",)), parse_predicate("lattice_has(1)"),
                         2, 4_000, 0, props_fn)
    assert abs(hits / 4_000 - 0.75) < 0.03


def test_counterexample_minimality_vs_brute_force():
    ma = parity_ma()
    ts = flatten(ma, UNIVERSE)
    result = check_invariant(ts, "cell0_state(even)")
    # brute force: enumerate all input sequences up to depth 4
    shortest = None
    for depth in range(0, 5):
        for seq in itertools.product(UNIVERSE, repeat=depth):
            cfg = ma_initial(ma, ("0",))
            cfg, _ = ma_run(ma, cfg, list(seq))
            if cfg.unit_states[0] != "even":
                shortest = depth
                break
        if shortest is not None:
            break
    assert len(result.counterexample) == shortest == 1


def test_counterexamples_are_breadth_first_shortest_paths():
    # s0's first and last edges enter 4-step chains to bad, its middle edge
    # a 2-step route: depth-first order, taking either the first or the last
    # edge first, meets bad at the end of a chain.
    names = ["s0", "a1", "a2", "a3", "m", "c1", "c2", "c3", "bad"]
    act = {name: Action((name,), (name,)) for name in names}
    edges = {
        "s0": ("a1", "m", "c1"),
        "a1": ("a2",), "a2": ("a3",), "a3": ("bad",),
        "m": ("bad",),
        "c1": ("c2",), "c2": ("c3",), "c3": ("bad",),
        "bad": (),
    }
    ts = TransitionSystem(
        states={name: None for name in names},
        initial="s0",
        transitions={sid: tuple((act[t], t) for t in succ) for sid, succ in edges.items()},
        atomic_props={name: frozenset({"bad"} if name == "bad" else {"ok"}) for name in names},
        vocabulary=frozenset({"bad", "ok"}),
    )
    shortest = Path(("s0", "m", "bad"), (act["m"], act["bad"]))
    assert check_invariant(ts, "ok").counterexample == shortest
    assert check_reach(ts, "bad").counterexample == shortest


def test_a_hand_built_dtmc_is_interned_from_its_initial_state():
    # The initial state is the last key, so a chain read in dict order
    # would put another state at index 0. No state reaches the orphan; it
    # counts in the stats, as in a hand-built TransitionSystem's.
    rows = {
        "orphan": (("start", 1.0),),
        "trap": (("trap", 1.0),),
        "goal": (("goal", 1.0),),
        "start": (("start", 0.5), ("goal", 0.2), ("trap", 0.3)),
    }
    dtmc = Dtmc(
        states={name: None for name in rows},
        initial="start",
        rows=rows,
        atomic_props={name: frozenset({name}) for name in rows},
        vocabulary=frozenset(rows),
    )
    assert dtmc.transition_count == 6
    for horizon, want in ((1, 0.2), (2, 0.2 + 0.5 * 0.2)):
        result = reach_probability_exact(dtmc, "goal", horizon=horizon)
        assert result.probability == pytest.approx(want, abs=1e-15)
        assert result.stats == {"states": 4, "transitions": 6, "iterations": horizon}
    assert reach_probability_exact(dtmc, "goal").probability == pytest.approx(0.4, abs=1e-9)  # 0.2 / (1 - 0.5)


def test_flatten_moderate_state_space_and_stable_ids():
    # The width-11 periodic xor scheduler seeded with a single 1 has a
    # lattice orbit of 32 lattices, whatever the input. Every cell runs the
    # same parity machine on the same block, so cells stay in lockstep except
    # where a changed cell state rebinds a cell to a fresh machine ("even");
    # how many unit-state vectors a lattice carries depends on those resets.
    # The count (240) is therefore checked against the reference interpreter,
    # not guessed; the breadth-first ids must be deterministic across runs.
    ma = x11_parity_ma()
    ts1 = flatten(ma, UNIVERSE)
    ts2 = flatten(ma, UNIVERSE)
    assert {plain(strip_clocks(cfg)) for cfg in ts1.states.values()} == ref_reachable(ma, UNIVERSE)
    assert len(ts1.states) > 100
    assert list(ts1.states) == list(ts2.states)
    assert ts1.transitions == ts2.transitions
    assert ts1.transition_count == len(ts1.states) * len(UNIVERSE)


def test_dot_exports_are_wellformed():
    ts = flatten(parity_ma(), UNIVERSE)
    text = ts_to_dot(ts)
    assert text.startswith("digraph") and text.rstrip().endswith("}")
    dtmc = build_dtmc(flip_ma(), ("a",))
    assert "0.5" in dtmc_to_dot(dtmc)
    raw = ca_graph_dot(xor_ca("x", width=3))
    assert raw.count("->") >= 8


def test_dot_export_of_a_flattened_system_labels_no_state():
    # its vocabulary lacks "accepting", so no state is labeled to look for it,
    # not even under a labeling that returns it without declaring it
    ma = parity_ma()
    props, vocabulary = builtin_labeling(ma)
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return props(cfg) | {"accepting"}

    text = ts_to_dot(flatten(ma, UNIVERSE, labeling=(counting, vocabulary)))
    assert calls == []
    assert "peripheries" not in text and text.count("[label=") == 2 + 2 * len(UNIVERSE)


def test_dot_exports_are_exact():
    # after a 1 the monitor stays final: its product states draw a double box
    saw1 = make_sa("saw1", ("w", "m"), "w", ("m",), ("1",), delta=[("w", "1", "m")], partial=True)
    assert ts_to_dot(product(flatten(parity_ma(), UNIVERSE), saw1)) == (
        "digraph ts {\n"
        "  rankdir=LR;\n"
        "  node [shape=box, fontname=monospace];\n"
        '  p0 [label="p0\\n[0] | even"];\n'
        '  p1 [label="p1\\n[0] | odd" peripheries=2];\n'
        '  p2 [label="p2\\n[0] | even" peripheries=2];\n'
        "  __init [shape=point]; __init -> p0;\n"
        '  p0 -> p0 [label="0 / 0"];\n'
        '  p0 -> p1 [label="1 / 1"];\n'
        '  p1 -> p1 [label="0 / 0"];\n'
        '  p1 -> p2 [label="1 / 1"];\n'
        '  p2 -> p2 [label="0 / 0"];\n'
        '  p2 -> p1 [label="1 / 1"];\n'
        "}\n"
    )
    assert dtmc_to_dot(build_dtmc(flip_ma(), ("a",))) == (
        "digraph dtmc {\n"
        "  rankdir=LR;\n"
        "  node [shape=box, fontname=monospace];\n"
        '  s0 [label="s0\\n[0] | s"];\n'
        '  s1 [label="s1\\n[1] | s"];\n'
        "  __init [shape=point]; __init -> s0;\n"
        '  s0 -> s0 [label="0.5"];\n'
        '  s0 -> s1 [label="0.5"];\n'
        '  s1 -> s1 [label="1"];\n'
        "}\n"
    )
