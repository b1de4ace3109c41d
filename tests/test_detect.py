import collections
import importlib
import itertools
import random
import types

import pytest

import mimic_automata.checker as checker
from mimic_automata import (
    MODE_CA_FROM_SA,
    CheckResult,
    DetectionReport,
    DhrStructure,
    ExplosionError,
    ModelFormatError,
    Property,
    Signature,
    TransitionSystem,
    VoterPolicy,
    build_dhr,
    check_invariant,
    check_property,
    check_reach,
    detect,
    flatten,
    inject_fault,
    load_signatures,
    product,
    replay_path,
)
from mimic_automata.checker import ACCEPTING, ABSTAIN_LABEL, Path, _monitor_witness
from mimic_automata.detect import validate_signature

from helpers import (
    ALPHABET,
    SIGNATURES,
    const_sa,
    echo_dhr,
    flipper_sa,
    gen_instance,
    generated_dhr,
    identity_ca,
    make_sa,
    rotate_ca,
    x11_parity_ma,
)

UNIVERSE = [("x",)]


def const_dhr():
    emit_a = const_sa("emitA", "A")
    scheduler = identity_ca("i3", width=3, states=("0", "1", "2"))
    return DhrStructure("const3", (emit_a, emit_a, emit_a), scheduler, 3,
                        VoterPolicy(quorum=2), ("0", "1", "2"))


def emits_b_signature():
    pattern = make_sa(
        "pat_b", ("w", "m"), "w", ("m",), ("A", "B"), ("A", "B"),
        delta=[("w", "B", "m"), ("m", "A", "m"), ("m", "B", "m")],
        partial=True,
    )
    return Signature("emits_b", "arbitrated output becomes B", pattern, severity=3)


def test_empty_signature_set_gives_empty_report():
    report = detect(build_dhr(const_dhr()), UNIVERSE, [])
    assert report.results == ()
    assert report.matched == ()


def test_healthy_structure_never_votes_b():
    report = detect(build_dhr(const_dhr()), UNIVERSE, [emits_b_signature()])
    assert report.results[0].matched is False
    assert report.results[0].witness is None


def test_two_planted_faults_match_with_length_one_witness():
    rogue = inject_fault(inject_fault(const_dhr(), 0, const_sa("emitB", "B")),
                         1, const_sa("emitB", "B"))
    ma = build_dhr(rogue)
    report = detect(ma, UNIVERSE, [emits_b_signature()])
    result = report.results[0]
    assert result.matched is True
    assert len(result.witness) == 1
    assert result.witness.actions[0].output == ("B",)
    # the witness is a genuine behavior of the model
    assert replay_path(ma, flatten(ma, UNIVERSE), result.witness)


def test_one_planted_fault_is_masked():
    rogue = inject_fault(const_dhr(), 0, const_sa("emitB", "B"))
    report = detect(build_dhr(rogue), UNIVERSE, [emits_b_signature()])
    assert report.results[0].matched is False


def test_witness_drives_pattern_into_finals():
    rogue = inject_fault(inject_fault(const_dhr(), 0, const_sa("emitB", "B")),
                         1, const_sa("emitB", "B"))
    sig = emits_b_signature()
    report = detect(build_dhr(rogue), UNIVERSE, [sig])
    witness = report.results[0].witness
    state = sig.pattern.initial
    for action in witness.actions:
        label = action.label()
        if (state, label) in sig.pattern.transitions:
            state = sig.pattern.transitions[(state, label)]
    assert state in sig.pattern.finals


def test_adding_signatures_is_monotone():
    ma = build_dhr(const_dhr())
    sig = emits_b_signature()
    other = Signature(
        "emits_a",
        "arbitrated output becomes A",
        make_sa("pat_a", ("w", "m"), "w", ("m",), ("A", "B"), ("A", "B"),
                delta=[("w", "A", "m"), ("m", "A", "m"), ("m", "B", "m")], partial=True),
    )
    alone = detect(ma, UNIVERSE, [sig])
    together = detect(ma, UNIVERSE, [sig, other])
    assert alone.results[0] == together.results[0]
    assert together.results[1].matched is True


def test_signature_requires_final_states():
    hollow = make_sa("hollow", ("w",), "w", (), ("A",), ("A",),
                     delta=[("w", "A", "w")])
    report = validate_signature(Signature("hollow", "matches nothing", hollow))
    assert any(v.invariant == "matchable" for v in report)


def test_load_signatures_empty_set():
    assert load_signatures([]) == []


def test_load_signatures_corpus_file():
    sigs = load_signatures([str(SIGNATURES / "emits_b.ma")])
    assert [s.id for s in sigs] == ["emits_b"]
    assert sigs[0].severity == 3
    assert sigs[0].pattern.name == "pat_b"


def test_load_signatures_duplicate_ids_name_both_files(tmp_path):
    text = (SIGNATURES / "emits_b.ma").read_text()
    first = tmp_path / "one.ma"
    second = tmp_path / "two.ma"
    first.write_text(text)
    second.write_text(text)
    with pytest.raises(ModelFormatError) as exc:
        load_signatures([str(first), str(second)])
    message = str(exc.value)
    assert "one.ma" in message and "two.ma" in message


def test_load_signatures_parse_error_carries_location(tmp_path):
    bad = tmp_path / "bad.ma"
    bad.write_text("signature x {\n  severity: not_a_number\n")
    with pytest.raises(ModelFormatError) as exc:
        load_signatures([str(bad)])
    assert any(d.line >= 1 for d in exc.value.diagnostics)


def test_no_match_is_complete_up_to_depth_four():
    """Brute-force completeness: if nothing matched, no input sequence of
    length <= 4 drives the pattern into a final state."""
    import itertools

    from mimic_automata import ma_initial, ma_run

    ma = build_dhr(const_dhr())
    sig = emits_b_signature()
    report = detect(ma, UNIVERSE, [sig])
    assert report.results[0].matched is False

    from mimic_automata.checker import render_word
    from mimic_automata.dhr import vote

    for depth in range(0, 5):
        for seq in itertools.product(UNIVERSE, repeat=depth):
            cfg = ma_initial(ma, ma.root().seed)
            pat_state = sig.pattern.initial
            for block in seq:
                cfg, trace = ma_run(ma, cfg, [block])
                voted, _ = vote(ma.voter, tuple(r.output_word for r in trace[0].per_cell))
                label = render_word(voted)
                if (pat_state, label) in sig.pattern.transitions:
                    pat_state = sig.pattern.transitions[(pat_state, label)]
                assert pat_state not in sig.pattern.finals, (depth, seq)


# --- the on-the-fly search against the product it replaces ------------------

BLOCKS = [("a",), ("b",), ("b", "a"), ()]


def product_witness(ts, pattern):
    """The witness detection used to give: ``check_reach`` on the product, mapped to base states."""
    prod = product(ts, pattern)
    outcome = check_reach(prod, ACCEPTING)
    if outcome.verdict == "violated":
        return None
    base = prod.metadata["base_state"]
    path = outcome.counterexample
    return Path(tuple(base[p] for p in path.states), path.actions)


def monitor_step(pattern, state, label):
    """The monitor convention: a label outside the alphabet, or without a move, self-loops."""
    if label in pattern.input_alphabet:
        return pattern.transitions.get((state, label), state)
    return state


def shortest_match_length(ts, pattern):
    """Fewest actions that drive the monitor into a final state, by layers of reachable pairs."""
    layer = {(ts.initial, pattern.initial)}
    seen = set(layer)
    depth = 0
    while layer:
        if any(state in pattern.finals for _, state in layer):
            return depth
        layer = {(tid, monitor_step(pattern, state, action.label()))
                 for sid, state in layer for action, tid in ts.transitions[sid]} - seen
        seen |= layer
        depth += 1
    return None


def assert_witness_matches(ts, pattern, witness):
    """The witness is a run of ``ts`` from its initial state that ends the monitor in a final state."""
    assert witness.states[0] == ts.initial
    state = pattern.initial
    for sid, action, tid in zip(witness.states, witness.actions, witness.states[1:]):
        assert (action, tid) in ts.transitions[sid]
        state = monitor_step(pattern, state, action.label())
    assert state in pattern.finals


def emitted_labels(ts):
    return sorted({action.label() for edges in ts.transitions.values() for action, _ in edges})


def random_monitor(rnd, labels, name):
    """A partial monitor over some emitted labels and one never emitted.

    Some monitors start final, some have no finals, and some carry moves on
    emitted labels left out of their alphabet, which the monitor must ignore.
    """
    states = tuple(f"m{i}" for i in range(rnd.randint(1, 4)))
    shape = rnd.random()
    if shape < 0.15:
        finals = (states[0],)
    elif shape < 0.3:
        finals = ()
    else:
        finals = tuple(q for q in states[1:] if rnd.random() < 0.5) or states[-1:]
    alphabet = [label for label in labels if rnd.random() < 0.7] + ["never_emitted"]
    outside = [label for label in labels if label not in alphabet]
    delta = [(q, sym, rnd.choice(states)) for q in states for sym in alphabet if rnd.random() < 0.6]
    delta += [(q, sym, rnd.choice(states)) for q in states for sym in outside if rnd.random() < 0.3]
    return make_sa(name, states, states[0], finals, alphabet, alphabet, delta, partial=True)


def oracle_cases():
    """60 generated composites of every flavor and voted structures that abstain."""
    cases = []
    for seed in range(60):
        ma, lattice0, _ = gen_instance(random.Random(seed))
        binding = ma.root()
        if binding.mode == MODE_CA_FROM_SA:
            universe = list(itertools.product(ALPHABET, repeat=ma.ca_set[binding.ca].width))
        else:
            universe = BLOCKS
        cases.append((ma, universe, lattice0))
    structures = [
        echo_dhr(scheduler=rotate_ca()),
        inject_fault(echo_dhr(scheduler=rotate_ca()), 1, flipper_sa()),
        inject_fault(echo_dhr(quorum=3), 0, flipper_sa()),
        *(generated_dhr(seed) for seed in range(4)),
    ]
    voted = [("a",), ("b",), ("a", "b"), ("b", "b")]
    cases += [(structure.automaton, voted, None) for structure in structures]
    return cases


def test_monitor_witness_is_the_product_witness():
    rnd = random.Random(2001)
    seen = {"matched": 0, "clean": 0, "starts final": 0, "no finals": 0, "abstain": 0}
    for ma, universe, lattice0 in oracle_cases():
        ts = flatten(ma, universe, lattice0=lattice0)
        labels = emitted_labels(ts)
        seen["abstain"] += ABSTAIN_LABEL in labels
        monitors = [random_monitor(rnd, labels, f"mon{i}") for i in range(4)]
        expected = []
        checked = []
        for pattern in monitors:
            want = product_witness(ts, pattern)
            assert _monitor_witness(ts, pattern) == want, (ma.name, pattern)
            # and, independently of either search, a shortest matching run
            if want is None:
                assert shortest_match_length(ts, pattern) is None
            else:
                assert len(want) == shortest_match_length(ts, pattern)
                assert_witness_matches(ts, pattern, want)
            expected.append(want)
            seen["matched" if want is not None else "clean"] += 1
            seen["starts final"] += pattern.initial in pattern.finals
            seen["no finals"] += not pattern.finals
            # check --property <bad_prefix> reports the very same run
            result = check_property(ma, Property("p", "bad_prefix", pattern=pattern), universe,
                                    lattice0=lattice0)
            assert result.verdict == ("holds" if want is None else "violated")
            assert result.counterexample == want
            checked.append(result)
        signatures = [Signature(m.name, "generated", m) for m in monitors]
        report = detect(ma, universe, signatures, ts=ts)
        assert [r.witness for r in report.results] == expected
        assert [r.matched for r in report.results] == [w is not None for w in expected]
        for pattern, result in zip(monitors, checked):
            assert result.stats == {**report.stats, "pattern": pattern.name}
    assert min(seen.values()) >= 5, seen


def rogue_dhr():
    """``const_dhr`` with two slots emitting B: the vote is B from the first tick."""
    return inject_fault(inject_fault(const_dhr(), 0, const_sa("emitB", "B")),
                        1, const_sa("emitB", "B"))


def test_detect_builds_no_product(monkeypatch):
    cases = [(build_dhr(rogue_dhr()), UNIVERSE), (build_dhr(const_dhr()), UNIVERSE),
             (inject_fault(echo_dhr(scheduler=rotate_ca()), 1, flipper_sa()).automaton,
              [("a",), ("b",), ("a", "b")])]
    sig = emits_b_signature()
    rnd = random.Random(7)
    runs = []
    for ma, universe in cases:
        ts = flatten(ma, universe)
        signatures = [sig] + [Signature(f"r{i}", "random", random_monitor(rnd, emitted_labels(ts), f"r{i}"))
                              for i in range(3)]
        runs.append((ma, universe, signatures,
                     [product_witness(ts, s.pattern) for s in signatures]))

    def refuse(*args, **kwargs):
        raise AssertionError("a product graph was built")

    # the package's ``detect`` attribute is the function, so fetch the module itself
    detect_module = importlib.import_module("mimic_automata.detect")
    for module in (checker, detect_module):  # whichever names the searches look up
        monkeypatch.setattr(module, "product", refuse, raising=False)
        monkeypatch.setattr(module, "check_reach", refuse, raising=False)
    for ma, universe, signatures, witnesses in runs:
        report = detect(ma, universe, signatures)
        assert [r.witness for r in report.results] == witnesses
        for sig, witness in zip(signatures, witnesses):  # check --property <bad_prefix>
            result = check_property(ma, Property(sig.id, "bad_prefix", pattern=sig.pattern), universe)
            assert result.counterexample == witness
    assert any(w is not None for *_, witnesses in runs for w in witnesses)


def test_a_depth_one_match_reads_fewer_edges_than_the_product_has_states(monkeypatch):
    ma = x11_parity_ma()
    universe = [("0",), ("1",)]
    ts = flatten(ma, universe)
    first_label = ts.transitions[ts.initial][0][0].label()
    pattern = make_sa("first", ("w", "hit"), "w", ("hit",), (first_label,),
                      delta=[("w", first_label, "hit")], partial=True)
    reads = []  # the search reads one label per edge it reads
    real_label = checker.Action.label

    def counted_label(action):
        reads.append(action)
        return real_label(action)

    monkeypatch.setattr(checker.Action, "label", counted_label)
    witness = _monitor_witness(ts, pattern)
    monkeypatch.undo()
    assert len(witness) == 1
    assert len(reads) == 1  # the initial pair's first edge already matches
    assert len(product(ts, pattern).states) > len(ts.states) >= 240


def test_detect_stops_at_its_bound():
    ma = build_dhr(rogue_dhr())
    ts = flatten(ma, UNIVERSE, bound=1)  # one state; the match is the second pair
    assert detect(ma, UNIVERSE, [emits_b_signature()], bound=2).results[0].matched
    with pytest.raises(ExplosionError) as exc:
        detect(ma, UNIVERSE, [emits_b_signature()], bound=1)
    assert (exc.value.bound, exc.value.frontier) == (1, 1)
    assert len(ts.states) == 1


def test_package_detect_name_is_the_function_not_the_module():
    import mimic_automata
    import mimic_automata.detect as bound  # binds the package attribute: the function

    module = importlib.import_module("mimic_automata.detect")
    assert isinstance(module, types.ModuleType)
    assert mimic_automata.detect is bound is module.detect is detect


# --- search by store index against search by name ---------------------------

def plain_copy(ts):
    """The same system with plain dicts in place of ``flatten``'s views: searched by name."""
    return TransitionSystem(dict(ts.states), ts.initial, dict(ts.transitions), dict(ts.atomic_props),
                            ts.vocabulary, ts.metadata)


def test_search_by_index_equals_search_by_name():
    rnd = random.Random(2002)
    seen = collections.Counter()
    for ma, universe, lattice0 in oracle_cases():
        ts = flatten(ma, universe, lattice0=lattice0)
        copy = plain_copy(ts)
        for prop in rnd.sample(sorted(ts.vocabulary), min(3, len(ts.vocabulary))):
            for check, target in ((check_invariant, f"not {prop}"), (check_reach, prop),
                                  (check_invariant, f"{prop} or not {prop}")):
                result = check(ts, target)
                assert result == check(copy, target), (ma.name, target)
                seen[check.__name__, result.verdict] += 1
        labels = emitted_labels(ts)
        for i in range(3):
            pattern = random_monitor(rnd, labels, f"mon{i}")
            witness = _monitor_witness(ts, pattern)
            assert witness == _monitor_witness(copy, pattern), (ma.name, pattern)
            seen["monitor", witness is not None] += 1
    assert len(seen) == 6 and min(seen.values()) >= 5, seen


def test_a_search_over_flatten_names_only_the_returned_path(monkeypatch):
    ts = flatten(x11_parity_ma(), [("0",), ("1",)])
    named = []

    def counted_name(index):
        named.append(index)
        return f"s{index}"

    monkeypatch.setattr(checker, "_name", counted_name)
    result = check_invariant(ts, "not cell3_state(odd)")
    assert result.verdict == "violated"
    assert [f"s{i}" for i in named] == list(result.counterexample.states)
    assert len(ts.states) == 240 > len(named) > 1


# --- skipping monitors that the emitted labels cannot move into a final state --

NEVER = ("never_emitted", "also_never")


def skip_monitors(rnd, labels, name):
    """Monitors the emitted-label rule decides, and monitors it must leave to the search.

    One reads only labels never emitted; one reaches its final state only
    through such a label, with several states reachable on emitted ones;
    one starts final; and one moves on emitted labels, with finals that
    are reachable on them or not.
    """
    states = ("m0", "m1", "m2", "m3")
    inner = states[:3]
    delta = [(q, sym, rnd.choice(inner)) for q in inner for sym in labels if rnd.random() < 0.6]
    disjoint = make_sa(f"{name}_disjoint", states[:2], "m0", ("m1",), NEVER,
                       delta=[("m0", NEVER[0], "m1"), ("m1", NEVER[1], "m0")], partial=True)
    behind = make_sa(f"{name}_behind", states, "m0", ("m3",), [*labels, *NEVER],
                     delta=[*delta, (rnd.choice(inner), NEVER[0], "m3")], partial=True)
    starts_final = make_sa(f"{name}_final", inner, "m0", ("m0",), [*labels, NEVER[0]],
                           delta=delta, partial=True)
    finals = tuple(q for q in states[1:] if rnd.random() < 0.4) or ("m3",)
    moving = make_sa(f"{name}_moving", states, "m0", finals, [*labels, NEVER[0]],
                     delta=[(q, sym, rnd.choice(states)) for q in states for sym in labels if rnd.random() < 0.5],
                     partial=True)
    return [disjoint, behind, starts_final, moving]


def monitor_reach(pattern, labels):
    """Monitor states reachable from the initial one on ``labels``, under the monitor convention."""
    reach, frontier = {pattern.initial}, [pattern.initial]
    while frontier:
        frontier = [monitor_step(pattern, state, label) for state in frontier for label in labels]
        frontier = [state for state in frontier if state not in reach]
        reach.update(frontier)
    return reach


def search_outcome(search, *args, **kwargs):
    """The witness or ``("raised", bound, frontier)`` of one search."""
    try:
        return search(*args, **kwargs)
    except ExplosionError as exc:
        return ("raised", exc.bound, exc.frontier)


def test_skipped_monitors_give_the_product_verdict_and_the_same_bound_errors(monkeypatch):
    searches = []
    real_search = checker._bfs_search

    def counted_search(*args, **kwargs):
        searches.append(args)
        return real_search(*args, **kwargs)

    monkeypatch.setattr(checker, "_bfs_search", counted_search)
    rnd = random.Random(2003)
    seen = collections.Counter()
    for ma, universe, lattice0 in oracle_cases()[::3]:
        ts = flatten(ma, universe, lattice0=lattice0)
        labels = emitted_labels(ts)
        monitors = skip_monitors(rnd, labels, ma.name)
        signatures = [Signature(m.name, "skip", m) for m in monitors]
        report = detect(ma, universe, signatures, ts=ts)
        assert [r.witness for r in report.results] == [product_witness(ts, m) for m in monitors]
        for pattern in monitors:
            reach = monitor_reach(pattern, labels)
            pairs = len(product(ts, pattern).states)
            bounds = {1, pairs - 1, pairs, len(ts.states) * len(reach) - 1, len(ts.states) * len(reach)}
            for bound in sorted(b for b in bounds if b >= 1):
                want = search_outcome(_monitor_witness, ts, pattern, bound)
                del searches[:]
                got = search_outcome(detect, ma, universe, [Signature("s", "skip", pattern)], bound, ts=ts)
                if isinstance(got, DetectionReport):
                    got = got.results[0].witness
                assert got == want, (ma.name, pattern.name, bound)
                skipped = not searches
                seen["skipped" if skipped else ("raised" if isinstance(want, tuple) else "searched")] += 1
                if skipped:
                    assert reach.isdisjoint(pattern.finals) and len(ts.states) * len(reach) <= bound
                if bound >= len(ts.states):  # check's flatten stays within the bound
                    prop = Property("p", "bad_prefix", pattern=pattern)
                    result = search_outcome(check_property, ma, prop, universe, bound=bound, lattice0=lattice0)
                    if isinstance(result, CheckResult):
                        assert result.stats == {**report.stats, "pattern": pattern.name}
                        result = result.counterexample
                    assert result == want, (ma.name, pattern.name, bound)
            seen["several reachable"] += len(reach) > 1 and reach.isdisjoint(pattern.finals)
    assert len(seen) == 4 and min(seen.values()) >= 5, seen


def test_a_signature_over_labels_never_emitted_makes_no_search(monkeypatch):
    ma = build_dhr(rogue_dhr())
    ts = flatten(ma, UNIVERSE)
    calls = []
    real_search = checker._bfs_search
    monkeypatch.setattr(checker, "_bfs_search", lambda *args: calls.append(args) or real_search(*args))
    never = make_sa("never", ("w", "m"), "w", ("m",), ("C",), delta=[("w", "C", "m")], partial=True)
    report = detect(ma, UNIVERSE, [Signature("emits_c", "never voted", never)], ts=ts)
    assert report.results[0].matched is False and calls == []
    result = check_property(ma, Property("p", "bad_prefix", pattern=never), UNIVERSE)
    assert result.verdict == "holds" and calls == []
    report = detect(ma, UNIVERSE, [emits_b_signature()], ts=ts)
    assert report.results[0].matched is True and len(calls) == 1


@pytest.mark.parametrize("paths", ["sigs.ma", b"sigs.ma"])
def test_load_signatures_refuses_a_bare_path(paths):
    with pytest.raises(TypeError, match="list of paths"):
        load_signatures(paths)
