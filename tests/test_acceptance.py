"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
Budgets and tolerances are pinned here; a red criterion is a release blocker.
"""

import itertools
import random
import time
from functools import wraps

import mimic_automata.cellular as cellular
import mimic_automata.composition as composition
from mimic_automata import (
    build_dtmc,
    ca_step,
    check_invariant,
    check_reach,
    detect,
    dhr_run,
    flatten,
    inject_fault,
    ma_initial,
    ma_run,
    point_mass_pca,
    reach_probability_exact,
    reach_probability_mc,
    replay_path,
    strip_clocks,
    validate_ma,
)
from mimic_automata.cellular import ProbabilisticCellularAutomaton, builtin_rule_table
from mimic_automata.checker import builtin_labeling
from mimic_automata.cli import main as cli_main
from mimic_automata.modelfile import parse, parse_files, serialize
from mimic_automata.props import eval_predicate, parse_predicate

from helpers import (
    ALPHABET,
    DATA,
    MODELS,
    SIGNATURES,
    const_sa,
    echo_dhr,
    flip_ma,
    flipper_sa,
    gen_document,
    gen_instance,
    gen_pca_instance,
    identity_ca,
    parity_ma,
    plain,
    rotate_ca,
    uniform_pca,
    xor_ca,
)
from reference_interpreter import ref_ca_step, ref_run
from test_detect import const_dhr, emits_b_signature


def criterion(number, title):
    def wrap(fn):
        @wraps(fn)
        def run():
            try:
                detail = fn()
            except BaseException:
                print(f"ACCEPTANCE {number} [{title}]: FAIL")
                raise
            print(f"ACCEPTANCE {number} [{title}]: PASS" + (f" ({detail})" if detail else ""))

        return run

    return wrap


@criterion(1, "oracle equivalence")
def test_criterion_1_oracle_equivalence():
    rnd = random.Random(1138)
    started = time.perf_counter()
    instances = 0
    while instances < 1000:
        ma, lattice0, schedule = gen_instance(rnd)
        assert validate_ma(ma) == []
        final, trace = ma_run(ma, ma_initial(ma, lattice0), schedule)
        ref_final, ref_ticks = ref_run(ma, lattice0, schedule)
        assert plain(final) == ref_final, "final configuration mismatch"
        assert len(trace) == len(ref_ticks)
        for tick, (ref_lattice, ref_cells, ref_output) in zip(trace, ref_ticks):
            assert tick.lattice_after == ref_lattice
            assert tuple(tick.output or ()) == tuple(ref_output)
            if ref_cells is not None:
                got = tuple(
                    (plain(r.final_state), r.output_word, r.steps, r.accepted)
                    for r in tick.per_cell
                )
                assert got == ref_cells
        instances += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    return f"{instances} instances in {elapsed:.1f}s"


@criterion(2, "synchrony law")
def test_criterion_2_synchrony():
    rnd = random.Random(2187)
    real_ca_step = composition.ca_step
    real_pca_rows, real_pca_sample = cellular.pca_rows, cellular.pca_sample
    pca_rnd = random.Random(2188)
    instances = itertools.chain(
        (gen_instance(rnd) for _ in range(300)),
        # the generated instances have deterministic roots: 40 more with a random PCA root
        ((*gen_pca_instance(pca_rnd), [(pca_rnd.choice(ALPHABET),)] * 30) for _ in range(40)),
    )
    checked = sampled_runs = 0
    try:
        for ma, lattice0, schedule in instances:
            root_ca = ma.ca_set[ma.root().ca]
            stepped, rowed = [], []  # the lattices the root's ca_step and pca_rows were called on
            root_rows, sampled = [], []  # the rows pca_rows built for the root; the rows each draw used

            def counting_ca(ca, lattice, _root=root_ca, _calls=stepped):
                if ca is _root:
                    _calls.append(lattice)
                return real_ca_step(ca, lattice)

            def counting_rows(pca, lattice, *rest, _root=root_ca, _calls=rowed, _built=root_rows):
                rows = real_pca_rows(pca, lattice, *rest)
                if pca is _root:
                    _calls.append(lattice)
                    _built.append(rows)
                return rows

            def counting_sample(rows, rng, _calls=sampled):
                _calls.append(rows)
                return real_pca_sample(rows, rng)

            composition.ca_step = counting_ca
            cellular.pca_rows = counting_rows
            cellular.pca_sample = counting_sample
            final, trace = ma_run(ma, ma_initial(ma, lattice0), schedule)
            assert final.macro_clock == len(schedule), "macro clock must equal schedule length"
            if ma.root().mode == "sa_from_ca":
                befores = {tick.lattice_before for tick in trace}
                if isinstance(root_ca, ProbabilisticCellularAutomaton):
                    draws = [rows for rows in sampled if any(rows is built for built in root_rows)]
                    assert len(draws) == len(schedule), "exactly one sampled lattice step per tick"
                    assert len(rowed) == len(set(rowed)) == len(befores), \
                        "sampling rows built once per distinct lattice"
                    assert set(rowed) == befores
                    sampled_runs += 1
                else:
                    for tick in trace:
                        assert tick.lattice_after == ref_ca_step(root_ca, tick.lattice_before), \
                            "every tick is exactly one lattice step"
                    assert len(stepped) == len(set(stepped)) == len(befores), \
                        "one lattice step per distinct lattice"
                    assert set(stepped) == befores
            checked += 1
    finally:
        composition.ca_step = real_ca_step
        cellular.pca_rows, cellular.pca_sample = real_pca_rows, real_pca_sample
    assert sampled_runs == 40
    return f"{checked} runs ({sampled_runs} sampled), zero violations"


@criterion(3, "lattice rule correctness")
def test_criterion_3_ca_correctness():
    started = time.perf_counter()
    # additivity of the xor rule, exhaustive for all widths up to 8
    for width in range(1, 9):
        ca = xor_ca("x", width=width)
        step = {x: ca_step(ca, x) for x in itertools.product("01", repeat=width)}
        for x in step:
            for y in step:
                xy = tuple("1" if a != b else "0" for a, b in zip(x, y))
                fxy = tuple("1" if a != b else "0" for a, b in zip(step[x], step[y]))
                assert step[xy] == fxy, f"additivity broken at {x}, {y}"
    # quiescent lattice is a fixpoint of every built-in rule
    for kind in ("xor", "identity", "majority"):
        for width in range(1, 9):
            from mimic_automata.cellular import CellularAutomaton

            ca = CellularAutomaton("b", ("0", "1"), width, 1,
                                   rule=builtin_rule_table(kind, ("0", "1")), rule_expr=kind)
            zero = ("0",) * width
            assert ca_step(ca, zero) == zero, f"{kind} not quiescent at width {width}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.1f}s"
    return f"exhaustive N<=8 in {elapsed:.1f}s"


@criterion(4, "probabilistic agreement")
def test_criterion_4_probabilistic():
    started = time.perf_counter()
    ma = flip_ma()

    # exactly 1 - 0.5^2 within two steps, derived by path enumeration
    dtmc = build_dtmc(ma, ("a",))
    bounded = reach_probability_exact(dtmc, "lattice_has(1)", horizon=2)
    assert abs(bounded.probability - 0.75) <= 1e-12
    unbounded = reach_probability_exact(dtmc, "lattice_has(1)")
    assert abs(unbounded.probability - 1.0) <= 1e-9

    within = 0
    within_3sigma = 0
    sigma_band = 3.0 * (0.75 * 0.25 / 100_000) ** 0.5
    for seed in range(100):
        est = reach_probability_mc(ma, ("a",), "lattice_has(1)", horizon=2,
                                   trials=100_000, seed=seed)
        if abs(est.probability - 0.75) <= 0.01:
            within += 1
        if abs(est.probability - 0.75) <= sigma_band:
            within_3sigma += 1
    assert within >= 95, f"only {within}/100 seeds within +/-0.01"
    assert within_3sigma >= 95, f"only {within_3sigma}/100 seeds within 3 sigma"

    # row normalization across a spread of generated chains
    from mimic_automata import Binding, MimicAutomaton, SaUnit

    chains = [dtmc]
    for pca in (uniform_pca("u1", width=1), uniform_pca("u2", width=2),
                uniform_pca("u3", width=2, states=("0", "1", "2")),
                point_mass_pca(identity_ca("i2", width=2))):
        idle = const_sa("idle", "a", inputs=("a",), outputs=("a",))
        b = Binding("b", "sa_from_ca", pca.name,
                    {q: SaUnit("idle") for q in pca.cell_states},
                    seed=(pca.cell_states[0],) * pca.width)
        chains.append(build_dtmc(
            MimicAutomaton("m", {"idle": idle}, {pca.name: pca}, {}, {"b": b}, "b"), ("a",)))
    rows = 0
    for chain in chains:
        for row in chain.rows.values():
            assert abs(sum(p for _, p in row) - 1.0) <= 1e-9
            rows += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    return f"{within}/100 seeds in band, {rows} rows normalized, {elapsed:.1f}s"


@criterion(5, "fault masking")
def test_criterion_5_fault_masking():
    started = time.perf_counter()
    blocks = [tuple(w) for n in range(0, 4) for w in itertools.product("ab", repeat=n)]
    masked = 0
    for scheduler in (identity_ca("i3", width=3, states=("0", "1", "2")), rotate_ca()):
        healthy = echo_dhr(scheduler=scheduler, quorum=2)
        for slot in range(3):
            faulty = inject_fault(healthy, slot, flipper_sa())
            for block in blocks:
                want = dhr_run(healthy, [block])[0].voted_output
                got = dhr_run(faulty, [block])[0].voted_output
                assert want == got, f"slot {slot} fault visible on {block}"
                masked += 1
    # positive control: a captured majority must change the vote
    healthy = echo_dhr(quorum=2)
    captured = inject_fault(inject_fault(healthy, 0, flipper_sa()), 1, flipper_sa())
    changed = any(
        dhr_run(healthy, [block])[0].voted_output != dhr_run(captured, [block])[0].voted_output
        for block in blocks if block
    )
    assert changed, "two identical faults must alter the voted output"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    return f"{masked} masked cases, positive control fired, {elapsed:.1f}s"


def _brute_force_min_violation(ma, lattice0, universe, pred, depth=4):
    """Shortest input sequence (by exhaustive enumeration) falsifying pred."""
    props_fn, _ = builtin_labeling(ma)
    for length in range(0, depth + 1):
        for seq in itertools.product(universe, repeat=length):
            cfg = ma_initial(ma, lattice0)
            cfg, _ = ma_run(ma, cfg, list(seq))
            if not eval_predicate(pred, props_fn(strip_clocks(cfg))):
                return length
    return None


@criterion(6, "checker soundness and minimality")
def test_criterion_6_checker_soundness():
    rnd = random.Random(46751)
    universe = [("a",), ("b",)]
    replayed = 0
    minimal = 0
    for _ in range(40):
        ma, lattice0, _ = gen_instance(rnd)
        if ma.root().mode != "sa_from_ca":
            continue
        ts = flatten(ma, universe, lattice0=lattice0)
        for atom in sorted(ts.vocabulary):
            pred = parse_predicate(f"not {atom}")
            result = check_invariant(ts, pred)
            if result.verdict != "violated":
                continue
            assert replay_path(ma, ts, result.counterexample), "counterexample must replay"
            replayed += 1
            if len(result.counterexample) <= 4:
                brute = _brute_force_min_violation(ma, lattice0, universe, pred)
                assert brute == len(result.counterexample), "counterexample not minimal"
                minimal += 1
    # witnesses too
    pma = parity_ma()
    ts = flatten(pma, [("0",), ("1",)])
    witness = check_reach(ts, "cell0_state(odd)").counterexample
    assert replay_path(pma, ts, witness)
    assert replayed >= 50, f"corpus too small ({replayed} counterexamples)"
    return f"{replayed} evidence paths replayed, {minimal} minimality checks"


@criterion(7, "signature detection")
def test_criterion_7_detection():
    started = time.perf_counter()
    universe = [("x",)]
    healthy_report = detect(const_dhr().automaton, universe, [emits_b_signature()])
    assert healthy_report.matched == ()

    rogue = inject_fault(inject_fault(const_dhr(), 0, const_sa("emitB", "B")),
                         1, const_sa("emitB", "B"))
    ma = rogue.automaton
    report = detect(ma, universe, [emits_b_signature()])
    assert len(report.matched) == 1
    witness = report.matched[0].witness
    assert witness is not None and len(witness) == 1
    assert replay_path(ma, flatten(ma, universe), witness), "witness must replay"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"
    return f"planted fault matched, healthy clean, {elapsed:.1f}s"


@criterion(8, "format round-trip and CLI conformance")
def test_criterion_8_format_and_cli():
    import tempfile
    from pathlib import Path

    rnd = random.Random(500500)
    count = 0
    for i in range(500):
        doc = gen_document(rnd)
        text = serialize(doc)
        doc2, diags = parse(text, f"<gen{i}>")
        assert diags == [], f"generated document {i} rejected"
        assert doc2 == doc, f"round-trip changed document {i}"
        assert serialize(doc2) == text
        count += 1

    corpus = sorted(str(p) for p in MODELS.glob("*.ma")) + sorted(
        str(p) for p in SIGNATURES.glob("*.ma"))
    doc, diags = parse_files(corpus)
    assert diags == []
    assert parse(serialize(doc))[0] == doc

    golden = (DATA / "golden" / "parity_ma.golden").read_text()
    parity_doc, _ = parse_files([str(MODELS / "parity.ma")])
    assert serialize(parity_doc) == golden, "canonical golden drifted"

    parity = str(MODELS / "parity.ma")
    flip = str(MODELS / "flip.ma")
    det = str(MODELS / "dhr_detect.ma")
    sig = str(SIGNATURES / "emits_b.ma")
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.ma"
        bad.write_text("sa x {\n  states: a\n}\n")
        matrix = [
            (["validate", parity, flip, det], 0),
            (["validate", str(bad)], 3),
            (["check", parity, "--model", "parity_ma", "--property", "true_inv"], 0),
            (["check", parity, "--model", "parity_ma", "--property", "even_always"], 1),
            (["check", parity, "--model", "parity_ma", "--property", "even_always",
              "--bound", "1"], 2),
            (["check", parity, "--model", "parity_ma", "--property", "missing"], 3),
            (["check", flip, "--model", "flip_ma", "--property", "hit_one"], 0),
            (["detect", det, "--model", "const3", "--signatures", sig], 0),
            (["detect", det, "--model", "rogue3", "--signatures", sig], 1),
            (["simulate", parity, "--model", "parity_ma", "--input", "1", "--steps", "0"], 0),
            (["export-dot", parity, "--model", "parity_ma", "--out", f"{tmp}/g.dot"], 0),
        ]
        for argv, expected in matrix:
            assert cli_main(argv) == expected, f"{argv} exited wrong"
    return f"{count} documents round-tripped, golden stable, {len(matrix)} CLI cases"
