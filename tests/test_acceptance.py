"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``ACCEPTANCE PASS/FAIL`` line per criterion including measured runtimes.
"""

import math
import pathlib
import time

import numpy as np
import pytest

from stagepomdp.epochs import epoch_memory_operator, sample_epochs, worker_rng
from stagepomdp.errors import StagePomdpError
from stagepomdp.evaluate import (
    asymptotic_value_estimate,
    discounted_value_estimate,
    longrun_average_exact_fsc,
)
from stagepomdp.mimic import (
    build_mimic_strategy,
    mimic_action_exact,
    mimic_action_mc,
)
from stagepomdp.model import make_model, stage_duration_transform
from stagepomdp.strategies import (
    History,
    SequenceStrategy,
    TableStrategy,
    exact_history_distribution,
)
from stagepomdp.textio import parse_pomdp, serialize_pomdp
from stagepomdp.verify import (
    alternating_controller,
    check_cesaro_alignment,
    check_epoch_sum_lemma,
    check_liminf_subsequence,
    check_marginal_lemma,
    check_monotonicity,
    figure1_model,
    mixing_controller,
    random_pomdp_model,
    uniform_controller,
)

from conftest import Opaque

GOLDEN = pathlib.Path(__file__).parent / "golden"


def record(number, name, ok, detail, elapsed=None, limit=None):
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'} [{number:02d}] {name}: {detail}"
    if elapsed is not None:
        line += f" ({elapsed:.2f}s of {limit:.0f}s budget)"
    print(line)
    assert ok, line
    if elapsed is not None:
        assert elapsed < limit, f"runtime {elapsed:.2f}s over budget {limit}s"


def random_model(seed, n_states=4):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(n_states, 2, n_states))
    init = rng.uniform(0.1, 1.0, size=n_states)
    return make_model(
        [f"w{i}" for i in range(n_states)],
        ["a", "b"],
        ["s0", "s1"],
        rng.integers(0, 2, size=n_states),
        rng.uniform(-1, 1, size=(n_states, 2)),
        raw / raw.sum(axis=2, keepdims=True),
        init / init.sum(),
    )


def random_fully_observed(seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(3, 2, 3))
    init = rng.uniform(0.1, 1.0, size=3)
    return make_model(
        ["w0", "w1", "w2"], ["a", "b"], ["w0", "w1", "w2"], [0, 1, 2],
        rng.uniform(0.0, 1.0, size=(3, 2)),
        raw / raw.sum(axis=2, keepdims=True),
        init / init.sum(),
    )


def test_c01_stage_duration_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1000)
    worst = 0.0
    for trial in range(100):
        m = random_model(trial)
        h2 = rng.uniform(0.05, 1.0)
        h1 = rng.uniform(0.01, 0.99) * h2
        direct = stage_duration_transform(m, h1)
        composed = stage_duration_transform(stage_duration_transform(m, h2),
                                            h1 / h2)
        worst = max(worst, float(np.max(np.abs(direct.transition
                                               - composed.transition))))
        assert np.array_equal(stage_duration_transform(m, 1.0).transition,
                              m.transition)
    elapsed = time.perf_counter() - t0
    record(1, "stage-duration algebra", worst <= 1e-12,
           f"100 models, worst composition error {worst:.2e} <= 1e-12",
           elapsed, 1.0)


def test_c02_epoch_moments():
    t0 = time.perf_counter()
    details = []
    ok = True
    for i, h in enumerate((0.2, 0.5, 0.8)):
        n = 100_000
        lengths = sample_epochs(h, n, worker_rng(2024, i)).lengths.astype(float)
        mean = lengths.mean()
        se_mean = lengths.std(ddof=1) / math.sqrt(n)
        ok &= abs(mean - 1 / h) <= 3 * se_mean
        var = lengths.var(ddof=1)
        centered = lengths - mean
        se_var = math.sqrt(max(np.mean(centered**4) - var**2, 0.0) / n)
        ok &= abs(var - (1 - h) / h**2) <= 3 * se_var
        frac = float(np.mean(lengths >= 3))
        se_frac = math.sqrt(max(frac * (1 - frac), 1e-12) / n)
        ok &= abs(frac - (1 - h) ** 2) <= 3 * se_frac
        details.append(f"h={h}: mean {mean:.4f}~{1/h:.4f}")
    elapsed = time.perf_counter() - t0
    record(2, "epoch-process moments", ok, "; ".join(details), elapsed, 5.0)


def test_c03_epoch_operator():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(50):
        raw = rng.uniform(0.0, 1.0, (4, 4)) + 1e-3
        m = raw / raw.sum(axis=1, keepdims=True)
        for h in (0.3, 0.7):
            series = np.zeros((4, 4))
            power = np.eye(4)
            for term in range(1, 61):
                series += h * (1 - h) ** (term - 1) * power
                power = power @ m
            err = float(np.max(np.abs(epoch_memory_operator(m, h) - series)))
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    record(3, "epoch operator vs series", worst <= 1e-9,
           f"50 matrices x 2 durations, worst error {worst:.2e} <= 1e-9",
           elapsed, 1.0)


def test_c04_mimic_identity_at_h1():
    t0 = time.perf_counter()
    fig1 = figure1_model()
    rand = random_pomdp_model()
    hist1 = History(0)
    table = TableStrategy(
        2, 2,
        {hist1: [0.9, 0.1], hist1.child(0, 0): [0.2, 0.8]},
        default=[0.5, 0.5],
    )
    cases = [
        ("sequence", fig1, SequenceStrategy.pure([0, 1], 2)),
        ("table", fig1, table),
        ("controller", rand, mixing_controller(rand)),
        ("mixed-sequence", rand,
         SequenceStrategy([np.array([0.3, 0.7]), np.array([0.8, 0.2])])),
    ]
    worst = 0.0
    checked = 0
    for _, model, source in cases:
        mimic = build_mimic_strategy(model, source, 1.0)
        for depth in (1, 2, 3, 4):
            for hist, _ in exact_history_distribution(model, source, depth):
                diff = float(np.max(np.abs(mimic.act(hist) - source.act(hist))))
                worst = max(worst, diff)
                checked += 1
    elapsed = time.perf_counter() - t0
    record(4, "mimic identity at h=1", worst <= 1e-12,
           f"{checked} reachable histories over 4 source classes, "
           f"worst deviation {worst:.2e} <= 1e-12", elapsed, 60.0)


def test_c05_state_blind_closed_form():
    t0 = time.perf_counter()
    m = figure1_model()
    seq = SequenceStrategy.pure([0, 1], 2)
    h = 0.5
    oracle = sum(h * (1 - h) ** (k - 1) for k in range(1, 201, 2))
    exact = mimic_action_exact(m, seq, h, History(0))
    ok = abs(exact.weights[0] - oracle) <= 1e-9
    brute = mimic_action_exact(m, Opaque(seq), h, History(0), n_max=200)
    ok &= abs(brute.weights[0] - oracle) <= 1e-9
    est = mimic_action_mc(m, seq, h, History(0), 100_000, worker_rng(5, 0))
    se = max(est.std_errors[0], 1e-9)
    ok &= abs(est.weights[0] - 2.0 / 3.0) <= 3 * se
    elapsed = time.perf_counter() - t0
    record(5, "state-blind closed form", ok,
           f"exact {exact.weights[0]:.12f}, brute-force {brute.weights[0]:.12f}, "
           f"MC {est.weights[0]:.4f}+-{se:.4f} vs 2/3", elapsed, 5.0)


def test_c06_marginal_matching():
    t0 = time.perf_counter()
    reports = []
    for model in (figure1_model(), random_pomdp_model()):
        seq = SequenceStrategy.pure([0, 1], 2)
        for h in (0.3, 0.5, 0.7):
            for k in (1, 2, 3):
                reports.append(check_marginal_lemma(model, seq, h, k))
    hist1 = History(0)
    table = TableStrategy(2, 2, {hist1: [0.7, 0.3]}, default=[0.4, 0.6])
    for h in (0.3, 0.5, 0.7):
        reports.append(check_marginal_lemma(figure1_model(), table, h, 2,
                                            n_max=40))
    ok = all(r.passed for r in reports)
    worst = max(abs(r.quantities["difference"]) for r in reports)
    elapsed = time.perf_counter() - t0
    record(6, "marginal-matching joint laws", ok,
           f"{len(reports)} cases, worst entrywise error {worst:.2e}",
           elapsed, 30.0)


def test_c07_epoch_sum():
    t0 = time.perf_counter()
    reports = []
    for model in (figure1_model(), random_pomdp_model()):
        seq = SequenceStrategy.pure([0, 1], 2)
        for h in (0.3, 0.5, 0.7):
            for k in (1, 2, 3):
                reports.append(check_epoch_sum_lemma(model, seq, h, k,
                                                     n_traj=10_000,
                                                     rng_seed=900 + k))
    ok = all(r.passed for r in reports)
    elapsed = time.perf_counter() - t0
    record(7, "epoch-sum identity", ok,
           f"{len(reports)} cases within 3 combined standard errors",
           elapsed, 30.0)


def test_c08_cesaro_alignment():
    t0 = time.perf_counter()
    m = figure1_model()
    report = check_cesaro_alignment(m, SequenceStrategy.pure([0, 1], 2), 0.5,
                                    big_k=400, n_traj=2000, rng_seed=8)
    elapsed = time.perf_counter() - t0
    record(8, "Cesaro alignment at K=400", report.passed,
           f"|x - y| = {abs(report.quantities['difference']):.2e} <= "
           f"{report.tolerance:.2e}", elapsed, 30.0)


def test_c09_payoff_identity_end_to_end():
    from stagepomdp.verify import check_theorem_main

    t0 = time.perf_counter()
    reports = []
    for model in (figure1_model(), random_pomdp_model()):
        for ctrl in (alternating_controller(model), uniform_controller(model)):
            for h in (0.25, 0.5):
                reports.append(check_theorem_main(model, ctrl, h))
    rand = random_pomdp_model()
    for h in (0.25, 0.5):
        reports.append(check_theorem_main(rand, mixing_controller(rand), h))
    ok = all(r.passed for r in reports)
    paths = {r.metadata["path"] for r in reports}
    elapsed = time.perf_counter() - t0
    record(9, "duration-h vs mimic average payoff", ok,
           f"{len(reports)} cases, paths exercised: {sorted(paths)}",
           elapsed, 120.0)


def test_c10_fully_observed_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        model = random_fully_observed(seed)
        for lam in (0.1, 0.01):
            for h in (0.3, 0.7):
                lhs = discounted_value_estimate(model, lam, h).value
                shifted = lam / (1 + lam - lam * h)
                rhs = discounted_value_estimate(model, shifted, 1.0).value
                worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    record(10, "fully observed value identity", worst <= 1e-8,
           f"20 models x 4 (lambda, h) pairs, worst |diff| {worst:.2e} <= 1e-8",
           elapsed, 10.0)


def test_c11_example_discontinuity():
    t0 = time.perf_counter()
    m = figure1_model()
    at_one = longrun_average_exact_fsc(m, alternating_controller(m), 1.0).value
    ok = at_one >= 0.999
    est = asymptotic_value_estimate(m, 0.5)
    ok &= est.value <= 0.1
    best = max(
        abs(longrun_average_exact_fsc(m, ctrl, 0.5).value)
        for ctrl in (alternating_controller(m), uniform_controller(m),
                     mixing_controller(m))
    )
    ok &= best <= 1e-9
    elapsed = time.perf_counter() - t0
    record(11, "example value discontinuity", ok,
           f"average(h=1)={at_one:.6f} >= 0.999, estimate(h=0.5)="
           f"{est.value:.4f} <= 0.1, best exact average {best:.1e} <= 1e-9",
           elapsed, 60.0)


def test_c12_monotone_sweep():
    t0 = time.perf_counter()
    lam_grid = (0.1, 0.05, 0.02, 0.01, 0.005)
    h_grid = (0.25, 0.5, 0.75, 1.0)
    fig_report = check_monotonicity(figure1_model(), h_grid, lam_grid)
    from stagepomdp.verify import fully_observed_model

    fo_model = fully_observed_model()
    fo_report = check_monotonicity(fo_model, h_grid, lam_grid)
    estimates = [asymptotic_value_estimate(fo_model, h, lam_grid)
                 for h in h_grid]
    values = [e.value for e in estimates]
    spread_ok = all(
        abs(values[i] - values[j])
        <= estimates[i].slack + estimates[j].slack + 1e-3
        for i in range(len(values)) for j in range(i + 1, len(values))
    )
    ok = fig_report.passed and fo_report.passed and spread_ok
    elapsed = time.perf_counter() - t0
    record(12, "monotone value sweep", ok,
           f"example margin {fig_report.quantities['value']:.4f} >= 0, "
           f"fully observed constant within slack (spread "
           f"{max(values) - min(values):.2e})", elapsed, 300.0)


def test_c13_parser_serializer_corpus():
    t0 = time.perf_counter()
    valid = sorted((GOLDEN / "valid").glob("*.pomdp"))
    invalid = sorted((GOLDEN / "invalid").glob("*.pomdp"))
    ok = len(valid) >= 10 and len(invalid) >= 10
    for path in valid:
        model = parse_pomdp(path.read_text(), filename=path.name)
        again = parse_pomdp(serialize_pomdp(model), filename=path.name)
        ok &= np.array_equal(model.transition, again.transition)
        ok &= np.array_equal(model.init, again.init)
        ok &= np.array_equal(model.payoff, again.payoff)
        ok &= model.state_names == again.state_names
    mismatches = 0
    for path in invalid:
        expected = path.with_suffix(".err").read_text()
        try:
            parse_pomdp(path.read_text(), filename=path.name)
            mismatches += 1
        except StagePomdpError as err:
            if f"{type(err).__name__}: {err}\n" != expected:
                mismatches += 1
    ok &= mismatches == 0
    elapsed = time.perf_counter() - t0
    record(13, "parser/serializer golden corpus", ok,
           f"{len(valid)} valid round-trips, {len(invalid)} invalid files with "
           f"byte-exact positioned errors", elapsed, 30.0)


def test_c14_liminf_subsequence_property():
    t0 = time.perf_counter()
    reports = []
    n = 100_000
    seq = np.sin(np.sqrt(np.arange(1, n + 1)))
    reports.append(check_liminf_subsequence(seq, np.arange(0, n, 2), 2, 0.05))
    harmonic = 1.0 / np.arange(1, 10_001)
    reports.append(check_liminf_subsequence(harmonic, np.arange(0, 10_000, 3),
                                            3, 1e-3))
    reports.append(check_liminf_subsequence(np.full(500, 2.5),
                                            np.arange(0, 500, 4), 4, 1e-12))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m = 5000
        diffs = rng.uniform(-1, 1, m) / np.arange(1, m + 1)
        series = np.cumsum(diffs)
        step = 1 + seed % 3
        tail_scale = float(np.abs(diffs[int(0.7 * m):]).max()) * step
        reports.append(check_liminf_subsequence(
            series, np.arange(0, m, step), step, 3 * tail_scale + 1e-9
        ))
    ok = all(r.passed for r in reports)
    elapsed = time.perf_counter() - t0
    record(14, "liminf subsequence proxies", ok,
           f"{len(reports)} synthetic sequences within declared tolerances",
           elapsed, 30.0)
