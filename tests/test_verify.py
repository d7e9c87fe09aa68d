import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagepomdp.errors import GapBoundViolated, NotFullyObserved
from stagepomdp.evaluate import longrun_average_exact_fsc
from stagepomdp.model import is_fully_observed, make_model, validate_model
from stagepomdp.strategies import History, SequenceStrategy, TableStrategy
from stagepomdp.verify import (
    alternating_controller,
    check_cesaro_alignment,
    check_corollary_rescale,
    check_epoch_sum_lemma,
    check_fully_observed_identity,
    check_liminf_subsequence,
    check_marginal_lemma,
    check_monotonicity,
    check_theorem_main,
    figure1_model,
    fully_observed_model,
    liminf_trailing,
    random_pomdp_model,
    render_report,
    run_suite,
    uniform_controller,
)

from conftest import Opaque, golden_mismatch

GOLDEN = Path(__file__).parent / "golden"


def constant_model(c=0.42):
    m = random_pomdp_model()
    return make_model(
        m.state_names, m.action_names, m.signal_names, m.signal_map,
        np.full((m.n_states, m.n_actions), c), m.transition, m.init,
    )


# --- bundled example -------------------------------------------------------------

def test_figure1_contents():
    m = figure1_model()
    validate_model(m)
    assert not is_fully_observed(m)
    assert m.n_signals == 1
    # payoff 1 in the two live states for every action, 0 when absorbed
    assert np.array_equal(m.payoff, [[1, 1], [1, 1], [0, 0]])
    # all the transitions named by the construction are deterministic
    assert m.transition[0, 0, 1] == 1.0
    assert m.transition[1, 1, 0] == 1.0
    assert m.transition[0, 1, 2] == 1.0
    assert m.transition[1, 0, 2] == 1.0
    assert m.transition[2, 0, 2] == 1.0 and m.transition[2, 1, 2] == 1.0
    assert m.init[0] == 1.0


def test_figure1_alternating_full_payoff_at_h1():
    m = figure1_model()
    est = longrun_average_exact_fsc(m, alternating_controller(m), 1.0)
    assert est.value == pytest.approx(1.0, abs=1e-12)


# --- report mechanics -------------------------------------------------------------

def test_reports_recomputable():
    m = figure1_model()
    seq = SequenceStrategy.pure([0, 1], 2)
    reports = [
        check_marginal_lemma(m, seq, 0.5, 2),
        check_epoch_sum_lemma(m, seq, 0.5, 2, n_traj=500, rng_seed=0),
        check_theorem_main(m, alternating_controller(m), 0.5),
        check_fully_observed_identity(fully_observed_model(), 0.1, 0.5),
    ]
    for report in reports:
        assert report.passed == report.recomputed_pass()
        assert render_report(report).startswith("PASS" if report.passed else "FAIL")


# --- marginal lemma ---------------------------------------------------------------

def test_marginal_lemma_h1_exact():
    m = random_pomdp_model()
    seq = SequenceStrategy([np.array([0.3, 0.7]), np.array([0.8, 0.2])])
    report = check_marginal_lemma(m, seq, 1.0, 3)
    assert report.passed
    assert abs(report.quantities["difference"]) <= 1e-12


def test_marginal_lemma_constant_payoff():
    m = constant_model(0.42)
    seq = SequenceStrategy([np.array([0.5, 0.5])])
    report = check_marginal_lemma(m, seq, 0.5, 2)
    assert report.passed
    assert report.quantities["lhs_expected_payoff"] == pytest.approx(0.42, abs=1e-10)
    assert report.quantities["rhs_expected_payoff"] == pytest.approx(0.42, abs=1e-10)


def test_marginal_lemma_table_source_truncated():
    m = figure1_model()
    hist1 = History(0)
    table = TableStrategy(
        2, 2,
        {hist1: [0.9, 0.1], hist1.child(0, 0): [0.2, 0.8]},
        default=[0.5, 0.5],
    )
    report = check_marginal_lemma(m, Opaque(table), 0.5, 2, n_max=40)
    assert report.passed
    assert report.metadata["truncation_bound"] > 0.0
    # both joints account for (almost) all probability
    assert report.quantities["rhs_mass"] == pytest.approx(
        1.0, abs=report.metadata["truncation_bound"] + 1e-9
    )


# --- epoch sum lemma ----------------------------------------------------------------

def test_epoch_sum_constant_payoff():
    m = constant_model(0.42)
    seq = SequenceStrategy([np.array([0.5, 0.5])])
    report = check_epoch_sum_lemma(m, seq, 0.5, 1, n_traj=4000, rng_seed=1)
    assert report.passed
    # the epoch sum of a constant payoff is c * E[epoch length] = c / h
    assert report.quantities["lhs"] == pytest.approx(0.84, abs=0.05)


def test_epoch_sum_h1_single_stage():
    m = random_pomdp_model()
    seq = SequenceStrategy.pure([0, 1], 2)
    report = check_epoch_sum_lemma(m, seq, 1.0, 2, n_traj=3000, rng_seed=2)
    assert report.passed


# --- cesaro alignment -----------------------------------------------------------------

def test_cesaro_constant_exact():
    m = constant_model(0.3)
    seq = SequenceStrategy([np.array([0.5, 0.5])])
    report = check_cesaro_alignment(m, seq, 0.5, 40, n_traj=200, rng_seed=3)
    assert report.passed
    # the fixed-horizon side is exactly c per trajectory; the epoch-boundary
    # side is c * (h T_K / K), equal to c only in expectation
    assert report.quantities["lhs"] == pytest.approx(0.3, abs=1e-12)
    assert report.quantities["rhs"] == pytest.approx(0.3, abs=3 * 0.3 * 0.05)


def test_cesaro_h1_identical():
    m = random_pomdp_model()
    seq = SequenceStrategy.pure([0, 1], 2)
    report = check_cesaro_alignment(m, seq, 1.0, 50, n_traj=100, rng_seed=4)
    assert report.passed
    assert report.quantities["difference"] == pytest.approx(0.0, abs=1e-12)


def test_lemma_checks_need_two_plays():
    # one play has no standard error, so its tolerance would be NaN
    m = random_pomdp_model()
    seq = SequenceStrategy.pure([0, 1], 2)
    with pytest.raises(ValueError, match="n_traj"):
        check_epoch_sum_lemma(m, seq, 0.5, 2, n_traj=1, rng_seed=0)
    with pytest.raises(ValueError, match="n_traj"):
        check_cesaro_alignment(m, seq, 0.5, 40, n_traj=1, rng_seed=0)


# --- liminf utilities -------------------------------------------------------------------

def test_liminf_trailing_values():
    assert liminf_trailing([2.0] * 10) == 2.0
    decreasing = np.linspace(1.0, 0.1, 50)
    assert liminf_trailing(decreasing) == pytest.approx(0.1)
    n = np.arange(1, 2001)
    alternating = (-1.0) ** n / n
    value = liminf_trailing(alternating)
    window = alternating[-400:]
    assert value == float(window.min())
    assert -1e-3 < value < 0.0


def test_liminf_subsequence_constant_and_harmonic():
    const = check_liminf_subsequence([1.5] * 100, np.arange(0, 100, 2), 2, 1e-12)
    assert const.passed
    harmonic = 1.0 / np.arange(1, 3001)
    rep = check_liminf_subsequence(harmonic, np.arange(0, 3000, 3), 3, 1e-3)
    assert rep.passed


def test_liminf_gap_violation():
    with pytest.raises(GapBoundViolated):
        check_liminf_subsequence(np.zeros(100), np.array([0, 50, 51]), 10, 0.1)


@pytest.mark.parametrize("indices", [[-4, -2, 0], [4, 2, 0], [0, 2, 6], [0, 0, 1]])
def test_liminf_indices_must_increase_within_the_sequence(indices):
    # negative indices wrapped around, decreasing ones passed the gap check
    # and one past the end raised a bare IndexError
    with pytest.raises(ValueError, match="increase strictly"):
        check_liminf_subsequence(np.arange(5.0), indices, 2, 0.1)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    step=st.integers(1, 4),
    offset=st.integers(0, 3),
)
def test_liminf_subsequence_property(seed, step, offset):
    # sequences with vanishing consecutive differences: partial sums of
    # c_i / i with |c_i| <= 1
    rng = np.random.default_rng(seed)
    n = 4000
    diffs = rng.uniform(-1.0, 1.0, n) / np.arange(1, n + 1)
    seq = np.cumsum(diffs)
    indices = np.arange(offset, n, step)
    tail_scale = float(np.abs(diffs[int(0.7 * n):]).max()) * step
    report = check_liminf_subsequence(seq, indices, step, 3 * tail_scale + 1e-9)
    assert report.passed


# --- payoff identity checks ----------------------------------------------------------------

def test_theorem_h1_trivial():
    m = random_pomdp_model()
    report = check_theorem_main(m, alternating_controller(m), 1.0)
    assert report.passed
    assert abs(report.quantities["difference"]) <= 1e-12


def test_theorem_constant_payoff():
    m = constant_model(0.9)
    report = check_theorem_main(m, uniform_controller(m), 0.5)
    assert report.passed
    assert report.quantities["lhs"] == pytest.approx(0.9, abs=1e-12)
    assert report.quantities["rhs"] == pytest.approx(0.9, abs=1e-12)


def test_theorem_figure1_both_zero():
    m = figure1_model()
    report = check_theorem_main(m, alternating_controller(m), 0.5)
    assert report.passed
    assert report.metadata["path"] == "exact"
    assert report.quantities["lhs"] == pytest.approx(0.0, abs=1e-12)
    assert report.quantities["rhs"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("model_fn", [figure1_model, random_pomdp_model])
@pytest.mark.parametrize("h", [0.25, 0.5])
def test_theorem_table_source_takes_exact_route(model_fn, h):
    m = model_fn()
    hist1 = History(0)
    table = TableStrategy(
        2, 2,
        {hist1: [0.9, 0.1], hist1.child(0, 0): [0.2, 0.8],
         hist1.child(1, 0): [0.6, 0.4]},
        default=[0.5, 0.5],
    )
    report = check_theorem_main(m, table, h)
    assert report.metadata["path"] == "exact"
    assert report.passed
    assert abs(report.quantities["difference"]) <= 1e-12


def test_rescale_reduces_to_main_check():
    m = figure1_model()
    rescaled = check_corollary_rescale(m, alternating_controller(m), 0.25, 0.5)
    assert rescaled.passed
    assert rescaled.metadata["relative"] == 0.5


def test_fully_observed_identity_cases():
    m = fully_observed_model()
    for h in (0.3, 1.0):
        report = check_fully_observed_identity(m, 0.1, h)
        assert report.passed
        assert abs(report.quantities["difference"]) <= 1e-10
    with pytest.raises(NotFullyObserved):
        check_fully_observed_identity(figure1_model(), 0.1, 0.5)


def test_single_state_identity_max_payoff():
    transition = np.ones((1, 2, 1))
    m = make_model(["w"], ["a", "b"], ["w"], [0], [[0.2, 0.9]], transition, [1.0])
    report = check_fully_observed_identity(m, 0.3, 0.6)
    assert report.passed
    assert report.quantities["lhs"] == pytest.approx(0.9, abs=1e-12)


def test_monotonicity_fast_grids():
    report = check_monotonicity(fully_observed_model(), (0.5, 1.0), (0.1, 0.05))
    assert report.passed


@pytest.mark.parametrize("h_grid", [(), (0.5,)], ids=["empty", "one"])
def test_monotonicity_needs_two_durations(h_grid):
    # a check over fewer than two durations compares nothing
    with pytest.raises(ValueError, match="at least two"):
        check_monotonicity(figure1_model(), h_grid, (0.1, 0.05), grid_resolution=8)


def test_run_suite_unknown():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_suite_deterministic():
    a = run_suite("fully-observed", seed=3)
    b = run_suite("fully-observed", seed=3)
    assert [r.quantities for r in a] == [r.quantities for r in b]
    assert all(r.passed for r in a)


def test_golden_mismatch_names_moved_entries():
    want = [{"name": "a", "quantities": {"x": 1.0}},
            {"name": "b", "quantities": {"x": 2.0}}]
    got = [want[0], {"name": "b", "quantities": {"x": 2.5}}]
    assert golden_mismatch(got, want, ("name",)) == \
        "moved: b; largest_diffs: {'quantities.x': 0.5}"


def test_full_suite_passes_with_default_seed():
    reports = run_suite("all", seed=0)
    failed = [r.name for r in reports if not r.passed]
    assert not failed, failed
    assert len(reports) >= 50
    # every report that draws no random numbers keeps its quantities exactly
    golden = json.loads((GOLDEN / "verify_quantities_seed0.json").read_text())
    got = [{"name": r.name, "quantities": r.quantities} for r in reports
           if not r.name.split(":")[-1].startswith(("epoch_sum_lemma",
                                                     "cesaro_alignment"))]
    assert got == golden, golden_mismatch(got, golden, ("name",))
