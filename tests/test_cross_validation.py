"""Independent-oracle cross checks between unrelated computation routes."""

import itertools
import math

import numpy as np
import pytest

from stagepomdp.epochs import worker_rng
from stagepomdp.evaluate import (
    cesaro_average,
    controller_product_chain,
    discounted_value_estimate,
    longrun_average_exact_fsc,
    longrun_average_mc,
    machine_product_chain,
)
from stagepomdp.mimic import (
    build_filter_machine,
    build_mimic_strategy,
    mimic_action_mc,
)
from stagepomdp.model import make_model, stage_duration_transform
from stagepomdp.strategies import (
    FiniteStateController,
    History,
    SequenceStrategy,
    exact_history_distribution,
)
from stagepomdp.verify import (
    check_marginal_lemma,
    figure1_model,
    fully_observed_model,
    mixing_controller,
    random_pomdp_model,
    uniform_controller,
)


def three_action_model(seed=5):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(4, 3, 4))
    init = rng.uniform(0.1, 1.0, size=4)
    return make_model(
        ["w0", "w1", "w2", "w3"],
        ["a0", "a1", "a2"],
        ["s0", "s1"],
        [0, 0, 1, 1],
        rng.uniform(-0.5, 1.5, size=(4, 3)),
        raw / raw.sum(axis=2, keepdims=True),
        init / init.sum(),
    )


def test_marginal_matching_for_general_controller():
    # the (state x memory) operator route against base-model enumeration,
    # for a controller with mixed rules and nontrivial memory updates
    model = random_pomdp_model()
    ctrl = mixing_controller(model)
    for h in (0.3, 0.7):
        for k in (1, 2, 3):
            report = check_marginal_lemma(model, ctrl, h, k)
            assert report.passed
            assert abs(report.quantities["difference"]) <= 1e-9


def test_marginal_matching_three_actions():
    model = three_action_model()
    ctrl = mixing_controller(model)
    report = check_marginal_lemma(model, ctrl, 0.5, 2)
    assert report.passed


def test_cesaro_average_vs_power_iteration():
    # the recurrent-class decomposition against long products of the chain;
    # the flip-update controller makes the product chain period 2, so
    # compare on an even post-burn-in window (exact for a 2-cycle)
    model = random_pomdp_model()
    for ctrl, h in ((mixing_controller(model), 0.4),
                    (uniform_controller(model), 0.7)):
        chain, init, payoffs = controller_product_chain(model, ctrl, h)
        exact = cesaro_average(chain, init, payoffs)
        dist = init.copy()
        for _ in range(10_000):
            dist = dist @ chain
        acc = 0.0
        window = 1000
        for _ in range(window):
            acc += float(dist @ payoffs)
            dist = dist @ chain
        assert exact == pytest.approx(acc / window, abs=1e-8)


def test_machine_chain_vs_direct_simulation():
    # the finite filter automaton against straight simulation of the mimic
    model = random_pomdp_model()
    ctrl = uniform_controller(model)
    machine = build_filter_machine(model, ctrl, 0.3)
    chain, init, payoffs = machine_product_chain(model, machine)
    exact = cesaro_average(chain, init, payoffs)
    mimic = build_mimic_strategy(model, ctrl, 0.3)
    est = longrun_average_mc(model, mimic, 1.0, horizon=3000, n_traj=80,
                             seed_or_rng=worker_rng(17, 0))
    assert abs(exact - est.value) <= 3.0 * est.std_error + 2e-3


def test_tabular_value_vs_policy_enumeration():
    # optimal discounted value against brute force over all stationary
    # deterministic policies (optimal for a fully observed MDP)
    model = fully_observed_model()
    for lam, h in ((0.3, 0.6), (0.05, 1.0)):
        eff = lam * h
        mh = stage_duration_transform(model, h) if h != 1.0 else model
        best = -math.inf
        n_w = model.n_states
        for assignment in itertools.product(range(model.n_actions), repeat=n_w):
            policy = np.array(assignment)
            p_pi = mh.transition[np.arange(n_w), policy, :]
            g_pi = mh.payoff[np.arange(n_w), policy]
            values = np.linalg.solve(np.eye(n_w) - (1 - eff) * p_pi, eff * g_pi)
            best = max(best, float(model.init @ values))
        est = discounted_value_estimate(model, lam, h)
        assert est.value == pytest.approx(best, abs=1e-10)


def test_longrun_exact_vs_mc_on_ergodic_models():
    for model in (random_pomdp_model(), fully_observed_model()):
        ctrl = mixing_controller(model)
        h = 0.5
        exact = longrun_average_exact_fsc(model, ctrl, h).value
        est = longrun_average_mc(model, ctrl, h, horizon=4000, n_traj=100,
                                 seed_or_rng=worker_rng(23, 1))
        assert abs(exact - est.value) <= 3.0 * est.std_error + 2e-3


def test_longrun_mc_bias_bounded_on_absorbing_example():
    # on the absorbing example the finite-horizon Cesaro proxy carries a
    # deterministic positive transient bias of order (expected alive
    # stages) / horizon; the exact value is 0 and the estimate must sit
    # within that understood band
    model = figure1_model()
    seq = SequenceStrategy.pure([0, 1], 2)
    exact = longrun_average_exact_fsc(model, mixing_controller(model), 0.5).value
    assert exact == 0.0
    est = longrun_average_mc(model, seq, 0.5, horizon=10_000, n_traj=60,
                             seed_or_rng=worker_rng(29, 0))
    assert 0.0 <= est.value <= 0.01


def test_mc_mimic_confidence_coverage():
    # identity case: repeated small-sample estimates cover the truth
    model = random_pomdp_model()
    seq = SequenceStrategy([np.array([0.35, 0.65]), np.array([0.7, 0.3])])
    eta = History(0, ((0, 0),))
    truth = seq.act(eta)
    covered = 0
    reps = 60
    for rep in range(reps):
        est = mimic_action_mc(model, seq, 1.0, eta, 600, worker_rng(101, rep))
        se = np.maximum(est.std_errors, 1e-9)
        if np.all(np.abs(est.weights - truth) <= 3.0 * se):
            covered += 1
    assert covered / reps >= 0.95


def test_mimic_weights_always_sum_to_one():
    model = three_action_model()
    sources = [
        mixing_controller(model),
        SequenceStrategy([np.array([0.2, 0.5, 0.3])]),
    ]
    for source in sources:
        mimic = build_mimic_strategy(model, source, 0.45)
        for depth in (1, 2, 3):
            for hist, _ in exact_history_distribution(model, source, depth):
                weights = mimic.act(hist)
                assert abs(float(weights.sum()) - 1.0) <= 1e-10
                assert np.all(weights >= -1e-15)


def test_theorem_pipeline_three_actions():
    from stagepomdp.verify import check_theorem_main

    model = three_action_model()
    for ctrl in (uniform_controller(model), mixing_controller(model)):
        report = check_theorem_main(model, ctrl, 0.4)
        assert report.passed, report


def test_single_action_model_pipeline():
    rng = np.random.default_rng(10)
    raw = rng.uniform(0.1, 1.0, size=(3, 1, 3))
    model = make_model(
        ["w0", "w1", "w2"], ["go"], ["s"], [0, 0, 0],
        rng.uniform(0, 1, size=(3, 1)),
        raw / raw.sum(axis=2, keepdims=True),
        [1.0, 0.0, 0.0],
    )
    ctrl = uniform_controller(model)
    from stagepomdp.verify import check_theorem_main

    report = check_theorem_main(model, ctrl, 0.5)
    assert report.passed
    assert report.metadata["path"] == "exact"
    # single action: the mimic is the same trivial strategy, and the
    # stationary law of the duration-h chain equals the base one
    assert report.quantities["lhs"] == pytest.approx(
        report.quantities["rhs"], abs=1e-12
    )