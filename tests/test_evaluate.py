import dataclasses
import itertools
import math
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from stagepomdp import evaluate
from stagepomdp.epochs import worker_rng
from stagepomdp.errors import BudgetExceeded, NotConverged
from stagepomdp.evaluate import (
    DEFAULT_LAMBDA_GRID,
    MC_HORIZON_CAP,
    asymptotic_value_estimate,
    cesaro_average,
    discounted_payoff,
    discounted_value_estimate,
    longrun_average_exact_fsc,
    longrun_average_mc,
)
from stagepomdp.model import make_model, stage_duration_transform
from stagepomdp.strategies import History, SequenceStrategy, TableStrategy
from stagepomdp.verify import (
    alternating_controller,
    figure1_model,
    fully_observed_model,
    mixing_controller,
    random_pomdp_model,
    uniform_controller,
)

from conftest import Opaque


def constant_payoff_model(c=0.7):
    m = random_pomdp_model()
    return make_model(
        m.state_names, m.action_names, m.signal_names, m.signal_map,
        np.full((m.n_states, m.n_actions), c), m.transition, m.init,
    )


def two_stage_chain():
    # pays 1 once, then 0 forever
    transition = np.zeros((2, 1, 2))
    transition[0, 0, 1] = 1.0
    transition[1, 0, 1] = 1.0
    return make_model(["w1", "w2"], ["a"], ["s"], [0, 0],
                      [[1.0], [0.0]], transition, [1.0, 0.0])


# --- constant-payoff normalization -----------------------------------------------

def test_constant_payoff_all_functionals():
    m = constant_payoff_model(0.7)
    seq = SequenceStrategy([np.array([0.4, 0.6])])
    assert discounted_payoff(m, seq, 0.3, 0.5).value == pytest.approx(0.7, abs=1e-12)
    assert discounted_payoff(m, mixing_controller(m), 0.05, 0.9).value == \
        pytest.approx(0.7, abs=1e-12)
    mc = discounted_payoff(m, seq, 0.3, 0.5, method="mc", n_traj=50, seed=1)
    assert mc.value == pytest.approx(0.7, abs=1e-9)
    avg = longrun_average_mc(m, seq, 0.5, horizon=500, n_traj=20, seed_or_rng=2)
    assert avg.value == pytest.approx(0.7, abs=1e-12)
    assert longrun_average_exact_fsc(m, uniform_controller(m), 0.5).value == \
        pytest.approx(0.7, abs=1e-12)


# --- discounted payoff --------------------------------------------------------------

def test_two_stage_hand_value():
    m = two_stage_chain()
    seq = SequenceStrategy.pure([0], 1)
    # weights 0.5, 0.25, ... on payoffs 1, 0, 0, ...
    est = discounted_payoff(m, seq, 0.5, 1.0)
    assert est.value == pytest.approx(0.5, abs=1e-12)


def test_change_of_variable_identity():
    m = random_pomdp_model()
    seq = SequenceStrategy([np.array([0.3, 0.7]), np.array([0.9, 0.1])])
    lam, h = 0.4, 0.5
    lhs = discounted_payoff(m, seq, lam, h).value
    rhs = discounted_payoff(stage_duration_transform(m, h), seq, lam * h, 1.0).value
    assert lhs == pytest.approx(rhs, abs=1e-12)
    # the weight sequences coincide exactly as well
    eff = lam * h
    weights_gh = [lam * h * (1 - lam * h) ** i for i in range(50)]
    weights_eff = [eff * (1 - eff) ** i for i in range(50)]
    assert weights_gh == weights_eff


def test_truncated_route_matches_controller_route():
    m = random_pomdp_model()
    ctrl = mixing_controller(m)
    exact = discounted_payoff(m, ctrl, 0.2, 0.5).value

    from stagepomdp.strategies import Strategy

    class Hidden(Strategy):
        def __init__(self, inner):
            self.inner = inner
            self.n_actions = inner.n_actions

        def start(self, s):
            return self.inner.start(s)

        def act(self, h):
            return self.inner.act(h)

    est = discounted_payoff(m, Hidden(ctrl), 0.2, 0.5, tol=1e-12)
    assert est.mode == "truncated"
    assert est.value == pytest.approx(exact, abs=1e-10)


def test_discounted_validates_lambda():
    m = figure1_model()
    seq = SequenceStrategy.pure([0], 2)
    with pytest.raises(ValueError):
        discounted_payoff(m, seq, 0.0, 0.5)
    with pytest.raises(ValueError):
        discounted_payoff(m, seq, 1.2, 0.5)


def test_discounted_mc_reports_horizon_cap():
    m = two_stage_chain()
    seq = SequenceStrategy.pure([0], 1)
    capped = discounted_payoff(m, seq, 1e-5, 1.0, method="mc", n_traj=2, seed=0)
    assert capped.metadata["horizon"] == MC_HORIZON_CAP
    assert capped.bound == pytest.approx(math.exp(-2.0) * m.max_abs_payoff, rel=1e-4)
    assert capped.slack == capped.bound
    full = discounted_payoff(m, seq, 0.5, 1.0, method="mc", n_traj=2, seed=0)
    assert full.bound <= 1e-12
    assert full.value == pytest.approx(0.5, abs=1e-15)


# --- long-run averages ----------------------------------------------------------------

def test_single_recurrent_state_average():
    transition = np.ones((1, 2, 1))
    m = make_model(["w"], ["a", "b"], ["s"], [0], [[0.3, 0.3]], transition, [1.0])
    assert longrun_average_exact_fsc(m, uniform_controller(m), 0.7).value == \
        pytest.approx(0.3, abs=1e-12)


def test_figure1_absorption_average_zero():
    m = figure1_model()
    for ctrl in (alternating_controller(m), uniform_controller(m),
                 mixing_controller(m)):
        for h in (0.25, 0.5, 0.75):
            assert longrun_average_exact_fsc(m, ctrl, h).value == \
                pytest.approx(0.0, abs=1e-12)
    # absorption really happens: push the start distribution through the
    # duration-0.5 kernel under alternating play and check the absorbed mass
    mh = stage_duration_transform(m, 0.5)
    dist = m.init.copy()
    for stage in range(2000):
        action = stage % 2
        dist = dist @ mh.transition[:, action, :]
    assert dist[2] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.inf, math.nan])
@pytest.mark.parametrize("method", ["exact", "mc"])
def test_discounted_rejects_bad_tol(method, tol):
    # the truncated and Monte Carlo routes raised "math domain error" at
    # tol 0, and the exact controller route ignored tol
    m = random_pomdp_model()
    for strategy in (mixing_controller(m), Opaque(mixing_controller(m))):
        with pytest.raises(ValueError, match="tol"):
            discounted_payoff(m, strategy, 0.2, 0.5, method, tol=tol, n_traj=10)


def test_exact_longrun_rejects_general_strategy():
    m = figure1_model()
    table = TableStrategy(2, 1, {History(0): [1.0, 0.0]})
    with pytest.raises(TypeError):
        longrun_average_exact_fsc(m, Opaque(table), 0.5)


def test_two_state_cycle_average_half():
    transition = np.zeros((2, 1, 2))
    transition[0, 0, 1] = 1.0
    transition[1, 0, 0] = 1.0
    m = make_model(["w1", "w2"], ["a"], ["s"], [0, 0],
                   [[1.0], [0.0]], transition, [1.0, 0.0])
    est = longrun_average_exact_fsc(m, uniform_controller(m), 1.0)
    assert est.value == pytest.approx(0.5, abs=1e-12)


def test_exact_vs_mc_longrun_agreement():
    m = random_pomdp_model()
    ctrl = mixing_controller(m)
    h = 0.5
    exact = longrun_average_exact_fsc(m, ctrl, h).value
    est = longrun_average_mc(m, ctrl, h, horizon=4000, n_traj=120,
                             seed_or_rng=worker_rng(8, 0))
    assert abs(exact - est.value) <= 3.0 * est.std_error + 2e-3


@pytest.mark.parametrize("n_checkpoints", [0, -1])
def test_longrun_mc_rejects_no_checkpoints(n_checkpoints):
    m = random_pomdp_model()
    with pytest.raises(ValueError, match="n_checkpoints must be >= 1"):
        longrun_average_mc(m, alternating_controller(m), 0.5, horizon=50,
                           n_traj=10, seed_or_rng=0, n_checkpoints=n_checkpoints)


def test_cesaro_average_transient_mix():
    # one transient state splitting between two absorbing states
    chain = np.array([
        [0.0, 0.3, 0.7],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    value = cesaro_average(chain, np.array([1.0, 0.0, 0.0]),
                           np.array([5.0, 1.0, 2.0]))
    assert value == pytest.approx(0.3 * 1.0 + 0.7 * 2.0, abs=1e-12)


def test_cesaro_average_periodic_chain():
    chain = np.array([[0.0, 1.0], [1.0, 0.0]])
    value = cesaro_average(chain, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert value == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("chain, init, payoffs", [
    pytest.param([[0.5, 0.5, 0.0]], [1.0], [0.0], id="not-square"),
    pytest.param([[0.5, 0.4], [0.0, 1.0]], [1.0, 0.0], [1.0, 2.0],
                 id="substochastic-row"),
    pytest.param([[1.0, 1.0], [0.0, 1.0]], [1.0, 0.0], [1.0, 2.0], id="row-sum-2"),
    pytest.param([[1.5, -0.5], [0.0, 1.0]], [1.0, 0.0], [1.0, 2.0],
                 id="negative-entry"),
    pytest.param([[np.nan, 1.0], [0.0, 1.0]], [1.0, 0.0], [1.0, 2.0], id="nan-entry"),
    pytest.param([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0, 0.0], [1.0, 2.0],
                 id="init-too-long"),
    pytest.param([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.4], [1.0, 2.0], id="init-mass"),
    pytest.param([[0.0, 1.0], [1.0, 0.0]], [1.5, -0.5], [1.0, 2.0],
                 id="init-negative"),
    pytest.param([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0], [1.0], id="payoffs-short"),
])
def test_cesaro_average_rejects_invalid_input(chain, init, payoffs):
    with pytest.raises(ValueError):
        cesaro_average(np.array(chain), np.array(init), np.array(payoffs))


def test_exact_average_holds_at_small_h():
    # the uniform controller's average does not depend on h; the mixing
    # controller's converges as h -> 0
    m = random_pomdp_model()
    uniform = uniform_controller(m)
    at_one = longrun_average_exact_fsc(m, uniform, 1.0).value
    for h in (1e-8, 1e-12):
        assert longrun_average_exact_fsc(m, uniform, h).value == \
            pytest.approx(at_one, abs=1e-12)
    mixing = mixing_controller(m)
    assert longrun_average_exact_fsc(m, mixing, 1e-12).value == pytest.approx(
        longrun_average_exact_fsc(m, mixing, 1e-9).value, abs=1e-9)


def _reference_cesaro(chain, init, payoffs):
    """Recurrent classes by strongly connected components, each class's
    stationary law by a least-squares solve, absorption into the classes by
    a dense solve: an independent route to the Cesaro limit."""
    adjacency = chain > 0.0
    n_comp, labels = connected_components(csr_matrix(adjacency), directed=True,
                                          connection="strong")
    recurrent = [c for c in range(n_comp)
                 if not adjacency[labels == c][:, labels != c].any()]
    value, reach = 0.0, []
    transient = ~np.isin(labels, recurrent)
    for c in recurrent:
        inside = labels == c
        sub = chain[np.ix_(inside, inside)]
        system = sub.T - np.eye(len(sub))
        system[-1, :] = 1.0
        rhs = np.zeros(len(sub))
        rhs[-1] = 1.0
        pi = np.linalg.lstsq(system, rhs, rcond=None)[0]
        average = float(pi @ payoffs[inside])
        value += init[inside].sum() * average
        reach.append((chain[np.ix_(transient, inside)].sum(axis=1), average))
    if transient.any():
        q = chain[np.ix_(transient, transient)]
        absorb = np.linalg.solve(np.eye(len(q)) - q,
                                 np.column_stack([r for r, _ in reach]))
        value += float(init[transient] @ absorb @ [a for _, a in reach])
    return value


def _random_chain(rng):
    """A chain of at most 11 states: closed classes that are absorbing,
    periodic (a permutation cycle) or random, and transient states leading
    anywhere, in shuffled order."""
    blocks, n_closed = [], rng.integers(1, 4)
    for _ in range(n_closed):
        kind, size = rng.integers(3), rng.integers(1, 4)
        if kind == 0:
            blocks.append(np.eye(1))
        elif kind == 1:
            blocks.append(np.roll(np.eye(size), 1, axis=1))
        else:
            block = rng.random((size, size)) * (rng.random((size, size)) < 0.6)
            block += np.roll(np.eye(size), 1, axis=1)  # keeps it irreducible
            blocks.append(block / block.sum(axis=1, keepdims=True))
    n_rec = sum(len(b) for b in blocks)
    n = n_rec + int(rng.integers(0, 12 - n_rec))
    chain = np.zeros((n, n))
    start = 0
    for block in blocks:
        chain[start:start + len(block), start:start + len(block)] = block
        start += len(block)
    for i in range(n_rec, n):
        row = rng.random(n) * (rng.random(n) < 0.5)
        row[rng.integers(n_rec)] += 0.1  # every transient state leaves
        chain[i] = row / row.sum()
    order = rng.permutation(n)
    chain = chain[np.ix_(order, order)]
    init = np.zeros(n)
    if rng.random() < 0.3:
        init[rng.integers(n)] = 1.0
    else:
        init = rng.random(n)
        init /= init.sum()
    return chain, init, rng.uniform(-1.0, 1.0, n)


def test_cesaro_average_matches_class_decomposition():
    rng = np.random.default_rng(20261019)
    for _ in range(500):
        chain, init, payoffs = _random_chain(rng)
        assert cesaro_average(chain, init, payoffs) == pytest.approx(
            _reference_cesaro(chain, init, payoffs), abs=1e-12)


# --- value estimates ---------------------------------------------------------------------

def test_single_state_value_constant():
    transition = np.ones((1, 1, 1))
    m = make_model(["w"], ["a"], ["w"], [0], [[0.4]], transition, [1.0])
    for lam in (0.1, 0.5):
        for h in (0.3, 1.0):
            est = discounted_value_estimate(m, lam, h)
            assert est.mode == "exact"
            assert est.value == pytest.approx(0.4, abs=1e-12)


def test_fully_observed_identity_spot_check():
    m = fully_observed_model()
    lam, h = 0.1, 0.5
    lhs = discounted_value_estimate(m, lam, h).value
    rhs = discounted_value_estimate(m, lam / (1 + lam - lam * h), 1.0).value
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_figure1_value_approaches_one_at_h1():
    est = asymptotic_value_estimate(figure1_model(), 1.0,
                                    lam_grid=(0.1, 0.05, 0.02),
                                    grid_resolution=12)
    values = est.metadata["values"]
    assert values[-1] >= 0.999
    assert est.value >= 0.999


def test_belief_lattice_size_checked_before_build():
    rng = np.random.default_rng(3)
    n_w = 10
    raw = rng.uniform(0.1, 1.0, size=(n_w, 2, n_w))
    model = make_model(
        [f"w{i}" for i in range(n_w)], ["a", "b"], ["s1", "s2"],
        [i % 2 for i in range(n_w)], rng.uniform(0.0, 1.0, size=(n_w, 2)),
        raw / raw.sum(axis=2, keepdims=True), np.full(n_w, 1.0 / n_w),
    )
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        discounted_value_estimate(model, 0.1, 0.5)
    assert time.perf_counter() - t0 < 1.0


def test_belief_grid_not_converged_guard(monkeypatch):
    # figure 1 at these settings needs three policy evaluations
    monkeypatch.setattr(evaluate, "MAX_POLICY_STEPS", 1)
    with pytest.raises(NotConverged):
        discounted_value_estimate(figure1_model(), 0.01, 0.5, grid_resolution=8)


def greedy_trap_model():
    """Fully observed: action a pays 0.6 and stays in w1, b pays 0.5 once and
    moves to w2, which pays 1 forever; the payoff-greedy a is not optimal."""
    transition = np.zeros((2, 2, 2))
    transition[0, 0, 0] = transition[0, 1, 1] = 1.0
    transition[1, :, 1] = 1.0
    return make_model(["w1", "w2"], ["a", "b"], ["w1", "w2"], [0, 1],
                      [[0.6, 0.5], [1.0, 1.0]], transition, [1.0, 0.0])


def test_tabular_not_converged_guard(monkeypatch):
    # the greedy start is not optimal here, so one evaluation is not stable
    # (on fully_observed_model() it is, and one evaluation suffices)
    assert discounted_value_estimate(
        greedy_trap_model(), 0.1, 0.5).metadata["policy_steps"] == 2
    monkeypatch.setattr(evaluate, "MAX_POLICY_STEPS", 1)
    with pytest.raises(NotConverged):
        discounted_value_estimate(greedy_trap_model(), 0.1, 0.5)


def _random_observed_model(rng, n_w, n_a):
    raw = rng.uniform(0.0, 1.0, size=(n_w, n_a, n_w)) ** 3  # uneven rows
    return make_model(
        [f"w{i}" for i in range(n_w)], [f"a{i}" for i in range(n_a)],
        [f"w{i}" for i in range(n_w)], list(range(n_w)),
        rng.uniform(0.0, 1.0, size=(n_w, n_a)),
        raw / raw.sum(axis=2, keepdims=True), rng.dirichlet(np.ones(n_w)),
    )


def _best_policy_value(mh, eff, init):
    """Largest exact value of init over all A^W deterministic stationary
    policies, and whether the payoff-greedy policy attains it."""
    rows = np.arange(mh.n_states)
    greedy = tuple(mh.payoff.argmax(axis=1))
    values = {}
    for policy in itertools.product(range(mh.n_actions), repeat=mh.n_states):
        system = np.eye(mh.n_states) - (1.0 - eff) * mh.transition[rows, policy, :]
        solved = np.linalg.solve(system, eff * mh.payoff[rows, policy])
        values[policy] = float(init @ solved)
    best = max(values.values())
    return best, values[greedy] >= best - 1e-12


@pytest.mark.parametrize("lam,h", [(1.0, 0.5), (0.1, 0.5), (0.01, 0.25),
                                   (1e-3, 0.1), (1e-5, 0.1)])
def test_tabular_value_is_best_deterministic_policy(lam, h):
    rng = np.random.default_rng(5)
    models = [greedy_trap_model(), fully_observed_model()]
    models += [_random_observed_model(rng, n_w, n_a)
               for n_w, n_a in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]
               for _ in range(3)]
    eff = lam * h
    non_greedy = 0
    for model in models:
        mh = stage_duration_transform(model, h) if h != 1.0 else model
        est = discounted_value_estimate(model, lam, h)
        best, greedy_is_best = _best_policy_value(mh, eff, model.init)
        assert est.mode == "exact"
        assert est.value == pytest.approx(best, abs=1e-12)
        if not greedy_is_best:
            non_greedy += 1
            assert est.metadata["policy_steps"] >= 2
    assert non_greedy >= 1


def _exact_solve(matrix, rhs):
    """Solution of a nonsingular linear system in exact rationals, by
    Gauss-Jordan elimination with the first nonzero pivot."""
    n = len(matrix)
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                rows[i] = [x - rows[i][k] * y for x, y in zip(rows[i], rows[k])]
    return [row[n] for row in rows]


def _exact_best_value(mh, eff, init):
    """Optimal discounted value of ``init`` in exact rationals from the float
    data, discount 1 - eff exactly, by policy iteration from the
    payoff-greedy policy that switches only on a strict improvement."""
    n_w, n_a = mh.n_states, mh.n_actions
    eff = Fraction(eff)
    kernel = [[[Fraction(x) for x in mh.transition[w, a]] for a in range(n_a)]
              for w in range(n_w)]
    rewards = [[eff * Fraction(x) for x in mh.payoff[w]] for w in range(n_w)]
    policy = [int(np.argmax(mh.payoff[w])) for w in range(n_w)]
    while True:
        system = [[int(w == x) - (1 - eff) * kernel[w][policy[w]][x]
                   for x in range(n_w)] for w in range(n_w)]
        values = _exact_solve(system, [rewards[w][policy[w]] for w in range(n_w)])
        q = [[rewards[w][a] + (1 - eff) * sum(p * v for p, v in zip(kernel[w][a], values))
              for a in range(n_a)] for w in range(n_w)]
        best = [max(range(n_a), key=q[w].__getitem__) for w in range(n_w)]
        if all(q[w][best[w]] <= values[w] for w in range(n_w)):
            return sum(Fraction(x) * v for x, v in zip(init, values))
        policy = [b if q[w][b] > values[w] else a
                  for w, (a, b) in enumerate(zip(policy, best))]


@pytest.mark.parametrize("lam,h", [(1.0, 0.5), (0.1, 0.5), (0.01, 0.25),
                                   (1e-3, 0.1), (1e-5, 0.1)])
def test_tabular_stopping_bound_covers_the_exact_value(lam, h):
    # the bound on |v* - v| is residual / (lam h); residual (1 - lam h) / (lam h)
    # bounds |v* - T v| only, and at (1, 0.5) missed 2 of these 20 models
    rng = np.random.default_rng(5)
    models = [greedy_trap_model(), fully_observed_model()]
    models += [_random_observed_model(rng, n_w, n_a)
               for n_w, n_a in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]
               for _ in range(3)]
    for model in models:
        mh = stage_duration_transform(model, h) if h != 1.0 else model
        est = discounted_value_estimate(model, lam, h)
        exact = _exact_best_value(mh, lam * h, model.init)
        assert abs(Fraction(est.value) - exact) <= Fraction(
            est.diagnostics["stopping_bound"])


@pytest.mark.parametrize("model", [figure1_model, fully_observed_model])
def test_value_estimate_rejects_lost_discount(model):
    # 1 - lam*h rounds to 1: the grid gave nan, the tabular route NotConverged
    with pytest.raises(ValueError, match="rounds to 1"):
        discounted_value_estimate(model(), 1e-16, 0.5, grid_resolution=8)
    with pytest.raises(ValueError, match="rounds to 1"):
        asymptotic_value_estimate(model(), 0.5, lam_grid=(0.1, 1e-16),
                                  grid_resolution=8)


@pytest.mark.parametrize("method", ["exact", "mc"])
@pytest.mark.parametrize("opaque", [False, True], ids=["controller", "opaque"])
def test_discounted_payoff_rejects_lost_discount(method, opaque):
    # the controller route raised SingularSystem; enumeration and mc ran on
    m = random_pomdp_model()
    strategy = uniform_controller(m)
    with pytest.raises(ValueError, match="rounds to 1"):
        discounted_payoff(m, Opaque(strategy) if opaque else strategy, 1e-16, 0.5,
                          method=method)


def test_discounted_truncation_fails_fast_on_long_horizon():
    # 5.5e13 stages against a 1e7 budget: the enumeration used to step on
    m = random_pomdp_model()
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        discounted_payoff(m, Opaque(uniform_controller(m)), 1e-12, 0.5)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("model", [figure1_model, fully_observed_model])
@pytest.mark.parametrize("resolution", [12.0, 12.5, "12", 1, True])
def test_value_estimate_rejects_non_integer_resolution(model, resolution):
    with pytest.raises(ValueError, match="integer >= 2"):
        discounted_value_estimate(model(), 0.1, 0.5, grid_resolution=resolution)


@pytest.mark.parametrize("model", [figure1_model, fully_observed_model])
def test_value_estimate_accepts_numpy_resolution(model):
    est = discounted_value_estimate(model(), 0.1, 0.5, grid_resolution=np.int64(8))
    assert est.value == discounted_value_estimate(model(), 0.1, 0.5,
                                                  grid_resolution=8).value
    assert type(est.metadata["policy_steps"]) is int
    assert est.metadata["policy_steps"] >= 1
    if "grid_resolution" in est.metadata:
        assert type(est.metadata["grid_resolution"]) is int


def _reference_project(belief, resolution):
    """Per-belief nearest lattice composition: floor, then one more unit to
    each of the slots with the largest fractional parts."""
    scaled = belief * resolution
    base = np.floor(scaled).astype(np.int64)
    short = resolution - int(base.sum())
    for slot in np.argsort(-(scaled - base))[:max(short, 0)]:
        base[slot] += 1
    return base


@pytest.mark.parametrize("n_w,resolution", [(2, 30), (3, 8), (3, 61), (4, 6), (5, 7)])
def test_project_rows_matches_per_belief_reference(n_w, resolution):
    uniform = np.full((1, n_w), 1.0 / n_w)
    if resolution % n_w:
        fractional = uniform * resolution - np.floor(uniform * resolution)
        assert np.unique(fractional).size == 1  # every slot ties
    beliefs = np.vstack([np.random.default_rng(11).dirichlet(np.ones(n_w), size=200),
                         uniform])
    got = evaluate._project_rows(beliefs, resolution)
    want = np.array([_reference_project(b, resolution) for b in beliefs])
    assert np.array_equal(got, want)
    assert (got.sum(axis=1) == resolution).all()


def _reference_lattice(n_states, resolution):
    """Compositions of ``resolution`` into ``n_states`` parts by recursion,
    in lexicographic order."""
    if n_states == 1:
        return [[resolution]]
    return [[c] + rest for c in range(resolution + 1)
            for rest in _reference_lattice(n_states - 1, resolution - c)]


@pytest.mark.parametrize("n_w,resolution", [(1, 5), (2, 30), (3, 24), (4, 12), (5, 7)])
def test_belief_lattice_matches_recursive_reference(n_w, resolution):
    """The lattice the reachable search walks is the recursive one: it has
    ``_lattice_size`` points and each of its beliefs projects onto its own
    composition."""
    counts = np.array(_reference_lattice(n_w, resolution), dtype=np.int64)
    assert evaluate._lattice_size(n_w, resolution) == len(counts)
    assert np.array_equal(evaluate._project_rows(counts / resolution, resolution), counts)


@pytest.mark.parametrize("n_w,resolution", [(1, 5), (2, 30), (3, 24), (3, 60),
                                            (4, 12), (5, 7), (70, 2)])
def test_lattice_rank_follows_lattice_order(n_w, resolution):
    counts = np.array(_reference_lattice(n_w, resolution), dtype=np.int64)
    binom = evaluate._binomials(n_w, resolution)
    assert np.array_equal(evaluate._lattice_rank(counts, resolution, binom),
                          np.arange(len(counts)))


def _reference_successors(mh, grid, resolution):
    """Per-point successor loop with a dict lookup of each projection."""
    counts = np.rint(grid * resolution).astype(np.int64)
    index = {tuple(row): i for i, row in enumerate(counts.tolist())}
    shape = (len(grid), mh.n_actions, mh.n_signals)
    succ_mass, succ_idx = np.zeros(shape), np.zeros(shape, dtype=np.int64)
    for i, belief in enumerate(grid):
        for a in range(mh.n_actions):
            pushed = belief @ mh.transition[:, a, :]
            for s in range(mh.n_signals):
                part = np.where(mh.signal_map == s, pushed, 0.0)
                if part.sum() > 0.0:
                    succ_mass[i, a, s] = part.sum()
                    succ_idx[i, a, s] = index[tuple(
                        _reference_project(part / part.sum(), resolution).tolist())]
    return succ_mass, succ_idx


def _reference_lattice_mdp(mh, resolution):
    """The full lattice MDP by ``_reference_lattice``: per-point payoffs,
    ``_reference_successors`` and, per signal of positive initial mass, that
    mass and the row of the projected initial belief."""
    counts = _reference_lattice(mh.n_states, resolution)
    grid = np.asarray(counts, dtype=np.float64) / resolution
    index = {tuple(row): i for i, row in enumerate(counts)}
    starts = []
    for s in range(mh.n_signals):
        part = np.where(mh.signal_map == s, mh.init, 0.0)
        if part.sum() > 0.0:
            projected = _reference_project(part / part.sum(), resolution)
            starts.append((part.sum(), index[tuple(projected.tolist())]))
    return (grid @ mh.payoff, *_reference_successors(mh, grid, resolution), starts)


def _full_value_iteration(full, eff):
    """Values of ``_reference_lattice_mdp``'s lattice by value iteration to a
    residual of 1e-13, and the bound residual (1-eff)/eff on their distance
    to the optimal values (the last iterate is T of the one before)."""
    payoffs, succ_mass, succ_idx, _ = full
    values = np.zeros(len(payoffs))
    residual = math.inf
    while residual > 1e-13:
        new_values = (eff * payoffs + (1.0 - eff) * np.einsum(
            "nas,nas->na", succ_mass, values[succ_idx])).max(axis=1)
        residual = float(np.max(np.abs(new_values - values)))
        values = new_values
    return values, residual * (1.0 - eff) / eff


def _reference_rows(table, full):
    """Full-lattice row of each row of a ``_lattice_table``, found by walking
    both from the initial beliefs along live successors; fails unless the
    initial masses, per-point payoffs and successor masses agree, every row
    is reached and no two rows are one lattice point."""
    start_mass, start_rows, payoffs, succ_mass, succ_idx = table
    full_payoffs, full_mass, full_idx, starts = full
    live = np.flatnonzero(start_mass > 0.0)
    assert np.allclose(start_mass[live], [mass for mass, _ in starts], rtol=0, atol=1e-15)
    found = {}
    todo = [(int(start_rows[s]), row) for s, (_, row) in zip(live, starts)]
    while todo:
        row, full_row = todo.pop()
        if row in found:
            assert found[row] == full_row
            continue
        found[row] = full_row
        assert np.allclose(payoffs[row], full_payoffs[full_row], rtol=0, atol=1e-15)
        assert np.array_equal(succ_mass[row] > 0.0, full_mass[full_row] > 0.0)
        assert np.allclose(succ_mass[row], full_mass[full_row], rtol=0, atol=1e-15)
        todo += [(int(succ_idx[row][k]), int(full_idx[full_row][k]))
                 for k in zip(*np.nonzero(full_mass[full_row]))]
    assert sorted(found) == list(range(len(payoffs)))
    assert len(set(found.values())) == len(found)
    return np.array([found[row] for row in range(len(found))])


@pytest.fixture
def solved_values(monkeypatch):
    """The values of each ``_policy_iteration`` run during the test, in order."""
    solved = []
    run = evaluate._policy_iteration

    def recorded(*args):
        result = run(*args)
        solved.append(result[0])
        return result

    monkeypatch.setattr(evaluate, "_policy_iteration", recorded)
    return solved


def test_belief_grid_matches_value_iteration(solved_values):
    lam, h, resolution = 0.05, 0.5, 12
    eff = lam * h
    for model in (figure1_model(), random_pomdp_model()):
        mh = stage_duration_transform(model, h)
        full = _reference_lattice_mdp(mh, resolution)
        values, vi_bound = _full_value_iteration(full, eff)
        value, grid_residual, _, _ = evaluate._belief_grid_value(mh, eff, resolution)
        rows = _reference_rows(evaluate._lattice_table(mh, resolution), full)
        bound = vi_bound + grid_residual / eff + 1e-14
        assert np.max(np.abs(solved_values[-1] - values[rows])) <= bound
        assert abs(value - sum(mass * values[row] for mass, row in full[3])) <= bound


def test_figure1_value_is_one_at_h1_for_every_lambda():
    for lam in DEFAULT_LAMBDA_GRID:
        est = discounted_value_estimate(figure1_model(), lam, 1.0)
        assert est.value == pytest.approx(1.0, abs=1e-12)


def test_belief_grid_stopping_bound_covers_bellman_residual(solved_values):
    lam, h, resolution = 0.01, 0.5, 24
    eff = lam * h
    for model in (figure1_model(), random_pomdp_model()):
        est = discounted_value_estimate(model, lam, h, resolution)
        solved = solved_values[-2]  # the full-resolution solve runs first
        mh = stage_duration_transform(model, h)
        full = _reference_lattice_mdp(mh, resolution)
        rows = _reference_rows(evaluate._lattice_table(mh, resolution), full)
        payoffs, succ_mass, succ_idx, starts = full
        values = np.zeros(len(payoffs))
        values[rows] = solved
        q = eff * payoffs[rows] + (1.0 - eff) * np.einsum(
            "nas,nas->na", succ_mass[rows], values[succ_idx[rows]])
        residual = float(np.max(np.abs(q.max(axis=1) - solved)))
        bound = est.diagnostics["stopping_bound"]
        assert bound >= residual / eff
        optimal, vi_bound = _full_value_iteration(full, eff)
        assert np.max(np.abs(solved - optimal[rows])) <= bound + vi_bound + 1e-14
        want = sum(mass * optimal[row] for mass, row in starts)
        assert abs(est.value - want) <= bound + vi_bound + 1e-14


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(2, 4),
       n_actions=st.integers(1, 3), n_signals=st.integers(1, 2),
       resolution=st.integers(2, 10), h=st.sampled_from([0.3, 0.5, 1.0]),
       lam=st.sampled_from([1.0, 0.2]))
def test_reachable_value_matches_full_lattice_value_iteration(
        seed, n_states, n_actions, n_signals, resolution, h, lam):
    rng = np.random.default_rng(seed)
    n_signals = min(n_signals, n_states - 1)  # so the grid route runs
    raw = rng.uniform(0.1, 1.0, (n_states, n_actions, n_states))
    raw *= rng.random(raw.shape) < 0.6
    raw[..., 0] += raw.sum(axis=2) == 0.0
    signal_map = np.concatenate([np.arange(n_signals),
                                 rng.integers(0, n_signals, n_states - n_signals)])
    init = rng.uniform(0.0, 1.0, n_states) * (rng.random(n_states) < 0.7)
    init[0] += 0.1
    model = make_model([f"w{i}" for i in range(n_states)],
                       [f"a{i}" for i in range(n_actions)],
                       [f"s{i}" for i in range(n_signals)], signal_map,
                       rng.uniform(-1.0, 1.0, (n_states, n_actions)),
                       raw, init, normalize=True)
    est = discounted_value_estimate(model, lam, h, resolution)
    assert est.mode == "approximate"
    mh = stage_duration_transform(model, h) if h != 1.0 else model
    full = _reference_lattice_mdp(mh, resolution)
    _reference_rows(evaluate._lattice_table(mh, resolution), full)
    values, vi_bound = _full_value_iteration(full, lam * h)
    want = sum(mass * values[row] for mass, row in full[3])
    assert abs(est.value - want) <= est.diagnostics["stopping_bound"] + vi_bound + 1e-13


@pytest.mark.parametrize("model_fn, h, points", [
    (figure1_model, 0.25, 317), (figure1_model, 0.5, 131), (figure1_model, 1.0, 3),
    (random_pomdp_model, 0.25, 36), (random_pomdp_model, 0.5, 24)])
def test_lattice_points_counts_the_reachable_closure(model_fn, h, points):
    # of the 1,891 points of the lattice at resolution 60; the closure of the
    # projected initial beliefs under every action and signal is unique
    est = discounted_value_estimate(model_fn(), 0.05, h, 60)
    assert est.metadata["lattice_points"] == points


def test_reachable_search_expands_each_point_once(monkeypatch):
    # a slow drift from w1 to w2 reaches new points over many depths; a
    # search that ranks the points it already holds again at every depth
    # does quadratic work
    transition = np.zeros((2, 2, 2))
    for a, drift in enumerate((0.002, 0.003)):
        transition[0, a] = 1.0 - drift, drift
    transition[1, :, 1] = 1.0
    model = make_model(["w1", "w2"], ["a", "b"], ["s"], [0, 0],
                       [[1.0, 0.0], [0.0, 0.5]], transition, [1.0, 0.0])
    ranked = []
    rank = evaluate._lattice_rank

    def counted(counts, resolution, binom):
        ranked.append(len(counts))
        return rank(counts, resolution, binom)

    monkeypatch.setattr(evaluate, "_lattice_rank", counted)
    start_mass, _, payoffs, succ_mass, _ = evaluate._reachable_lattice(model, 2000)
    assert len(payoffs) > 1000 and len(ranked) > 500
    assert sum(ranked) == (start_mass > 0.0).sum() + (succ_mass > 0.0).sum()


@pytest.fixture
def empty_memo(monkeypatch):
    """A fresh lattice-table memo for the test, the old one put back after."""
    monkeypatch.setattr(evaluate, "_LATTICE_TABLES", {})
    return evaluate._LATTICE_TABLES


@pytest.fixture
def built(monkeypatch):
    """(resolution, points) of each table ``_reachable_lattice`` builds
    during the test."""
    built = []
    build = evaluate._reachable_lattice

    def counted(mh, resolution):
        table = build(mh, resolution)
        built.append((resolution, table[2].shape[0]))
        return table

    monkeypatch.setattr(evaluate, "_reachable_lattice", counted)
    return built


def held_points(memo):
    return sum(table[2].shape[0] for table in memo.values())


def test_lattice_memo_hit_and_miss_give_equal_estimates(empty_memo):
    m = random_pomdp_model()
    missed = discounted_value_estimate(m, 0.05, 0.5, 12)
    assert len(empty_memo) == 2  # fine and coarse
    hit = discounted_value_estimate(m, 0.05, 0.5, 12)
    empty_memo.clear()
    rebuilt = discounted_value_estimate(m, 0.05, 0.5, 12)
    assert hit == missed and rebuilt == missed  # every field, with ==


def test_held_lattice_arrays_are_read_only(empty_memo):
    mh = stage_duration_transform(random_pomdp_model(), 0.5)
    table = evaluate._lattice_table(mh, 8)
    assert len(table) == 5
    for array in table:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 1


def _nudged(model, name):
    """``model`` with one entry of its array ``name`` changed."""
    array = getattr(model, name).copy()
    if name == "signal_map":
        array[0] = (array[0] + 1) % model.n_signals
    else:
        array.flat[0] = np.nextafter(array.flat[0], 2.0)
    return dataclasses.replace(model, **{name: array})


@pytest.mark.parametrize("name", ["transition", "signal_map", "payoff", "init"])
def test_lattice_memo_misses_on_changed_content(empty_memo, name):
    mh = stage_duration_transform(random_pomdp_model(), 0.5)
    base = evaluate._lattice_table(mh, 8)
    assert evaluate._lattice_table(mh, 8) is base
    changed = _nudged(mh, name)
    table = evaluate._lattice_table(changed, 8)
    assert table is not base and len(empty_memo) == 2
    empty_memo.clear()
    for held, fresh in zip(table, evaluate._lattice_table(changed, 8)):
        assert np.array_equal(held, fresh)


def test_lattice_memo_evicts_to_the_point_bound(empty_memo, built, monkeypatch):
    # figure 1's full lattice at resolution 12 has 91 points, the least bound
    # its size guard lets through; each call builds resolution 12, then 6
    monkeypatch.setattr(evaluate, "MAX_LATTICE_POINTS", 91)
    for h in (0.25, 0.5, 0.75, 1.0):
        discounted_value_estimate(figure1_model(), 0.05, h, 12)
        assert held_points(empty_memo) <= 91
    points = [n for _, n in built]
    assert points == [36, 16, 24, 13, 20, 9, 3, 3] and sum(points) > 91
    # least recently used first: h = 0.75's fine table evicted h = 0.25's
    assert held_points(empty_memo) == sum(points[1:]) == 88
    kernel = figure1_model().transition.tobytes()  # h = 1 keeps the kernel
    assert [kernel in key for key in empty_memo] == [False] * 5 + [True] * 2


def test_held_lattice_table_still_meets_the_size_guard(empty_memo, monkeypatch):
    discounted_value_estimate(figure1_model(), 0.05, 0.5, 12)
    monkeypatch.setattr(evaluate, "MAX_LATTICE_POINTS", 90)  # the lattice has 91
    with pytest.raises(BudgetExceeded):
        discounted_value_estimate(figure1_model(), 0.05, 0.5, 12)


def test_asymptotic_estimate_builds_one_table_per_resolution(empty_memo, built):
    asymptotic_value_estimate(random_pomdp_model(), 0.5, grid_resolution=12)
    assert sorted(r for r, _ in built) == [6, 12]


def test_lattice_memo_builds_each_table_once_under_threads(empty_memo, built):
    # more threads than cores asking for the same tables in the same order,
    # with a short switch interval: an unguarded memo lets two threads miss
    # the same key and build it twice
    mh = stage_duration_transform(random_pomdp_model(), 0.5)
    got, errors = [], []

    def work():
        try:
            got.extend((r, evaluate._lattice_table(mh, r)) for r in range(2, 30))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sorted(r for r, _ in built) == list(range(2, 30))
    one = dict(got)
    assert len(got) == 4 * len(one) and all(table is one[r] for r, table in got)


def test_grid_gap_compares_a_coarser_lattice_at_resolution_2():
    # the coarse lattice used to be the fine one at resolution 2, so the
    # gap read 0 whatever the two values
    m, lam, h = random_pomdp_model(), 0.05, 0.5
    est = discounted_value_estimate(m, lam, h, 2)
    mh = stage_duration_transform(m, h)
    coarse = evaluate._belief_grid_value(mh, lam * h, 1)[0]
    assert est.diagnostics["grid_gap"] == abs(est.value - coarse)
    assert est.diagnostics["grid_gap"] > 0.01


def test_tabular_stopping_bound_covers_a_residual_lost_to_rounding():
    # at lam = 3e-16 the Bellman residual rounds to 0 while the solve is off
    # by about 0.15; the bound must still cover the distance to the value
    tiny = discounted_value_estimate(fully_observed_model(), 3e-16, 1.0)
    near = discounted_value_estimate(fully_observed_model(), 1e-9, 1.0)
    assert tiny.diagnostics["stopping_bound"] > 0.0
    slack = tiny.diagnostics["stopping_bound"] + near.diagnostics["stopping_bound"]
    assert abs(tiny.value - near.value) <= slack + 1e-6


def test_asymptotic_estimate_requires_decreasing_grid():
    m = figure1_model()
    with pytest.raises(ValueError):
        asymptotic_value_estimate(m, 0.5, lam_grid=(0.1, 0.2))
    with pytest.raises(ValueError):
        asymptotic_value_estimate(m, 0.5, lam_grid=(0.1,))


def test_constant_model_asymptotic_trend_zero():
    m = constant_payoff_model(0.25)
    est = asymptotic_value_estimate(m, 0.5, lam_grid=(0.1, 0.05),
                                    grid_resolution=8)
    assert est.value == pytest.approx(0.25, abs=1e-7)
    assert abs(est.metadata["lambda_trend"]) <= 1e-5
