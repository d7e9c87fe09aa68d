import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagepomdp import epochs, memo, strategies
from stagepomdp.epochs import epoch_memory_operator, epoch_operators, worker_rng
from stagepomdp.memo import held_bytes
from stagepomdp.errors import (
    BudgetExceeded,
    NoAcceptedSamples,
    TruncationDominates,
)
from stagepomdp.evaluate import (
    _discounted_truncated,
    _tail_horizon,
    cesaro_average,
    discounted_payoff,
    longrun_average_exact_fsc,
    machine_product_chain,
)
from stagepomdp.mimic import (
    MimicStrategy,
    _filtered_joint_enumerated,
    build_filter_machine,
    build_mimic_strategy,
    default_truncation,
    filtered_joint,
    mimic_action_exact,
    mimic_action_mc,
    truncation_bound,
)
from stagepomdp.model import make_model, stage_duration_transform
from stagepomdp.strategies import (
    CursorEnumeration,
    FiniteStateController,
    History,
    ReplayCursor,
    SequenceStrategy,
    TableStrategy,
    controller_for,
    exact_history_distribution,
)
from stagepomdp.verify import (
    alternating_controller,
    figure1_model,
    mixing_controller,
    random_pomdp_model,
    uniform_controller,
)

from conftest import Opaque


def geometric_parity_sums(h, n_max):
    """Brute-force odd/even mass of a geometric(h) epoch length."""
    odd = sum(h * (1 - h) ** (m - 1) for m in range(1, n_max + 1, 2))
    even = sum(h * (1 - h) ** (m - 1) for m in range(2, n_max + 1, 2))
    return odd, even


def small_table_strategy():
    hist1 = History(0)
    return TableStrategy(
        2, 2,
        {
            hist1: [0.9, 0.1],
            hist1.child(0, 0): [0.2, 0.8],
            hist1.child(1, 0): [0.6, 0.4],
        },
        default=[0.5, 0.5],
    )


def test_default_truncation_levels():
    assert default_truncation(1.0) == 1
    assert default_truncation(0.5) == 30
    assert (1 - 0.5) ** default_truncation(0.5) <= 1e-9
    assert (1 - 0.3) ** default_truncation(0.3) <= 1e-9


# --- closed-form conditionals -----------------------------------------------------

def test_state_blind_first_action_closed_form():
    m = figure1_model()
    seq = SequenceStrategy.pure([0, 1], 2)
    h = 0.5
    odd, even = geometric_parity_sums(h, 200)
    result = mimic_action_exact(m, seq, h, History(0))
    assert result.weights[0] == pytest.approx(odd, abs=1e-9)
    assert result.weights[0] == pytest.approx(1.0 / (2.0 - h), abs=1e-12)
    assert result.truncation_bound == 0.0


def test_state_blind_first_action_enumerated():
    # brute-force route with epoch lengths up to 200 reproduces the series
    m = figure1_model()
    seq = Opaque(SequenceStrategy.pure([0, 1], 2))
    h = 0.5
    odd, _ = geometric_parity_sums(h, 200)
    result = mimic_action_exact(m, seq, h, History(0), n_max=200)
    assert result.weights[0] == pytest.approx(odd / (odd + (1 - odd)), abs=1e-9)
    assert result.truncation_bound == truncation_bound(h, 1, 200)


def test_second_boundary_action_conditions_on_first():
    # after observing the first boundary action "a" (an odd first epoch),
    # the second boundary plays "a" iff the second epoch is even:
    # weight = sum over even m of h(1-h)^(m-1) = (1-h)/(2-h)
    m = figure1_model()
    seq = SequenceStrategy.pure([0, 1], 2)
    h = 0.5
    _, even = geometric_parity_sums(h, 400)
    result = mimic_action_exact(m, seq, h, History(0, ((0, 0),)))
    assert result.weights[0] == pytest.approx(even, abs=1e-12)
    assert result.weights[0] == pytest.approx((1 - h) / (2 - h), abs=1e-12)
    # and it differs from the unconditional parity of the second boundary
    unconditional = (2 - h) ** -1 * (1 - h) / (2 - h) + \
        (1 - (2 - h) ** -1) * (2 - h) ** -1
    assert abs(result.weights[0] - unconditional) > 0.05


def test_operator_and_enumeration_routes_agree():
    m = random_pomdp_model()
    # the second controller remembers the last signal, so an epoch
    # enumerated under the wrong signal plays the wrong rule
    remembers_signal = FiniteStateController(
        [0, 1], [[0.8, 0.2], [0.3, 0.7]],
        np.broadcast_to(np.eye(2)[None, None, :, :], (2, 2, 2, 2)))
    h = 0.5
    for ctrl in (mixing_controller(m), remembers_signal):
        for eta in (History(0), History(0, ((0, 1),)), History(1, ((1, 0), (0, 0)))):
            exact_joint, bound0 = filtered_joint(m, ctrl, h, eta)
            assert bound0 == 0.0
            enum_joint, bound = filtered_joint(m, Opaque(ctrl), h, eta, n_max=80)
            assert bound == truncation_bound(h, eta.length, 80)
            assert np.max(np.abs(exact_joint - enum_joint)) <= bound + 1e-10


def random_sparse_model(rng, n_states, n_actions, n_signals):
    """A small random model with sparse transitions and at most ``n_states``
    signals."""
    n_signals = min(n_signals, n_states)
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
    return model


def random_table_case(seed, n_states, n_actions, n_signals, depth):
    """A small random model with sparse transitions and a random table on it,
    some of whose entries are pure."""
    rng = np.random.default_rng(seed)
    model = random_sparse_model(rng, n_states, n_actions, n_signals)
    n_signals = model.n_signals
    hists = [History(s) for s in range(n_signals)]
    table = {}
    for _ in range(depth):
        for hist in hists:
            if rng.random() < 0.7:
                weights = rng.uniform(0.0, 1.0, n_actions) * (rng.random(n_actions) < 0.7)
                weights[rng.integers(n_actions)] += 0.2
                table[hist] = weights / weights.sum()
        hists = [hist.child(a, s) for hist in hists
                 for a in range(n_actions) for s in range(n_signals)]
    default = rng.uniform(0.1, 1.0, n_actions)
    strategy = TableStrategy(n_actions, depth, table, default / default.sum())
    first = int(rng.integers(n_signals))
    steps = tuple((int(rng.integers(n_actions)), int(rng.integers(n_signals)))
                  for _ in range(int(rng.integers(0, 2))))
    return model, strategy, History(first, steps)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 4),
       n_actions=st.integers(1, 3), n_signals=st.integers(1, 2),
       depth=st.integers(0, 3), h=st.sampled_from([0.3, 0.5, 1.0]))
def test_table_closed_form_matches_enumeration(seed, n_states, n_actions,
                                               n_signals, depth, h):
    model, table, fil = random_table_case(seed, n_states, n_actions, n_signals, depth)
    exact, bound0 = filtered_joint(model, table, h, fil)
    assert bound0 == 0.0
    enumerated, bound = filtered_joint(model, Opaque(table), h, fil)
    assert bound == truncation_bound(h, fil.length, default_truncation(h))
    assert np.max(np.abs(exact - enumerated)) <= bound + 1e-12
    closed = discounted_payoff(model, table, 0.5, h)
    truncated = discounted_payoff(model, Opaque(table), 0.5, h)
    assert (closed.mode, truncated.mode) == ("exact", "truncated")
    assert abs(closed.value - truncated.value) <= truncated.bound + 1e-12


def random_controller_case(seed, n_states, n_actions, n_signals, n_memory):
    """A small random model with sparse transitions and a random controller on
    it with sparse rules and updates."""
    rng = np.random.default_rng(seed)
    model = random_sparse_model(rng, n_states, n_actions, n_signals)
    shape = (n_memory, n_actions, model.n_signals, n_memory)
    rule = rng.uniform(0.0, 1.0, (n_memory, n_actions))
    rule *= rng.random(rule.shape) < 0.6
    rule += 0.2 * (np.arange(n_actions) == rng.integers(n_actions, size=(n_memory, 1)))
    update = rng.uniform(0.0, 1.0, shape) * (rng.random(shape) < 0.5)
    update += 0.2 * (np.arange(n_memory) == rng.integers(n_memory, size=shape[:3] + (1,)))
    ctrl = FiniteStateController(rng.integers(n_memory, size=model.n_signals),
                                 rule / rule.sum(axis=1, keepdims=True),
                                 update / update.sum(axis=3, keepdims=True))
    return model, ctrl


# --- per-stage reference enumerators -------------------------------------------
# One state-mass vector per cursor id, pushed through every stage by one
# product per (action, signal); the enumerators must match them entry for
# entry, with the same visits.

def reference_step(enum, into, i, mass, alpha, kernel, action=None, signal=None):
    """Each action in the support of ``alpha`` (or only ``action``) moves the
    mass to ``(mass @ kernel[:, a, :]) * alpha[a]``, split by next signal (or
    kept on ``signal``) and merged under the child of ``i``."""
    if action is None:
        actions = np.nonzero(alpha > 0.0)[0].tolist()
    else:
        actions = [action] if alpha[action] > 0.0 else []
    for a in actions:
        moved = (mass @ kernel[:, a, :]) * alpha[a]
        if signal is None:
            signals = dict.fromkeys(enum.signal_map[moved > 0.0].tolist())
        else:
            signals = (signal,)
        for s in signals:
            part = np.where(enum.signal_map == s, moved, 0.0)
            if part.any():
                enum.merge(into, enum.table.child(i, a, s), part)


def reference_joint(model, strategy, h, fil, n_max):
    """``(joint, visits)`` of the filtered joint, stage by stage."""
    enum = CursorEnumeration(model, "reference")
    enum.budget = math.inf
    frontier = enum.open(
        np.where(model.signal_map == fil.first_signal, model.init, 0.0), strategy.start)
    signal = fil.first_signal
    joint = np.zeros((model.n_states, model.n_actions))
    for boundary in fil.steps + (None,):
        following = {}
        geom = h
        for m in range(n_max):
            expanding = m + 1 < n_max and h < 1.0
            grown = {}
            for i, mass, alpha in enum.visit(frontier):
                if boundary is None:
                    joint += np.outer(geom * mass, alpha)
                else:
                    reference_step(enum, following, i, geom * mass, alpha,
                                   model.transition, action=boundary[0],
                                   signal=boundary[1])
                if expanding:
                    for a in np.nonzero(alpha > 0.0)[0].tolist():
                        enum.merge(grown, enum.table.child(i, a, signal),
                                   mass * alpha[a])
            geom *= 1.0 - h
            if not grown or geom == 0.0:
                break
            frontier, following = enum.keep(frontier, grown, following)
        if boundary is not None:
            frontier, signal = following, boundary[1]
    return joint, enum.visits


def reference_closed_joint(model, ctrl, h, fil):
    """The filtered joint of a controller from the dense (state x memory)
    filter: its initial filter, one advance per boundary and the boundary
    joint."""
    within = np.einsum("qa,qasr->sqr", ctrl.rule, ctrl.update)
    mixed = [epoch_memory_operator(within[s], h) for s in range(model.n_signals)]
    state = np.where(model.signal_map == fil.first_signal, model.init, 0.0)
    filt = np.outer(state, ctrl.start(fil.first_signal).belief)
    signal = fil.first_signal
    for action, next_signal in fil.steps:
        pinned = (filt @ mixed[signal]) * ctrl.rule[:, action][None, :]
        moved = model.transition[:, action, :].T @ pinned
        moved[model.signal_map != next_signal, :] = 0.0
        filt = moved @ ctrl.update[:, action, next_signal, :]
        signal = next_signal
    return filt @ mixed[signal] @ ctrl.rule


def reference_discounted(model, strategy, lam, h, tol):
    """``(value, horizon, visits)`` of the truncated discounted payoff."""
    eff = lam * h
    mh = stage_duration_transform(model, h) if h != 1.0 else model
    horizon = _tail_horizon(model, eff, tol)
    enum = CursorEnumeration(model, "reference")
    enum.budget = math.inf
    frontier = enum.open(model.init, strategy.start)
    total = 0.0
    weight = eff
    for stage in range(horizon):
        grown = {}
        for i, mass, alpha in enum.visit(frontier):
            total += weight * float(mass @ model.payoff @ alpha)
            if stage + 1 < horizon:
                reference_step(enum, grown, i, mass, alpha, mh.transition)
        weight *= 1.0 - eff
        if not grown or weight == 0.0:
            break
        frontier, = enum.keep(frontier, grown)
    return total, horizon, enum.visits


def reference_histories(model, strategy, depth):
    """``exact_history_distribution``, stage by stage."""
    enum = CursorEnumeration(model, "reference")
    enum.budget = math.inf
    frontier = enum.open(model.init, lambda s: ReplayCursor(strategy, History(s)))
    for _ in range(depth - 1):
        grown = {}
        for i, mass, alpha in enum.visit(frontier):
            reference_step(enum, grown, i, mass, alpha, model.transition)
        frontier, = enum.keep(frontier, grown)
    histories = list(enum.table.ids)
    return {(histories[i], int(w)): float(probs[w])
            for i, probs in frontier.items() for w in np.nonzero(probs > 0.0)[0]}


def assert_budget_is(run, visits):
    """``run()`` succeeds with an enumeration budget of ``visits`` and raises
    with one below."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(strategies, "ENUMERATION_BUDGET", visits)
        run()
        patch.setattr(strategies, "ENUMERATION_BUDGET", visits - 1)
        with pytest.raises(BudgetExceeded):
            run()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 4),
       n_actions=st.integers(1, 3), n_signals=st.integers(1, 2),
       n_memory=st.integers(1, 3), length=st.integers(1, 3),
       n_max=st.integers(1, 6), h=st.sampled_from([0.3, 0.5, 1.0]))
def test_enumerators_match_per_stage_reference(seed, n_states, n_actions, n_signals,
                                               n_memory, length, n_max, h):
    model, ctrl = random_controller_case(seed, n_states, n_actions, n_signals,
                                         n_memory)
    if seed % 2:
        # state 0 shows the last signal, so signals in the order of their first
        # state are not in index order
        flipped = model.n_signals - 1 - model.signal_map
        model = dataclasses.replace(model, signal_map=flipped)
    strategy = Opaque(ctrl)
    expected = reference_histories(model, strategy, length)
    got = exact_history_distribution(model, strategy, length)
    assert list(got) == list(expected)
    assert all(abs(got[key] - p) <= 1e-14 for key, p in expected.items())

    # a history of positive probability at h = 1 and two of probability 0
    support = list(dict.fromkeys(hist for hist, _ in expected))
    every = [History(s) for s in range(model.n_signals)]
    for _ in range(length - 1):
        every = [hist.child(a, s) for hist in every
                 for a in range(n_actions) for s in range(model.n_signals)]
    null = [hist for hist in every if hist not in support]
    for fil in [support[seed % len(support)]] + null[:2]:
        joint, visits = reference_joint(model, strategy, h, fil, n_max)
        got = _filtered_joint_enumerated(model, strategy, h, fil, n_max)
        assert np.max(np.abs(got - joint)) <= 1e-14
        assert_budget_is(lambda: _filtered_joint_enumerated(
            model, strategy, h, fil, n_max), visits)
        # the unwrapped controller takes the closed-form route
        dense = reference_closed_joint(model, ctrl, h, fil)
        closed, bound = filtered_joint(model, ctrl, h, fil)
        assert bound == 0.0
        assert np.max(np.abs(closed - dense)) <= 1e-15
        # a history of probability 0 (at h = 1 the null ones are) gets zeros
        if not dense.any() or (h == 1.0 and fil in null):
            assert not closed.any()

    value, horizon, visits = reference_discounted(model, strategy, 1.0, h, 0.3)
    got, _, got_horizon = _discounted_truncated(model, strategy, 1.0, h, 0.3)
    assert got_horizon == horizon
    assert abs(got - value) <= 1e-14
    assert_budget_is(lambda: _discounted_truncated(
        model, strategy, 1.0, h, 0.3), visits)


def depth_two_table(model):
    """Table with a fixed mixed action at every history of length <= 2."""
    hists = [History(s) for s in range(model.n_signals)]
    hists += [hist.child(a, s) for hist in hists
              for a in range(model.n_actions) for s in range(model.n_signals)]
    table = {}
    for i, hist in enumerate(hists):
        weights = np.roll(np.linspace(1.0, 2.0, model.n_actions) ** i, i)
        table[hist] = weights / weights.sum()
    return TableStrategy(model.n_actions, 2, table, default=np.eye(model.n_actions)[0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 4),
       n_actions=st.integers(1, 3), n_signals=st.integers(1, 2),
       n_memory=st.integers(1, 3), h=st.sampled_from([0.3, 0.5, 1.0]))
def test_paper_identity_for_random_controllers(seed, n_states, n_actions,
                                               n_signals, n_memory, h):
    # the paper's main theorem: the mimic, played in the base model, earns
    # the source's duration-h long-run average
    model, ctrl = random_controller_case(seed, n_states, n_actions, n_signals,
                                         n_memory)
    mimic = build_mimic_strategy(model, ctrl, h)
    source_avg = longrun_average_exact_fsc(model, ctrl, h).value
    mimic_avg = longrun_average_exact_fsc(model, mimic, 1.0).value
    assert abs(mimic_avg - source_avg) <= 1e-12


@pytest.mark.parametrize("model_fn", [figure1_model, random_pomdp_model])
@pytest.mark.parametrize("source_fn", [mixing_controller, depth_two_table])
@pytest.mark.parametrize("h", [0.3, 0.5])
def test_mimic_controller_plays_the_mimic(model_fn, source_fn, h):
    # the mimic's own act (its filtered joint) and its controller's cursor
    # are independent routes to the same strategy
    m = model_fn()
    mimic = build_mimic_strategy(m, source_fn(m), h)
    ctrl = mimic.controller(m.n_signals)
    for depth in (1, 2, 3, 4):
        by_mimic = exact_history_distribution(m, mimic, depth)
        by_ctrl = exact_history_distribution(m, ctrl, depth)
        for key in by_mimic.keys() | by_ctrl.keys():
            assert abs(by_mimic.get(key, 0.0) - by_ctrl.get(key, 0.0)) <= 1e-12
        for hist, _ in by_mimic:
            assert np.max(np.abs(mimic.act(hist) - ctrl.act(hist))) <= 1e-12


def test_mixing_mimic_payoffs_are_exact(monkeypatch):
    # this mimic's filters never close, so enumerating its cursors ran out
    # of any budget; its controller gives the payoff by one solve
    m = random_pomdp_model()
    mimic = build_mimic_strategy(m, mixing_controller(m), 0.3)
    monkeypatch.setattr(strategies, "ENUMERATION_BUDGET", 20_000)
    exact = discounted_payoff(m, mimic, 0.5, 1.0)
    assert exact.mode == "exact"
    mc = discounted_payoff(m, mimic, 0.5, 1.0, method="mc")
    assert abs(exact.value - mc.value) <= 4.0 * mc.std_error
    assert longrun_average_exact_fsc(m, mimic, 1.0).mode == "exact"


# --- identity at h = 1 --------------------------------------------------------------

@pytest.mark.parametrize("source_name", ["sequence", "table", "controller"])
def test_mimic_identity_at_h_one(source_name):
    m = figure1_model() if source_name != "controller" else random_pomdp_model()
    source = {
        "sequence": SequenceStrategy.pure([0, 1], 2),
        "table": small_table_strategy(),
        "controller": mixing_controller(random_pomdp_model()),
    }[source_name]
    mimic = build_mimic_strategy(m, source, 1.0)
    for depth in (1, 2, 3, 4):
        dist = exact_history_distribution(m, source, depth)
        seen = {hist for hist, _ in dist}
        for hist in seen:
            assert np.max(np.abs(mimic.act(hist) - source.act(hist))) <= 1e-12


# --- Monte Carlo estimator -----------------------------------------------------------

def test_mc_identity_case_h1():
    m = random_pomdp_model()
    seq = SequenceStrategy([np.array([0.3, 0.7]), np.array([0.8, 0.2])])
    eta = History(0, ((1, 0),))
    est = mimic_action_mc(m, seq, 1.0, eta, 4000, worker_rng(3, 0))
    truth = seq.act(eta)
    for a in range(2):
        se = max(est.std_errors[a], 1e-6)
        assert abs(est.weights[a] - truth[a]) <= 3.5 * se


def test_mc_state_blind_first_action():
    m = figure1_model()
    seq = SequenceStrategy.pure([0, 1], 2)
    est = mimic_action_mc(m, seq, 0.5, History(0), 20_000, worker_rng(4, 0))
    se = max(est.std_errors[0], 1e-6)
    assert abs(est.weights[0] - 2.0 / 3.0) <= 3.5 * se
    assert est.acceptance_rate == 1.0  # single signal, first epoch always matches


def test_mc_matches_exact_at_k2():
    m = figure1_model()
    seq = SequenceStrategy([np.array([0.6, 0.4]), np.array([0.2, 0.8])])
    eta = History(0, ((0, 0),))
    exact = mimic_action_exact(m, seq, 0.5, eta)
    est = mimic_action_mc(m, seq, 0.5, eta, 20_000, worker_rng(5, 0))
    for a in range(2):
        se = max(est.std_errors[a], 1e-6)
        assert abs(est.weights[a] - exact.weights[a]) <= 3.5 * se


@pytest.mark.parametrize("eta", [History(0, ((0, 1),)), History(1, ((1, 0),))])
def test_mc_acceptance_filter_on_controller(eta):
    m = random_pomdp_model()
    ctrl = mixing_controller(m)
    exact = mimic_action_exact(m, ctrl, 0.5, eta)
    est = mimic_action_mc(m, ctrl, 0.5, eta, 40_000, worker_rng(6, 0))
    se = np.sqrt(exact.weights * (1.0 - exact.weights) / est.n_accepted)
    assert np.all(np.abs(est.weights - exact.weights) <= 4.0 * se)


def test_mc_no_accepted_samples():
    # a first signal that never occurs
    m = make_model(
        ["w1", "w2"], ["a"], ["s1", "s2"], [0, 1],
        np.zeros((2, 1)),
        np.stack([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]),
        [1.0, 0.0],
    )
    with pytest.raises(NoAcceptedSamples):
        mimic_action_mc(m, SequenceStrategy.pure([0], 1), 0.5, History(1), 50, 0)


# --- mimic strategy object ------------------------------------------------------------

def test_sequence_source_mimic_is_signal_independent():
    m = random_pomdp_model()
    seq = SequenceStrategy([np.array([0.3, 0.7]), np.array([0.8, 0.2])])
    mimic = build_mimic_strategy(m, seq, 0.4)
    for a1, a2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        variants = [
            mimic.act(History(s1, ((a1, s2), (a2, s3))))
            for s1 in range(2) for s2 in range(2) for s3 in range(2)
        ]
        for v in variants[1:]:
            assert np.allclose(v, variants[0], atol=1e-12)


def test_pure_source_yields_mixed_actions():
    m = figure1_model()
    mimic = build_mimic_strategy(m, SequenceStrategy.pure([0, 1], 2), 0.5)
    weights = mimic.act(History(0))
    assert 0.0 < weights[0] < 1.0 and 0.0 < weights[1] < 1.0


def test_null_history_uniform_fallback():
    m = make_model(
        ["w1", "w2"], ["a", "b"], ["s1", "s2"], [0, 1],
        np.zeros((2, 2)),
        np.tile(np.array([0.5, 0.5]), (2, 2, 1)),
        [1.0, 0.0],
    )
    # the first signal is surely s1; conditioning on s2 is a null event
    for source in (SequenceStrategy.pure([0, 1], 2),
                   Opaque(SequenceStrategy.pure([0, 1], 2))):
        result = mimic_action_exact(m, source, 0.5, History(1), n_max=20)
        assert result.is_fallback
        assert np.array_equal(result.weights, [0.5, 0.5])


def test_null_history_fallback_on_closed_form_route():
    # W_s's roundoff below 0 made this null history's conditioning mass
    # -6.4e-19, which raised TruncationDominates against the bound 0
    m, ctrl = random_controller_case(13, 2, 2, 2, 2)
    mimic = MimicStrategy(m, ctrl, 0.3)
    assert (mimic.mixed >= 0.0).all()
    result = mimic.mimic_action(History(0, ((0, 0),)))
    assert result.conditioning_mass == 0.0 and result.is_fallback
    assert np.array_equal(result.weights, [0.5, 0.5])


@pytest.mark.parametrize("h", [1e-4, 1e-8])
def test_closed_form_actions_at_small_h(h):
    # W_s is used unclipped: every closed-form mimic action over histories of
    # length <= 2 is a probability vector, the fallback included
    for seed in range(40):
        m, ctrl = random_controller_case(seed, 2 + seed % 2, 2, 1 + seed % 3 // 2,
                                         2 + seed % 5 // 3)
        mimic = MimicStrategy(m, ctrl, h)
        assert (mimic.mixed >= 0.0).all()
        fils = [History(s) for s in range(m.n_signals)]
        fils += [fil.child(a, s) for fil in fils for a in range(m.n_actions)
                 for s in range(m.n_signals)]
        for fil in fils:
            weights = mimic.mimic_action(fil).weights
            assert (weights >= 0.0).all()
            assert abs(weights.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("n_max", [0, -1])
def test_n_max_below_one_rejected(n_max):
    # an opaque source used to return the uniform fallback as a null event
    m = random_pomdp_model()
    for source in (alternating_controller(m), Opaque(alternating_controller(m))):
        for call in (lambda: mimic_action_exact(m, source, 0.5, History(0), n_max),
                     lambda: filtered_joint(m, source, 0.5, History(0), n_max),
                     lambda: MimicStrategy(m, source, 0.5, n_max),
                     lambda: build_mimic_strategy(m, source, 0.5, n_max)):
            with pytest.raises(ValueError, match="n_max"):
                call()


@pytest.mark.parametrize("fil", [History(5), History(0, ((7, 0),)),
                                 History(0, ((0, 2),)), History(-1)],
                         ids=["signal", "action", "step-signal", "negative"])
def test_filtered_history_out_of_range_rejected(fil):
    # the controller route raised IndexError (or wrapped a negative index),
    # the opaque route returned the uniform fallback
    m = random_pomdp_model()
    for source in (alternating_controller(m), Opaque(alternating_controller(m))):
        with pytest.raises(ValueError, match="out of range"):
            mimic_action_exact(m, source, 0.5, fil)
        with pytest.raises(ValueError, match="out of range"):
            build_mimic_strategy(m, source, 0.5).act(fil)
        # the Monte Carlo route raised NoAcceptedSamples after simulating
        with pytest.raises(ValueError, match="out of range"):
            mimic_action_mc(m, source, 0.5, fil, 50, 0)


def test_truncation_dominates_raised():
    m = figure1_model()
    table = Opaque(small_table_strategy())
    with pytest.raises(TruncationDominates):
        mimic_action_exact(m, table, 0.5, History(0), n_max=1)


def test_mimic_act_thread_safe():
    import threading

    m = figure1_model()
    mimic = build_mimic_strategy(m, small_table_strategy(), 0.5)
    histories = [History(0), History(0, ((0, 0),)), History(0, ((1, 0),)),
                 History(0, ((0, 0), (1, 0)))]
    results = [None] * 16
    def worker(i):
        results[i] = mimic.act(histories[i % len(histories)]).copy()
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in range(16):
        assert np.array_equal(results[i], mimic.act(histories[i % len(histories)]))


def test_enumeration_budget_guard(monkeypatch):
    m = figure1_model()
    table = Opaque(small_table_strategy())
    monkeypatch.setattr(strategies, "ENUMERATION_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        mimic_action_exact(m, table, 0.5, History(0, ((0, 0), (1, 0))),
                           n_max=30)


def test_mimic_memoization_and_bounds():
    m = figure1_model()
    mimic = build_mimic_strategy(m, Opaque(small_table_strategy()), 0.5)
    eta = History(0, ((0, 0),))
    first = mimic.act(eta)
    second = mimic.act(eta)
    assert np.array_equal(first, second)
    detail = mimic.mimic_action(eta)
    assert detail.truncation_bound == truncation_bound(0.5, 2, mimic.n_max)
    assert detail.conditioning_mass > 0


# --- filter automaton -------------------------------------------------------------------

def test_machine_closes_for_alternating():
    m = figure1_model()
    machine = build_filter_machine(m, alternating_controller(m), 0.5)
    assert machine is not None
    assert machine.controller.n_memory <= 4
    assert machine.merge_defect == 0.0
    # node action laws reproduce the closed-form parities
    mimic = build_mimic_strategy(m, alternating_controller(m), 0.5)
    ctrl = machine.controller
    start = ctrl.init_memory[0]
    assert ctrl.rule[start] == pytest.approx(mimic.act(History(0)))


def alternating_sequence(model):
    return SequenceStrategy.pure([0, 1], model.n_actions)


@pytest.mark.parametrize("model_fn", [figure1_model, random_pomdp_model])
@pytest.mark.parametrize("ctrl_fn", [alternating_controller, uniform_controller,
                                     mixing_controller, alternating_sequence,
                                     depth_two_table])
@pytest.mark.parametrize("h", [0.25, 0.5])
def test_machine_controller_keeps_source_average(model_fn, ctrl_fn, h):
    # the paper's identity by route: the filter machine, played as a
    # controller of the base model, earns the source's duration-h average
    m = model_fn()
    source = ctrl_fn(m)
    machine = build_filter_machine(m, source, h)
    assert machine is not None
    assert machine.merge_defect == 0.0
    mimic_avg = cesaro_average(*machine_product_chain(m, machine))
    source_avg = longrun_average_exact_fsc(m, source, h).value
    assert abs(mimic_avg - source_avg) <= 1e-12


def test_machine_closes_for_uniform_controller():
    m = random_pomdp_model()
    machine = build_filter_machine(m, uniform_controller(m), 0.25)
    assert machine is not None and machine.controller.n_memory <= m.n_signals


def test_machine_built_for_mixing_controller():
    # the mixing controller's memory filters never close; the machine is the
    # mimic's controller all the same, one memory per (source memory, signal)
    m = random_pomdp_model()
    source = mixing_controller(m)
    machine = build_filter_machine(m, source, 0.5)
    assert machine.controller.n_memory == 2 * m.n_signals
    assert machine.merge_defect == 0.0
    mimic_avg = longrun_average_exact_fsc(m, machine.controller, 1.0).value
    source_avg = longrun_average_exact_fsc(m, source, 0.5).value
    assert abs(mimic_avg - source_avg) <= 1e-12


def test_machine_built_for_table_source():
    m = figure1_model()
    machine = build_filter_machine(m, small_table_strategy(), 0.5)
    assert machine is not None and machine.merge_defect == 0.0


def test_machine_none_for_opaque_source():
    m = figure1_model()
    assert build_filter_machine(m, Opaque(small_table_strategy()), 0.5) is None


# --- the held W_s stacks ------------------------------------------------------

def operator_sources(m):
    """One source of each kind with a controller form."""
    return {"controller": mixing_controller(m),
            "sequence": SequenceStrategy([np.array([0.3, 0.7]), np.array([0.8, 0.2])]),
            "table": small_table_strategy(),
            "mimic": build_mimic_strategy(m, mixing_controller(m), 0.5)}


def fresh_operators(controller, h):
    within = np.einsum("qa,qasr->sqr", controller.rule, controller.update)
    return epoch_memory_operator(within, h)


@pytest.fixture
def operator_calls(monkeypatch):
    """(shape, h) of each ``epoch_memory_operator`` call during the test."""
    calls = []
    build = epochs.epoch_memory_operator

    def counted(matrix, h):
        calls.append((np.shape(matrix), h))
        return build(matrix, h)

    monkeypatch.setattr(epochs, "epoch_memory_operator", counted)
    return calls


@pytest.mark.parametrize("h", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("name", ["controller", "sequence", "table", "mimic"])
def test_held_operators_equal_a_fresh_build(name, h, operator_calls):
    m = figure1_model()
    source = operator_sources(m)[name]
    missed = MimicStrategy(m, source, h)
    n_built = len(operator_calls)
    hit = MimicStrategy(m, source, h)
    assert hit.mixed is missed.mixed and len(operator_calls) == n_built
    fresh = fresh_operators(controller_for(m, source), h)
    assert hit.mixed.tobytes() == fresh.tobytes() and hit.mixed.shape == fresh.shape
    fil = History(0, ((1, 0), (0, 0)))
    joint, _ = hit.filtered_joint(fil)
    memo._STORE.clear()
    rebuilt = MimicStrategy(m, source, h)
    assert rebuilt.mixed is not hit.mixed
    assert rebuilt.filtered_joint(fil)[0].tobytes() == joint.tobytes()
    for got, want in zip(vars(hit.controller(m.n_signals)).values(),
                         vars(rebuilt.controller(m.n_signals)).values()):
        assert np.array_equal(got, want)


def test_held_operators_are_read_only():
    m = figure1_model()
    mixed = MimicStrategy(m, mixing_controller(m), 0.5).mixed
    assert mixed is epoch_operators(mixing_controller(m), 0.5)
    with pytest.raises(ValueError, match="read-only"):
        mixed.flat[0] = 0.5


def _changed(controller, name):
    """``controller`` with its rule's actions or its update's next memories
    reversed, still a controller."""
    rule, update = controller.rule, controller.update
    if name == "rule":
        rule = rule[:, ::-1]
    else:
        update = update[..., ::-1]
    return FiniteStateController(controller.init_memory, rule, update)


def test_operator_memo_misses_on_changed_content(operator_calls):
    m = figure1_model()
    source = mixing_controller(m)
    base = epoch_operators(source, 0.5)
    for controller, h in ((source, np.nextafter(0.5, 1.0)),
                          (_changed(source, "rule"), 0.5),
                          (_changed(source, "update"), 0.5)):
        mixed = epoch_operators(controller, h)
        assert mixed is not base
        assert mixed.tobytes() == fresh_operators(controller, h).tobytes()
    assert len(operator_calls) == 4 == len(memo._STORE)
    # an edit in place after a call is new content as well
    source.rule.flags.writeable = True
    source.rule[0] = [0.6, 0.4]
    edited = MimicStrategy(m, source, 0.5).mixed
    assert edited is not base and len(operator_calls) == 5
    assert edited.tobytes() == fresh_operators(source, 0.5).tobytes()


@pytest.mark.parametrize("entry", [np.nan, 0.5])
def test_invalid_controller_raises_on_every_call(entry):
    m = figure1_model()
    source = mixing_controller(m)
    source.update.flags.writeable = True
    source.update[0, 0, 0, 0] = entry
    for _ in range(2):
        with pytest.raises(ValueError, match="stochastic"):
            MimicStrategy(m, source, 0.5)
    assert memo._STORE == {}


def test_operator_memo_evicts_to_the_byte_bound(monkeypatch, operator_calls):
    m = figure1_model()
    sources = [mixing_controller(m), _changed(mixing_controller(m), "rule"),
               _changed(mixing_controller(m), "update")]
    store = memo._STORE
    epoch_operators(sources[0], 0.5)
    (size,) = [held_bytes(key, value) for key, value in store.items()]
    monkeypatch.setattr(memo, "MAX_HELD_BYTES", 2 * size)
    first = epoch_operators(sources[1], 0.5)
    epoch_operators(sources[0], 0.5)  # a hit makes it the most recent
    epoch_operators(sources[2], 0.5)
    assert len(operator_calls) == 3 and len(store) == 2
    # least recently used first: sources[1] went, sources[0] stayed
    assert epoch_operators(sources[0], 0.5) is not first and len(operator_calls) == 3
    assert epoch_operators(sources[1], 0.5) is not first and len(operator_calls) == 4
    assert sum(held_bytes(*entry) for entry in store.items()) <= 2 * size
    # an entry larger than the bound is built and returned, never held
    monkeypatch.setattr(memo, "MAX_HELD_BYTES", size - 1)
    store.clear()
    for _ in range(2):
        mixed = epoch_operators(sources[0], 0.5)
        assert not mixed.flags.writeable
    assert store == {} and len(operator_calls) == 6


def test_memo_builds_each_stack_and_kernel_once_under_threads(operator_calls,
                                                           monkeypatch):
    # more threads than cores asking for the same stacks and kernels in the
    # same order, with a short switch interval: an unguarded memo lets two
    # threads miss the same key and build it twice
    kernels = []
    build = epochs._product_kernel

    def counted(*args):
        kernels.append(args)
        return build(*args)

    monkeypatch.setattr(epochs, "_product_kernel", counted)
    m = random_pomdp_model()
    sources = [mixing_controller(m), alternating_controller(m), uniform_controller(m)]
    keys = [(i, h) for i in range(len(sources)) for h in (0.2, 0.4, 0.6, 0.8)]
    got, errors = [], []

    def work():
        try:
            for i, h in keys:
                got.append(((i, h), MimicStrategy(m, sources[i], h).mixed))
                got.append(((i, h, "kernel"),
                            epochs._kernel_table(m, sources[i], h, False)))
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
    assert len(operator_calls) == len(kernels) == len(keys)
    one = dict(got)
    assert len(got) == 4 * len(one) and all(held is one[key] for key, held in got)
