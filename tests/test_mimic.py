import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagepomdp.epochs import ExtendedTrajectory, worker_rng
from stagepomdp.errors import (
    InsufficientEpochs,
    NoAcceptedSamples,
    TruncationDominates,
)
from stagepomdp.evaluate import (
    cesaro_average,
    discounted_payoff,
    longrun_average_exact_fsc,
    machine_product_chain,
)
from stagepomdp.mimic import (
    build_filter_machine,
    build_mimic_strategy,
    default_truncation,
    filter_trajectory,
    filtered_joint,
    mimic_action_exact,
    mimic_action_mc,
    truncation_bound,
)
from stagepomdp.model import make_model
from stagepomdp.strategies import (
    FiniteStateController,
    History,
    SequenceStrategy,
    Strategy,
    TableStrategy,
    exact_history_distribution,
)
from stagepomdp.epochs import simulate_gh
from stagepomdp.verify import (
    alternating_controller,
    figure1_model,
    mixing_controller,
    random_pomdp_model,
    uniform_controller,
)


class Opaque(Strategy):
    """Hides the concrete strategy class, forcing the enumeration route."""

    def __init__(self, inner):
        self.inner = inner
        self.n_actions = inner.n_actions

    def start(self, first_signal):
        return self.inner.start(first_signal)

    def act(self, history):
        return self.inner.act(history)


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


# --- filtering -----------------------------------------------------------------

def test_filter_first_epoch_only():
    m = figure1_model()
    traj = simulate_gh(m, SequenceStrategy.pure([0, 1], 2), 0.5, 20, 1)
    assert filter_trajectory(traj, 1) == History(int(traj.signals[0]))


def test_filter_at_h1_is_prefix():
    m = random_pomdp_model()
    traj = simulate_gh(m, SequenceStrategy.pure([0, 1], 2), 1.0, 10, 2)
    for k in (1, 2, 3, 4):
        fil = filter_trajectory(traj, k)
        expected = History(
            int(traj.signals[0]),
            tuple((int(traj.actions[j]), int(traj.signals[j + 1]))
                  for j in range(k - 1)),
        )
        assert fil == expected


def test_filter_hand_built_epochs():
    # epoch lengths (2, 1): boundaries at stages 2 and 3, so the filtered
    # record keeps the action of stage 2 and the signal of stage 3
    traj = ExtendedTrajectory(
        states=np.array([0, 0, 1, 1]),
        actions=np.array([0, 1, 0, 1]),
        signals=np.array([0, 0, 0, 0]),
        marks=np.array([0, 1, 1, 0], dtype=np.int8),
    )
    fil = filter_trajectory(traj, 2)
    assert fil == History(0, ((1, 0),))
    fil3 = filter_trajectory(traj, 3)
    assert fil3 == History(0, ((1, 0), (0, 0)))


def test_filter_insufficient_epochs():
    traj = ExtendedTrajectory(
        states=np.array([0, 0]),
        actions=np.array([0, 0]),
        signals=np.array([0, 0]),
        marks=np.array([0, 0], dtype=np.int8),
    )
    with pytest.raises(InsufficientEpochs) as err:
        filter_trajectory(traj, 2)
    assert err.value.found == 1


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


def test_mixing_mimic_payoffs_are_exact():
    # this mimic's filters never close, so enumerating its cursors ran out
    # of any budget; its controller gives the payoff by one solve
    m = random_pomdp_model()
    mimic = build_mimic_strategy(m, mixing_controller(m), 0.3)
    exact = discounted_payoff(m, mimic, 0.5, 1.0, budget=20_000)
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


def test_enumeration_budget_guard():
    from stagepomdp.errors import BudgetExceeded

    m = figure1_model()
    table = Opaque(small_table_strategy())
    with pytest.raises(BudgetExceeded):
        mimic_action_exact(m, table, 0.5, History(0, ((0, 0), (1, 0))),
                           n_max=30, budget=10)


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
