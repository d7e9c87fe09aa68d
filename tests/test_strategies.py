import math

import numpy as np
import pytest

from stagepomdp import strategies
from stagepomdp.epochs import simulate_batch, simulate_gh, worker_rng
from stagepomdp.evaluate import (
    discounted_payoff,
    longrun_average_exact_fsc,
    longrun_average_mc,
)
from stagepomdp.errors import BudgetExceeded
from stagepomdp.mimic import MimicStrategy, build_mimic_strategy
from stagepomdp.model import make_model, stage_duration_transform
from stagepomdp.strategies import (
    MAX_TABLE_MEMORIES,
    FiniteStateController,
    History,
    SequenceStrategy,
    Strategy,
    TableStrategy,
    controller_for,
    exact_history_distribution,
    sequence_as_controller,
    uniform_action,
)
from stagepomdp.verify import alternating_controller, figure1_model, random_pomdp_model


def all_histories(model, depth):
    hists = [History(s) for s in range(model.n_signals)]
    for _ in range(depth - 1):
        hists = [h.child(a, s) for h in hists
                 for a in range(model.n_actions)
                 for s in range(model.n_signals)]
    return hists


def test_history_length_and_child():
    h = History(0)
    assert h.length == 1 and h.last_signal == 0
    h2 = h.child(1, 0)
    assert h2.length == 2 and h2.steps == ((1, 0),) and h2.last_signal == 0


def test_history_hash_keys():
    # histories are dict keys: distinct histories never collide, equal ones do
    keys = {}
    count = 0
    for depth in (1, 2, 3):
        for s1 in range(2):
            base = History(s1)
            prefixes = [base]
            for _ in range(depth - 1):
                prefixes = [p.child(a, s) for p in prefixes
                            for a in range(2) for s in range(2)]
            for hist in prefixes:
                keys[hist] = count
                count += 1
    assert len(keys) == count
    for hist, value in list(keys.items()):
        rebuilt = History(hist.first_signal)
        for action, signal in hist.steps:
            rebuilt = rebuilt.child(action, signal)
        assert rebuilt == hist and rebuilt is not hist
        assert keys[rebuilt] == value
    assert History(0, ((1, 0),)) != History(0, ((0, 1),))


def test_sequence_strategy_cycles():
    seq = SequenceStrategy.pure([0, 1], 2)
    hist = History(0)
    assert seq.act(hist)[0] == 1.0                      # length 1 -> a
    hist = hist.child(0, 0)
    assert seq.act(hist)[1] == 1.0                      # length 2 -> b
    hist = hist.child(1, 0)
    assert seq.act(hist)[0] == 1.0                      # length 3 -> a again


def test_sequence_cursor_matches_act():
    seq = SequenceStrategy([np.array([0.3, 0.7]), np.array([1.0, 0.0])])
    cursor = seq.start(0)
    hist = History(0)
    for step in range(5):
        assert np.array_equal(cursor.action_distribution(), seq.act(hist))
        cursor = cursor.step(step % 2, 0)
        hist = hist.child(step % 2, 0)


def test_constant_single_memory_controller_uniform():
    ctrl = FiniteStateController(
        init_memory=[0],
        rule=[[0.5, 0.5]],
        update=np.ones((1, 2, 1, 1)),
    )
    for hist in all_histories(figure1_model(), 3):
        assert np.array_equal(ctrl.act(hist), uniform_action(2))


def test_table_strategy_past_depth_default():
    hist1 = History(0)
    table = TableStrategy(2, 2, {hist1: [1.0, 0.0]}, default=[0.25, 0.75])
    assert np.array_equal(table.act(hist1), [1.0, 0.0])
    deep = hist1.child(0, 0).child(1, 0)
    assert np.array_equal(table.act(deep), [0.25, 0.75])
    # missing within-depth entries also fall back to the default
    assert np.array_equal(table.act(hist1.child(1, 0)), [0.25, 0.75])


def test_controller_posterior_conditions_on_actions():
    # two memories, distinguishable by the first action: posterior must
    # collapse onto the memory that could have produced the action
    ctrl = FiniteStateController(
        init_memory=[0],
        rule=[[1.0, 0.0], [0.0, 1.0]],
        update=np.stack([
            np.stack([np.full((1, 2), [0.5, 0.5]), np.full((1, 2), [0.5, 0.5])]),
            np.stack([np.full((1, 2), [0.5, 0.5]), np.full((1, 2), [0.5, 0.5])]),
        ]),
    )
    cursor = ctrl.start(0).step(0, 0)   # observed action 0 -> memory was q0
    assert np.allclose(cursor.belief, [0.5, 0.5])
    degenerate = ctrl.start(0).step(1, 0)   # q0 never plays action 1
    assert np.array_equal(degenerate.action_distribution(), uniform_action(2))


class _Opaque(Strategy):
    """Hides a strategy's class behind its cursor."""

    def __init__(self, inner):
        self.inner = inner
        self.n_actions = inner.n_actions

    def start(self, first_signal):
        return self.inner.start(first_signal)


def test_as_controller_returns_controller_itself():
    ctrl = FiniteStateController([0], [[0.5, 0.5]], np.ones((1, 2, 1, 1)))
    assert ctrl.controller(1) is ctrl


def test_as_controller_converts_sequence():
    model = random_pomdp_model()
    seq = SequenceStrategy([np.array([0.3, 0.7]), np.array([0.6, 0.4])])
    ctrl = seq.controller(model.n_signals)
    assert isinstance(ctrl, FiniteStateController)
    for hist in all_histories(model, 3):
        assert np.allclose(ctrl.act(hist), seq.act(hist), atol=1e-14)


def test_as_controller_none_for_other_strategies():
    # opaque strategies and mimics of opaque sources have no controller; the
    # mimic of a controller source is one, built once
    model = figure1_model()
    opaque = _Opaque(SequenceStrategy.pure([0, 1], 2))
    opaque_mimic = build_mimic_strategy(model, opaque, 0.5)
    for strategy in (opaque, opaque_mimic):
        assert strategy.controller(model.n_signals) is None
    mimic = build_mimic_strategy(model, alternating_controller(model), 0.5)
    ctrl = mimic.controller(model.n_signals)
    assert isinstance(ctrl, FiniteStateController)
    assert mimic.controller(model.n_signals) is ctrl


def test_as_controller_converts_table_once():
    model = random_pomdp_model()
    hist1 = History(1)
    table = TableStrategy(2, 3, {
        hist1: [0.9, 0.1],
        hist1.child(0, 0).child(1, 1): [0.2, 0.8],   # prefix hist1.child(0, 0) unset
        History(0, ((1, 1), (1, 0), (0, 0))): [0.0, 1.0],   # past the depth
    }, default=[0.35, 0.65])
    ctrl = table.controller(model.n_signals)
    assert isinstance(ctrl, FiniteStateController)
    assert table.controller(model.n_signals) is ctrl
    # memories: hist1, its child and grandchild, and the absorbing default
    assert ctrl.n_memory == 4
    # every history is reachable (no action has probability 0 along it), so
    # the controller's posterior stays a point mass and it plays the table
    for depth in (1, 2, 3, 4):
        for hist in all_histories(model, depth):
            assert np.array_equal(ctrl.act(hist), table.act(hist))


def test_large_table_stays_on_cursor_path():
    # every history to depth 4 over 3 actions and 3 signals: 2,461 memories,
    # past MAX_TABLE_MEMORIES, so the table keeps its cursor routes
    rng = np.random.default_rng(5)
    model = make_model([f"w{i}" for i in range(4)], ["a0", "a1", "a2"],
                       ["s0", "s1", "s2"], [0, 1, 2, 0], rng.uniform(0, 1, (4, 3)),
                       rng.uniform(0.1, 1.0, (4, 3, 4)), np.ones(4), normalize=True)
    hists = [History(s) for s in range(3)]
    table = {}
    for _ in range(4):
        table.update({hist: rng.dirichlet(np.ones(3)) for hist in hists})
        hists = [h.child(a, s) for h in hists for a in range(3) for s in range(3)]
    table = TableStrategy(3, 4, table)
    assert len(table.table) > MAX_TABLE_MEMORIES
    # a chain of n keys has n + 1 memories with the absorbing one
    for n, converts in ((MAX_TABLE_MEMORIES - 1, True), (MAX_TABLE_MEMORIES, False)):
        chain = TableStrategy(3, n, {History(0, ((0, 0),) * i): [1.0, 0.0, 0.0]
                                     for i in range(n)})
        assert (chain.controller(3) is not None) == converts
    assert table.controller(3) is None
    # the table and an opaque wrapper draw the same cursor stream
    sim = longrun_average_mc(model, table, 0.5, 200, 20, 3)
    opaque_sim = longrun_average_mc(model, _Opaque(table), 0.5, 200, 20, 3)
    assert (sim.value, sim.std_error) == (opaque_sim.value, opaque_sim.std_error)
    assert discounted_payoff(model, table, 0.5, 0.5).mode == "truncated"
    mimic = build_mimic_strategy(model, table, 0.5)
    assert mimic.controller(3) is None
    hist = History(0).child(1, 2)
    opaque_mimic = build_mimic_strategy(model, _Opaque(table), 0.5)
    assert np.array_equal(mimic.act(hist), opaque_mimic.act(hist))


def test_controller_rejects_init_memory_shape():
    with pytest.raises(ValueError):
        FiniteStateController([0], [[0.5, 0.5]], np.ones((1, 2, 2, 1)))
    with pytest.raises(ValueError):
        FiniteStateController([[0]], [[0.5, 0.5]], np.ones((1, 2, 1, 1)))


def test_sequence_as_controller_equivalent_mixed():
    # fully mixed sequence: every history is reachable, so the controller
    # posterior never degenerates and the two agree everywhere
    model = random_pomdp_model()
    seq = SequenceStrategy([np.array([0.3, 0.7]), np.array([0.6, 0.4])])
    ctrl = sequence_as_controller(seq, model.n_signals)
    for hist in all_histories(model, 3):
        assert np.allclose(ctrl.act(hist), seq.act(hist), atol=1e-14)


def test_sequence_as_controller_equivalent_pure_on_reachable():
    # a pure cyclic sequence only generates histories whose actions follow
    # the cycle; on those the controller agrees exactly, elsewhere the
    # controller's posterior is degenerate (uniform fallback by design)
    model = random_pomdp_model()
    seq = SequenceStrategy.pure([0, 1], model.n_actions)
    ctrl = sequence_as_controller(seq, model.n_signals)
    for hist in all_histories(model, 3):
        consistent = all(a == (t % 2) for t, (a, _) in enumerate(hist.steps))
        if consistent:
            assert np.array_equal(ctrl.act(hist), seq.act(hist))
        else:
            assert np.array_equal(ctrl.act(hist), uniform_action(2))


# --- exact history distribution --------------------------------------------------

def test_depth_one_distribution():
    model = random_pomdp_model()
    seq = SequenceStrategy.pure([0], model.n_actions)
    dist = exact_history_distribution(model, seq, 1)
    for w in range(model.n_states):
        if model.init[w] > 0:
            assert dist[(History(model.signal_of(w)), w)] == pytest.approx(
                model.init[w]
            )


def test_figure1_depth_two_deterministic():
    model = figure1_model()
    seq = SequenceStrategy.pure([0], 2)
    dist = exact_history_distribution(model, seq, 2)
    # the single deterministic move puts all mass on one history-state pair
    expected = (History(0, ((0, 0),)), 1)
    assert set(dist) == {expected}
    assert dist[expected] == pytest.approx(1.0)


def test_distribution_mass_one_at_depth_three():
    model = random_pomdp_model()
    seq = SequenceStrategy([np.array([0.4, 0.6])])
    dist = exact_history_distribution(model, seq, 3)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)


def test_marginal_consistency():
    model = random_pomdp_model()
    strat = SequenceStrategy([np.array([0.4, 0.6]), np.array([0.9, 0.1])])
    for depth in (1, 2):
        shallow = exact_history_distribution(model, strat, depth)
        deep = exact_history_distribution(model, strat, depth + 1)
        by_hist = {}
        for (hist, _), p in deep.items():
            prefix = History(hist.first_signal, hist.steps[:-1])
            by_hist[prefix] = by_hist.get(prefix, 0.0) + p
        shallow_hist = {}
        for (hist, _), p in shallow.items():
            shallow_hist[hist] = shallow_hist.get(hist, 0.0) + p
        assert set(by_hist) == set(shallow_hist)
        for hist, p in shallow_hist.items():
            assert by_hist[hist] == pytest.approx(p, abs=1e-10)


def test_monte_carlo_history_consistency():
    # empirical frequencies of depth-3 histories in the duration-h model
    # match the exact distribution of the transformed model
    model = random_pomdp_model()
    h, depth, n = 0.5, 3, 20_000
    strat = SequenceStrategy([np.array([0.4, 0.6]), np.array([0.9, 0.1])])
    exact = {}
    for (hist, _), p in exact_history_distribution(
            stage_duration_transform(model, h), strat, depth).items():
        exact[hist] = exact.get(hist, 0.0) + p
    rng = worker_rng(31, 0)
    counts = {}
    for _ in range(n):
        traj = simulate_gh(model, strat, h, depth, rng)
        steps = tuple(
            (int(traj.actions[j]), int(traj.signals[j + 1]))
            for j in range(depth - 1)
        )
        hist = History(int(traj.signals[0]), steps)
        counts[hist] = counts.get(hist, 0) + 1
    for hist, p in exact.items():
        freq = counts.get(hist, 0) / n
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(freq - p) <= 3.5 * se


def test_budget_guard(monkeypatch):
    model = random_pomdp_model()
    seq = SequenceStrategy.pure([0], model.n_actions)
    monkeypatch.setattr(strategies, "ENUMERATION_BUDGET", 1000)
    with pytest.raises(BudgetExceeded):
        exact_history_distribution(model, seq, 30)


def one_memory_controller(n_actions, n_signals):
    return FiniteStateController(np.zeros(n_signals, dtype=np.int64),
                                 [uniform_action(n_actions)],
                                 np.ones((1, n_actions, n_signals, 1)))


@pytest.mark.parametrize("n_actions,n_signals,wrap", [
    (2, 1, False), (2, 3, False), (1, 2, False), (3, 2, False),
    (1, 2, True), (3, 2, True),
], ids=["1-signal", "3-signal", "1-action", "3-action", "opaque-1-action",
        "opaque-3-action"])
@pytest.mark.parametrize("entry", [
    lambda m, c: simulate_batch(m, c, 0.5, 4, 0, sums_at=[5]),
    lambda m, c: longrun_average_exact_fsc(m, c, 0.5),
    lambda m, c: discounted_payoff(m, c, 0.5, 0.5),
    lambda m, c: MimicStrategy(m, c, 0.5),
], ids=["simulate_batch", "longrun_exact", "discounted", "mimic"])
def test_strategy_counts_must_match_model(n_actions, n_signals, wrap, entry):
    # random_pomdp_model has 2 actions and 2 signals; an opaque strategy
    # declares only its action count
    m = random_pomdp_model()
    strategy = one_memory_controller(n_actions, n_signals)
    if wrap:
        strategy = _Opaque(strategy)
    with pytest.raises(ValueError, match="(strategy|controller) has"):
        entry(m, strategy)


def test_mimic_controller_checked_against_other_model():
    # the mimic's controller has the signals of the model it was built for
    m = random_pomdp_model()
    mimic = build_mimic_strategy(m, one_memory_controller(2, 2), 0.5)
    assert controller_for(m, mimic) is mimic.controller(m.n_signals)
    other = make_model(["w"], ["a", "b"], ["s"], [0], np.zeros((1, 2)),
                       np.ones((1, 2, 1)), [1.0])
    with pytest.raises(ValueError, match="signals"):
        controller_for(other, mimic)
