import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from stagepomdp import memo, strategies
from stagepomdp.epochs import (
    _cdf,
    _kernel_table,
    _ControllerMemory,
    _CursorMemory,
    _draw,
    _kernel_draw,
    epoch_memory_operator,
    sample_epochs,
    simulate_batch,
    simulate_epochs_gh,
    simulate_gh,
    worker_rng,
)
from stagepomdp.errors import BudgetExceeded, RowNotStochastic
from stagepomdp.evaluate import controller_product_chain, discounted_payoff
from stagepomdp.mimic import build_mimic_strategy, filtered_joint, mimic_action_exact
from stagepomdp.model import make_model, stage_duration_transform
from stagepomdp.strategies import (
    CursorEnumeration,
    FiniteStateController,
    History,
    ReplayCursor,
    SequenceStrategy,
    Strategy,
    StrategyCursor,
    TableStrategy,
    exact_history_distribution,
)
from stagepomdp.verify import (
    alternating_controller,
    figure1_model,
    mixing_controller,
    random_pomdp_model,
)

from conftest import Opaque, golden_mismatch


def test_sample_epochs_degenerate_at_one():
    sample = sample_epochs(1.0, 20, 0)
    assert np.all(sample.lengths == 1)
    assert np.array_equal(sample.boundaries, np.arange(21))


def test_sample_epochs_reproducible():
    a = sample_epochs(0.3, 50, 1234)
    b = sample_epochs(0.3, 50, 1234)
    assert np.array_equal(a.lengths, b.lengths)


def test_boundaries_are_prefix_sums():
    sample = sample_epochs(0.4, 100, 5)
    assert np.array_equal(np.diff(sample.boundaries), sample.lengths)
    assert sample.boundaries[0] == 0


@pytest.mark.parametrize("h", [0.2, 0.5, 0.8])
def test_epoch_moments(h):
    n = 100_000
    lengths = sample_epochs(h, n, worker_rng(77, 0)).lengths.astype(np.float64)
    mean, var = lengths.mean(), lengths.var(ddof=1)
    se_mean = lengths.std(ddof=1) / math.sqrt(n)
    assert abs(mean - 1.0 / h) <= 3.0 * se_mean
    # moment-based standard error of the sample variance
    centered = lengths - mean
    se_var = math.sqrt(max(np.mean(centered**4) - var**2, 0.0) / n)
    assert abs(var - (1.0 - h) / h**2) <= 3.0 * se_var
    frac = float(np.mean(lengths >= 3))
    se_frac = math.sqrt(frac * (1.0 - frac) / n)
    assert abs(frac - (1.0 - h) ** 2) <= 3.0 * se_frac


def test_simulate_marks_all_one_at_h1():
    m = figure1_model()
    seq = SequenceStrategy.pure([0, 1], 2)
    traj = simulate_gh(m, seq, 1.0, 50, 3)
    assert np.all(traj.marks == 1)


def test_simulate_freeze_contract():
    m = figure1_model()
    seq = SequenceStrategy.pure([0, 1], 2)
    traj = simulate_gh(m, seq, 0.5, 400, 11)
    for j in range(traj.horizon - 1):
        if traj.marks[j] == 0:
            assert traj.states[j + 1] == traj.states[j]
    assert np.array_equal(traj.signals, m.signal_map[traj.states])


class TopUniform(np.random.Generator):
    """A generator whose every uniform is 1 - 1e-15, just below 1."""

    def random(self, size=None):
        return 1.0 - 1e-15 if size is None else np.full(size, 1.0 - 1e-15)


def test_simulate_never_draws_a_zero_probability_index():
    # validation accepts a row summing to just under 1; a uniform above its
    # sum must still land on the last positive entry, never on the 0 after it
    row = [0.5, 0.5 - 1e-13, 0.0]
    m = make_model(["w1", "w2", "w3"], ["a", "b"], ["s"], [0, 0, 0],
                   np.zeros((3, 2)), np.tile(row, (3, 2, 1)), row)
    seq = SequenceStrategy.pure([0, 1], 2)
    traj = simulate_gh(m, seq, 1.0, 4, TopUniform(np.random.PCG64(0)))
    assert np.all(traj.states == 1)


def test_simulate_mark_frequency():
    m = random_pomdp_model()
    seq = SequenceStrategy.pure([0, 1], 2)
    h, horizon = 0.3, 20_000
    traj = simulate_gh(m, seq, h, horizon, 21)
    freq = traj.marks.mean()
    se = math.sqrt(h * (1 - h) / horizon)
    assert abs(freq - h) <= 3.0 * se


def test_boundary_moments_of_t():
    h, k, n = 0.5, 10, 20_000
    rng = worker_rng(5, 1)
    t_k = np.array([sample_epochs(h, k, rng).boundaries[-1] for _ in range(n)],
                   dtype=np.float64)
    se_mean = t_k.std(ddof=1) / math.sqrt(n)
    assert abs(t_k.mean() - k / h) <= 3.0 * se_mean
    centered = t_k - t_k.mean()
    se_var = math.sqrt(max(np.mean(centered**4) - t_k.var(ddof=1) ** 2, 0.0) / n)
    assert abs(t_k.var(ddof=1) - (1 - h) * k / h**2) <= 3.0 * se_var


def test_simulate_epochs_horizon_and_minimum():
    m = figure1_model()
    seq = SequenceStrategy.pure([0, 1], 2)
    traj, epochs = simulate_epochs_gh(m, seq, 0.5, 5, 9)
    assert traj.horizon == int(epochs.boundaries[-1])
    assert traj.marks.sum() == 5
    traj, epochs = simulate_epochs_gh(m, seq, 0.5, 5, 9, min_horizon=40)
    assert traj.horizon >= 40


# --- batched simulation -------------------------------------------------------

def stochastic_update_controller(model):
    """Two memories, mixed rules, and memory updates that depend on (a, s)."""
    rule = [[0.8, 0.2], [0.3, 0.7]]
    update = np.zeros((2, 2, model.n_signals, 2))
    for q in range(2):
        for a in range(2):
            for s in range(model.n_signals):
                stay = 0.2 + 0.25 * q + 0.3 * a + 0.15 * s
                update[q, a, s] = [stay, 1.0 - stay] if q == 0 else [1.0 - stay, stay]
    return FiniteStateController(np.zeros(model.n_signals, dtype=np.int64),
                                 rule, update)


def controller_finite_mean(model, controller, h, t):
    """Exact expected mean payoff of the first t stages, from the product chain."""
    chain, dist, payoffs = controller_product_chain(model, controller, h)
    total = 0.0
    for _ in range(t):
        total += dist @ payoffs
        dist = dist @ chain
    return total / t


def strategy_finite_mean(model, strategy, t):
    """Exact expected mean payoff of the first t stages at h = 1, by enumeration."""
    total = 0.0
    for depth in range(1, t + 1):
        for (hist, w), p in exact_history_distribution(model, strategy, depth).items():
            total += p * float(model.payoff[w] @ strategy.act(hist))
    return total / t


def batched_mean(model, strategy, h, t, n_plays, seed):
    plays = simulate_batch(model, strategy, h, n_plays, seed, sums_at=[t])
    means = plays.sums[:, 0] / t
    return means.mean(), means.std(ddof=1) / math.sqrt(n_plays)


@pytest.mark.parametrize("name", ["stochastic_update", "cycle", "table",
                                  "opaque_mixing", "opaque_stochastic_update"])
def test_batched_law_controllers(name):
    m = random_pomdp_model()
    h, t = 0.5, 30
    if name == "table":
        # the exact mean enumerates the table's own lookups, not its
        # controller, over the duration-h model, so t stays small
        strategy, t = small_table(), 4
        exact = strategy_finite_mean(stage_duration_transform(m, h), strategy, t)
    else:
        controller = {"stochastic_update": stochastic_update_controller,
                      "cycle": alternating_controller,
                      "mixing": mixing_controller}[name.removeprefix("opaque_")](m)
        exact = controller_finite_mean(m, controller, h, t)
        # behind the wrapper the plays hold posterior cursors, merged by key
        strategy = Opaque(controller) if name.startswith("opaque_") else controller
    mean, se = batched_mean(m, strategy, h, t, 20_000, worker_rng(41, 0))
    assert abs(mean - exact) <= 4.0 * se


def test_batched_law_controller_source_mimic():
    m = random_pomdp_model()
    mimic = build_mimic_strategy(m, stochastic_update_controller(m), 0.5)
    t = 4
    mean, se = batched_mean(m, mimic, 1.0, t, 40_000, worker_rng(42, 0))
    assert abs(mean - strategy_finite_mean(m, mimic, t)) <= 4.0 * se


def two_cycle_model():
    """w1 and w2 swap on every real transition; only w1 pays."""
    transition = np.zeros((2, 2, 2))
    transition[0, :, 1] = 1.0
    transition[1, :, 0] = 1.0
    return make_model(["w1", "w2"], ["a", "b"], ["s"], [0, 0],
                      [[1.0, 1.0], [0.0, 0.0]], transition, [1.0, 0.0])


def test_batched_freeze_contract():
    m = two_cycle_model()
    k = 6
    plays = simulate_batch(m, SequenceStrategy.pure([0, 1], 2), 0.4, 500, 17,
                           sums_at=[60], epochs=k)
    lengths = np.diff(plays.boundaries, axis=1)
    assert plays.boundaries.shape == (500, k + 1)
    assert np.all(lengths >= 1)
    # the state moves at every mark and nowhere else
    assert np.all(plays.epoch_states[:, 1:] != plays.epoch_states[:, :-1])
    assert np.array_equal(plays.epoch_sums, lengths * (plays.epoch_states == 0))


def test_batched_pinned_epochs_run_to_horizon():
    m = two_cycle_model()
    horizon = 40
    plays = simulate_batch(m, SequenceStrategy.pure([0, 1], 2), 0.5, 400, 3,
                           sums_at=[horizon], epochs=3)
    t_k = plays.boundaries[:, -1]
    # only w1 pays, so the payoff of the stages after T_k counts their w1 stages
    after = plays.sums[:, 0] - plays.epoch_sums.sum(axis=1)
    early = t_k <= horizon // 2
    assert early.mean() > 0.9
    assert np.all(after[early] >= 0)
    assert np.all(after[early] <= horizon - t_k[early])
    # marks keep coming after T_k, so the state keeps swapping
    mixed = (after[early] > 0) & (after[early] < horizon - t_k[early])
    assert mixed.mean() > 0.9


def small_table():
    hist1 = History(0)
    return TableStrategy(2, 2, {hist1: [0.9, 0.1], hist1.child(0, 0): [0.2, 0.8],
                                hist1.child(1, 1): [0.6, 0.4]},
                         default=[0.3, 0.7])


def dense_kernels(model, controller, h, marked):
    """K_b[(s,m,a), (s',m',a')] = T_b[s,a,s'] update[m,a,σ(s'),m'] rule[m',a'],
    summed directly: T_b is P_h alone, or the identity then P when marked."""
    if marked:
        blocks = [np.broadcast_to(np.eye(model.n_states)[:, None],
                                  model.transition.shape), model.transition]
    else:
        blocks = [stage_duration_transform(model, h).transition]
    update = controller.update[:, :, model.signal_map, :]
    n_x = model.n_states * controller.n_memory * model.n_actions
    return [np.einsum("sat,matn,nb->smatnb", t, update, controller.rule
                      ).reshape(n_x, n_x) for t in blocks]


def kernel_controllers(model):
    return {"stochastic_update": stochastic_update_controller(model),
            "mixing": mixing_controller(model),
            "mimic": build_mimic_strategy(model, stochastic_update_controller(model),
                                          0.5).controller(model.n_signals)}


@pytest.mark.parametrize("marked", [False, True])
@pytest.mark.parametrize("model", [figure1_model, random_pomdp_model])
def test_kernel_rows_equal_direct_product(model, marked):
    m = model()
    for name, controller in kernel_controllers(m).items():
        memory = _ControllerMemory(m, controller, 0.5, marked, np.random.default_rng(0))
        keys, cols, last = memory.keys, memory.cols, memory.last
        dense = np.concatenate(dense_kernels(m, controller, 0.5, marked))
        assert len(last) == len(dense) and len(keys) == np.count_nonzero(dense)
        first = np.concatenate(([0], last[:-1] + 1))
        for r in range(len(dense)):
            row = slice(first[r], last[r] + 1)
            assert keys[last[r]] == r + 1
            assert np.all(np.diff(cols[row]) > 0)
            law = np.zeros(dense.shape[1])
            law[cols[row]] = np.diff(np.concatenate(([r], keys[row])))
            assert np.max(np.abs(law - dense[r])) <= 1e-13, (name, r)


@pytest.mark.parametrize("marked", [False, True])
@pytest.mark.parametrize("h", [0.3, 0.5, 1.0])
def test_held_kernel_equals_a_fresh_build(h, marked):
    m = random_pomdp_model()
    for controller in kernel_controllers(m).values():
        missed = _kernel_table(m, controller, h, marked)
        hit = _ControllerMemory(m, controller, h, marked, np.random.default_rng(0))
        assert all(a is b for a, b in zip(missed, (hit.keys, hit.cols, hit.last,
                                                    hit.init_cdf)))
        for array in missed:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0
        plays = simulate_batch(m, controller, h, 40, 3, sums_at=[5], epochs=2 * marked)
        memo._STORE.clear()
        fresh = _kernel_table(m, controller, h, marked)
        assert all(a is not b and a.tobytes() == b.tobytes()
                   for a, b in zip(missed, fresh))
        again = simulate_batch(m, controller, h, 40, 3, sums_at=[5], epochs=2 * marked)
        assert all(np.array_equal(getattr(plays, f.name), getattr(again, f.name))
                   for f in dataclasses.fields(plays))


def _nudged_model(model, name):
    """``model`` with one entry of its array ``name`` changed."""
    array = getattr(model, name).copy()
    if name == "signal_map":
        array[0] = (array[0] + 1) % model.n_signals
    else:
        array.flat[0] = np.nextafter(array.flat[0], 2.0)
    return dataclasses.replace(model, **{name: array})


def test_kernel_memo_misses_on_changed_content():
    m = random_pomdp_model()
    controller = stochastic_update_controller(m)
    base = {marked: _kernel_table(m, controller, 0.5, marked) for marked in (False, True)}
    # a marked kernel does not depend on h
    assert _kernel_table(m, controller, 0.25, True) is base[True]
    rule = controller.rule[:, ::-1]
    update = controller.update[..., ::-1]
    starts = np.ones(m.n_signals, dtype=np.int64)
    changed = [(m, controller, 0.25, False)]
    changed += [(_nudged_model(m, name), controller, 0.5, marked)
                for name in ("transition", "signal_map", "init", "payoff")
                for marked in (False, True)]
    changed += [(m, FiniteStateController(*arrays), 0.5, marked)
                for arrays in ((controller.init_memory, rule, controller.update),
                               (controller.init_memory, controller.rule, update),
                               (starts, controller.rule, controller.update))
                for marked in (False, True)]
    for model, ctrl, h, marked in changed:
        table = _kernel_table(model, ctrl, h, marked)
        assert table is not base[marked]
    assert len(memo._STORE) == 2 + len(changed)
    # an edit in place after a call is new content as well
    controller.update.flags.writeable = True
    controller.update[0, 0, 0] = controller.update[0, 0, 0, ::-1].copy()
    assert _kernel_table(m, controller, 0.5, True) is not base[True]


def test_invalid_model_raises_on_every_unmarked_call():
    m = random_pomdp_model()
    bad = dataclasses.replace(m, transition=m.transition * 0.5)
    for _ in range(2):
        with pytest.raises(RowNotStochastic):
            simulate_batch(bad, alternating_controller(m), 0.5, 5, 0, sums_at=[3])
    assert memo._STORE == {}


def epoch_laws(model, controller, h, k):
    """Exact per-epoch state and last-stage action laws and expected payoff
    sums of k pinned epochs, from the product chain over (s, m, a)."""
    frozen, marked = dense_kernels(model, controller, h, True)
    n_s, n_q, n_a = model.n_states, controller.n_memory, model.n_actions
    start = np.zeros((n_s, n_q, n_a))
    first_memory = controller.init_memory[model.signal_map]
    start[np.arange(n_s), first_memory] = (model.init[:, None]
                                           * controller.rule[first_memory])
    dist = start.reshape(-1)
    payoff = np.repeat(model.payoff[:, None], n_q, axis=1).reshape(-1)
    # E[K0^(N-1)] over an epoch length N ~ geometric(h), and the payoff sum
    ending = epoch_memory_operator(frozen, h)
    out = []
    for _ in range(k):
        last = dist @ ending
        out.append((dist.reshape(n_s, -1).sum(axis=1),
                    last.reshape(-1, n_a).sum(axis=0), last @ payoff / h))
        dist = last @ marked
    return out


@pytest.mark.parametrize("name", ["alternating", "mixing", "stochastic_update",
                                  "opaque_alternating", "opaque_mixing"])
def test_batched_epoch_laws(name):
    # the epoch records of the kernel draw and of the cursor path against the
    # exact product chain: the state law during each epoch, the law of the
    # action at its last stage and the mean payoff sum over it
    m, h, k, n = random_pomdp_model(), 0.5, 3, 20_000
    controller = {"alternating": alternating_controller, "mixing": mixing_controller,
                  "stochastic_update": stochastic_update_controller
                  }[name.removeprefix("opaque_")](m)
    strategy = Opaque(controller) if name.startswith("opaque_") else controller
    plays = simulate_batch(m, strategy, h, n, worker_rng(49, 0), epochs=k)
    for i, (states, actions, payoff_sum) in enumerate(epoch_laws(m, controller, h, k)):
        for drawn, law in ((plays.epoch_states[:, i], states),
                           (plays.epoch_actions[:, i], actions)):
            freq = np.bincount(drawn, minlength=len(law)) / n
            se = np.sqrt(np.maximum(law * (1.0 - law), 1e-12) / n)
            assert np.all(np.abs(freq - law) <= 4.0 * se), (i, freq, law)
        sums = plays.epoch_sums[:, i]
        se = sums.std(ddof=1) / math.sqrt(n)
        assert abs(sums.mean() - payoff_sum) <= 4.0 * se, (i, sums.mean(), payoff_sum)


class CountingOpaque(Strategy):
    """Opaque wrapper whose cursors log (stage, merge key) per action law and
    (merge key, action, signal) per step; ``act`` logs (stage, history)."""

    def __init__(self, inner):
        self.inner = inner
        self.n_actions = inner.n_actions
        self.calls = []
        self.steps = []

    def start(self, first_signal):
        return _CountingCursor(self, self.inner.start(first_signal), 0)

    def act(self, history):
        self.calls.append((history.length - 1, history))
        return self.inner.act(history)


@dataclasses.dataclass(frozen=True)
class _CountingCursor(StrategyCursor):
    owner: CountingOpaque
    inner: StrategyCursor
    stage: int

    def action_distribution(self):
        self.owner.calls.append((self.stage, self.merge_key()))
        return self.inner.action_distribution()

    def step(self, action, signal):
        self.owner.steps.append((self.merge_key(), action, signal))
        return _CountingCursor(self.owner, self.inner.step(action, signal),
                               self.stage + 1)

    def merge_key(self):
        return self.inner.merge_key()


def test_cursor_plays_share_action_laws():
    m = random_pomdp_model()
    strategy = CountingOpaque(alternating_controller(m))
    simulate_batch(m, strategy, 0.5, 1000, 3, sums_at=[50])
    # at most one call per distinct key per stage, not one per play-stage
    assert len(set(strategy.calls)) == len(strategy.calls)
    assert len(strategy.calls) <= 50 * alternating_controller(m).n_memory


@pytest.mark.parametrize("route", ["mimic", "truncated", "histories"])
def test_enumerators_ask_each_key_once(route):
    # within an epoch the frontier returns to the same keys at every stage;
    # the cursor table asks each key's law and steps each (key, action,
    # signal) once per call (the history distribution's keys are whole
    # histories, each asked once through ``act``)
    m = random_pomdp_model()
    strategy = CountingOpaque(alternating_controller(m))
    if route == "mimic":
        mimic_action_exact(m, strategy, 0.5, History(0, ((0, 1), (1, 0))))
    elif route == "truncated":
        discounted_payoff(m, strategy, 0.3, 0.5)
    else:
        exact_history_distribution(m, strategy, 4)
    keys = [key for _, key in strategy.calls]
    assert keys and len(set(keys)) == len(keys)
    assert len(set(strategy.steps)) == len(strategy.steps)


def test_cursor_table_holds_only_live_cursors(monkeypatch):
    # posterior cursors of a stochastic-update controller never merge, so a
    # table that kept every key would grow with every stage
    m = random_pomdp_model()
    strategy = Opaque(stochastic_update_controller(m))
    sizes = []

    def tally(method):
        def checked(self, *args):
            held = method(self, *args)
            sizes.append((len(self.table), len(np.unique(held))))
            return held
        return checked

    monkeypatch.setattr(_CursorMemory, "start", tally(_CursorMemory.start))
    monkeypatch.setattr(_CursorMemory, "step", tally(_CursorMemory.step))
    simulate_batch(m, strategy, 0.5, 300, worker_rng(48, 0), sums_at=[10], epochs=2)
    assert len(sizes) >= 10
    assert all(size == held for size, held in sizes)

    keep = CursorEnumeration.keep
    live = []

    def checked_keep(self, visited, *built):
        n_held = len(set(visited).union(*built))
        out = keep(self, visited, *built)
        live.append((len(self.table), n_held))
        return out

    monkeypatch.setattr(CursorEnumeration, "keep", checked_keep)
    filtered_joint(m, strategy, 0.5, History(0, ((1, 1),)), n_max=6)
    discounted_payoff(m, strategy, 1.0, 0.5, tol=0.05)
    exact_history_distribution(m, strategy, 4)
    assert len(live) >= 10
    assert all(size == held for size, held in live)


@pytest.mark.parametrize("route, needed", [("joint", 90), ("truncated", 170),
                                           ("histories", 192)])
def test_budgets_charge_one_visit_per_frontier_entry(route, needed, monkeypatch):
    # the budgets each enumerator needed when frontiers held cursors by key
    m = random_pomdp_model()
    strategy = Opaque(mixing_controller(m))
    call = {"joint": lambda: filtered_joint(m, strategy, 0.5, History(0, ((1, 1),)),
                                            n_max=30),
            "truncated": lambda: discounted_payoff(m, strategy, 0.3, 0.5),
            "histories": lambda: exact_history_distribution(m, strategy, 4)}[route]
    monkeypatch.setattr(strategies, "ENUMERATION_BUDGET", needed)
    call()
    monkeypatch.setattr(strategies, "ENUMERATION_BUDGET", needed - 1)
    with pytest.raises(BudgetExceeded):
        call()


class SignalParity(Strategy):
    """Plays by the parity of the signals seen so far, through replay cursors
    keyed by the whole history, so plays with distinct histories never merge."""

    n_actions = 2

    def start(self, first_signal):
        return ReplayCursor(self, History(first_signal))

    def act(self, history):
        ones = history.first_signal + sum(s for _, s in history.steps)
        return np.array([0.8, 0.2]) if ones % 2 else np.array([0.3, 0.7])


def test_batched_law_unmerged_replay_cursors():
    m = random_pomdp_model()
    h, t = 0.5, 6
    exact = strategy_finite_mean(stage_duration_transform(m, h), SignalParity(), t)
    mean, se = batched_mean(m, SignalParity(), h, t, 20_000, worker_rng(44, 0))
    assert abs(mean - exact) <= 4.0 * se


def test_table_source_mimic_has_controller():
    m = random_pomdp_model()
    assert small_table().controller(m.n_signals) is not None
    table_mimic = build_mimic_strategy(m, small_table(), 0.5)
    assert table_mimic.controller(m.n_signals) is not None
    opaque_mimic = build_mimic_strategy(m, Opaque(small_table()), 0.5)
    assert opaque_mimic.controller(m.n_signals) is None


GOLDEN = Path(__file__).parent / "golden"


def dense_model():
    """Seeded 4-state, 2-signal POMDP with no zero transition."""
    rng = np.random.default_rng(31)
    raw = rng.uniform(0.05, 1.0, size=(4, 2, 4))
    return make_model(["w1", "w2", "w3", "w4"], ["a", "b"], ["s1", "s2"],
                      [0, 1, 1, 0], rng.uniform(0.0, 1.0, size=(4, 2)),
                      raw / raw.sum(axis=2, keepdims=True), [0.4, 0.3, 0.2, 0.1])


def opaque_route_quantities():
    """Outputs of every route that reaches opaque cursors: enumerated mimic
    joints, truncated discounted payoffs, exact history distributions (in
    their order) and every ``PlayBatch`` field at k = 0 and k = 3.

    Per strategy: the joints' ``n_max``, the payoff's ``tol`` and the plays.
    Only the first two strategies merge cursors; the others get short
    horizons, and the mimic, whose every action law is an enumeration of
    its own, the shortest.
    """
    out = []
    for model_name, m in (("figure1", figure1_model()),
                          ("random_pomdp", random_pomdp_model()),
                          ("dense", dense_model())):
        strategies = {
            "opaque_alternating": (Opaque(alternating_controller(m)), 6, 1e-9, 40),
            "opaque_mixing": (Opaque(mixing_controller(m)), 6, 1e-9, 40),
            "opaque_stochastic_update": (
                Opaque(stochastic_update_controller(m)), 4, 0.05, 40),
            "signal_parity": (SignalParity(), 4, 0.05, 40),
            "opaque_source_mimic": (build_mimic_strategy(
                m, Opaque(mixing_controller(m)), 0.9, n_max=12), 2, 0.3, 3),
        }
        fils = [History(s) for s in range(m.n_signals)]
        fils += [h.child(a, s) for h in fils for a in range(2)
                 for s in range(m.n_signals)]
        for name, (strategy, n_max, tol, n_plays) in strategies.items():
            record = {"model": model_name, "strategy": name, "joints": []}
            for fil in fils:
                joint, bound = filtered_joint(m, strategy, 0.5, fil, n_max=n_max)
                record["joints"].append([joint.tolist(), bound])
            payoff = discounted_payoff(m, strategy, 1.0, 0.5, tol=tol)
            record["discounted"] = [payoff.value, payoff.bound,
                                    payoff.metadata["horizon"]]
            record["histories"] = [
                [hist.first_signal, [list(step) for step in hist.steps], w, p]
                for (hist, w), p in exact_history_distribution(m, strategy, 3).items()]
            for k in (0, 3):
                plays = simulate_batch(m, strategy, 0.5, n_plays, worker_rng(47, k),
                                       sums_at=[3, 8], stage_weights=0.9 ** np.arange(8),
                                       epochs=k)
                record[f"plays_k{k}"] = {field.name: getattr(plays, field.name).tolist()
                                         for field in dataclasses.fields(plays)}
            out.append(record)
    return out


def test_opaque_routes_match_golden():
    golden = json.loads((GOLDEN / "opaque_routes.json").read_text())
    got = opaque_route_quantities()
    assert got == golden, golden_mismatch(got, golden, ("model", "strategy"))


def test_draw_never_lands_on_zero_probability_tail():
    # ten 0.1s sum to just below 1, so a uniform just below 1 (which
    # rng.random() can return) would pass the last positive entry
    top = np.array([[np.nextafter(1.0, 0.0)]])
    for row, last, first in (([0.1] * 10 + [0.0], 9, 0),
                             ([0.2, 0.0, 0.8, 0.0], 2, 0),
                             ([0.0, 0.5, 0.5, 0.0], 2, 1)):
        cdf = _cdf(np.array([row]))
        assert _draw(cdf, top)[0] == last
        assert _draw(cdf, np.zeros((1, 1)))[0] == first

    # in the kernel's row-offset table r + u rounds to r + 1 for such a u on
    # every row past the first, which the search would place in row r + 1
    m = figure1_model()
    for marked in (False, True):
        memory = _ControllerMemory(m, stochastic_update_controller(m), 0.5, marked,
                                   np.random.default_rng(0))
        keys, cols, last = memory.keys, memory.cols, memory.last
        rows = np.arange(len(last))
        assert len(last) - 1 + top[0, 0] == len(last)
        for u, entry in ((top[0, 0], last), (0.0, np.concatenate(([0], last[:-1] + 1)))):
            drawn = _kernel_draw(keys, cols, last, rows, np.full(len(rows), u))
            assert np.array_equal(drawn, cols[entry])


def test_stage_weights_cover_only_the_summed_stages():
    m = random_pomdp_model()
    controller = alternating_controller(m)
    weighted = simulate_batch(m, controller, 0.3, 50, 1, sums_at=[3],
                              stage_weights=np.ones(3), epochs=4)
    plain = simulate_batch(m, controller, 0.3, 50, 1, sums_at=[3], epochs=4)
    assert np.array_equal(weighted.sums, plain.sums)
    with pytest.raises(ValueError, match="stage weights"):
        simulate_batch(m, controller, 0.3, 50, 1, sums_at=[3, 5],
                       stage_weights=np.ones(4))


def test_batched_rejects_empty_horizon():
    m = figure1_model()
    with pytest.raises(ValueError):
        simulate_batch(m, SequenceStrategy.pure([0, 1], 2), 0.5, 10, 0)


# --- epoch operator -----------------------------------------------------------

def test_operator_identity_matrix():
    eye = np.eye(3)
    for h in (0.2, 0.7, 1.0):
        assert np.allclose(epoch_memory_operator(eye, h), eye, atol=1e-12)


def test_operator_h_one_is_identity():
    rng = np.random.default_rng(0)
    raw = rng.uniform(0.1, 1.0, (4, 4))
    m = raw / raw.sum(axis=1, keepdims=True)
    assert np.array_equal(epoch_memory_operator(m, 1.0), np.eye(4))


def test_operator_matches_truncated_series():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    h = 0.5
    series = np.zeros((2, 2))
    power = np.eye(2)
    for m in range(1, 61):
        series += h * (1 - h) ** (m - 1) * power
        power = power @ swap
    assert np.max(np.abs(epoch_memory_operator(swap, h) - series)) <= 1e-9


@pytest.mark.parametrize("h", [0.3, 0.7])
def test_operator_rows_stochastic(h):
    rng = np.random.default_rng(42)
    raw = rng.uniform(0.0, 1.0, (5, 5))
    m = raw / raw.sum(axis=1, keepdims=True)
    out = epoch_memory_operator(m, h)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-10
    assert np.all(out >= -1e-12)


def test_operator_rejects_non_square():
    with pytest.raises(ValueError):
        epoch_memory_operator(np.ones((2, 3)) / 3.0, 0.5)


def sparse_stochastic(rng, shape):
    """Random row-stochastic matrices of shape (..., n, n), about 40% of
    their entries structural zeros, every row with some mass."""
    n = shape[-1]
    raw = rng.uniform(0.0, 1.0, shape) * (rng.random(shape) >= 0.4)
    raw += 0.1 * (np.arange(n) == rng.integers(n, size=shape[:-1] + (1,)))
    return raw / raw.sum(axis=-1, keepdims=True)


def exact_operator(m, h):
    """h (I - (1-h) M)^(-1) in exact rationals, for the M with the
    off-diagonal entries of ``m`` whose rows sum to exactly 1, by
    Gauss-Jordan elimination with diagonal pivots (positive: I - (1-h) M is
    an M-matrix)."""
    n = len(m)
    h = Fraction(h)
    rows = []
    for i in range(n):
        off = [Fraction(float(x)) if j != i else Fraction(0)
               for j, x in enumerate(m[i])]
        off[i] = 1 - sum(off)
        rows.append([int(i == j) - (1 - h) * x for j, x in enumerate(off)]
                    + [h * (i == j) for j in range(n)])
    for k in range(n):
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                rows[i] = [x - rows[i][k] * y for x, y in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


@pytest.mark.parametrize("h", [0.5, 1e-4, 1e-8, 1e-12])
def test_operator_matches_exact_rationals(h):
    # at small h, W depends on M's diagonal only through its row sums of 1; a
    # solve that reads the rounded diagonal loses accuracy like eps / h
    rng = np.random.default_rng(18)
    for _ in range(20):
        m = sparse_stochastic(rng, (int(rng.integers(1, 9)),) * 2)
        out = epoch_memory_operator(m, h)
        for got_row, want_row in zip(out.tolist(), exact_operator(m, h)):
            for got, want in zip(got_row, want_row):
                if want == 0:
                    assert got == 0.0
                else:
                    assert abs(Fraction(got) - want) <= 1e-13 * want


@pytest.mark.parametrize("h", [0.5, 1e-8, 1.0])
def test_operator_stack_matches_single_calls(h):
    rng = np.random.default_rng(3)
    for shape in ((3, 4, 4), (2, 3, 5, 5), (1, 1, 1)):
        stack = sparse_stochastic(rng, shape)
        out = epoch_memory_operator(stack, h)
        single = [epoch_memory_operator(m, h) for m in stack.reshape((-1,) + shape[-2:])]
        assert np.array_equal(out, np.reshape(single, shape))


@pytest.mark.parametrize("matrix", [
    np.ones((2, 2, 3)) / 3.0,
    [[1.5, -0.5], [0.5, 0.5]],
    [[0.5, np.nan], [0.5, 0.5]],
    [[1.0, 1.0], [0.5, 0.5]],
    [[0.5, 0.25], [0.5, 0.5]],
], ids=["not-square", "negative", "nan", "row-sum-2", "substochastic"])
def test_operator_rejects_non_stochastic(matrix):
    with pytest.raises(ValueError):
        epoch_memory_operator(matrix, 0.5)
