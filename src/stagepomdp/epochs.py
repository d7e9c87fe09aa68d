"""Epoch processes and trajectory simulation on the extended space.

With stage duration h, each stage ends with a real transition (drawn from
the base kernel P) with probability h, otherwise the state freezes.  The
indicator marks X_j ~ Bernoulli(h) are independent of everything else, the
j-th epoch is the block of stages between the (j-1)-th and j-th mark, and
epoch lengths are i.i.d. geometric(h).

Simulating the duration-h model via (base P, marks) instead of the mixed
kernel gives the same law and exposes the epoch structure directly.
:func:`simulate_batch` is the one Monte Carlo loop: all plays advance at
once, each holding a controller memory or the id of an opaque strategy's
cursor in a :class:`~stagepomdp.strategies.CursorTable`, so that a stage is
array indexing either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem
from .model import PomdpModel, stage_duration_transform, validate_stage_duration
from .strategies import CursorTable, Strategy, controller_for

#: residual tolerance for the epoch-operator linear solve
OPERATOR_RESIDUAL_TOL = 1e-10


def worker_rng(master_seed, *key):
    """Derive a reproducible per-worker stream from a master seed.

    The split is ``SeedSequence(master_seed, spawn_key=key)``; distinct keys
    give statistically independent streams.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def as_generator(seed_or_rng):
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def sample_index(rng, probs):
    """Sample an index from a small probability vector (linear scan)."""
    u = rng.random()
    acc = 0.0
    last = len(probs) - 1
    for i in range(last):
        acc += probs[i]
        if u < acc:
            return i
    return last


@dataclass(frozen=True)
class EpochSample:
    """Epoch lengths N_1..N_k and boundaries T_0=0, T_i = N_1 + ... + N_i."""

    lengths: np.ndarray

    @property
    def boundaries(self):
        out = np.zeros(len(self.lengths) + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=out[1:])
        return out


def sample_epochs(h, k, seed_or_rng) -> EpochSample:
    """Draw k i.i.d. geometric(h) epoch lengths.

    Inverse-CDF form ceil(ln U / ln(1-h)) with U uniform on (0, 1];
    h = 1 degenerates to all-ones.
    """
    h = validate_stage_duration(h)
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = as_generator(seed_or_rng)
    if h == 1.0:
        return EpochSample(np.ones(k, dtype=np.int64))
    u = 1.0 - rng.random(k)  # uniform on (0, 1]
    lengths = np.ceil(np.log(u) / math.log1p(-h)).astype(np.int64)
    lengths[lengths < 1] = 1
    return EpochSample(lengths)


def geometric_tail(h, m):
    """P(N >= m) = (1-h)^(m-1) for an epoch length N ~ geometric(h)."""
    h = validate_stage_duration(h)
    if m < 1:
        raise ValueError("m must be >= 1")
    return (1.0 - h) ** (m - 1)


@dataclass(frozen=True)
class ExtendedTrajectory:
    """States, actions, signals and transition marks for one play.

    ``marks[j] == 0`` means the state froze at the end of stage j, so
    ``states[j+1] == states[j]`` whenever both stages are recorded.
    """

    states: np.ndarray
    actions: np.ndarray
    signals: np.ndarray
    marks: np.ndarray

    @property
    def horizon(self):
        return len(self.states)

    def epoch_boundaries(self):
        """Stage numbers (1-based) at which a real transition occurred."""
        return np.nonzero(self.marks)[0] + 1


def _simulate(model: PomdpModel, strategy: Strategy, marks, rng):
    """Run one play of the given length with a predetermined mark schedule."""
    horizon = len(marks)
    states = np.empty(horizon, dtype=np.int64)
    actions = np.empty(horizon, dtype=np.int64)
    signals = np.empty(horizon, dtype=np.int64)
    transition = model.transition
    signal_map = model.signal_map

    state = sample_index(rng, model.init)
    cursor = strategy.start(int(signal_map[state]))
    for j in range(horizon):
        states[j] = state
        signals[j] = signal_map[state]
        action = sample_index(rng, cursor.action_distribution())
        actions[j] = action
        if marks[j]:
            state = sample_index(rng, transition[state, action])
        if j + 1 < horizon:
            cursor = cursor.step(action, int(signal_map[state]))
    return ExtendedTrajectory(states, actions, signals, np.asarray(marks))


def simulate_gh(model: PomdpModel, strategy: Strategy, h, horizon,
                seed_or_rng) -> ExtendedTrajectory:
    """Simulate `horizon` stages of the duration-h model on the extended space."""
    h = validate_stage_duration(h)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rng = as_generator(seed_or_rng)
    marks = (rng.random(horizon) < h).astype(np.int8) if h < 1.0 else \
        np.ones(horizon, dtype=np.int8)
    return _simulate(model, strategy, marks, rng)


def simulate_epochs_gh(model: PomdpModel, strategy: Strategy, h, k,
                       seed_or_rng, extra_stages=0, min_horizon=0):
    """Simulate k complete epochs (plus extra stages, up to a minimum horizon).

    Returns ``(trajectory, epochs)`` where the trajectory has horizon
    ``max(T_k + extra_stages, min_horizon)``.  Drawing the epoch lengths
    first and fixing the mark schedule is equivalent in law because the
    marks are independent of states and actions.
    """
    h = validate_stage_duration(h)
    rng = as_generator(seed_or_rng)
    epochs = sample_epochs(h, k, rng)
    t_k = int(epochs.boundaries[-1])
    horizon = max(t_k + int(extra_stages), int(min_horizon))
    marks = np.zeros(horizon, dtype=np.int8)
    marks[epochs.boundaries[1:] - 1] = 1
    if horizon > t_k:
        marks[t_k:] = (rng.random(horizon - t_k) < h).astype(np.int8)
    return _simulate(model, strategy, marks, rng), epochs


@dataclass(frozen=True)
class PlayBatch:
    """Per-play summaries of a batch of independent plays.

    ``sums[b, c]`` is play b's payoff summed over its first ``sums_at[c]``
    stages, each stage weighted by ``stage_weights`` when those are given.
    With k pinned epochs, ``boundaries[b]`` holds T_0..T_k and, for epoch i
    (0-based), ``epoch_states[b, i]`` is the state during the epoch (it is
    frozen there), ``epoch_actions[b, i]`` the action at its last stage and
    ``epoch_sums[b, i]`` its payoff sum; without pinned epochs these have
    no epoch columns.
    """

    sums: np.ndarray
    boundaries: np.ndarray
    epoch_states: np.ndarray
    epoch_actions: np.ndarray
    epoch_sums: np.ndarray


def simulate_batch(model: PomdpModel, strategy: Strategy, h, n_plays,
                   seed_or_rng, *, sums_at=(), stage_weights=None,
                   epochs=0) -> PlayBatch:
    """Simulate ``n_plays`` independent plays of the duration-h model.

    Each play runs ``max(sums_at)`` stages with Bernoulli(h) marks or, with
    ``epochs=k``, runs through its k-th epoch and at least ``max(sums_at)``
    stages, its k epoch lengths drawn first as in :func:`simulate_epochs_gh`.
    Only the first ``max(sums_at)`` of ``stage_weights`` are used.

    All plays run at once: state and strategy memory are arrays over the
    plays and every draw is an inverse-CDF lookup.  A strategy with a
    controller (``strategy.controller``: controllers, sequences, tables and
    controller-source mimics) samples its controller memory; an opaque
    strategy's plays hold ids in a table of its cursors, one per distinct
    merge key, shared by every play whose history reached that key.  A
    controller with deterministic updates draws the same numbers behind an
    opaque wrapper as bare.
    """
    h = validate_stage_duration(h)
    if n_plays < 1:
        raise ValueError("n_plays must be >= 1")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    sums_at = np.asarray(sums_at, dtype=np.int64).reshape(-1)
    horizon = int(sums_at.max()) if sums_at.size else 0
    if epochs == 0 and horizon < 1:
        raise ValueError("horizon must be >= 1")
    if sums_at.size and sums_at.min() < 1:
        raise ValueError("payoff sums need at least one stage")
    if stage_weights is not None and len(stage_weights) < horizon:
        raise ValueError(f"{len(stage_weights)} stage weights, {horizon} stages")
    rng = as_generator(seed_or_rng)
    controller = controller_for(model, strategy)
    memory = (_CursorMemory(model, strategy) if controller is None
              else _ControllerMemory(controller))
    return _batched_plays(model, memory, h, n_plays, rng, sums_at,
                          stage_weights, epochs, horizon)


def _cdf(probs):
    """Cumulative rows that are exactly 1 from their last positive entry on.

    An inverse-CDF draw of u in [0, 1) then never lands past the last
    positive entry, whatever the roundoff of the cumulative sum.
    """
    cdf = np.cumsum(probs, axis=-1)
    return np.where(cdf >= cdf[..., -1:], 1.0, cdf)


def _draw(cdf_rows, u):
    """One inverse-CDF draw per row, for uniforms ``u`` of shape (rows, 1)."""
    return (cdf_rows > u).argmax(axis=1)


class _ControllerMemory:
    """Each play's controller memory, drawn from the update rows."""

    def __init__(self, controller):
        self.init_memory = controller.init_memory
        self.action_cdf = _cdf(controller.rule)
        self.update_cdf = _cdf(controller.update)

    def start(self, signals):
        return self.init_memory[signals]

    def action_rows(self, memory):
        return self.action_cdf[memory]

    def step(self, memory, action, signals, u):
        return _draw(self.update_cdf[memory, action, signals], u)


class _CursorMemory:
    """Each play's id in a :class:`~stagepomdp.strategies.CursorTable` of the
    strategy's cursors, kept to the ids the plays hold; equal keys behave
    alike on every continuation, so plays sharing an id keep the strategy's
    law.  An id's action-CDF row is built once; rows past the table's last
    id are spare."""

    def __init__(self, model, strategy):
        self.strategy = strategy
        self.n_signals = model.n_signals
        self.table = CursorTable(model.n_actions, model.n_signals)
        self.action_cdf = np.ones((1, model.n_actions))
        self.n_rows = 0

    def start(self, signals):
        first = np.zeros(self.n_signals, dtype=np.int64)
        for s in np.unique(signals).tolist():
            first[s] = self.table.intern(self.strategy.start(s))
        return first[signals]

    def action_rows(self, memory):
        n = len(self.table)
        if n > self.n_rows:
            laws = [cursor.action_distribution()
                    for cursor in self.table.cursors[self.n_rows:]]
            while n > len(self.action_cdf):
                self.action_cdf = np.vstack([self.action_cdf, self.action_cdf])
            self.action_cdf[self.n_rows:n] = _cdf(np.array(laws))
            self.n_rows = n
        return self.action_cdf[memory]

    def step(self, memory, action, signals, u):
        table = self.table
        held = table.children_of(memory * table.n_codes + action * self.n_signals
                                 + signals)
        remap = table.keep(held)
        if remap is None:
            return held
        kept = (remap[:self.n_rows] >= 0).nonzero()[0]
        self.action_cdf[:len(kept)] = self.action_cdf[kept]
        self.n_rows = len(kept)
        return remap[held]


def _batched_plays(model, memory, h, n_plays, rng, sums_at, stage_weights,
                   k, horizon):
    rows = np.arange(n_plays)
    signal_map, payoff = model.signal_map, model.payoff
    # without pinned epochs a mark is a Bernoulli(h) draw independent of
    # the rest, so the duration-h kernel folds it into the transition draw
    kernel = model.transition if k else stage_duration_transform(model, h).transition
    transition_cdf = _cdf(kernel)
    columns = {}
    for c, t in enumerate(sums_at.tolist()):
        columns.setdefault(t, []).append(c)

    # bounds[:, i] = T_i; the last column is a sentinel no stage number meets,
    # so a play past T_k draws its marks afresh
    bounds = np.zeros((n_plays, k + 2), dtype=np.int64)
    bounds[:, -1] = -1
    if k:
        lengths = sample_epochs(h, n_plays * k, rng).lengths.reshape(n_plays, k)
        np.cumsum(lengths, axis=1, out=bounds[:, 1:k + 1])
    n_stages = max(horizon, int(bounds[:, k].max()))

    sums = np.zeros((n_plays, sums_at.size))
    total = np.zeros(n_plays)
    # column k of the epoch records collects the stages after T_k
    epoch = np.zeros(n_plays, dtype=np.int64)
    epoch_states = np.zeros((n_plays, k + 1), dtype=np.int64)
    epoch_actions = np.zeros((n_plays, k + 1), dtype=np.int64)
    epoch_sums = np.zeros((n_plays, k + 1))

    init_cdf = np.broadcast_to(_cdf(model.init), (n_plays, model.n_states))
    state = _draw(init_cdf, rng.random((n_plays, 1)))
    held = memory.start(signal_map[state])
    for j in range(n_stages):
        u = rng.random((4 if k else 3, n_plays, 1))
        action = _draw(memory.action_rows(held), u[0])
        stage_payoff = payoff[state, action]
        if j < horizon:
            total += (stage_payoff if stage_weights is None
                      else stage_weights[j] * stage_payoff)
        if j + 1 in columns:
            sums[:, columns[j + 1]] = total[:, None]
        if k:
            epoch_states[rows, epoch] = state
            epoch_actions[rows, epoch] = action
            epoch_sums[rows, epoch] += stage_payoff
        if j + 1 == n_stages:
            break
        moved = _draw(transition_cdf[state, action], u[1])
        if k:
            free = epoch == k
            mark = (bounds[rows, epoch + 1] == j + 1) | (free & (u[3, :, 0] < h))
            epoch += mark & ~free
            moved = np.where(mark, moved, state)
        state = moved
        held = memory.step(held, action, signal_map[state], u[2])
    return PlayBatch(sums, bounds[:, :k + 1], epoch_states[:, :k],
                     epoch_actions[:, :k], epoch_sums[:, :k])


def epoch_memory_operator(matrix, h):
    """Expected power E[M^(N-1)] for N ~ geometric(h): h (I - (1-h) M)^(-1).

    ``matrix`` must be row-stochastic; the result is again row-stochastic.
    The system is nonsingular for h > 0 since the spectral radius of
    (1-h) M is at most 1-h < 1.
    """
    h = validate_stage_duration(h)
    m = np.asarray(matrix, dtype=np.float64)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if h == 1.0:
        return np.eye(n)
    system = np.eye(n) - (1.0 - h) * m
    try:
        out = np.linalg.solve(system, h * np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    residual = np.max(np.abs(system @ out - h * np.eye(n)))
    if residual > OPERATOR_RESIDUAL_TOL:
        raise SingularSystem(f"solve residual {residual:.3e}")
    return out
