"""Epoch processes and trajectory simulation on the extended space.

With stage duration h, each stage ends with a real transition (drawn from
the base kernel P) with probability h, otherwise the state freezes.  The
indicator marks X_j ~ Bernoulli(h) are independent of everything else, the
j-th epoch is the block of stages between the (j-1)-th and j-th mark, and
epoch lengths are i.i.d. geometric(h).

Simulating the duration-h model via (base P, marks) instead of the mixed
kernel gives the same law and exposes the epoch structure directly.
:func:`simulate_batch` is the one Monte Carlo loop: all plays advance at
once, each as one index of its state, memory and action.  A strategy with
a controller moves it by one draw per stage from the controller's product
kernel, held by content like each controller's W_s stack; an opaque
strategy's plays hold the ids of its cursors in a
:class:`~stagepomdp.strategies.CursorTable`, draw action and transition in
turn and then step their cursors.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .model import (
    PomdpModel,
    is_stochastic,
    stage_duration_transform,
    validate_stage_duration,
)
from .memo import held_bytes, recall
from .strategies import CursorTable, Strategy, controller_for

#: bytes, keys included, that the held W_s stacks and product kernels take
MAX_CONTROLLER_TABLE_BYTES = 1 << 25

#: the memo of :func:`epoch_operators` and :func:`_kernel_table` by content
#: key, least recently used first
_CONTROLLER_TABLES = {}
_CONTROLLER_LOCK = threading.Lock()


def _held(key, build):
    return recall(_CONTROLLER_TABLES, _CONTROLLER_LOCK, key, build,
                  MAX_CONTROLLER_TABLE_BYTES, held_bytes)


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


def _simulate(model: PomdpModel, strategy: Strategy, marks, rng):
    """Run one play of the given length with a predetermined mark schedule,
    each draw by inverse CDF over :func:`_cdf`, as the batched loop draws."""
    horizon = len(marks)
    states = np.empty(horizon, dtype=np.int64)
    actions = np.empty(horizon, dtype=np.int64)
    signals = np.empty(horizon, dtype=np.int64)
    transition = model.transition
    signal_map = model.signal_map

    def pick(probs):
        return int(np.searchsorted(_cdf(probs), rng.random(), side="right"))

    state = pick(model.init)
    cursor = strategy.start(int(signal_map[state]))
    for j in range(horizon):
        states[j] = state
        signals[j] = signal_map[state]
        action = pick(cursor.action_distribution())
        actions[j] = action
        if marks[j]:
            state = pick(transition[state, action])
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
                       seed_or_rng, min_horizon=0):
    """Simulate k complete epochs (plus stages up to a minimum horizon).

    Returns ``(trajectory, epochs)`` where the trajectory has horizon
    ``max(T_k, min_horizon)``.  Drawing the epoch lengths
    first and fixing the mark schedule is equivalent in law because the
    marks are independent of states and actions.
    """
    h = validate_stage_duration(h)
    rng = as_generator(seed_or_rng)
    epochs = sample_epochs(h, k, rng)
    t_k = int(epochs.boundaries[-1])
    horizon = max(t_k, int(min_horizon))
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

    All plays run at once, each as one index x = (s·Q + m)·A + a of its
    state, memory and action.  A strategy with a controller
    (``strategy.controller``: controllers, sequences, tables and
    controller-source mimics) moves x by one inverse-CDF draw per stage from
    the controller's product kernel; an opaque strategy's plays hold ids in
    a table of its cursors, one per distinct merge key, shared by every play
    whose history reached that key, draw action and transition in turn and
    then step their cursors.
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
    memory = (_CursorMemory(model, strategy, h, epochs > 0, rng)
              if controller is None
              else _ControllerMemory(model, controller, h, epochs > 0, rng))
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


#: uniforms the controller kernel draws at once, about 1 MB of them
UNIFORM_BLOCK = 1 << 17


def _members(counts, groups):
    """Indices of every member of each entry's group, in order: group g's
    members are ``counts[:g].sum()`` onward.  Returns ``(sizes, members)``,
    entry i owning the next ``sizes[i]`` indices of ``members``."""
    sizes = counts[groups]
    shift = (np.cumsum(counts) - counts)[groups] - (np.cumsum(sizes) - sizes)
    return sizes, np.arange(sizes.sum()) + np.repeat(shift, sizes)


def _product_kernel(transitions, controller, signal_map):
    """Row-offset inverse-CDF table of the controller's product kernel.

    Block b's row x = (s·Q + m)·A + a has the law
    K_b[x, (s'·Q + m')·A + a'] = T_b[s, a, s'] · update[m, a, σ(s'), m'] ·
    rule[m', a'] for the kernels T_b = ``transitions[b]`` of shape (S, A, S).
    Only the positive entries are built, straight from the supports of T,
    update and rule, in row order and within a row in column order.  Row
    r = x + n_x·b ends at entry ``last[r]``; ``cols`` holds the entries'
    columns and ``keys`` r plus the row's cumulative law, the row's last key
    exactly r + 1.  Returns ``(keys, cols, last)``.
    """
    n_q, n_a = controller.rule.shape
    n_sig = controller.n_signals
    n_b, n_s = transitions.shape[:2]
    upd_q, upd_a, upd_s, upd_next = np.nonzero(controller.update)
    upd_counts = np.bincount((upd_q * n_a + upd_a) * n_sig + upd_s,
                             minlength=n_q * n_a * n_sig)
    upd_vals = controller.update[upd_q, upd_a, upd_s, upd_next]
    rule_q, rule_a = np.nonzero(controller.rule)
    rule_counts = np.bincount(rule_q, minlength=n_q)
    rule_vals = controller.rule[rule_q, rule_a]
    # (b, s, m, a, s') for every memory and every T_b[s, a, s'] > 0, in order
    b, s, m, a, s_next = np.nonzero(np.broadcast_to(
        (transitions > 0.0)[:, :, None], (n_b, n_s, n_q, n_a, n_s)))
    sizes, j = _members(upd_counts, (m * n_a + a) * n_sig + signal_map[s_next])
    row = np.repeat(((b * n_s + s) * n_q + m) * n_a + a, sizes)
    mid = np.repeat(s_next * n_q, sizes) + upd_next[j]
    mass = np.repeat(transitions[b, s, a, s_next], sizes) * upd_vals[j]
    sizes, j = _members(rule_counts, upd_next[j])
    n_rows = n_b * n_s * n_q * n_a
    row_sizes = np.bincount(row, weights=sizes, minlength=n_rows).astype(np.int64)
    cols = np.repeat(mid * n_a, sizes) + rule_a[j]
    keys = np.cumsum(np.repeat(mass, sizes) * rule_vals[j])
    last = np.cumsum(row_sizes) - 1
    keys -= np.repeat(np.concatenate(([0.0], keys[last[:-1]])), row_sizes)
    np.minimum(keys, 1.0, out=keys)
    keys += np.repeat(np.arange(n_rows), row_sizes)
    keys[last] = np.arange(1, n_rows + 1)
    return keys, cols, last


def _kernel_draw(keys, cols, last, rows, u):
    """One draw per row index of ``rows`` from a :func:`_product_kernel` table,
    for uniforms ``u`` in [0, 1).  ``rows + u`` rounds to ``rows + 1`` for u
    close enough to 1, so a search past a row's end lands on its last entry."""
    found = np.searchsorted(keys, rows + u, side="right")
    return cols[np.minimum(found, last[rows])]


def _kernel_table(model, controller, h, marked):
    """Read-only ``(keys, cols, last, init_cdf)``: the :func:`_product_kernel`
    table of :class:`_ControllerMemory` and the CDF of its first index, held
    by the content they are built from.  A marked kernel does not depend on
    h; the model's payoff is keyed too, as the unmarked build's
    :func:`~stagepomdp.model.stage_duration_transform` validates it."""
    key = ("kernel", marked, None if marked else h, model.transition.shape,
           controller.update.shape, model.transition.tobytes(),
           model.signal_map.tobytes(), model.init.tobytes(), model.payoff.tobytes(),
           controller.rule.tobytes(), controller.update.tobytes(),
           controller.init_memory.tobytes())

    def build():
        if marked:
            frozen = np.broadcast_to(np.eye(model.n_states)[:, None],
                                     model.transition.shape)
            transitions = np.stack([frozen, model.transition])
        else:
            transitions = stage_duration_transform(model, h).transition[None]
        keys, cols, last = _product_kernel(transitions, controller, model.signal_map)
        start_memory = controller.init_memory[model.signal_map]
        law = np.zeros((model.n_states, controller.n_memory, model.n_actions))
        law[np.arange(model.n_states), start_memory] = (
            model.init[:, None] * controller.rule[start_memory])
        return keys, cols, last, _cdf(law.reshape(-1))

    return _held(key, build)


class _ControllerMemory:
    """Each play's index x = (s·Q + m)·A + a, moved one stage by one draw from
    the controller's :func:`_kernel_table`: without pinned epochs over the
    duration-h transition, with them over two blocks, frozen (T = identity)
    and marked (T = base P), a marked play reading row x + n_x.  Uniforms
    come a block of stages at a time, about :data:`UNIFORM_BLOCK` of them."""

    def __init__(self, model, controller, h, marked, rng):
        self.rng = rng
        self.n_memory = controller.n_memory
        self.n_x = model.n_states * controller.n_memory * model.n_actions
        self.n_draws = 2 if marked else 1
        self.keys, self.cols, self.last, self.init_cdf = _kernel_table(
            model, controller, h, marked)

    def open(self, n_plays, n_steps):
        self.block = max(1, min(n_steps, UNIFORM_BLOCK // (self.n_draws * n_plays)))
        self.n_plays, self.n_left = n_plays, n_steps
        self.u, self.at = np.empty((0,)), 0
        return np.searchsorted(self.init_cdf, self.rng.random(n_plays), side="right")

    def _stage(self):
        if self.at == len(self.u):
            self.u = self.rng.random((min(self.block, self.n_left), self.n_draws,
                                      self.n_plays))
            self.at = 0
        return self.u[self.at]

    def mark_uniforms(self):
        return self._stage()[1]

    def advance(self, x, mark):
        u = self._stage()[0]
        self.at += 1
        self.n_left -= 1
        rows = x if mark is None else x + self.n_x * mark
        return _kernel_draw(self.keys, self.cols, self.last, rows, u)


class _CursorMemory:
    """Each play's id in a :class:`~stagepomdp.strategies.CursorTable` of the
    strategy's cursors, kept to the ids the plays hold; equal keys behave
    alike on every continuation, so plays sharing an id keep the strategy's
    law.  An id's action-CDF row is built once; rows past the table's last
    id are spare.  A play's index is x = s·A + a; each stage draws its
    action, transition and mark from one block of uniforms."""

    n_memory = 1

    def __init__(self, model, strategy, h, marked, rng):
        self.strategy = strategy
        self.rng = rng
        self.model = model
        self.n_signals = model.n_signals
        self.n_uniforms = 3 if marked else 2
        # without pinned epochs a mark is a Bernoulli(h) draw independent of
        # the rest, so the duration-h kernel folds it into the transition draw
        kernel = (model.transition if marked
                  else stage_duration_transform(model, h).transition)
        self.transition_cdf = _cdf(kernel)
        self.table = CursorTable(model.n_actions, model.n_signals)
        self.action_cdf = np.ones((1, model.n_actions))
        self.n_rows = 0

    def open(self, n_plays, n_steps):
        init_cdf = np.broadcast_to(_cdf(self.model.init),
                                   (n_plays, self.model.n_states))
        state = _draw(init_cdf, self.rng.random((n_plays, 1)))
        self.held = self.start(self.model.signal_map[state])
        return self._act(state)

    def _act(self, state):
        self.u = self.rng.random((self.n_uniforms, len(state), 1))
        action = _draw(self.action_rows(self.held), self.u[0])
        return state * self.model.n_actions + action

    def mark_uniforms(self):
        return self.u[2, :, 0]

    def advance(self, x, mark):
        state, action = np.divmod(x, self.model.n_actions)
        moved = _draw(self.transition_cdf[state, action], self.u[1])
        if mark is not None:
            moved = np.where(mark, moved, state)
        self.held = self.step(self.held, action, self.model.signal_map[moved])
        return self._act(moved)

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

    def step(self, memory, action, signals):
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
    columns = {}
    for c, t in enumerate(sums_at.tolist()):
        columns.setdefault(t, []).append(c)

    # bounds[:, i] = T_i
    bounds = np.zeros((n_plays, k + 1), dtype=np.int64)
    if k:
        lengths = sample_epochs(h, n_plays * k, rng).lengths.reshape(n_plays, k)
        np.cumsum(lengths, axis=1, out=bounds[:, 1:])
    t_k = bounds[:, k]
    n_stages = max(horizon, int(t_k.max()))

    sums = np.zeros((n_plays, sums_at.size))
    total = np.zeros(n_plays)
    # flat position of each play's current epoch record; column k collects
    # the stages after T_k
    at = np.arange(n_plays) * (k + 1)
    epoch_x = np.zeros((n_plays, k + 1), dtype=np.int64)
    epoch_sums = np.zeros((n_plays, k + 1))
    flat_x, flat_sums = epoch_x.reshape(-1), epoch_sums.reshape(-1)
    # next_bound[at + 1] is the end T_(i+1) of the epoch i a play is in, or
    # 0 past T_k, so a play past T_k draws its marks afresh
    next_bound = np.append(bounds.reshape(-1), 0)

    n_q, n_a = memory.n_memory, model.n_actions
    payoff = np.repeat(model.payoff[:, None], n_q, axis=1).reshape(-1)
    x = memory.open(n_plays, n_stages - 1)
    for j in range(n_stages):
        stage_payoff = payoff[x]
        if j < horizon:
            total += (stage_payoff if stage_weights is None
                      else stage_weights[j] * stage_payoff)
        if j + 1 in columns:
            sums[:, columns[j + 1]] = total[:, None]
        if k:
            flat_x[at] = x
            flat_sums[at] += stage_payoff
        if j + 1 == n_stages:
            break
        mark = None
        if k:
            pinned = next_bound[at + 1] == j + 1
            mark = pinned | ((t_k <= j) & (memory.mark_uniforms() < h))
            at += pinned
        x = memory.advance(x, mark)
    epoch_x = epoch_x[:, :k]
    return PlayBatch(sums, bounds, epoch_x // (n_q * n_a), epoch_x % n_a,
                     epoch_sums[:, :k])


def epoch_memory_operator(matrix, h):
    """Expected power E[M^(N-1)] for N ~ geometric(h): h (I - (1-h) M)^(-1).

    ``matrix`` is a row-stochastic M of shape (n, n), or a stack of them of
    shape (..., n, n) mapped to a stack of W.  W's row i is the law of the
    exit an epoch started in memory i takes, by Gauss-Jordan state reduction
    (Grassmann, Taksar & Heyman 1985): memory i moves to memory j with weight
    (1-h) M[i, j] and to exit i with weight h.  Each memory in turn drops its
    self-loop, divides its row by the mass leaving it (at least h) and is
    added into every row entering it.
    Only nonnegative numbers are added and M's diagonal is never read, so W
    is entrywise accurate for any h > 0 and never negative.  ``ValueError``
    unless ``matrix`` is square with probability vectors as rows.
    """
    h = validate_stage_duration(h)
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1] or not is_stochastic(m):
        raise ValueError(f"expected square stochastic matrices, got shape {m.shape}")
    n = m.shape[-1]
    if h == 1.0:
        return np.broadcast_to(np.eye(n), m.shape).copy()
    a = np.empty(m.shape[:-1] + (2 * n,))
    np.multiply(m, 1.0 - h, out=a[..., :n])
    a[..., n:] = h * np.eye(n)
    for k in range(n):
        row = a[..., k, :]
        row[..., k] = 0.0
        row /= row.sum(axis=-1, keepdims=True)
        a += a[..., :, k, None] * row[..., None, :]
        a[..., :, k] = 0.0
    return a[..., n:]


def epoch_operators(controller, h):
    """Read-only stack of W_s = E[M_s^(N-1)] at duration h, one per signal s,
    for M_s[q, r] = sum_a rule[q, a] update[q, a, s, r]: W_s depends on the
    controller's ``rule`` and ``update`` and on h only, so it is held by
    their content, and a miss calls :func:`epoch_memory_operator`, with its
    checks, once for the whole stack."""
    rule, update = controller.rule, controller.update
    key = ("operators", h, rule.shape, update.shape, rule.tobytes(),
           update.tobytes())
    return _held(key, lambda: (epoch_memory_operator(
        np.einsum("qa,qasr->sqr", rule, update), h),))[0]
