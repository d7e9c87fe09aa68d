"""Filtered histories and the mimicking strategy.

A play of the duration-h model decomposes into epochs; the filtered history
keeps only the epoch-boundary coordinates

    (s'_1, a'_{T_1}, s'_{T_1+1}, ..., a'_{T_{k-1}}, s'_{T_{k-1}+1}),

which is literally a length-k history of the base (h = 1) model.  The mimic
strategy plays, at a base-model history eta, the conditional law of the
k-th boundary action given that the filtered history equals eta; on null
events it plays the fixed uniform fallback.

Two exact routes are implemented:

* controller sources: the filtered forward measure over (state, memory)
  factorizes into (state filter) x (memory filter), epoch-length mixing is
  the closed-form geometric-series operator, and there is no truncation;
* arbitrary sources: direct enumeration over epoch-length vectors and the
  intermediate actions inside each epoch, truncated at ``n_max`` stages per
  epoch, with enumeration branches merged by strategy cursor keys.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .epochs import epoch_memory_operator, simulate_batch
from .errors import (
    BudgetExceeded,
    InsufficientEpochs,
    NoAcceptedSamples,
    TruncationDominates,
)
from .model import PomdpModel, validate_stage_duration
from .strategies import (
    DEFAULT_ENUMERATION_BUDGET,
    FiniteStateController,
    HiddenMemoryForm,
    History,
    Strategy,
    StrategyCursor,
    as_controller,
    uniform_action,
)

#: a filtered history has the same shape as a base-model history
FilteredHistory = History

#: per-epoch tail mass targeted by the default truncation level
DEFAULT_TAIL_MASS = 1e-9

#: action probabilities below this are treated as structural zeros when
#: enumerating filter-automaton edges
EDGE_TOL = 1e-14


def default_truncation(h, tail=DEFAULT_TAIL_MASS):
    """Smallest N with (1-h)^N <= tail; 1 when h == 1."""
    h = validate_stage_duration(h)
    if h == 1.0:
        return 1
    return max(1, math.ceil(math.log(tail) / math.log1p(-h)))


def truncation_bound(h, k, n_max):
    """Total-variation bound (before normalization) of epoch truncation."""
    if h == 1.0:
        return 0.0
    return 2.0 * k * (1.0 - h) ** n_max


def filter_trajectory(traj, k) -> FilteredHistory:
    """Extract the epoch-boundary coordinates of one extended trajectory.

    Needs k-1 completed epochs plus one further stage.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    boundaries = traj.epoch_boundaries()  # 1-based stages with a real transition
    found = 1
    for i, t in enumerate(boundaries, start=1):
        if t + 1 <= traj.horizon:
            found = i + 1
    if k > found:
        raise InsufficientEpochs(k, found)
    steps = []
    for i in range(k - 1):
        t_i = int(boundaries[i])
        steps.append((int(traj.actions[t_i - 1]), int(traj.signals[t_i])))
    return History(int(traj.signals[0]), tuple(steps))


@dataclass(frozen=True)
class MimicAction:
    """Mimic action with its certification data.

    ``truncation_bound`` is zero on the controller (closed-form) route;
    ``conditioning_mass`` is the truncated probability of the filtered
    history the action was conditioned on.
    """

    weights: np.ndarray
    truncation_bound: float
    conditioning_mass: float

    @property
    def is_fallback(self):
        return self.conditioning_mass == 0.0


@dataclass(frozen=True)
class MimicActionEstimate:
    """Monte Carlo mimic action with per-coordinate standard errors."""

    weights: np.ndarray
    std_errors: np.ndarray
    n_accepted: int
    n_samples: int

    @property
    def acceptance_rate(self):
        return self.n_accepted / self.n_samples


class EpochOperatorEngine:
    """Exact filtered-forward propagation for controller sources.

    Within an epoch the controller memory evolves by the signal-fixed chain
    M_s[q, q'] = sum_a rule[q, a] update[q, a, s, q']; mixing over the
    geometric epoch length gives W_s = E[M_s^(N-1)] in closed form.  The
    filtered forward measure F_k over (state, memory) then advances by one
    dense contraction per epoch, with no truncation error.
    """

    def __init__(self, model: PomdpModel, controller: FiniteStateController, h):
        if controller.n_actions != model.n_actions:
            raise ValueError("controller and model disagree on the action count")
        if controller.n_signals != model.n_signals:
            raise ValueError("controller and model disagree on the signal count")
        self.model = model
        self.controller = controller
        self.h = validate_stage_duration(h)
        self.within = np.einsum("qa,qasr->sqr", controller.rule, controller.update)
        # within[s] is M_s; mixed[s] is W_s
        self.mixed = np.stack(
            [epoch_memory_operator(self.within[s], self.h)
             for s in range(model.n_signals)]
        )

    # --- full (state x memory) filter: used for joints and act ----------

    def initial_filter(self, first_signal):
        model, ctrl = self.model, self.controller
        filt = np.zeros((model.n_states, ctrl.n_memory))
        q0 = ctrl.init_memory[first_signal]
        for w in range(model.n_states):
            if model.signal_of(w) == first_signal and model.init[w] > 0.0:
                filt[w, q0] += model.init[w]
        return filt

    def boundary_joint(self, filt, epoch_signal):
        """Unnormalized joint over (boundary state, boundary action)."""
        return filt @ self.mixed[epoch_signal] @ self.controller.rule

    def advance(self, filt, epoch_signal, action, next_signal):
        """Push the filter through one pinned boundary (action, next signal)."""
        model, ctrl = self.model, self.controller
        mixed = filt @ self.mixed[epoch_signal]          # (W, Q) over memory at T_k
        mixed = mixed * ctrl.rule[:, action][None, :]    # pin the boundary action
        moved = model.transition[:, action, :].T @ mixed  # (W', Q)
        moved[model.signal_map != next_signal, :] = 0.0
        return moved @ ctrl.update[:, action, next_signal, :]

    def filtered_forward(self, fil: FilteredHistory):
        """Unnormalized filter after conditioning on a whole filtered history."""
        filt = self.initial_filter(fil.first_signal)
        signal = fil.first_signal
        for action, next_signal in fil.steps:
            filt = self.advance(filt, signal, action, next_signal)
            signal = next_signal
        return filt, signal

    # --- memory-only filter: drives play of the mimic strategy ----------
    #
    # The filter factorizes as (state part) x (memory part) and the
    # boundary-action law depends on the memory part and the current epoch
    # signal only, so simulation and automaton construction never need the
    # state part.

    def initial_qdist(self, first_signal):
        q = np.zeros(self.controller.n_memory)
        q[self.controller.init_memory[first_signal]] = 1.0
        return q

    def action_weights(self, qdist, epoch_signal):
        return qdist @ self.mixed[epoch_signal] @ self.controller.rule

    def advance_qdist(self, qdist, epoch_signal, action, next_signal):
        """Normalized memory filter after a pinned boundary; None when null."""
        mixed = qdist @ self.mixed[epoch_signal]
        weighted = mixed * self.controller.rule[:, action]
        total = weighted.sum()
        if total <= 0.0:
            return None
        posterior = weighted / total
        return posterior @ self.controller.update[:, action, next_signal, :]


def _filtered_joint_enumerated(model, strategy, h, fil, n_max, budget):
    """Truncated-exact joint over (boundary state, boundary action).

    Enumerates epoch lengths up to ``n_max`` and every intermediate action
    branch, merging branches whose strategy cursors share a merge key.
    """
    k = fil.length
    boundary = fil.steps
    signals = [fil.first_signal] + [s for (_, s) in boundary]
    joint = np.zeros((model.n_states, model.n_actions))
    one_minus = 1.0 - h
    visits = [0]

    def run_epoch(epoch_idx, state, frontier):
        s_here = signals[epoch_idx]
        last_epoch = epoch_idx == k - 1
        if not last_epoch:
            a_pin, s_next = boundary[epoch_idx]
            row = model.transition[state, a_pin]
            successors = [
                (int(w2), float(row[w2]))
                for w2 in np.nonzero(row > 0.0)[0]
                if model.signal_of(int(w2)) == s_next
            ]
            downstream = {w2: {} for w2, _ in successors}
        geom = h
        current = frontier
        for m in range(n_max):
            expanding = m + 1 < n_max and one_minus > 0.0
            grown = {}
            for cursor, weight in current.values():
                visits[0] += 1
                if visits[0] > budget:
                    raise BudgetExceeded(visits[0], budget, "epoch enumeration")
                alpha = cursor.action_distribution()
                if last_epoch:
                    joint[state] += (weight * geom) * alpha
                else:
                    pinned = weight * geom * alpha[a_pin]
                    if pinned > 0.0:
                        stepped = cursor.step(a_pin, s_next)
                        key = stepped.merge_key()
                        for w2, p in successors:
                            slot = downstream[w2]
                            mass = pinned * p
                            if key in slot:
                                slot[key] = (slot[key][0], slot[key][1] + mass)
                            else:
                                slot[key] = (stepped, mass)
                if expanding:
                    for a in np.nonzero(alpha > 0.0)[0]:
                        nxt = cursor.step(int(a), s_here)
                        key = nxt.merge_key()
                        mass = weight * float(alpha[a])
                        if key in grown:
                            grown[key] = (grown[key][0], grown[key][1] + mass)
                        else:
                            grown[key] = (nxt, mass)
            if not expanding:
                break
            current = grown
            geom *= one_minus
            if not current or geom == 0.0:
                break
        if not last_epoch:
            for w2, fr in downstream.items():
                if fr:
                    run_epoch(epoch_idx + 1, w2, fr)

    start = strategy.start(fil.first_signal)
    for w in range(model.n_states):
        if model.init[w] > 0.0 and model.signal_of(w) == fil.first_signal:
            run_epoch(0, w, {start.merge_key(): (start, float(model.init[w]))})
    return joint


def filtered_joint(model: PomdpModel, strategy: Strategy, h, fil: FilteredHistory,
                   n_max=None, budget=DEFAULT_ENUMERATION_BUDGET):
    """Joint law of (filtered history == fil, boundary state, boundary action).

    Returns ``(joint, bound)`` with ``joint`` unnormalized of shape
    (states, actions).  Controller and sequence sources go through the
    closed-form route (bound 0); everything else is enumerated with each
    epoch truncated at ``n_max`` stages.
    """
    return MimicStrategy(model, strategy, h, n_max, budget).filtered_joint(fil)


def _conditional(joint, bound) -> MimicAction:
    """Boundary-action law conditioned on a joint's mass; uniform when null."""
    mass = float(joint.sum())
    if mass == 0.0:
        return MimicAction(uniform_action(joint.shape[1]), bound, 0.0)
    if mass < 10.0 * bound:
        raise TruncationDominates(mass, bound)
    return MimicAction(joint.sum(axis=0) / mass, bound, mass)


def mimic_action_exact(model: PomdpModel, strategy: Strategy, h,
                       fil: FilteredHistory, n_max=None,
                       budget=DEFAULT_ENUMERATION_BUDGET) -> MimicAction:
    """Conditional boundary-action law given the filtered history.

    Null events get the fixed uniform fallback.  When the conditioning mass
    is positive but below 10x the truncation bound the conditional is
    dominated by truncation error and :class:`TruncationDominates` is raised.
    """
    return _conditional(*filtered_joint(model, strategy, h, fil, n_max, budget))


def mimic_action_mc(model: PomdpModel, strategy: Strategy, h,
                    fil: FilteredHistory, n_samples, seed_or_rng
                    ) -> MimicActionEstimate:
    """Estimate the mimic action by conditional simulation.

    Simulates plays of the duration-h model out to the k-th epoch boundary
    and keeps those whose filtered history matches.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    k = fil.length
    plays = simulate_batch(model, strategy, h, n_samples, seed_or_rng, epochs=k)
    signals = model.signal_map[plays.epoch_states]
    actions = plays.epoch_actions
    match = signals[:, 0] == fil.first_signal
    for i, (action, signal) in enumerate(fil.steps):
        match &= (actions[:, i] == action) & (signals[:, i + 1] == signal)
    accepted = int(match.sum())
    counts = np.bincount(actions[match, k - 1], minlength=model.n_actions)
    if accepted == 0:
        raise NoAcceptedSamples(f"0 of {n_samples} trajectories matched")
    weights = counts / accepted
    std_errors = np.sqrt(weights * (1.0 - weights) / accepted)
    return MimicActionEstimate(weights, std_errors, accepted, n_samples)


class _MimicControllerCursor(StrategyCursor):
    """Memory-filter walker for a controller-source mimic strategy."""

    __slots__ = ("engine", "qdist", "signal")

    def __init__(self, engine, qdist, signal):
        self.engine = engine
        self.qdist = qdist  # None marks the null branch (uniform fallback)
        self.signal = signal

    def action_distribution(self):
        if self.qdist is None:
            return uniform_action(self.engine.controller.n_actions)
        return self.engine.action_weights(self.qdist, self.signal)

    def step(self, action, signal):
        if self.qdist is None:
            return self
        nxt = self.engine.advance_qdist(self.qdist, self.signal, action, signal)
        return _MimicControllerCursor(self.engine, nxt, signal)

    def merge_key(self):
        if self.qdist is None:
            return ("null",)
        return (self.signal, self.qdist.tobytes())


class _MimicReplayCursor(StrategyCursor):
    __slots__ = ("strategy", "history")

    def __init__(self, strategy, history):
        self.strategy = strategy
        self.history = history

    def action_distribution(self):
        return self.strategy.act(self.history)

    def step(self, action, signal):
        return _MimicReplayCursor(self.strategy, self.history.child(action, signal))

    def merge_key(self):
        return self.history


class MimicStrategy(Strategy):
    """The mimicking strategy as a lazily evaluated, memoized Strategy.

    ``act`` is the conditional boundary-action law of the source strategy
    given the filtered history (uniform fallback on null histories); results
    are cached by history.  ``mimic_action`` exposes the certification data
    alongside the weights.
    """

    def __init__(self, model: PomdpModel, source: Strategy, h, n_max=None,
                 budget=DEFAULT_ENUMERATION_BUDGET):
        self.model = model
        self.source = source
        self.h = validate_stage_duration(h)
        self.n_actions = model.n_actions
        controller = as_controller(source, model.n_signals)
        self.engine = (EpochOperatorEngine(model, controller, self.h)
                       if controller is not None else None)
        if n_max is None and self.engine is None:
            n_max = default_truncation(self.h)
        self.n_max = n_max
        self.budget = budget
        self._memo = {}
        self._memo_lock = threading.Lock()

    def memory_form(self, n_signals):
        """Hidden-memory form of a controller-source mimic; None otherwise.

        The memory is the source memory at the start of the current epoch.
        From memory q under epoch signal s the boundary memory r has law
        W_s[q], the action is drawn from rule[r], and the next epoch starts
        from update[r, a, s'] with r drawn from its posterior given (q, a).
        """
        if self.engine is None:
            return None
        mixed, ctrl = self.engine.mixed, self.engine.controller
        joint = np.einsum("sqr,ra->qsar", mixed, ctrl.rule)
        action = joint.sum(axis=3)
        posterior = np.divide(joint, action[..., None], out=np.zeros_like(joint),
                              where=action[..., None] > 0.0)
        update = np.einsum("qsar,rabz->qsabz", posterior, ctrl.update)
        return HiddenMemoryForm(ctrl.init_memory, action, update)

    def filtered_joint(self, fil: FilteredHistory):
        """``(joint, bound)`` of the source at ``fil``: the closed-form route
        when the source is a controller, otherwise truncated enumeration."""
        if self.engine is not None:
            filt, signal = self.engine.filtered_forward(fil)
            return self.engine.boundary_joint(filt, signal), 0.0
        joint = _filtered_joint_enumerated(self.model, self.source, self.h, fil,
                                           self.n_max, self.budget)
        return joint, truncation_bound(self.h, fil.length, self.n_max)

    def mimic_action(self, history: History) -> MimicAction:
        return _conditional(*self.filtered_joint(history))

    def act(self, history: History) -> np.ndarray:
        with self._memo_lock:
            cached = self._memo.get(history)
        if cached is not None:
            return cached
        weights = self.mimic_action(history).weights
        with self._memo_lock:
            if len(self._memo) < self.budget:
                self._memo[history] = weights
        return weights

    def start(self, first_signal):
        if self.engine is not None:
            return _MimicControllerCursor(
                self.engine, self.engine.initial_qdist(first_signal), first_signal
            )
        return _MimicReplayCursor(self, History(first_signal))


def build_mimic_strategy(model: PomdpModel, source: Strategy, h, n_max=None,
                         budget=DEFAULT_ENUMERATION_BUDGET) -> MimicStrategy:
    """Construct the mimicking strategy for ``source`` played at duration h."""
    return MimicStrategy(model, source, h, n_max, budget)


# --- finite automaton form of a controller-source mimic strategy ----------

@dataclass(frozen=True)
class FilterMachine:
    """Finite automaton over reachable memory filters of a mimic strategy.

    Exists only when the reachable set of (epoch signal, memory filter)
    pairs closes finitely (always for single-memory or pure-rule sources).
    The automaton is a controller of the base model: its memories are the
    nodes, ``rule`` their action laws, ``init_memory`` the start nodes and
    ``update`` the one-hot edges (edges on zero-probability actions point
    at node 0).  ``merge_defect`` is the largest filter distance collapsed
    by the rounding dedup plus any action mass dropped below the edge
    tolerance; zero means the automaton is exact.
    """

    controller: FiniteStateController
    merge_defect: float

    @property
    def n_nodes(self):
        return self.controller.n_memory


def build_filter_machine(model: PomdpModel, source: Strategy, h, *,
                         round_digits=10, max_nodes=600):
    """Close the mimic strategy's filter dynamics into a finite automaton.

    Returns None when the source is not controller-representable or the
    reachable filter set does not close within ``max_nodes``.
    """
    controller = as_controller(source, model.n_signals)
    if controller is None:
        return None
    engine = EpochOperatorEngine(model, controller, validate_stage_duration(h))
    n_s, n_a = model.n_signals, model.n_actions

    nodes = []          # (signal, qdist)
    index = {}
    defect = 0.0

    def register(signal, qdist):
        nonlocal defect
        key = (signal, tuple(np.round(qdist, round_digits).tolist()))
        found = index.get(key)
        if found is not None:
            defect = max(defect, float(np.max(np.abs(nodes[found][1] - qdist))))
            return found
        idx = len(nodes)
        nodes.append((signal, qdist))
        index[key] = idx
        return idx

    init_nodes = np.array(
        [register(s, engine.initial_qdist(s)) for s in range(n_s)], dtype=np.int64
    )
    action_rows = []
    edge_rows = []
    cursor = 0
    while cursor < len(nodes):
        if len(nodes) > max_nodes:
            return None
        signal, qdist = nodes[cursor]
        alpha = engine.action_weights(qdist, signal)
        alpha = np.where(alpha > EDGE_TOL, alpha, 0.0)
        dropped = 1.0 - alpha.sum()
        if dropped > 0.0:
            defect = max(defect, float(dropped))
            alpha = alpha / alpha.sum()
        edges = np.zeros((n_a, n_s), dtype=np.int64)
        for a in np.nonzero(alpha)[0]:
            for s2 in range(n_s):
                nxt = engine.advance_qdist(qdist, signal, a, s2)
                edges[a, s2] = register(s2, nxt)
        action_rows.append(alpha)
        edge_rows.append(edges)
        cursor += 1
    if len(nodes) > max_nodes:
        return None
    update = np.eye(len(nodes))[np.stack(edge_rows)]  # one-hot edges
    return FilterMachine(
        FiniteStateController(init_nodes, np.stack(action_rows), update), defect
    )
