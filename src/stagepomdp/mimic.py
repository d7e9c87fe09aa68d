"""Filtered histories and the mimicking strategy.

A play of the duration-h model decomposes into epochs; the filtered history
keeps only the epoch-boundary coordinates

    (s'_1, a'_{T_1}, s'_{T_1+1}, ..., a'_{T_{k-1}}, s'_{T_{k-1}+1}),

which is literally a length-k history of the base (h = 1) model.  The mimic
strategy plays, at a base-model history eta, the conditional law of the
k-th boundary action given that the filtered history equals eta; on null
events it plays the fixed uniform fallback.

Two exact routes are implemented:

* controller sources (every strategy with a
  :meth:`~stagepomdp.strategies.Strategy.controller`: controllers,
  sequences, tables up to ``MAX_TABLE_MEMORIES`` memories and mimics of
  these): the filtered forward measure over (state, memory) factorizes into
  (state filter) x (memory filter), epoch-length mixing is the closed-form
  geometric-series operator, and there is no truncation.  The mimic of such
  a source is itself a finite controller of the base model
  (:meth:`MimicStrategy.controller`, which :func:`build_filter_machine`
  returns as a :class:`FilterMachine`);
* opaque sources and larger tables: enumeration over epoch lengths and
  the intermediate actions inside each epoch, truncated at ``n_max``
  stages per epoch, on the shared
  :class:`~stagepomdp.strategies.CursorEnumeration`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .epochs import epoch_memory_operator, simulate_batch
from .errors import (
    InsufficientEpochs,
    NoAcceptedSamples,
    TruncationDominates,
)
from .model import PomdpModel, validate_stage_duration
from .strategies import (
    DEFAULT_ENUMERATION_BUDGET,
    CursorEnumeration,
    FiniteStateController,
    History,
    ReplayCursor,
    Strategy,
    controller_for,
    uniform_action,
)

#: a filtered history has the same shape as a base-model history
FilteredHistory = History

#: per-epoch tail mass targeted by the default truncation level
DEFAULT_TAIL_MASS = 1e-9


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
        self.model = model
        self.controller = controller
        self.h = validate_stage_duration(h)
        self.within = np.einsum("qa,qasr->sqr", controller.rule, controller.update)
        # within[s] is M_s; mixed[s] is W_s
        self.mixed = np.stack(
            [epoch_memory_operator(self.within[s], self.h)
             for s in range(model.n_signals)]
        )

    def initial_filter(self, first_signal):
        state = np.where(self.model.signal_map == first_signal, self.model.init, 0.0)
        return np.outer(state, self.controller.start(first_signal).belief)

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


def _filtered_joint_enumerated(model, strategy, h, fil, n_max, budget):
    """Truncated-exact joint over (boundary state, boundary action).

    Enumerates each epoch's stages up to ``n_max`` with the state frozen,
    merging cursors by key into one frontier of state-mass vectors per
    epoch.  The stage ending an epoch (weight h (1-h)^m) plays the pinned
    boundary action into the next epoch's frontier, or, in the last epoch,
    adds its (state, action) law to the joint.
    """
    enum = CursorEnumeration(model, budget, "epoch enumeration")
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
            for cursor, mass, alpha in enum.visit(frontier):
                if boundary is None:
                    joint += np.outer(geom * mass, alpha)
                else:
                    enum.step(following, cursor, geom * mass, alpha, model.transition,
                              action=boundary[0], signal=boundary[1])
                if expanding:
                    for a in np.nonzero(alpha > 0.0)[0].tolist():
                        enum.merge(grown, cursor.step(a, signal), mass * alpha[a])
            frontier = grown
            geom *= 1.0 - h
            if not frontier or geom == 0.0:
                break
        if boundary is not None:
            frontier, signal = following, boundary[1]
    return joint


def filtered_joint(model: PomdpModel, strategy: Strategy, h, fil: FilteredHistory,
                   n_max=None, budget=DEFAULT_ENUMERATION_BUDGET):
    """Joint law of (filtered history == fil, boundary state, boundary action).

    Returns ``(joint, bound)`` with ``joint`` unnormalized of shape
    (states, actions).  Sources with a controller form go through the
    closed-form route (bound 0); opaque sources are enumerated with each
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
        controller = controller_for(model, source)
        self.engine = (EpochOperatorEngine(model, controller, self.h)
                       if controller is not None else None)
        if n_max is None and self.engine is None:
            n_max = default_truncation(self.h)
        self.n_max = n_max
        self.budget = budget
        self._controller = None
        self._memo = {}
        self._memo_lock = threading.Lock()

    def controller(self, n_signals):
        """The mimic as a controller of the base model, built once; None for
        an opaque source.

        Memory q*S + s holds the source memory q at the start of the current
        epoch and the epoch signal s, and plays W_s[q] @ rule.  After action
        a and next signal s' it moves to (q', s'), q' drawn from
        update[r, a, s'] with the boundary memory r drawn from its posterior
        given (q, s, a); a zero-probability action keeps a uniform posterior,
        so its rows stay stochastic.  The epoch operator's roundoff below 0
        is clipped.
        """
        if self.engine is None:
            return None
        if self._controller is None:
            ctrl = self.engine.controller
            n_q, n_s = ctrl.n_memory, self.model.n_signals
            mixed = np.clip(self.engine.mixed, 0.0, None)
            joint = np.einsum("sqr,ra->qsar", mixed, ctrl.rule)
            rule = joint.sum(axis=3)
            posterior = np.divide(joint, rule[..., None],
                                  out=np.full_like(joint, 1.0 / n_q),
                                  where=rule[..., None] > 0.0)
            moved = np.einsum("qsar,rabz->qsabz", posterior, ctrl.update)
            update = np.einsum("qsabz,bc->qsabzc", moved, np.eye(n_s))
            self._controller = FiniteStateController(
                ctrl.init_memory * n_s + np.arange(n_s),
                rule.reshape(n_q * n_s, -1),
                update.reshape(n_q * n_s, self.n_actions, n_s, n_q * n_s))
        return self._controller

    def filtered_joint(self, fil: FilteredHistory):
        """``(joint, bound)`` of the source at ``fil``: the closed-form route
        when the source has a controller form, otherwise truncated
        enumeration."""
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
        """The cursor of the mimic's controller, or a replay cursor for an
        opaque source."""
        controller = self.controller(self.model.n_signals)
        if controller is None:
            return ReplayCursor(self, History(first_signal))
        return controller.start(first_signal)


def build_mimic_strategy(model: PomdpModel, source: Strategy, h, n_max=None,
                         budget=DEFAULT_ENUMERATION_BUDGET) -> MimicStrategy:
    """Construct the mimicking strategy for ``source`` played at duration h."""
    return MimicStrategy(model, source, h, n_max, budget)


# --- finite automaton form of a controller-source mimic strategy ----------

@dataclass(frozen=True)
class FilterMachine:
    """The mimic of a controller source as a controller of the base model.

    ``controller`` is :meth:`MimicStrategy.controller`, exact by
    construction, so ``merge_defect`` is always 0.0; the field stays because
    the benchmark under ``perfbench/`` reads it.
    """

    controller: FiniteStateController
    merge_defect: float = 0.0


def build_filter_machine(model: PomdpModel, source: Strategy, h):
    """The mimic of ``source`` played at duration h, as a finite controller
    of the base model; None for an opaque source."""
    controller = MimicStrategy(model, source, h).controller(model.n_signals)
    if controller is None:
        return None
    return FilterMachine(controller)
