"""Filtered histories and the mimicking strategy.

A play of the duration-h model decomposes into epochs; the filtered history
keeps only the epoch-boundary coordinates

    (s'_1, a'_{T_1}, s'_{T_1+1}, ..., a'_{T_{k-1}}, s'_{T_{k-1}+1}),

which is literally a length-k history of the base (h = 1) model.  The mimic
strategy plays, at a base-model history eta, the conditional law of the
k-th boundary action given that the filtered history equals eta; on null
events it plays the fixed uniform fallback.

The state is frozen inside an epoch, so the filtered forward measure over
(state, source memory) is a state vector, moved only at the boundaries,
times the source's memory.  One walk, :func:`_filtered_joint`, serves both
exact routes, which differ only in the epoch mixer that carries the memory:

* controller sources (every strategy with a
  :meth:`~stagepomdp.strategies.Strategy.controller`: controllers,
  sequences, tables up to ``MAX_TABLE_MEMORIES`` memories and mimics of
  these): a memory-mass vector through the closed-form geometric-series
  operator W_s = E[M_s^(N-1)], with no truncation.  The mimic of such a
  source is itself a finite controller of the base model
  (:meth:`MimicStrategy.controller`, which :func:`build_filter_machine`
  returns as a :class:`FilterMachine`);
* opaque sources and larger tables: plain-float weights over cursor ids,
  enumerated over epoch lengths and the intermediate actions inside each
  epoch and truncated at ``n_max`` stages per epoch on the shared
  :class:`~stagepomdp.strategies.CursorEnumeration`, the truncated
  analogue of W_s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .epochs import epoch_operators, simulate_batch
from .errors import NoAcceptedSamples, TruncationDominates
from .model import PomdpModel, validate_stage_duration
from .strategies import (
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


def default_truncation(h):
    """Smallest N with (1-h)^N <= ``DEFAULT_TAIL_MASS``; 1 when h == 1."""
    h = validate_stage_duration(h)
    if h == 1.0:
        return 1
    return max(1, math.ceil(math.log(DEFAULT_TAIL_MASS) / math.log1p(-h)))


def truncation_bound(h, k, n_max):
    """Total-variation bound (before normalization) of epoch truncation."""
    if h == 1.0:
        return 0.0
    return 2.0 * k * (1.0 - h) ** n_max


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


def _enumerated_epoch(enum, weights, signal, pinned, h, n_max):
    """One epoch of the truncated enumeration over cursor ids.

    The state is frozen inside an epoch, so every branch's state mass is a
    multiple of the epoch's one state vector and ``weights`` maps cursor ids
    to those multiples as plain floats.  Each stage m < ``n_max`` ends the
    epoch with weight h (1-h)^m: its cursors' action laws add to the epoch's
    mixed boundary-action law, and unless ``pinned`` is None its (action,
    next signal) carries their weights to the child ids.  Returns the
    carried weights and the mixed law.
    """
    following, mixed = {}, [0.0] * enum.n_actions
    geom = h
    for m in range(n_max):
        expanding = m + 1 < n_max and h < 1.0
        grown = {}
        for i, weight, alpha in enum.visit(weights):
            law = alpha.tolist()
            ended = geom * weight
            if pinned is not None and law[pinned[0]] > 0.0:
                enum.merge(following, enum.table.child(i, *pinned),
                           ended * law[pinned[0]])
            for a, p in enumerate(law):
                mixed[a] += ended * p
                if expanding and p > 0.0:
                    enum.merge(grown, enum.table.child(i, a, signal), weight * p)
        geom *= 1.0 - h
        if not grown or geom == 0.0:
            break
        # at an epoch's end the cursors stay for the next epoch's stages
        weights, following = enum.keep(weights, grown, following)
    return following, mixed


def _closed_epoch(controller, mixed, memory, signal, pinned):
    """One epoch of a controller source: ``memory`` is the mass over source
    memories at the epoch's start and ``mixed[signal]`` is W_s.  Returns the
    mass after the ``pinned`` (action, next signal), or the boundary-action
    law when ``pinned`` is None."""
    memory = memory @ mixed[signal]
    if pinned is None:
        return None, memory @ controller.rule
    action, next_signal = pinned
    return (memory * controller.rule[:, action]) @ controller.update[
        :, action, next_signal, :], None


def _filtered_joint(model, fil, carried, epoch):
    """Joint over (boundary state, boundary action) at the end of ``fil``:
    the state vector times the last epoch's law.  ``epoch(carried, signal,
    pinned)`` mixes one epoch of the source from its ``carried`` memory and
    returns ``(carried, law)``: the memory after ``pinned`` (action, next
    signal), or the law when ``pinned`` is None.  A null boundary still runs
    its epoch, so an enumeration charges the same visits, and gives zeros.
    """
    state = np.where(model.signal_map == fil.first_signal, model.init, 0.0)
    signal = fil.first_signal
    for action, next_signal in fil.steps:
        state = np.where(model.signal_map == next_signal,
                         state @ model.transition[:, action, :], 0.0)
        if not state.any():
            epoch(carried, signal, None)
            return np.zeros((model.n_states, model.n_actions))
        carried, _ = epoch(carried, signal, (action, next_signal))
        signal = next_signal
    _, law = epoch(carried, signal, None)
    return state[:, None] * np.asarray(law)


def _filtered_joint_enumerated(model, strategy, h, fil, n_max):
    """Truncated-exact joint over (boundary state, boundary action): the
    walk of :func:`_filtered_joint` with one :func:`_enumerated_epoch` per
    epoch, from weight 1 on each cursor of the first signal."""
    enum = CursorEnumeration(model, "epoch enumeration")
    state = np.where(model.signal_map == fil.first_signal, model.init, 0.0)
    weights = dict.fromkeys(enum.open(state, strategy.start), 1.0)
    return _filtered_joint(model, fil, weights,
                           partial(_enumerated_epoch, enum, h=h, n_max=n_max))


def filtered_joint(model: PomdpModel, strategy: Strategy, h, fil: FilteredHistory,
                   n_max=None):
    """Joint law of (filtered history == fil, boundary state, boundary action).

    Returns ``(joint, bound)`` with ``joint`` unnormalized of shape
    (states, actions).  Sources with a controller form go through the
    closed-form route (bound 0); opaque sources are enumerated with each
    epoch truncated at ``n_max`` stages.  ``n_max`` below 1, or an action or
    signal of ``fil`` out of the model's range, raises ValueError.
    """
    return MimicStrategy(model, strategy, h, n_max).filtered_joint(fil)


def _check_range(model: PomdpModel, fil: FilteredHistory):
    """Raise ValueError when an action or signal of ``fil`` is out of the
    model's range."""
    n_a, n_s = model.n_actions, model.n_signals
    if not (0 <= fil.first_signal < n_s
            and all(0 <= a < n_a and 0 <= s < n_s for a, s in fil.steps)):
        raise ValueError(f"filtered history {fil} is out of range for "
                         f"{n_a} actions and {n_s} signals")


def _conditional(joint, bound) -> MimicAction:
    """Boundary-action law conditioned on a joint's mass; uniform when null."""
    mass = float(joint.sum())
    if mass == 0.0:
        return MimicAction(uniform_action(joint.shape[1]), bound, 0.0)
    if mass < 10.0 * bound:
        raise TruncationDominates(mass, bound)
    return MimicAction(joint.sum(axis=0) / mass, bound, mass)


def mimic_action_exact(model: PomdpModel, strategy: Strategy, h,
                       fil: FilteredHistory, n_max=None) -> MimicAction:
    """Conditional boundary-action law given the filtered history.

    Null events get the fixed uniform fallback.  When the conditioning mass
    is positive but below 10x the truncation bound the conditional is
    dominated by truncation error and :class:`TruncationDominates` is raised.
    """
    return _conditional(*filtered_joint(model, strategy, h, fil, n_max))


def mimic_action_mc(model: PomdpModel, strategy: Strategy, h,
                    fil: FilteredHistory, n_samples, seed_or_rng
                    ) -> MimicActionEstimate:
    """Estimate the mimic action by conditional simulation.

    Simulates plays of the duration-h model out to the k-th epoch boundary
    and keeps those whose filtered history matches.  An action or signal of
    ``fil`` out of the model's range raises ValueError.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    _check_range(model, fil)
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
    """The mimicking strategy as a lazily evaluated Strategy.

    ``act`` is the conditional boundary-action law of the source strategy
    given the filtered history (uniform fallback on null histories), not
    cached: cursor tables ask each history once.  ``mimic_action`` adds the
    certification data; ``mixed[s]`` is W_s of a controller source, one
    read-only stack from :func:`~stagepomdp.epochs.epoch_operators`, read by
    both the filtered-history walk and ``controller``.  That stack is held
    by the source controller's content and h, so building a mimic of a
    controller seen before, as each module-level call does, skips the
    operator.
    """

    def __init__(self, model: PomdpModel, source: Strategy, h, n_max=None):
        self.model = model
        self.source = source
        self.h = validate_stage_duration(h)
        self.n_actions = model.n_actions
        self.source_controller = ctrl = controller_for(model, source)
        self.mixed = None
        if ctrl is not None:
            self.mixed = epoch_operators(ctrl, self.h)
        elif n_max is None:
            n_max = default_truncation(self.h)
        if n_max is not None and n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max!r}")
        self.n_max = n_max
        self._controller = None

    def controller(self, n_signals):
        """The mimic as a controller of the base model, built once; None for
        an opaque source.

        Memory q*S + s holds the source memory q at the start of the current
        epoch and the epoch signal s, and plays W_s[q] @ rule.  After action
        a and next signal s' it moves to (q', s'), q' drawn from
        update[r, a, s'] with the boundary memory r drawn from its posterior
        given (q, s, a); a zero-probability action keeps a uniform posterior,
        so its rows stay stochastic.
        """
        ctrl = self.source_controller
        if ctrl is None:
            return None
        if self._controller is None:
            n_q, n_s = ctrl.n_memory, self.model.n_signals
            joint = np.einsum("sqr,ra->qsar", self.mixed, ctrl.rule)
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
        enumeration.  An action or signal of ``fil`` out of the model's range
        raises ValueError."""
        _check_range(self.model, fil)
        ctrl = self.source_controller
        if ctrl is not None:
            start = ctrl.start(fil.first_signal).belief
            return _filtered_joint(self.model, fil, start, partial(
                _closed_epoch, ctrl, self.mixed)), 0.0
        joint = _filtered_joint_enumerated(self.model, self.source, self.h, fil,
                                           self.n_max)
        return joint, truncation_bound(self.h, fil.length, self.n_max)

    def mimic_action(self, history: History) -> MimicAction:
        return _conditional(*self.filtered_joint(history))

    def act(self, history: History) -> np.ndarray:
        return self.mimic_action(history).weights

    def start(self, first_signal):
        """The cursor of the mimic's controller, or a replay cursor for an
        opaque source."""
        controller = self.controller(self.model.n_signals)
        if controller is None:
            return ReplayCursor(self, History(first_signal))
        return controller.start(first_signal)


def build_mimic_strategy(model: PomdpModel, source: Strategy, h,
                         n_max=None) -> MimicStrategy:
    """Construct the mimicking strategy for ``source`` played at duration h."""
    return MimicStrategy(model, source, h, n_max)


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
