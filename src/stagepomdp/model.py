"""POMDP model container, validation, and the stage-duration algebra.

A model is a finite POMDP with a deterministic signal map.  The stage
duration transform replaces the transition kernel P by

    P_h(. | w, a) = h * P(. | w, a) + (1 - h) * delta_w

so that with probability 1 - h the state simply freezes for a stage.
All numerics run on dense integer-indexed numpy arrays; names exist only
for I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BadOrder,
    InitNotStochastic,
    MissingSignal,
    NegativeProbability,
    RowNotStochastic,
)

#: absolute tolerance for "sums to one" checks on probability vectors
PROB_TOL = 1e-12


def is_stochastic(rows):
    """True iff every row over the last axis has entries >= 0 summing to 1
    within :data:`PROB_TOL`; a NaN entry fails both tests."""
    rows = np.asarray(rows)
    return bool((rows >= 0.0).all() and (abs(rows.sum(-1) - 1.0) <= PROB_TOL).all())


@dataclass(frozen=True)
class PomdpModel:
    """Finite POMDP (states, actions, signals, signal map, payoff, kernel, init).

    Arrays are stored as given (no silent normalization) and are frozen by
    :func:`validate_model`.  ``max_abs_payoff`` is the payoff bound reused by
    truncation and alignment error estimates.
    """

    state_names: tuple
    action_names: tuple
    signal_names: tuple
    signal_map: np.ndarray        # (S_w,) signal index per state
    payoff: np.ndarray            # (W, A)
    transition: np.ndarray        # (W, A, W), rows over the last axis
    init: np.ndarray              # (W,)
    max_abs_payoff: float = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "state_names", tuple(self.state_names))
        object.__setattr__(self, "action_names", tuple(self.action_names))
        object.__setattr__(self, "signal_names", tuple(self.signal_names))
        object.__setattr__(
            self, "signal_map", np.asarray(self.signal_map, dtype=np.int64)
        )
        for name in ("payoff", "transition", "init"):
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=np.float64)
            )
        bound = float(np.max(np.abs(self.payoff))) if self.payoff.size else 0.0
        object.__setattr__(self, "max_abs_payoff", bound)

    @property
    def n_states(self):
        return len(self.state_names)

    @property
    def n_actions(self):
        return len(self.action_names)

    @property
    def n_signals(self):
        return len(self.signal_names)

    def signal_of(self, state):
        return int(self.signal_map[state])

    def freeze(self):
        for arr in (self.signal_map, self.payoff, self.transition, self.init):
            arr.flags.writeable = False
        return self


def validate_stage_duration(h):
    """Return ``h`` as a float after checking 0 < h <= 1."""
    h = float(h)
    if not (0.0 < h <= 1.0):
        raise ValueError(f"stage duration must be in (0, 1], got {h!r}")
    return h


def validate_mixed_action(weights, n_actions):
    """Check a mixed action: length, nonnegativity, unit mass."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n_actions,):
        raise ValueError(f"mixed action has shape {w.shape}, expected ({n_actions},)")
    if np.any(w < 0):
        raise NegativeProbability("mixed action")
    total = float(w.sum())
    if not abs(total - 1.0) <= PROB_TOL:
        raise ValueError(f"mixed action sums to {total!r} instead of 1")
    return w


def validate_model(model: PomdpModel) -> PomdpModel:
    """Check all model invariants and return the (frozen) model.

    Raises :class:`RowNotStochastic`, :class:`NegativeProbability`,
    :class:`InitNotStochastic` or :class:`MissingSignal`.
    """
    n_w, n_a, n_s = model.n_states, model.n_actions, model.n_signals
    if model.signal_map.shape != (n_w,):
        raise MissingSignal("<shape mismatch>")
    for w in range(n_w):
        s = model.signal_map[w]
        if not 0 <= s < n_s:
            raise MissingSignal(model.state_names[w])
    if model.payoff.shape != (n_w, n_a):
        raise ValueError(f"payoff has shape {model.payoff.shape}, expected {(n_w, n_a)}")
    if not np.all(np.isfinite(model.payoff)):
        raise ValueError("payoff contains non-finite entries")
    if model.transition.shape != (n_w, n_a, n_w):
        raise ValueError(
            f"transition has shape {model.transition.shape}, expected {(n_w, n_a, n_w)}"
        )
    if model.init.shape != (n_w,):
        raise ValueError(f"init has shape {model.init.shape}, expected {(n_w,)}")

    neg = np.argwhere(model.transition < 0)
    if neg.size:
        w, a, w2 = (int(i) for i in neg[0])
        raise NegativeProbability(
            f"P({model.state_names[w2]} | {model.state_names[w]}, {model.action_names[a]})"
        )
    sums = model.transition.sum(axis=2)
    bad = np.argwhere(~(np.abs(sums - 1.0) <= PROB_TOL))
    if bad.size:
        w, a = (int(i) for i in bad[0])
        raise RowNotStochastic(
            model.state_names[w], model.action_names[a], float(sums[w, a])
        )
    if np.any(model.init < 0):
        w = int(np.argwhere(model.init < 0)[0][0])
        raise NegativeProbability(f"init({model.state_names[w]})")
    total = float(model.init.sum())
    if not abs(total - 1.0) <= PROB_TOL:
        raise InitNotStochastic(total)
    return model.freeze()


def make_model(states, actions, signals, signal_map, payoff, transition, init,
               *, normalize=False):
    """Build and validate a model from plain sequences/arrays.

    ``normalize=True`` rescales transition rows and the initial distribution
    to unit mass before validation.  Never applied silently.
    """
    transition = np.asarray(transition, dtype=np.float64)
    init = np.asarray(init, dtype=np.float64)
    if normalize:
        sums = transition.sum(axis=2, keepdims=True)
        if np.any(sums <= 0):
            raise RowNotStochastic("<unknown>", "<unknown>", 0.0)
        transition = transition / sums
        if init.sum() <= 0:
            raise InitNotStochastic(float(init.sum()))
        init = init / init.sum()
    model = PomdpModel(
        state_names=states,
        action_names=actions,
        signal_names=signals,
        signal_map=signal_map,
        payoff=payoff,
        transition=transition,
        init=init,
    )
    return validate_model(model)


def stage_duration_transform(model: PomdpModel, h) -> PomdpModel:
    """Return the model with stage duration ``h``: kernel h*P + (1-h)*Id."""
    h = validate_stage_duration(h)
    n_w = model.n_states
    transition = h * model.transition
    idx = np.arange(n_w)
    transition[idx, :, idx] += 1.0 - h
    return validate_model(replace(model, transition=transition))


def rescale_stage_duration(model_h1: PomdpModel, h1, h2):
    """Rebase a stage-duration model: view G_{h1} as duration h1/h2 over G_{h2}.

    The identity behind it is
    P_{h1} = (1 - h1/h2) * Id + (h1/h2) * P_{h2},
    so the base relative to h2 is recovered by inverting the mixture:
    P_{h2} = (h2/h1) * P_{h1} - (h2/h1 - 1) * Id.

    Returns ``(model_h2, h1/h2)``.  Requires 0 < h1 < h2 <= 1; the input must
    actually be a duration-h1 model (otherwise validation of the rebased
    kernel fails).
    """
    h1 = validate_stage_duration(h1)
    h2 = validate_stage_duration(h2)
    if h1 >= h2:
        raise BadOrder(f"need h1 < h2, got h1={h1}, h2={h2}")
    ratio = h2 / h1
    n_w = model_h1.n_states
    transition = ratio * model_h1.transition
    idx = np.arange(n_w)
    transition[idx, :, idx] -= ratio - 1.0
    # tiny negatives from cancellation are legitimate zeros
    transition[(transition < 0) & (transition > -PROB_TOL)] = 0.0
    return validate_model(replace(model_h1, transition=transition)), h1 / h2


def is_fully_observed(model: PomdpModel) -> bool:
    """True iff the signal map is injective (the signal reveals the state)."""
    signals = model.signal_map
    return len(set(signals.tolist())) == model.n_states
