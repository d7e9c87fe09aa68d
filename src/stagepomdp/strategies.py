"""Behavior strategies and their exact finite-depth history distributions.

A history is the observable record (s1, a1, s2, ..., a_{t-1}, s_t); a
strategy maps every history to a mixed action.  Strategies are immutable
and ``act`` is pure; all randomness lives in trajectory sampling.

Besides ``act``, every strategy can open a :class:`StrategyCursor` - an
immutable stepper used by simulators and enumerators.  Cursors expose a
``merge_key``: two cursors with equal keys behave identically on every
continuation, so enumeration branches carrying them may be merged
(weight-summed) without error.  This is what keeps epoch-length
enumeration polynomial for sequence and table strategies.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded
from .model import PomdpModel, validate_mixed_action

#: default cap on joint (history, state) enumeration entries
DEFAULT_ENUMERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class History:
    """Observable history: first signal plus (action, signal) steps.

    ``length`` counts signals, so the empty-step history has length 1.
    """

    first_signal: int
    steps: tuple = ()

    @property
    def length(self):
        return 1 + len(self.steps)

    @property
    def last_signal(self):
        return self.steps[-1][1] if self.steps else self.first_signal

    def child(self, action, signal):
        return History(self.first_signal, self.steps + ((action, signal),))


def uniform_action(n_actions):
    return np.full(n_actions, 1.0 / n_actions)


@dataclass(frozen=True)
class HiddenMemoryForm:
    """A strategy as a table-driven random memory, for batched simulation.

    After first signal s the memory is ``init_memory[s]``; in memory q under
    current signal s the strategy plays ``action[q, s]``, and after playing
    a and observing s' the next memory is drawn from ``update[q, s, a, s']``.
    Sampling the memory gives the same law of play as tracking the
    posterior over it, which is what the strategy's cursor does.
    """

    init_memory: np.ndarray   # (signals,)
    action: np.ndarray        # (memories, signals, actions)
    update: np.ndarray        # (memories, signals, actions, signals, memories)


class StrategyCursor(abc.ABC):
    """Immutable walker along one history; ``step`` returns a new cursor."""

    @abc.abstractmethod
    def action_distribution(self) -> np.ndarray: ...

    @abc.abstractmethod
    def step(self, action, signal) -> "StrategyCursor": ...

    @abc.abstractmethod
    def merge_key(self): ...


class Strategy(abc.ABC):
    """A behavior strategy: pure map from histories to mixed actions."""

    #: number of actions the strategy mixes over
    n_actions: int

    @abc.abstractmethod
    def start(self, first_signal) -> StrategyCursor:
        """Open a cursor at the length-1 history with the given signal."""

    def memory_form(self, n_signals) -> HiddenMemoryForm | None:
        """The strategy's hidden-memory form over ``n_signals`` signals, or
        None when it has none."""
        return None

    def act(self, history: History) -> np.ndarray:
        cursor = self.start(history.first_signal)
        for action, signal in history.steps:
            cursor = cursor.step(action, signal)
        return cursor.action_distribution()


@dataclass(frozen=True)
class _SequenceCursor(StrategyCursor):
    strategy: "SequenceStrategy"
    stage: int

    def action_distribution(self):
        acts = self.strategy.actions
        return acts[self.stage % len(acts)]

    def step(self, action, signal):
        return _SequenceCursor(self.strategy, self.stage + 1)

    def merge_key(self):
        return self.stage % len(self.strategy.actions)


class SequenceStrategy(Strategy):
    """Signal-blind strategy cycling through a fixed list of mixed actions."""

    def __init__(self, actions, n_actions=None):
        mats = [np.asarray(a, dtype=np.float64) for a in actions]
        if not mats:
            raise ValueError("SequenceStrategy needs at least one action")
        if n_actions is None:
            n_actions = len(mats[0])
        self.n_actions = n_actions
        self.actions = tuple(validate_mixed_action(a, n_actions) for a in mats)
        for a in self.actions:
            a.flags.writeable = False

    @classmethod
    def pure(cls, action_indices, n_actions):
        """Cycle through pure actions given by index."""
        mats = []
        for idx in action_indices:
            w = np.zeros(n_actions)
            w[idx] = 1.0
            mats.append(w)
        return cls(mats, n_actions)

    def start(self, first_signal):
        return _SequenceCursor(self, 0)

    def memory_form(self, n_signals):
        return sequence_as_controller(self, n_signals).memory_form(n_signals)

    def act(self, history):
        return self.actions[(history.length - 1) % len(self.actions)]


@dataclass(frozen=True)
class _TableCursor(StrategyCursor):
    strategy: "TableStrategy"
    history: History | None   # None once past the table depth

    def action_distribution(self):
        if self.history is None:
            return self.strategy.default
        return self.strategy.lookup(self.history)

    def step(self, action, signal):
        if self.history is None:
            return self
        child = self.history.child(action, signal)
        if child.length > self.strategy.depth:
            return _TableCursor(self.strategy, None)
        return _TableCursor(self.strategy, child)

    def merge_key(self):
        return self.history  # identical tables behave identically past depth


class TableStrategy(Strategy):
    """Depth-bounded lookup table with a constant default beyond the depth."""

    def __init__(self, n_actions, depth, table, default=None):
        self.n_actions = n_actions
        self.depth = int(depth)
        self.table = {
            hist: validate_mixed_action(w, n_actions) for hist, w in table.items()
        }
        if default is None:
            default = uniform_action(n_actions)
        self.default = validate_mixed_action(default, n_actions)
        for w in self.table.values():
            w.flags.writeable = False
        self.default.flags.writeable = False

    def lookup(self, history):
        if history.length > self.depth:
            return self.default
        return self.table.get(history, self.default)

    def start(self, first_signal):
        hist = History(first_signal)
        if hist.length > self.depth:
            return _TableCursor(self, None)
        return _TableCursor(self, hist)

    def act(self, history):
        return self.lookup(history)


class _ControllerCursor(StrategyCursor):
    """Distribution over controller memory given the observed history.

    The posterior reweights by the probability the controller would have
    produced each observed action; a zero normalizer (history the
    controller cannot generate) degenerates to the uniform fallback.
    """

    __slots__ = ("controller", "belief")

    def __init__(self, controller, belief):
        self.controller = controller
        self.belief = belief  # None marks the degenerate branch

    def action_distribution(self):
        if self.belief is None:
            return uniform_action(self.controller.n_actions)
        return self.belief @ self.controller.rule

    def step(self, action, signal):
        if self.belief is None:
            return self
        weighted = self.belief * self.controller.rule[:, action]
        total = weighted.sum()
        if total <= 0.0:
            return _ControllerCursor(self.controller, None)
        posterior = weighted / total
        belief = posterior @ self.controller.update[:, action, signal, :]
        return _ControllerCursor(self.controller, belief)

    def merge_key(self):
        if self.belief is None:
            return ("degenerate",)
        return self.belief.tobytes()


class FiniteStateController(Strategy):
    """Finite-memory strategy: deterministic start, stochastic memory updates.

    ``init_memory[s]`` is the start memory after first signal s,
    ``rule[q]`` the mixed action in memory q, and ``update[q, a, s]`` the
    next-memory distribution after playing a and observing s.
    """

    def __init__(self, init_memory, rule, update, memory_names=None):
        self.init_memory = np.asarray(init_memory, dtype=np.int64)
        self.rule = np.asarray(rule, dtype=np.float64)
        self.update = np.asarray(update, dtype=np.float64)
        self.n_memory, self.n_actions = self.rule.shape
        self.n_signals = self.update.shape[2]
        if memory_names is None:
            memory_names = tuple(f"q{i}" for i in range(self.n_memory))
        self.memory_names = tuple(memory_names)
        self._validate()
        for arr in (self.init_memory, self.rule, self.update):
            arr.flags.writeable = False

    def _validate(self):
        if self.update.shape != (self.n_memory, self.n_actions, self.n_signals,
                                 self.n_memory):
            raise ValueError(f"update has shape {self.update.shape}")
        if np.any(self.init_memory < 0) or np.any(self.init_memory >= self.n_memory):
            raise ValueError("init_memory out of range")
        for q in range(self.n_memory):
            validate_mixed_action(self.rule[q], self.n_actions)
        sums = self.update.sum(axis=3)
        if np.any(self.update < 0) or np.any(np.abs(sums - 1.0) > 1e-12):
            raise ValueError("update rows must be stochastic")

    def start(self, first_signal):
        belief = np.zeros(self.n_memory)
        belief[self.init_memory[first_signal]] = 1.0
        return _ControllerCursor(self, belief)

    def memory_form(self, n_signals):
        n_q, n_a, n_s = self.n_memory, self.n_actions, self.n_signals
        return HiddenMemoryForm(
            self.init_memory,
            np.broadcast_to(self.rule[:, None, :], (n_q, n_s, n_a)),
            np.broadcast_to(self.update[:, None], (n_q, n_s, n_a, n_s, n_q)),
        )


def sequence_as_controller(seq: SequenceStrategy, n_signals) -> FiniteStateController:
    """Equivalent controller: memory counts the stage modulo the cycle length."""
    period = len(seq.actions)
    n_a = seq.n_actions
    rule = np.stack(seq.actions)
    update = np.zeros((period, n_a, n_signals, period))
    for q in range(period):
        update[q, :, :, (q + 1) % period] = 1.0
    init_memory = np.zeros(n_signals, dtype=np.int64)
    return FiniteStateController(init_memory, rule, update)


def as_controller(strategy: Strategy, n_signals) -> FiniteStateController | None:
    """The strategy as a controller over ``n_signals`` signals: controllers as
    they are, sequences through :func:`sequence_as_controller`, None for any
    other strategy."""
    if isinstance(strategy, FiniteStateController):
        return strategy
    if isinstance(strategy, SequenceStrategy):
        return sequence_as_controller(strategy, n_signals)
    return None


def exact_history_distribution(model: PomdpModel, strategy: Strategy, depth,
                               budget=DEFAULT_ENUMERATION_BUDGET):
    """Exact joint law of (history of length ``depth``, current state).

    Returns a map ``(History, state_index) -> probability`` containing the
    positive-probability entries; the total mass is 1 up to roundoff.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    worst = model.n_states * (model.n_actions * model.n_signals) ** (depth - 1)
    if worst > budget:
        raise BudgetExceeded(worst, budget, f"history depth {depth}")

    # frontier: history -> vector of state probabilities
    frontier: dict[History, np.ndarray] = {}
    for w in range(model.n_states):
        p = model.init[w]
        if p <= 0.0:
            continue
        hist = History(model.signal_of(w))
        vec = frontier.setdefault(hist, np.zeros(model.n_states))
        vec[w] += p

    for _ in range(depth - 1):
        new_frontier: dict[History, np.ndarray] = {}
        for hist, state_probs in frontier.items():
            mixed = strategy.act(hist)
            for a in range(model.n_actions):
                if mixed[a] <= 0.0:
                    continue
                succ = state_probs @ model.transition[:, a, :] * mixed[a]
                for w2 in np.nonzero(succ > 0.0)[0]:
                    child = hist.child(a, model.signal_of(int(w2)))
                    vec = new_frontier.setdefault(child, np.zeros(model.n_states))
                    vec[int(w2)] += succ[int(w2)]
            if len(new_frontier) * model.n_states > budget:
                raise BudgetExceeded(
                    len(new_frontier) * model.n_states, budget, "history expansion"
                )
        frontier = new_frontier

    out = {}
    for hist, state_probs in frontier.items():
        for w in np.nonzero(state_probs > 0.0)[0]:
            out[(hist, int(w))] = float(state_probs[int(w)])
    return out
