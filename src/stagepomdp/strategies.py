"""Behavior strategies and their exact finite-depth history distributions.

A history is the observable record (s1, a1, s2, ..., a_{t-1}, s_t); a
strategy maps every history to a mixed action.  Strategies are immutable
and ``act`` is pure; all randomness lives in trajectory sampling.

Controllers, action sequences, depth-bounded tables of at most
``MAX_TABLE_MEMORIES`` memories and mimics of any of these are all finite
controllers (:meth:`Strategy.controller`), which the exact and batched
routes use.  Any other strategy, and any larger table, is opaque: it is
only known through a :class:`StrategyCursor`, an immutable stepper whose
``merge_key`` is equal for two cursors only when they behave identically on
every continuation.  A :class:`CursorTable` interns such cursors by key to
dense ids and computes each id's action law and each child once; the
batched simulator and :class:`CursorEnumeration`, which enumerates cursors
forward one stage at a time merging (mass-summing) branches with equal
keys, both run on it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import BudgetExceeded
from .model import PomdpModel, is_stochastic, validate_mixed_action

#: most frontier entries one enumeration may visit, read by each
#: :class:`CursorEnumeration` when it is built
ENUMERATION_BUDGET = 10_000_000

#: largest table, in memories, converted to a controller; a larger one keeps
#: its cursor routes, cheaper than its dense (states x memories) product chain
MAX_TABLE_MEMORIES = 128


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


class StrategyCursor(abc.ABC):
    """Immutable walker along one history; ``step`` returns a new cursor."""

    @abc.abstractmethod
    def action_distribution(self) -> np.ndarray: ...

    @abc.abstractmethod
    def step(self, action, signal) -> "StrategyCursor": ...

    @abc.abstractmethod
    def merge_key(self): ...


@dataclass(frozen=True)
class ReplayCursor(StrategyCursor):
    """Cursor that keeps its whole history, plays ``strategy.act`` there and
    uses the history as its merge key."""

    strategy: "Strategy"
    history: History | None

    def action_distribution(self):
        return self.strategy.act(self.history)

    def step(self, action, signal):
        return ReplayCursor(self.strategy, self.history.child(action, signal))

    def merge_key(self):
        return self.history


class Strategy(abc.ABC):
    """A behavior strategy: pure map from histories to mixed actions."""

    #: number of actions the strategy mixes over
    n_actions: int

    @abc.abstractmethod
    def start(self, first_signal) -> StrategyCursor:
        """Open a cursor at the length-1 history with the given signal."""

    def controller(self, n_signals) -> "FiniteStateController | None":
        """The strategy as a controller over ``n_signals`` signals, or None
        when it is opaque."""
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

    def controller(self, n_signals):
        return sequence_as_controller(self, n_signals)

    def act(self, history):
        return self.actions[(history.length - 1) % len(self.actions)]


class _TableCursor(ReplayCursor):
    """Replay cursor of a table; every history past the depth plays the
    default, so they all share the history None."""

    def step(self, action, signal):
        if self.history is None:
            return self
        return self.strategy._cursor(self.history.child(action, signal))


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
        self._controllers = {}

    def act(self, history):
        if history is None or history.length > self.depth:
            return self.default
        return self.table.get(history, self.default)

    def start(self, first_signal):
        return self._cursor(History(first_signal))

    def _cursor(self, history):
        return _TableCursor(self, history if history.length <= self.depth else None)

    def controller(self, n_signals) -> "FiniteStateController | None":
        """The table as a controller over ``n_signals`` signals, built once.

        Its memories are the prefixes (of length at most the depth) of the
        keys, each playing its lookup, and one absorbing memory playing the
        default; a memory moves on (action, signal) to its child history, or
        to the absorbing one when the child is not a memory.  A table with
        more than ``MAX_TABLE_MEMORIES`` memories has no controller (None):
        its dense product chain would cost more than enumerating its cursors.
        """
        if n_signals in self._controllers:
            return self._controllers[n_signals]
        nodes = {}
        for key in self.table:
            if key.length <= self.depth:
                for n in range(key.length):
                    nodes.setdefault(History(key.first_signal, key.steps[:n]),
                                     len(nodes))
        if len(nodes) >= MAX_TABLE_MEMORIES:
            self._controllers[n_signals] = None
            return None
        absorbing = len(nodes)
        n_q, n_a = absorbing + 1, self.n_actions
        rule = np.tile(self.default, (n_q, 1))
        update = np.zeros((n_q, n_a, n_signals, n_q))
        update[absorbing, :, :, absorbing] = 1.0
        for hist, q in nodes.items():
            rule[q] = self.act(hist)
            for a in range(n_a):
                for s in range(n_signals):
                    update[q, a, s, nodes.get(hist.child(a, s), absorbing)] = 1.0
        init_memory = [nodes.get(History(s), absorbing) for s in range(n_signals)]
        self._controllers[n_signals] = FiniteStateController(init_memory, rule, update)
        return self._controllers[n_signals]


class ControllerCursor(StrategyCursor):
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
            return ControllerCursor(self.controller, None)
        posterior = weighted / total
        belief = posterior @ self.controller.update[:, action, signal, :]
        return ControllerCursor(self.controller, belief)

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
        if self.init_memory.shape != (self.n_signals,):
            raise ValueError(f"init_memory has shape {self.init_memory.shape}, "
                             f"expected ({self.n_signals},)")
        if np.any(self.init_memory < 0) or np.any(self.init_memory >= self.n_memory):
            raise ValueError("init_memory out of range")
        if not len(self.memory_names) == len(set(self.memory_names)) == self.n_memory:
            raise ValueError(f"memory_names {self.memory_names!r} are not "
                             f"{self.n_memory} distinct names")
        for q in range(self.n_memory):
            validate_mixed_action(self.rule[q], self.n_actions)
        if not is_stochastic(self.update):
            raise ValueError("update rows must be stochastic")

    def start(self, first_signal):
        belief = np.zeros(self.n_memory)
        belief[self.init_memory[first_signal]] = 1.0
        return ControllerCursor(self, belief)

    def controller(self, n_signals):
        return self


def controller_for(model: PomdpModel, strategy: Strategy
                   ) -> FiniteStateController | None:
    """``strategy``'s controller over the model's signals, or None when the
    strategy is opaque; a strategy whose action count, or controller whose
    signal count, differs from the model's raises ValueError."""
    if strategy.n_actions != model.n_actions:
        raise ValueError(f"strategy has {strategy.n_actions} actions, "
                         f"the model {model.n_actions}")
    controller = strategy.controller(model.n_signals)
    if controller is not None and controller.n_signals != model.n_signals:
        raise ValueError(f"controller has {controller.n_signals} signals, "
                         f"the model {model.n_signals}")
    return controller


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


class CursorTable:
    """Cursors interned by merge key to the dense ids ``0 .. len - 1``.

    Each id's action law and each ``(id, action, signal)`` child are computed
    once, on first request; equal keys behave alike on every continuation,
    so this memo is exact.  Its users call :meth:`keep` with the ids they
    still hold, so the table holds only live cursors.
    """

    def __init__(self, n_actions, n_signals):
        self.n_signals = n_signals
        self.n_codes = n_actions * n_signals
        self.cursors = []
        self.laws = {}      # id -> action law, once asked
        self.ids = {}       # merge key -> id, in id order
        # children[id, action * n_signals + signal] is the child id, -1
        # until stepped; every id has a row, and rows past the last are spare
        self.children = np.full((1, self.n_codes), -1)

    def __len__(self):
        return len(self.cursors)

    def intern(self, cursor):
        """The id of ``cursor``'s merge key, new keys taking this cursor."""
        i = self.ids.setdefault(cursor.merge_key(), len(self.cursors))
        if i == len(self.cursors):
            self.cursors.append(cursor)
            if i == len(self.children):
                self.children = np.vstack([self.children, np.full_like(self.children, -1)])
        return i

    def law(self, i):
        """Id ``i``'s action law."""
        law = self.laws.get(i)
        if law is None:
            law = self.laws[i] = self.cursors[i].action_distribution()
        return law

    def child(self, i, action, signal):
        """The id of cursor ``i`` stepped by ``(action, signal)``."""
        code = action * self.n_signals + signal
        kid = int(self.children[i, code])
        if kid < 0:
            kid = self.intern(self.cursors[i].step(action, signal))
            self.children[i, code] = kid
        return kid

    def children_of(self, codes):
        """Child ids for an array of codes ``id * n_codes + action * n_signals
        + signal``; each missing child is stepped once."""
        kids = self.children.take(codes)
        missing = kids < 0
        if missing.any():
            wanted = np.zeros(self.children.size, dtype=bool)
            wanted[codes[missing]] = True
            new = wanted.nonzero()[0]
            found = [self.intern(self.cursors[i].step(*divmod(code, self.n_signals)))
                     for i, code in map(divmod, new.tolist(), repeat(self.n_codes))]
            self.children.put(new, found)
            kids = self.children.take(codes)
        return kids

    def keep(self, held):
        """Drop every id not in ``held`` and renumber the rest in order.

        Returns the map from old to new ids (-1 for a dropped id), or None
        when every id is held.
        """
        n = len(self.cursors)
        live = np.zeros(n + 1, dtype=bool)
        live[held] = True
        remap = live.cumsum() - 1
        if remap[-1] + 1 == n:
            return None
        remap[~live] = -1  # the last entry, never live, maps -1 to -1
        kept = live.nonzero()[0]
        self.children[:len(kept)] = remap[self.children[kept]]
        self.children[len(kept):n] = -1
        keys = list(self.ids)
        kept = kept.tolist()
        self.cursors = [self.cursors[i] for i in kept]
        self.ids = {keys[i]: new for new, i in enumerate(kept)}
        if self.laws:
            new_ids = remap.tolist()
            self.laws = {new_ids[i]: law for i, law in self.laws.items()
                         if new_ids[i] >= 0}
        return remap


class CursorEnumeration:
    """Forward enumeration of strategy cursors, one stage at a time.

    A frontier maps a cursor id of :attr:`table` to the vector over states
    (or, where all share one vector, the plain-float multiple) of the mass
    of every branch whose cursor has that merge key; cursors do not depend
    on the state, so this merge is exact.  Each :meth:`visit` charges the
    frontier to ``budget``, the :data:`ENUMERATION_BUDGET` at construction.
    """

    def __init__(self, model: PomdpModel, what):
        self.signal_map = model.signal_map
        self.n_actions = model.n_actions
        # onehot[s, w] is 1 where state w shows signal s
        self.onehot = (model.signal_map == np.arange(model.n_signals)[:, None]) * 1.0
        self.table = CursorTable(model.n_actions, model.n_signals)
        self.budget = ENUMERATION_BUDGET
        self.what = what
        self.visits = 0

    def open(self, mass, start):
        """First-stage frontier: ``mass`` split by signal s, held by ``start(s)``,
        in the order of each signal's first state carrying mass."""
        frontier = {}
        for s in dict.fromkeys(self.signal_map[mass > 0.0].tolist()):
            self.merge(frontier, self.table.intern(start(s)), mass * self.onehot[s])
        return frontier

    def visit(self, frontier):
        """Yield ``(id, mass, action law)`` for every frontier entry."""
        self.visits += len(frontier)
        if self.visits > self.budget:
            raise BudgetExceeded(self.visits, self.budget, self.what)
        for i, mass in frontier.items():
            yield i, mass, self.table.law(i)

    def step(self, into, i, mass, alpha, kernel):
        """Push cursor ``i``'s mass through one stage into the frontier ``into``:
        each action a moves it to ``(mass @ kernel[:, a, :]) * alpha[a]``, split
        by next signal and merged under the child of ``i`` by (a, signal), in
        the order of actions and then of each signal's first state with mass."""
        # one product per action, the same sums as mass @ kernel[:, a, :]
        moved = (mass @ kernel.transpose(1, 0, 2)) * alpha[:, None]
        parts = moved[:, None, :] * self.onehot
        actions, states = (moved > 0.0).nonzero()
        pairs = zip(actions.tolist(), self.signal_map[states].tolist())
        for a, s in dict.fromkeys(pairs):
            self.merge(into, self.table.child(i, a, s), parts[a, s])

    def keep(self, visited, *built):
        """Keep in the table only the cursors of the frontier just visited and
        of the ``built`` ones; returns the built frontiers under their new
        ids."""
        held = set(visited).union(*built)
        if len(held) == len(self.table):
            return built
        remap = self.table.keep(list(held)).tolist()
        return tuple({remap[i]: mass for i, mass in f.items()} for f in built)

    @staticmethod
    def merge(frontier, i, mass):
        """Add ``mass`` to the frontier entry of id ``i``."""
        if i in frontier:
            frontier[i] += mass
        else:
            frontier[i] = mass


def exact_history_distribution(model: PomdpModel, strategy: Strategy, depth):
    """Exact joint law of (history of length ``depth``, current state).

    Returns a map ``(History, state_index) -> probability`` containing the
    positive-probability entries; the total mass is 1 up to roundoff.  The
    action law at each history is ``strategy.act``.  ``BudgetExceeded`` is
    raised up front when the worst case exceeds :data:`ENUMERATION_BUDGET`.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    enum = CursorEnumeration(model, "history expansion")
    worst = model.n_states * (model.n_actions * model.n_signals) ** (depth - 1)
    if worst > enum.budget:
        raise BudgetExceeded(worst, enum.budget, f"history depth {depth}")
    frontier = enum.open(model.init, lambda s: ReplayCursor(strategy, History(s)))
    for _ in range(depth - 1):
        grown = {}
        for i, mass, alpha in enum.visit(frontier):
            enum.step(grown, i, mass, alpha, model.transition)
        frontier, = enum.keep(frontier, grown)

    out = {}
    histories = list(enum.table.ids)
    for i, state_probs in frontier.items():
        hist = histories[i]
        for w in np.nonzero(state_probs > 0.0)[0]:
            out[(hist, int(w))] = float(state_probs[int(w)])
    return out
