"""Seeded inputs: small POMDPs, controllers, sequences, tables and the opaque wrapper.

Every generator takes a numpy Generator made from the workload seed, so
the same seed gives the same inputs.  The strategies come with the plain
arrays the oracles need, so the oracles never read the program's own
strategy objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from stagepomdp import model as sp_model
from stagepomdp import strategies as sp_strategies


def dense_model(rng, n_states, n_signals, n_actions=2, layout_rng=None):
    """Random POMDP with every transition positive and an onto signal map.

    The signal map comes from ``layout_rng`` when it is given, the numbers
    always from ``rng``.
    """
    layout_rng = rng if layout_rng is None else layout_rng
    raw = rng.uniform(0.05, 1.0, size=(n_states, n_actions, n_states))
    transition = raw / raw.sum(axis=2, keepdims=True)
    signal_map = np.concatenate([np.arange(n_signals),
                                 layout_rng.integers(0, n_signals, n_states - n_signals)])
    layout_rng.shuffle(signal_map)
    payoff = np.round(rng.uniform(0.0, 1.0, size=(n_states, n_actions)), 3)
    init = rng.uniform(0.1, 1.0, size=n_states)
    return sp_model.make_model(
        states=[f"w{i}" for i in range(n_states)],
        actions=[f"a{i}" for i in range(n_actions)],
        signals=[f"s{i}" for i in range(n_signals)],
        signal_map=signal_map,
        payoff=payoff,
        transition=transition,
        init=init / init.sum(),
    )


@dataclass
class Source:
    """A strategy under test plus the arrays its oracle value is computed from.

    ``kind`` is 'sequence', 'controller', 'table' or 'opaque'.  Controllers,
    sequences and opaque wrappers carry ``rule``/``update``/``init_memory``;
    tables carry ``table``/``default``/``depth``.
    """

    kind: str
    strategy: object
    rule: np.ndarray | None = None
    update: np.ndarray | None = None
    init_memory: np.ndarray | None = None
    table: dict | None = None
    default: np.ndarray | None = None
    depth: int = 0
    spec: str = ""


def mixed_action(rng, n_actions):
    """A mixed action with every weight at least 1/(9 n_actions + 1)."""
    weights = rng.integers(1, 10, n_actions).astype(np.float64)
    return weights / weights.sum()


def sequence_source(model, picks):
    """Cyclic pure-action sequence; ``picks`` are action indices.

    The pattern is fixed rather than drawn, so the size of the sequence's
    filter machine, and the memory it takes, does not depend on the seed.
    """
    n_a = model.n_actions
    period = len(picks)
    actions = [np.eye(n_a)[a] for a in picks]
    strategy = sp_strategies.SequenceStrategy.pure(list(picks), n_a)
    rule = np.array(actions)
    update = np.zeros((period, n_a, model.n_signals, period))
    for q in range(period):
        update[q, :, :, (q + 1) % period] = 1.0
    spec = "seq:" + ",".join(model.action_names[a] for a in picks)
    return Source("sequence", strategy, rule, update,
                  np.zeros(model.n_signals, dtype=np.int64), spec=spec)


def controller_source(rng, model, n_memory, layout_rng=None):
    """Mixed rules with deterministic memory updates.

    A deterministic update keeps the controller's memory posterior a point
    mass along every history, so enumeration through an opaque wrapper
    stays polynomial while the mimic's own filter stays mixed.  The memory
    updates and initial memories come from ``layout_rng`` when it is given:
    they set how many cursors an enumeration visits.
    """
    layout_rng = rng if layout_rng is None else layout_rng
    n_a, n_s = model.n_actions, model.n_signals
    rule = np.stack([mixed_action(rng, n_a) for _ in range(n_memory)])
    update = np.zeros((n_memory, n_a, n_s, n_memory))
    nxt = layout_rng.integers(0, n_memory, size=(n_memory, n_a, n_s))
    for q, a, s in itertools.product(range(n_memory), range(n_a), range(n_s)):
        update[q, a, s, nxt[q, a, s]] = 1.0
    init_memory = layout_rng.integers(0, n_memory, n_s)
    strategy = sp_strategies.FiniteStateController(init_memory, rule, update)
    return Source("controller", strategy, rule, update, init_memory)


def table_source(rng, model, depth):
    """Table over every history up to ``depth`` with random mixed actions."""
    n_a, n_s = model.n_actions, model.n_signals
    table = {}
    histories = [(s, ()) for s in range(n_s)]
    for length in range(1, depth + 1):
        for first, steps in histories:
            table[(first, steps)] = mixed_action(rng, n_a)
        if length < depth:
            histories = [(f, st + ((a, s),)) for f, st in histories
                         for a in range(n_a) for s in range(n_s)]
    default = np.eye(n_a)[rng.integers(0, n_a)]
    strategy = sp_strategies.TableStrategy(
        n_a, depth,
        {sp_strategies.History(f, st): w for (f, st), w in table.items()},
        default,
    )
    return Source("table", strategy, table=table, default=default, depth=depth)


class VisitCounter:
    """Counts cursor visits made through opaque wrappers."""

    def __init__(self):
        self.visits = 0


class _OpaqueCursor(sp_strategies.StrategyCursor):
    __slots__ = ("inner", "counter")

    def __init__(self, inner, counter):
        self.inner = inner
        self.counter = counter

    def action_distribution(self):
        self.counter.visits += 1
        return self.inner.action_distribution()

    def step(self, action, signal):
        return _OpaqueCursor(self.inner.step(action, signal), self.counter)

    def merge_key(self):
        return self.inner.merge_key()


class OpaqueStrategy(sp_strategies.Strategy):
    """Hides a strategy's type, so the program takes its general routes.

    The program recognises controllers and sequences by type and gives
    them closed forms; behind this wrapper the same strategy goes through
    truncated enumeration and the per-trajectory cursor path instead.
    """

    def __init__(self, inner, counter):
        self.inner = inner
        self.counter = counter
        self.n_actions = inner.n_actions

    def start(self, first_signal):
        return _OpaqueCursor(self.inner.start(first_signal), self.counter)


def opaque_source(source, counter):
    return Source("opaque", OpaqueStrategy(source.strategy, counter),
                  source.rule, source.update, source.init_memory)


def all_histories(model, max_length):
    """Every base-model history of length 1..max_length, shortest first."""
    out = []
    level = [sp_strategies.History(s) for s in range(model.n_signals)]
    for length in range(1, max_length + 1):
        out.extend(level)
        if length < max_length:
            level = [hist.child(a, s) for hist in level
                     for a in range(model.n_actions)
                     for s in range(model.n_signals)]
    return out


def history_text(model, hist):
    """The CLI's history syntax: alternating signal and action names."""
    names = [model.signal_names[hist.first_signal]]
    for a, s in hist.steps:
        names += [model.action_names[a], model.signal_names[s]]
    return " ".join(names)
