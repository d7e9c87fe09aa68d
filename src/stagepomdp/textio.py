"""Line-oriented text formats for models (.pomdp) and controllers (.fsc).

'#' starts a comment anywhere, and a first token ending in ':' opens a
section. List sections (states, actions, signals, memory) take names inline
and/or on the following lines. Every other section is an entry table: one
line per entry, key names then a value (a number or a name); omitted
numbers are 0. Errors carry the line and column of the offending token.

    states: w1 w2 w3          # a model
    actions: a b
    signals: s1
    signal_map:               # "state signal"; every state has an entry
      w1 s1
    init:                     # "state prob"
      w1 1
    payoff:                   # "state action value"; the section is optional
      w1 a 1
    transition:               # "state action next prob"; every (state,
      w1 a w2 1               # action) has an entry

    memory: q0 q1             # a controller, read against a model's names
    init:                     # "signal memory"; every signal has an entry
      s1 q0
    rule:                     # "memory action prob"; every memory has a row
      q0 a 1
    update:                   # "memory action signal memory prob"; every
      q0 a s1 q1 1            # (memory, action, signal) has a row

Serialization is canonical (declaration order, nonzero entries only, 17
significant digits), so parse(serialize(x)) reproduces x exactly.
"""

from __future__ import annotations

import itertools
import math
import operator
import re

import numpy as np

from .errors import DuplicateEntry, ParseError, UnknownName
from .model import PomdpModel, make_model
from .strategies import FiniteStateController

_LIST_SECTIONS = ("states", "actions", "signals", "memory")
_MODEL_SECTIONS = ("states", "actions", "signals", "signal_map", "init",
                   "payoff", "transition")
_FSC_SECTIONS = ("memory", "init", "rule", "update")

_TOKEN = re.compile(r"\S+")
_NAME = re.compile(r"[A-Za-z0-9_.+-]+\Z")


def _tokenize(text):
    """Yield (line_no, [(column, token), ...]) for non-empty lines."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.start() + 1, m.group()) for m in _TOKEN.finditer(line)]
        if tokens:
            yield line_no, tokens


class _SectionReader:
    def __init__(self, text, known_sections, filename):
        self.filename = filename
        self.sections = {}      # name -> (header_line, [(line, tokens-after-header)])
        self.n_lines = text.count("\n") + 1
        current = None
        for line_no, tokens in _tokenize(text):
            col, first = tokens[0]
            if first.endswith(":"):
                name = first[:-1]
                if name not in known_sections:
                    raise ParseError(line_no, col, f"unknown section {name!r}",
                                     filename)
                if name in self.sections:
                    raise DuplicateEntry(line_no, col, f"section {name!r}",
                                         filename)
                self.sections[name] = (line_no, [])
                current = name
                rest = tokens[1:]
                if rest:
                    if name in _LIST_SECTIONS:
                        self.sections[name][1].append((line_no, rest))
                    else:
                        raise ParseError(
                            line_no, rest[0][0],
                            f"section {name!r} takes entries on their own lines",
                            filename,
                        )
            else:
                if current is None:
                    raise ParseError(line_no, col,
                                     f"expected a section header, got {first!r}",
                                     filename)
                self.sections[current][1].append((line_no, tokens))

    def require(self, name):
        if name not in self.sections:
            raise ParseError(self.n_lines + 1, 1,
                             f"missing required section {name!r}", self.filename)
        return self.sections[name]

    def names(self, section):
        """Read a list section into an ordered tuple of unique names."""
        header_line, rows = self.require(section)
        out = []
        seen = set()
        for line_no, tokens in rows:
            for col, tok in tokens:
                if not _NAME.match(tok):
                    raise ParseError(line_no, col, f"invalid name {tok!r}",
                                     self.filename)
                if tok in seen:
                    raise DuplicateEntry(line_no, col, f"name {tok!r}",
                                         self.filename)
                seen.add(tok)
                out.append(tok)
        if not out:
            raise ParseError(header_line, 1, f"section {section!r} is empty",
                             self.filename)
        return tuple(out)


def _lookup(index, line, col, tok, filename):
    try:
        return index[tok]
    except KeyError:
        raise UnknownName(line, col, tok, filename) from None


def _number(line, col, tok, filename):
    try:
        value = float(tok)
    except ValueError:
        raise ParseError(line, col, f"expected a number, got {tok!r}",
                         filename) from None
    if not math.isfinite(value):
        raise ParseError(line, col, f"number must be finite, got {tok!r}",
                         filename)
    return value


def _index(names):
    return {name: i for i, name in enumerate(names)}


def _entries(reader, section, keys, value, label, required=True):
    """Read an entry table into its header line and {key indices: value}.

    ``keys`` and ``value`` are (word, name index) pairs, the value's index
    None for a number; ``label`` formats a repeated key's names.
    """
    if not required and section not in reader.sections:
        return None, {}
    filename = reader.filename
    header_line, rows = reader.require(section)
    what = "'" + " ".join([word for word, _ in keys] + [value[0]]) + "'"
    n = len(keys)
    out = {}
    for line, tokens in rows:
        if len(tokens) != n + 1:
            raise ParseError(line, tokens[min(n + 1, len(tokens) - 1)][0],
                             f"expected {what}, got {len(tokens)} tokens", filename)
        key = []
        for (_, index), (col, tok) in zip(keys, tokens):
            key.append(_lookup(index, line, col, tok, filename))
        key = tuple(key)
        if key in out:
            raise DuplicateEntry(line, tokens[0][0],
                                 label.format(*[tok for _, tok in tokens[:n]]),
                                 filename)
        col, tok = tokens[n]
        out[key] = (_number(line, col, tok, filename) if value[1] is None
                    else _lookup(value[1], line, col, tok, filename))
    return header_line, out


def _cover(header_line, entries, names, message, filename):
    """Raise at the header for the first name combination no key begins with."""
    rows = {key[:len(names)] for key in entries}
    for idx in itertools.product(*[range(len(n)) for n in names]):
        if idx not in rows:
            raise ParseError(header_line, 1,
                             message.format(*map(operator.getitem, names, idx)),
                             filename)


def _fill(array, entries):
    for key, value in entries.items():
        array[key] = value
    return array


def parse_pomdp(text, filename="<string>", normalize=False) -> PomdpModel:
    """Parse and validate a model; errors carry line and column positions.

    ``normalize=True`` rescales transition rows and the initial distribution
    to unit mass before validation (never done silently).
    """
    reader = _SectionReader(text, _MODEL_SECTIONS, filename)
    states = reader.names("states")
    actions = reader.names("actions")
    signals = reader.names("signals")
    state, action = ("state", _index(states)), ("action", _index(actions))
    n_w, n_a = len(states), len(actions)
    header, entries = _entries(reader, "signal_map", (state,),
                               ("signal", _index(signals)), "signal for state {!r}")
    _cover(header, entries, (states,), "state {!r} has no signal entry", filename)
    signal_map = _fill(np.zeros(n_w, dtype=np.int64), entries)
    init = _fill(np.zeros(n_w), _entries(
        reader, "init", (state,), ("prob", None), "init for state {!r}")[1])
    payoff = _fill(np.zeros((n_w, n_a)), _entries(
        reader, "payoff", (state, action), ("value", None), "payoff ({!r}, {!r})",
        required=False)[1])
    header, entries = _entries(reader, "transition",
                               (state, action, ("next", state[1])),
                               ("prob", None), "transition ({!r}, {!r}, {!r})")
    _cover(header, entries, (states, actions),
           "no transition row for state {!r}, action {!r}", filename)
    transition = _fill(np.zeros((n_w, n_a, n_w)), entries)
    return make_model(states, actions, signals, signal_map, payoff, transition,
                      init, normalize=normalize)


def _lines(array, *names):
    """One indented "names... value" line per nonzero entry, in C order."""
    return [f"  {' '.join(key)} {value:.17g}"
            for key, value in zip(itertools.product(*names), array.ravel().tolist())
            if value != 0.0]


def serialize_pomdp(model: PomdpModel) -> str:
    """Canonical text form; parse(serialize(m)) reproduces m exactly."""
    states, actions = model.state_names, model.action_names
    lines = [
        "states: " + " ".join(states),
        "actions: " + " ".join(actions),
        "signals: " + " ".join(model.signal_names),
        "signal_map:",
        *[f"  {name} {model.signal_names[model.signal_of(w)]}"
          for w, name in enumerate(states)],
        "init:",
        *_lines(model.init, states),
    ]
    if np.any(model.payoff != 0.0):
        lines += ["payoff:", *_lines(model.payoff, states, actions)]
    lines += ["transition:", *_lines(model.transition, states, actions, states)]
    return "\n".join(lines) + "\n"


def parse_controller(text, model: PomdpModel,
                     filename="<string>") -> FiniteStateController:
    """Parse a finite-state controller against a model's action/signal names."""
    reader = _SectionReader(text, _FSC_SECTIONS, filename)
    memory = reader.names("memory")
    actions, signals = model.action_names, model.signal_names
    mem, action = ("memory", _index(memory)), ("action", _index(actions))
    signal = ("signal", _index(signals))
    n_q = len(memory)
    header, entries = _entries(reader, "init", (signal,), mem, "init for signal {!r}")
    _cover(header, entries, (signals,), "signal {!r} has no init entry", filename)
    init_memory = _fill(np.zeros(len(signals), dtype=np.int64), entries)
    header, entries = _entries(reader, "rule", (mem, action), ("prob", None),
                               "rule ({!r}, {!r})")
    _cover(header, entries, (memory,), "no rule row for memory {!r}", filename)
    rule = _fill(np.zeros((n_q, len(actions))), entries)
    header, entries = _entries(reader, "update", (mem, action, signal, mem),
                               ("prob", None), "update ({!r}, {!r}, {!r}, {!r})")
    _cover(header, entries, (memory, actions, signals),
           "no update row for memory {!r}, action {!r}, signal {!r}", filename)
    update = _fill(np.zeros((n_q, len(actions), len(signals), n_q)), entries)
    return FiniteStateController(init_memory, rule, update, memory_names=memory)


def serialize_controller(controller: FiniteStateController,
                         model: PomdpModel) -> str:
    memory, actions = controller.memory_names, model.action_names
    lines = [
        "memory: " + " ".join(memory),
        "init:",
        *[f"  {name} {memory[controller.init_memory[s]]}"
          for s, name in enumerate(model.signal_names)],
        "rule:",
        *_lines(controller.rule, memory, actions),
        "update:",
        *_lines(controller.update, memory, actions, model.signal_names, memory),
    ]
    return "\n".join(lines) + "\n"
