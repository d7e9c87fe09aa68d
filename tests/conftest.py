import pytest

from stagepomdp import memo
from stagepomdp.strategies import Strategy


@pytest.fixture(autouse=True)
def empty_memos(monkeypatch):
    """An empty memo store for the held W_s stacks, product kernels and
    lattice tables, so that no test reads what another left held."""
    monkeypatch.setattr(memo, "_STORE", {})


class Opaque(Strategy):
    """Hides the concrete strategy class, so only its cursors and ``act``
    are seen: the wrapper has no controller form and takes the general
    routes (enumeration, cursor tables)."""

    def __init__(self, inner):
        self.inner = inner
        self.n_actions = inner.n_actions

    def start(self, first_signal):
        return self.inner.start(first_signal)

    def act(self, history):
        return self.inner.act(history)


def largest_diffs(got, want, field="", out=None):
    """Largest |got - want| per field of two JSON-like values, for the message
    of a failed golden comparison; a field whose shape, keys or non-numeric
    entries differ reads inf."""
    out = {} if out is None else out
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        for key in want:
            largest_diffs(got[key], want[key], f"{field}.{key}" if field else key, out)
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for g, w in zip(got, want):
            largest_diffs(g, w, field, out)
    elif type(want) in (int, float) and type(got) in (int, float):
        out[field] = max(out.get(field, 0.0), abs(got - want))
    elif got != want:
        out[field] = float("inf")
    return out


def golden_mismatch(got, want, keys):
    """Message of a failed comparison of two lists of golden entries: the
    entries that differ, each named by its ``keys`` values (or the two
    lengths when they differ), then ``largest_diffs``'s largest change per
    field."""
    if len(got) != len(want):
        moved = f"{len(got)} entries against {len(want)}"
    else:
        moved = ", ".join(":".join(str(w[key]) for key in keys)
                          for g, w in zip(got, want) if g != w)
    return f"moved: {moved}; largest_diffs: {largest_diffs(got, want)}"
