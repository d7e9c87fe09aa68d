"""One memo for the tables the program derives from a model or controller.

The store maps a content key (a tag, then the shape and bytes of every
array a table is built from) to a tuple of read-only arrays, least recently
used first.  It is the one store of the program's held tables: a
controller's W_s stack and product kernel and a model's belief-lattice
table all share its lock and its byte bound.
"""

from __future__ import annotations

import threading

#: bytes, keys included, that the held tables take together
MAX_HELD_BYTES = 1 << 25

#: content key -> tuple of read-only arrays, least recently used first
_STORE = {}
_LOCK = threading.Lock()


def recall(tag, arrays, build):
    """The tables ``build()`` returns, a tuple of arrays made read-only, held
    by the content key of ``tag`` and ``arrays``: a hit returns the held
    tuple.  After a miss the least recently used entries go until the held
    entries' :func:`held_bytes` add up to at most ``MAX_HELD_BYTES``; an
    entry larger than the bound is returned but not held.  The build runs
    under the one lock, so concurrent callers build each key once, and a
    build that raises holds nothing.  The lock is not reentrant: a build
    may not call :func:`recall`."""
    key = [tag]
    for array in arrays:
        key.append(array.shape)
        key.append(array.tobytes())
    key = tuple(key)
    with _LOCK:
        value = _STORE.pop(key, None)
        if value is not None:
            _STORE[key] = value
            return value
        value = build()
        for array in value:
            array.flags.writeable = False
        if held_bytes(key, value) > MAX_HELD_BYTES:
            return value
        _STORE[key] = value
        held = sum(held_bytes(k, v) for k, v in _STORE.items())
        while held > MAX_HELD_BYTES:
            oldest = next(iter(_STORE))
            held -= held_bytes(oldest, _STORE.pop(oldest))
        return value


def held_bytes(key, value):
    """Bytes of an entry: its key's ``bytes`` parts and its arrays."""
    return (sum(len(part) for part in key if isinstance(part, bytes))
            + sum(array.nbytes for array in value))
