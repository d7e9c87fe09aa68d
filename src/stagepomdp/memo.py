"""One memo for the tables the program derives from a model or controller.

A store is a plain dict from a content key (the bytes and shapes of every
array the table is built from) to a tuple of read-only arrays, least
recently used first.  Its owner keeps the store, its lock and its bound as
module attributes and passes them on each call, so they are read at call
time.
"""

from __future__ import annotations


def recall(store, lock, key, build, bound, size):
    """``store[key]``, or on a miss ``build()``, a tuple of arrays, made
    read-only and held; after a miss the least recently used entries go until
    the held entries' ``size(key, value)`` add up to at most ``bound``.  An
    entry larger than ``bound`` is returned but not held.  The build runs
    under ``lock``, so concurrent callers build each key once, and a build
    that raises holds nothing."""
    with lock:
        value = store.pop(key, None)
        if value is not None:
            store[key] = value
            return value
        value = build()
        for array in value:
            array.flags.writeable = False
        if size(key, value) > bound:
            return value
        store[key] = value
        held = sum(size(k, v) for k, v in store.items())
        while held > bound:
            oldest = next(iter(store))
            held -= size(oldest, store.pop(oldest))
        return value


def held_bytes(key, value):
    """Bytes of an entry: its key's ``bytes`` parts and its arrays."""
    return (sum(len(part) for part in key if isinstance(part, bytes))
            + sum(array.nbytes for array in value))
