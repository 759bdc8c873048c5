"""Values memoized per live object.

A side table keyed by ``id`` whose entries die with their object (a weak
reference evicts them).  Nothing is stored on the object itself, so
frozen IR objects keep their pickled bytes, and no hash of a deep
frozen structure is taken on lookup.
"""

from __future__ import annotations

import weakref
from typing import Callable, TypeVar

__all__ = ["memoize"]

T = TypeVar("T")


def _evict(table: dict, key: int):
    return lambda _ref: table.pop(key, None)


def memoize(table: dict, obj, build: Callable[[object], T]) -> T:
    """``build(obj)``, computed once per live ``obj`` and held in ``table``.

    Objects that take no weak reference (plain tuples, ints) are built
    afresh on every call.  An entry is served only while its weak
    reference still points at ``obj``, so a recycled ``id`` can never
    return another object's value.  The value must not refer to ``obj``,
    or the entry would keep it alive.
    """
    key = id(obj)
    entry = table.get(key)
    if entry is not None and entry[0]() is obj:
        return entry[1]
    # No lock: threads racing on one object store equal values, and the
    # losing weak reference is dropped without ever calling back.
    value = build(obj)
    try:
        ref = weakref.ref(obj, _evict(table, key))
    except TypeError:
        return value
    table[key] = (ref, value)
    return value
