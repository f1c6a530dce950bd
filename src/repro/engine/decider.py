"""Memoized batched implication deciding (Theorem 3.5 at table speed).

Theorem 3.5 reduces ``C |= X -> Y`` to the containment
``L(X, Y) subseteq L(C)``.  The scalar decider walks ``L(X, Y)`` in
python, testing each mask against every constraint of ``C`` -- ``O(2^n)``
interpreter iterations per query.  Here both sides become boolean numpy
tables (:func:`repro.engine.batch.lattice_table`) and containment is one
whole-table ``any(target & ~covered)``.

Workloads like the E1/E5 benchmarks and ``cli implies`` / ``mine`` ask
many queries against the same ``C`` (or against sets sharing most
constraints), so the tables are memoized in an LRU keyed by structural
*fingerprints*:

* per-constraint lattice tables keyed by ``(ground, lhs, members)`` --
  shared between any constraint sets containing an equal constraint;
* joint ``L(C)`` tables (the atomic closure: ``atom(U) in C*`` iff
  ``U in L(C)``, Remark 4.5) keyed by the set fingerprint;
* family *blocked* tables keyed by ``(ground, members)`` -- reused by
  the batched differential evaluation and density-semantics
  satisfaction checks.

Fingerprints hash by value, not identity, so two equal constraint sets
built independently (as the CLI does per invocation) hit the same entry.

Duck-typed over the core objects (needs ``.ground``, ``.lhs``,
``.family.members``); imports nothing from :mod:`repro.core`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, Tuple

import numpy as np

from repro.engine import batch

__all__ = [
    "ImplicationCache",
    "shared_cache",
    "constraint_fingerprint",
    "constraint_set_fingerprint",
    "decide_batched",
    "find_uncovered_batched",
]


def constraint_fingerprint(constraint) -> Tuple:
    """Value-identity key for one constraint."""
    return (constraint.ground, constraint.lhs, constraint.family.members)


def constraint_set_fingerprint(cset) -> Tuple:
    """Value-identity key for a constraint set (order-insensitive)."""
    return (
        cset.ground,
        frozenset((c.lhs, c.family.members) for c in cset),
    )


class _Lru:
    """A small LRU dict bounded by entry count *and* total bytes.

    The byte bound matters near the dense limit: one boolean table at
    ``|S| = 22`` is 4 MB, so counting entries alone would let the
    process-wide cache grow into gigabytes on long runs.
    """

    __slots__ = ("_data", "_maxsize", "_max_bytes", "_bytes", "hits", "misses")

    def __init__(self, maxsize: int, max_bytes: int):
        self._data: OrderedDict = OrderedDict()
        self._maxsize = maxsize
        self._max_bytes = max_bytes
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable):
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        if key in self._data:
            self._bytes -= getattr(self._data[key], "nbytes", 0)
        self._data[key] = value
        self._data.move_to_end(key)
        self._bytes += getattr(value, "nbytes", 0)
        while self._data and (
            len(self._data) > self._maxsize or self._bytes > self._max_bytes
        ):
            _, evicted = self._data.popitem(last=False)
            self._bytes -= getattr(evicted, "nbytes", 0)

    def clear(self) -> None:
        """Drop every memoized answer and reset the hit/miss counters."""
        self._data.clear()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)


class ImplicationCache:
    """Fingerprint-keyed store of lattice / blocked / closure tables."""

    #: Per-table-kind byte budget (64 MB each, 192 MB total worst case).
    DEFAULT_MAX_BYTES = 64 << 20

    def __init__(self, maxsize: int = 512, max_bytes: int = DEFAULT_MAX_BYTES):
        self._constraint_tables = _Lru(maxsize, max_bytes)
        self._set_tables = _Lru(maxsize, max_bytes)
        self._blocked_tables = _Lru(maxsize, max_bytes)

    # -- per-family ----------------------------------------------------
    def blocked_table(self, ground, members: Tuple[int, ...]) -> np.ndarray:
        """Memoized ``blocked_table`` for one witness family (by masks)."""
        key = (ground, tuple(members))
        table = self._blocked_tables.get(key)
        if table is None:
            table = batch.blocked_table(ground.size, members)
            table.setflags(write=False)  # shared across callers
            self._blocked_tables.put(key, table)
        return table

    # -- per-constraint ------------------------------------------------
    def lattice_table(self, constraint) -> np.ndarray:
        """Memoized ``L(X, Y)`` indicator for one constraint."""
        key = constraint_fingerprint(constraint)
        table = self._constraint_tables.get(key)
        if table is None:
            ground = constraint.ground
            blocked = self.blocked_table(ground, constraint.family.members)
            table = batch.superset_indicator(ground.size, constraint.lhs)
            table &= ~blocked
            table.setflags(write=False)
            self._constraint_tables.put(key, table)
        return table

    # -- per-set: the atomic closure L(C) ------------------------------
    def joint_lattice_table(self, cset) -> np.ndarray:
        """Memoized ``L(C)`` union indicator for a whole constraint set."""
        key = constraint_set_fingerprint(cset)
        table = self._set_tables.get(key)
        if table is None:
            table = np.zeros(1 << cset.ground.size, dtype=bool)
            for c in cset:
                table |= self.lattice_table(c)
            table.setflags(write=False)
            self._set_tables.put(key, table)
        return table

    # -- bookkeeping ---------------------------------------------------
    def clear(self) -> None:
        """Drop every memoized lattice table."""
        self._constraint_tables.clear()
        self._set_tables.clear()
        self._blocked_tables.clear()

    def stats(self) -> dict:
        """Table counts per memo family, for diagnostics and tests."""
        return {
            "constraint_tables": len(self._constraint_tables),
            "set_tables": len(self._set_tables),
            "blocked_tables": len(self._blocked_tables),
            "hits": (
                self._constraint_tables.hits
                + self._set_tables.hits
                + self._blocked_tables.hits
            ),
            "misses": (
                self._constraint_tables.misses
                + self._set_tables.misses
                + self._blocked_tables.misses
            ),
        }


#: Process-wide cache shared by default; CLI invocations and repeated
#: ``|=`` queries against equal constraint sets all land here.
_SHARED = ImplicationCache()


def shared_cache() -> ImplicationCache:
    """The process-wide cache behind :func:`default_context`."""
    return _SHARED


def decide_batched(
    cset, target, cache: Optional[ImplicationCache] = None
) -> bool:
    """``C |= target`` via whole-table containment."""
    return find_uncovered_batched(cset, target, cache) is None


def find_uncovered_batched(
    cset, target, cache: Optional[ImplicationCache] = None
) -> Optional[int]:
    """Some ``U in L(target) - L(C)`` as a mask, or ``None``.

    Matches the scalar :func:`repro.core.implication.find_uncovered`,
    whose superset enumeration walks ``L(target)`` in *descending* mask
    order -- so the largest uncovered mask is returned.
    """
    cache = cache or _SHARED
    target_table = cache.lattice_table(target)
    covered = cache.joint_lattice_table(cset)
    uncovered = np.flatnonzero(target_table & ~covered)
    return int(uncovered[-1]) if uncovered.size else None
