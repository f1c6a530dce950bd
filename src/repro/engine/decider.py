"""Memoized batched implication deciding (Theorem 3.5 at table speed).

Theorem 3.5 reduces ``C |= X -> Y`` to the containment
``L(X, Y) subseteq L(C)``.  The scalar decider walks ``L(X, Y)`` in
python, testing each mask against every constraint of ``C`` -- ``O(2^n)``
interpreter iterations per query.  Here ``L(C)`` is one boolean numpy
table, and containment is read on the target's subcube alone:
``L(X, Y)`` lies inside the supersets of ``X``, a strided view of
``2^(n-|X|)`` entries (:func:`repro.engine.batch.subcube`; bits of ``X``
below :data:`repro.engine.batch.LOW_BITS` stay unfixed in the view, so
it is swept in long contiguous runs).  The query compares that view
with the target's own lattice on the same subcube -- the subcube with
the members' sub-subcubes cleared -- and whatever the target holds that
``L(C)`` lacks is uncovered.

``L(C)`` itself is built the same way: each constraint's lattice is
OR-ed straight into its own subcube of one table
(:func:`repro.engine.batch.joint_lattice_table`), ``O(2^(n-|X|))`` per
member, with no per-constraint full table.

Workloads like the E1/E5 benchmarks and ``cli implies`` / ``mine`` ask
many queries against the same ``C`` (or against sets sharing most
constraints), so the tables are memoized in an LRU keyed by structural
*fingerprints*:

* joint ``L(C)`` tables (the atomic closure: ``atom(U) in C*`` iff
  ``U in L(C)``, Remark 4.5) keyed by the set fingerprint;
* per-constraint ``L(X, Y)`` tables keyed by ``(ground, lhs, members)``:
  on ``X``'s subcube for the target side of a query, and whole for
  density-semantics satisfaction checks;
* family *blocked* tables keyed by ``(ground, members)`` -- reused by
  the batched differential evaluation and the live contexts.

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
    "find_uncovered_batched",
]


def constraint_fingerprint(constraint) -> Tuple:
    """Value-identity key for one constraint."""
    return (constraint.ground, constraint.lhs, constraint.family.members)


def constraint_set_fingerprint(cset) -> Tuple:
    """Value-identity key for a constraint set (order-insensitive).

    A set that caches its key exposes it as ``cset.fingerprint``; the
    table caches read that instead of rebuilding it per query."""
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

    def memo(self, key: Hashable, build, *args) -> np.ndarray:
        """The table under ``key``; on a miss ``build(*args)``, frozen
        read-only (callers share it) and stored."""
        table = self.get(key)
        if table is None:
            table = build(*args)
            table.setflags(write=False)
            self.put(key, table)
        return table

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

    #: Per-table-kind byte budget (64 MB each, 256 MB total worst case).
    DEFAULT_MAX_BYTES = 64 << 20
    #: The memo families, reported by :meth:`stats` as ``<kind>_tables``.
    KINDS = ("constraint", "local", "set", "blocked")

    def __init__(self, maxsize: int = 512, max_bytes: int = DEFAULT_MAX_BYTES):
        self._lrus = {kind: _Lru(maxsize, max_bytes) for kind in self.KINDS}

    # -- per-family ----------------------------------------------------
    def blocked_table(self, ground, members: Tuple[int, ...]) -> np.ndarray:
        """Memoized ``blocked_table`` for one witness family (by masks)."""
        return self._lrus["blocked"].memo(
            (ground, tuple(members)), batch.blocked_table, ground.size, members
        )

    # -- per-constraint ------------------------------------------------
    def lattice_table(self, constraint) -> np.ndarray:
        """Memoized ``L(X, Y)`` indicator for one constraint."""
        return self._lrus["constraint"].memo(
            constraint_fingerprint(constraint), batch.lattice_table,
            constraint.ground.size, constraint.lhs, constraint.family.members,
        )

    def local_lattice_table(self, constraint) -> np.ndarray:
        """Memoized ``L(X, Y)`` on ``X``'s subcube only (the flat table
        of :func:`repro.engine.batch.local_lattice`): the target side of
        every containment test."""
        return self._lrus["local"].memo(
            constraint_fingerprint(constraint), batch.local_lattice,
            constraint.ground.size, constraint.lhs, constraint.family.members,
        )

    # -- per-set: the atomic closure L(C) ------------------------------
    def joint_lattice_table(self, cset) -> np.ndarray:
        """Memoized ``L(C)`` union indicator for a whole constraint set."""
        key = getattr(cset, "fingerprint", None) or constraint_set_fingerprint(cset)
        return self._lrus["set"].memo(key, _build_joint, cset)

    # -- bookkeeping ---------------------------------------------------
    def clear(self) -> None:
        """Drop every memoized lattice table."""
        for lru in self._lrus.values():
            lru.clear()

    def stats(self) -> dict:
        """Table counts per memo family, for diagnostics and tests."""
        out = {f"{kind}_tables": len(lru) for kind, lru in self._lrus.items()}
        out["hits"] = sum(lru.hits for lru in self._lrus.values())
        out["misses"] = sum(lru.misses for lru in self._lrus.values())
        return out


def _build_joint(cset) -> np.ndarray:
    return batch.joint_lattice_table(
        cset.ground.size, ((c.lhs, c.family.members) for c in cset)
    )


#: Process-wide cache shared by default; CLI invocations and repeated
#: ``|=`` queries against equal constraint sets all land here.
_SHARED = ImplicationCache()


def shared_cache() -> ImplicationCache:
    """The process-wide cache behind :func:`default_context`."""
    return _SHARED


def find_uncovered_batched(
    cset, target, cache: Optional[ImplicationCache] = None
) -> Optional[int]:
    """Some ``U in L(target) - L(C)`` as a mask, or ``None``.

    Reads ``L(C)`` on the target's subcube above ``X`` only (above its
    bits from :data:`repro.engine.batch.LOW_BITS` up), against the
    target's own lattice on that subcube, and maps the last index set
    in ``L(target) & ~L(C)`` back to a mask.  That mapping keeps bit order,
    so -- like the scalar :func:`repro.core.implication.find_uncovered`,
    whose superset enumeration walks ``L(target)`` in *descending* mask
    order -- the largest uncovered mask is returned.
    """
    cache = cache or _SHARED
    covered = cache.joint_lattice_table(cset)
    inside = cache.local_lattice_table(target)
    n, fixed = cset.ground.size, batch.view_mask(target.lhs)
    view = batch.subcube(covered, n, fixed)
    uncovered = inside.reshape(view.shape) > view
    if not uncovered.any():
        return None
    # a fresh C-ordered table (a numpy scalar when X = S): flat as a view
    uncovered = uncovered.reshape(-1)
    last = uncovered.size - 1 - int(uncovered[::-1].argmax())
    return batch.expand(last, n, fixed)
