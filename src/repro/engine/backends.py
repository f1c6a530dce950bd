"""Numeric table backends: the exact/float split as a first-class object.

Every dense computation in the library happens on a *table*: a length
``2^n`` sequence indexed by subset mask.  Historically each call site
branched on an ``exact`` flag (python list of ints/Fractions vs numpy
float64 array), duplicating the butterfly transforms and the comparison
logic across :mod:`repro.core.setfunction`, :mod:`repro.core.transforms`
and :mod:`repro.core.lattice`.  This module centralizes that split:

:class:`ExactBackend`
    Tables are :class:`VecTable` wrappers over numpy ``int64`` arrays;
    butterflies are the same strided adds as the float backend, but
    arithmetic stays exact (``int``, ``fractions.Fraction``): an
    overflow-checked promotion switches ``int64`` storage to an
    object-dtype array (python ints / Fractions, still looped in C by
    numpy's object ufuncs) *before* any add that could leave
    ``int64``, so exactness is never silently lost; non-int values
    (Fractions) route straight to object dtype.  Used when constraints
    must be checked without floating-point tolerance.

:class:`FloatBackend`
    Tables are ``numpy.float64`` arrays; butterflies are numpy strided
    adds -- the fast lossy path.

All expose the same small interface (allocate, copy, scatter, the four
zeta/Moebius butterflies, masked zeroing/comparisons and the per-delta
subset add), so the batched evaluation engine
(:mod:`repro.engine.batch`) and the incremental maintenance loop are
each written once.

This module deliberately imports nothing from :mod:`repro.core`; it is
the bottom layer of the engine and safe to import from anywhere.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Backend",
    "ExactBackend",
    "FloatBackend",
    "VecTable",
    "EXACT",
    "FLOAT",
    "backend_by_name",
    "backend_for_table",
    "iter_subset_masks",
    "subset_indicator",
    "subset_index_array",
    "dense_delta",
    "n_bits_for",
]

Table = Union[np.ndarray, List, "VecTable"]

_INT64_MAX = 2**63 - 1
_INT64_MIN = -(2**63)
#: One butterfly add at most doubles the magnitude; entries beyond this
#: could overflow int64 on the next add, so the table promotes first.
_BUTTERFLY_HEADROOM = 2**62 - 1
#: Tolerances beyond float64's exact-integer range cannot be compared
#: against int64 entries in float space; such calls fall back to exact
#: python comparisons (python compares int to float exactly).
_FLOAT64_EXACT = 2**52


def n_bits_for(length: int) -> int:
    """``n`` such that ``length == 2^n``; raises on non-powers of two."""
    n = length.bit_length() - 1
    if length <= 0 or (1 << n) != length:
        raise ValueError(f"table length {length} is not a power of two")
    return n


def iter_subset_masks(mask: int) -> Iterator[int]:
    """Iterate all ``2^|mask|`` subsets of ``mask`` (descending order)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def subset_indicator(n: int, mask: int) -> np.ndarray:
    """Boolean table ``T[X] = [X subseteq mask]`` over all ``2^n`` masks."""
    masks = np.arange(1 << n, dtype=np.int64)
    return (masks | mask) == mask


#: A single-delta update touches ``2^|mask|`` entries; a full-width
#: masked add touches all ``2^n``.  Below this touched fraction the
#: subset fancy-index path wins even with numpy gather/scatter overhead.
_SPARSE_SUBSET_FRACTION = 8


def dense_delta(n: int, mask: int) -> bool:
    """Whether a delta on ``mask`` should update ``2^n`` tables through
    a full-width masked add (dense) rather than the ``2^|mask|`` subset
    index path -- single-row streaming deltas are usually sparse."""
    return (1 << bin(mask).count("1")) * _SPARSE_SUBSET_FRACTION > (1 << n)


def subset_index_array(mask: int) -> np.ndarray:
    """All ``2^|mask|`` subset masks of ``mask`` as an index array."""
    return np.fromiter(
        iter_subset_masks(mask), dtype=np.intp, count=1 << bin(mask).count("1")
    )


def _fits_int64(value) -> bool:
    """Whether ``value`` is a plain int representable in int64.

    ``bool`` is excluded on purpose (it is an ``int`` subclass but
    tables should store numbers); numpy integer scalars are accepted.
    """
    if type(value) is bool:
        return False
    return (
        isinstance(value, (int, np.integer))
        and _INT64_MIN <= value <= _INT64_MAX
    )


def _exact_array(values: Sequence) -> np.ndarray:
    """A fresh ndarray holding ``values`` exactly: int64 when every
    entry is an in-range int, object dtype otherwise (Fractions, big
    ints).  Never silently truncates -- floats go to object dtype too,
    mirroring what a python list would store."""
    lst = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if all(type(v) is int for v in lst):
        try:
            return np.array(lst, dtype=np.int64)
        except OverflowError:
            pass
    arr = np.empty(len(lst), dtype=object)
    arr[:] = lst
    return arr


class VecTable:
    """A dense exact table: an int64 ndarray until overflow threatens.

    Reads hand back plain python numbers (so ``list(table)`` equals the
    python-number table bit for bit), writes that do not fit int64
    promote the storage to an object-dtype array in place.
    """

    __slots__ = ("arr",)

    def __init__(self, arr: np.ndarray):
        self.arr = arr

    @property
    def is_object(self) -> bool:
        """Whether the table has promoted off the int64 fast path."""
        return self.arr.dtype == object

    def promote(self) -> None:
        """Switch to object dtype (boxes every entry as a python int)."""
        if self.arr.dtype != object:
            self.arr = self.arr.astype(object)

    def __len__(self) -> int:
        return len(self.arr)

    def __getitem__(self, i):
        v = self.arr[i]
        return int(v) if self.arr.dtype != object else v

    def __setitem__(self, i, value) -> None:
        if self.arr.dtype != object:
            if _fits_int64(value):
                self.arr[i] = int(value)
                return
            self.promote()
        self.arr[i] = value

    def __iter__(self):
        # .tolist() yields python ints from int64 storage and the raw
        # objects (ints, Fractions) from object storage
        return iter(self.arr.tolist())

    def tolist(self) -> list:
        """The table as a plain python list (ints stay exact)."""
        return self.arr.tolist()

    def __eq__(self, other) -> bool:
        if isinstance(other, VecTable):
            other = other.tolist()
        if isinstance(other, (list, tuple)):
            return self.tolist() == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "object" if self.is_object else "int64"
        return f"VecTable(len={len(self.arr)}, dtype={kind})"


class Backend:
    """Interface over one storage mode for dense subset-indexed tables."""

    name: str = "abstract"
    exact: bool = False

    # -- allocation ----------------------------------------------------
    def zeros(self, size: int) -> Table:
        """A zero-filled table of ``size`` entries."""
        raise NotImplementedError

    def full(self, size: int, value) -> Table:
        """A table with every entry equal to ``value``."""
        raise NotImplementedError

    def copy(self, values: Sequence) -> Table:
        """A fresh table of this backend's storage mode with ``values``."""
        raise NotImplementedError

    def adopt(self, values: Sequence) -> Table:
        """Take ownership of a table the caller freshly allocated.

        Converts storage mode only when needed -- unlike :meth:`copy`
        it will NOT duplicate a table that is already in this backend's
        format, so only pass tables nobody else holds a reference to.
        """
        raise NotImplementedError

    def scatter(self, size: int, items: Iterable[Tuple[int, object]]) -> Table:
        """A table with ``items`` summed into their mask positions."""
        table = self.zeros(size)
        for mask, value in items:
            table[mask] = table[mask] + value
        return table

    # -- butterflies ---------------------------------------------------
    def superset_zeta_inplace(self, values: Table) -> None:
        """In place: ``values[X] <- sum of values[Y] for Y superseteq X``."""
        raise NotImplementedError

    def superset_mobius_inplace(self, values: Table) -> None:
        """In place: invert :meth:`superset_zeta_inplace` (Moebius)."""
        raise NotImplementedError

    def subset_zeta_inplace(self, values: Table) -> None:
        """In place: ``values[X] <- sum of values[Y] for Y subseteq X``."""
        raise NotImplementedError

    def subset_mobius_inplace(self, values: Table) -> None:
        """In place: invert :meth:`subset_zeta_inplace` (Moebius)."""
        raise NotImplementedError

    # -- maintenance / merge -------------------------------------------
    def add_on_subsets_inplace(
        self, values: Table, mask: int, delta, where=None
    ) -> None:
        """In place: ``values[X] += delta`` for every ``X subseteq mask``.

        The single-delta maintenance primitive (support and unblocked
        differential tables are density sums over masks above each
        position).  ``where`` may pass a precomputed
        :func:`subset_indicator` (bool mask, dense deltas) or
        :func:`subset_index_array` (index array, sparse deltas) so
        callers can share it across several tables.
        """
        raise NotImplementedError

    # -- masked elementwise helpers ------------------------------------
    def zero_where(self, values: Table, where: np.ndarray) -> None:
        """In place: ``values[i] <- 0`` wherever ``where[i]`` is true."""
        raise NotImplementedError

    def any_nonzero_where(
        self, values: Table, where: np.ndarray, tol: float
    ) -> bool:
        """Whether some ``|values[i]| > tol`` with ``where[i]`` true."""
        raise NotImplementedError

    def all_nonnegative(self, values: Table, tol: float) -> bool:
        """Whether every entry is ``>= -tol`` (density admissibility)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class ExactBackend(Backend):
    """:class:`VecTable` storage: exact arithmetic, numpy strided transforms.

    The butterflies run as the same strided slice adds as
    :class:`FloatBackend`; before each level a headroom check promotes
    int64 storage to object dtype if any entry's magnitude could leave
    int64 after one add, so results equal python-number arithmetic bit
    for bit on every input (property-tested against the ``O(4^n)``
    oracles).  Object-dtype arrays keep the slice-add shape -- numpy
    loops ``PyNumber_Add`` in C, which still beats a pure-python loop.
    """

    name = "exact"
    exact = True

    def zeros(self, size: int) -> VecTable:
        return VecTable(np.zeros(size, dtype=np.int64))

    def full(self, size: int, value) -> VecTable:
        if _fits_int64(value):
            return VecTable(np.full(size, int(value), dtype=np.int64))
        arr = np.empty(size, dtype=object)
        arr[:] = [value] * size
        return VecTable(arr)

    def copy(self, values: Sequence) -> VecTable:
        if isinstance(values, VecTable):
            return VecTable(values.arr.copy())
        if isinstance(values, np.ndarray) and values.dtype == np.int64:
            return VecTable(values.copy())
        return VecTable(_exact_array(values))

    def adopt(self, values: Sequence) -> VecTable:
        if isinstance(values, VecTable):
            return values
        if isinstance(values, np.ndarray) and values.dtype in (
            np.dtype(np.int64),
            np.dtype(object),
        ):
            return VecTable(values)
        return VecTable(_exact_array(values))

    # -- butterflies ---------------------------------------------------
    def _headroom(self, table: VecTable) -> None:
        """Promote before a butterfly level that could overflow int64."""
        arr = table.arr
        if arr.dtype == object:
            return
        if (
            int(arr.max()) > _BUTTERFLY_HEADROOM
            or int(arr.min()) < -_BUTTERFLY_HEADROOM
        ):
            table.promote()

    def superset_zeta_inplace(self, values: VecTable) -> None:
        n = n_bits_for(len(values))
        for i in range(n):
            self._headroom(values)
            view = values.arr.reshape(-1, 2, 1 << i)
            view[:, 0, :] += view[:, 1, :]

    def superset_mobius_inplace(self, values: VecTable) -> None:
        n = n_bits_for(len(values))
        for i in range(n):
            self._headroom(values)
            view = values.arr.reshape(-1, 2, 1 << i)
            view[:, 0, :] -= view[:, 1, :]

    def subset_zeta_inplace(self, values: VecTable) -> None:
        n = n_bits_for(len(values))
        for i in range(n):
            self._headroom(values)
            view = values.arr.reshape(-1, 2, 1 << i)
            view[:, 1, :] += view[:, 0, :]

    def subset_mobius_inplace(self, values: VecTable) -> None:
        n = n_bits_for(len(values))
        for i in range(n):
            self._headroom(values)
            view = values.arr.reshape(-1, 2, 1 << i)
            view[:, 1, :] -= view[:, 0, :]

    # -- maintenance / merge -------------------------------------------
    def add_on_subsets_inplace(
        self, values: VecTable, mask: int, delta, where=None
    ) -> None:
        arr = values.arr
        if where is None:
            n = n_bits_for(len(arr))
            where = (
                subset_indicator(n, mask)
                if dense_delta(n, mask)
                else subset_index_array(mask)
            )
        if where.dtype != np.bool_:
            # sparse delta: gather/scatter the 2^|mask| touched entries
            # instead of sweeping all 2^n (the streaming hot path)
            idx = where
            if arr.dtype != object:
                if _fits_int64(delta):
                    d = int(delta)
                    touched = arr[idx]
                    shifted = touched + d
                    # an int64 add wrapped iff some entry moved against
                    # the delta's sign: one compare, no min/max passes
                    wrapped = shifted < touched if d > 0 else shifted > touched
                    if not wrapped.any():
                        arr[idx] = shifted
                        return
                values.promote()
                arr = values.arr
            arr[idx] += delta
            return
        if arr.dtype != object:
            if _fits_int64(delta):
                delta = int(delta)
                # exact python-int bounds: the add stays in int64 iff
                # every shifted entry does
                if (
                    int(arr.min()) + delta >= _INT64_MIN
                    and int(arr.max()) + delta <= _INT64_MAX
                ):
                    np.add(arr, delta, out=arr, where=where)
                    return
            values.promote()
            arr = values.arr
        # object dtype: the 2^|mask| subset walk beats touching all 2^n
        for sub in iter_subset_masks(mask):
            arr[sub] = arr[sub] + delta

    # -- masked elementwise helpers ------------------------------------
    def _abs_gt_tol(self, arr: np.ndarray, tol: float) -> np.ndarray:
        """Boolean mask ``|v| > tol`` -- exact.  ``np.abs`` is avoided
        (it wraps on INT64_MIN); huge tolerances leave float64's exact
        integer range and fall back to python comparisons."""
        if arr.dtype == object or tol >= _FLOAT64_EXACT:
            return np.fromiter(
                (abs(v) > tol for v in arr.tolist()), dtype=bool,
                count=len(arr),
            )
        if tol == 0:
            return arr != 0
        return (arr > tol) | (arr < -tol)

    def zero_where(self, values: VecTable, where: np.ndarray) -> None:
        values.arr[where] = 0

    def any_nonzero_where(
        self, values: VecTable, where: np.ndarray, tol: float
    ) -> bool:
        return bool(np.any(self._abs_gt_tol(values.arr, tol) & where))

    def all_nonnegative(self, values: VecTable, tol: float) -> bool:
        arr = values.arr
        if arr.dtype == object or tol >= _FLOAT64_EXACT:
            if tol == 0:
                return all(v >= 0 for v in arr.tolist())
            return all(v >= -tol for v in arr.tolist())
        return bool(np.all(arr >= (0 if tol == 0 else -tol)))


class FloatBackend(Backend):
    """``numpy.float64`` tables with numpy strided butterflies."""

    name = "float"
    exact = False

    def zeros(self, size: int) -> np.ndarray:
        return np.zeros(size)

    def full(self, size: int, value) -> np.ndarray:
        return np.full(size, float(value))

    def copy(self, values: Sequence) -> np.ndarray:
        if isinstance(values, VecTable):
            values = values.arr
        return np.asarray(values, dtype=np.float64).copy()

    def adopt(self, values: Sequence) -> np.ndarray:
        if isinstance(values, VecTable):
            values = values.arr
        return np.asarray(values, dtype=np.float64)

    def scatter(self, size: int, items) -> np.ndarray:
        table = np.zeros(size)
        for mask, value in items:
            table[mask] += value
        return table

    def superset_zeta_inplace(self, values: Table) -> None:
        n = n_bits_for(len(values))
        for i in range(n):
            view = values.reshape(-1, 2, 1 << i)
            view[:, 0, :] += view[:, 1, :]

    def superset_mobius_inplace(self, values: Table) -> None:
        n = n_bits_for(len(values))
        for i in range(n):
            view = values.reshape(-1, 2, 1 << i)
            view[:, 0, :] -= view[:, 1, :]

    def subset_zeta_inplace(self, values: Table) -> None:
        n = n_bits_for(len(values))
        for i in range(n):
            view = values.reshape(-1, 2, 1 << i)
            view[:, 1, :] += view[:, 0, :]

    def subset_mobius_inplace(self, values: Table) -> None:
        n = n_bits_for(len(values))
        for i in range(n):
            view = values.reshape(-1, 2, 1 << i)
            view[:, 1, :] -= view[:, 0, :]

    def add_on_subsets_inplace(
        self, values: np.ndarray, mask: int, delta, where=None
    ) -> None:
        if where is None:
            n = n_bits_for(len(values))
            where = (
                subset_indicator(n, mask)
                if dense_delta(n, mask)
                else subset_index_array(mask)
            )
        if where.dtype != np.bool_:
            values[where] += float(delta)
            return
        np.add(values, float(delta), out=values, where=where)

    def zero_where(self, values: Table, where: np.ndarray) -> None:
        values[where] = 0.0

    def any_nonzero_where(
        self, values: Table, where: np.ndarray, tol: float
    ) -> bool:
        return bool(np.any(np.abs(values[where]) > tol))

    def all_nonnegative(self, values: Table, tol: float) -> bool:
        return bool(np.all(np.asarray(values) >= -tol))


#: Shared singletons -- backends are stateless.
EXACT = ExactBackend()
FLOAT = FloatBackend()

_BY_NAME = {"exact": EXACT, "float": FLOAT}


def backend_by_name(name: str) -> Backend:
    """Look up ``"exact"`` / ``"float"``."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {sorted(_BY_NAME)}"
        ) from None


def backend_for_table(values: Sequence) -> Backend:
    """The backend that owns a given table's storage mode: float64
    ndarrays are :data:`FLOAT`'s, everything else (a :class:`VecTable`
    or a plain list of exact numbers) is :data:`EXACT`'s."""
    return FLOAT if isinstance(values, np.ndarray) else EXACT
