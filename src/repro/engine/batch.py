"""Batched whole-table evaluation of lattices and differentials.

The scalar evaluation of ``D_f^Y(X)`` from Definition 2.1 costs
``O(2^|Y|)`` evaluations of ``f`` *per subset* ``X``; evaluating the
whole differential that way costs ``O(4^n)`` and worse.  Proposition 2.9
rewrites the differential as a density sum over the lattice
decomposition::

    D_f^Y(X) = sum_{U in L(X, Y)}  d_f(U)
             = sum_{X subseteq U}  d_f(U) * [no member of Y inside U]

which factors into three whole-table passes:

1. the density table ``d_f`` (one superset Moebius butterfly);
2. a *blocked* indicator ``B[U] = [some member of Y is a subset of U]``;
3. zero the density at blocked masks and run one superset zeta
   butterfly -- the result table holds ``D_f^Y(X)`` for **every** ``X``.

Lattice tables are built from the lattice's own shape rather than by
zeta sweeps.  A ``2^n`` table is an ``n``-axis cube, one axis of length
2 per element, so the supersets of a mask ``M`` are the *subcube* with
``M``'s axes fixed at 1 (:func:`subcube`, a strided view of
``2^(n-|M|)`` entries).  ``[M subseteq U]`` is one strided write into
that subcube, ``B`` is one write per member, and ``L(X, Y)`` is the
subcube of ``X`` minus the sub-subcubes of ``X | Y_j`` -- ``O(2^(n-|X|))``
work per member, with no ``O(n * 2^n)`` pass.  :func:`restrict` and
:func:`expand` renumber masks onto (and back from) the bits outside
``X``, so a caller can work on the subcube as a table of its own; the
renumbering keeps bit order, so the largest local index is the largest
mask.  No view fixes a bit below :data:`LOW_BITS`: those bits are a
pattern within whole contiguous runs (:func:`fill`), or stay inside a
local table, because numpy sweeps short strided runs slowly.

Structural (boolean) tables are always numpy -- they encode subset
combinatorics, not function values, so exactness is not at stake.
Numeric tables go through the caller's :class:`~repro.engine.backends.
Backend`, preserving exact arithmetic end to end when requested.

This module is deliberately duck-typed over the core objects (a family
is anything with ``.members``; a function anything with ``.ground``,
``.table()`` / ``.density_items()``): it imports nothing from
:mod:`repro.core`, so core modules may import it freely.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.backends import (
    Backend,
    Table,
    backend_by_name,
    backend_for_table,
    EXACT,
    FLOAT,
)

__all__ = [
    "LOW_BITS",
    "cube",
    "subcube",
    "view_mask",
    "fill",
    "restrict",
    "expand",
    "superset_indicator",
    "blocked_table",
    "lattice_table",
    "local_lattice",
    "joint_lattice_table",
    "density_table_of",
    "differential_table",
    "batched_differential",
]


#: Bits below this one are never fixed in a strided view.  numpy runs an
#: elementwise op over a strided view in inner loops as long as the
#: view's lowest contiguous run, and runs of a few entries cost over 10x
#: more per entry than a contiguous sweep.  So the low ``LOW_BITS`` bits
#: of a mask are handled as a pattern over whole runs (:func:`fill`) or
#: kept inside a local table (:func:`local_lattice`), and every view is
#: swept in contiguous runs of at least ``2^LOW_BITS`` entries.
LOW_BITS = 6


@lru_cache(maxsize=1 << 14)
def cube(n: int, mask: int) -> Tuple[Tuple[int, ...], tuple]:
    """``(shape, index)`` viewing a flat ``2^n`` table as the subcube
    of supersets of ``mask``.

    Axes run from the top bit down (C order).  Each maximal run of
    consecutive bits that are all in ``mask`` or all out of it is one
    axis of length ``2^run``: an in-run is fixed at its all-ones index,
    an out-run is kept whole, so the cube has at most ``2|mask| + 1``
    axes.  The trailing ``Ellipsis`` keeps the result a view even when
    every axis is fixed (``mask`` is the whole ground): a plain integer
    index would return a 0-d *copy*, and writes to it would be lost.
    """
    shape: List[int] = []
    index: list = []
    bit = n - 1
    while bit >= 0:
        fixed = mask >> bit & 1
        run = 0
        while bit >= 0 and (mask >> bit & 1) == fixed:
            run += 1
            bit -= 1
        shape.append(1 << run)
        index.append((1 << run) - 1 if fixed else slice(None))
    index.append(Ellipsis)
    return tuple(shape), tuple(index)


def subcube(table: np.ndarray, n: int, mask: int) -> np.ndarray:
    """The writable view of ``table``'s entries at supersets of ``mask``.

    ``table`` must be a contiguous flat ``2^n`` array.  The view has
    ``2^(n-|mask|)`` entries, and its flat C-order index is
    ``U``'s bits outside ``mask`` read in order (see :func:`expand`).
    """
    shape, index = cube(n, mask)
    return table.reshape(shape)[index]


def view_mask(mask: int) -> int:
    """The bits of ``mask`` a view may fix: those at or above
    :data:`LOW_BITS`."""
    return mask >> LOW_BITS << LOW_BITS


@lru_cache(maxsize=1 << 10)
def _columns(t: int, low: int, value: bool) -> np.ndarray:
    """Read-only ``[low subseteq c]`` over ``2^t`` columns (its
    complement when ``value`` is ``False``)."""
    pattern = ((np.arange(1 << t) & low) == low) == value
    pattern.setflags(write=False)
    return pattern


def fill(table: np.ndarray, n: int, mask: int, value: bool) -> None:
    """Set ``table[U] = value`` at every superset ``U`` of ``mask``.

    The flat ``2^n`` table is taken as rows of ``2^t`` columns, ``t =
    min(LOW_BITS, n)``: the high bits of ``mask`` pick a strided subcube
    of whole rows, its low bits a fixed pattern of columns within each.
    """
    t = min(LOW_BITS, n)
    shape, index = cube(n - t, mask >> t)
    rows = table.reshape(shape + (1 << t,))[index]
    low = mask & ((1 << t) - 1)
    if low == 0:
        rows[...] = value
    elif value:
        rows |= _columns(t, low, True)
    else:
        rows &= _columns(t, low, False)


@lru_cache(maxsize=1 << 14)
def restrict(n: int, lhs: int, members: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    """``(k, local)``: ``members`` renumbered onto the ``k = n - |lhs|``
    bits outside ``lhs``, the index space of ``subcube(table, n, lhs)``.

    Bits of a member inside ``lhs`` are dropped: on the subcube they
    are already set, so ``Y_j subseteq U`` only asks about the rest.
    """
    high_first = [bit for bit in range(n - 1, -1, -1) if lhs >> bit & 1]
    local = []
    for m in members:
        for bit in high_first:  # squeeze each bit of lhs out, top down
            m = (m & ((1 << bit) - 1)) | (m >> (bit + 1) << bit)
        local.append(m)
    return n - len(high_first), tuple(local)


def expand(index: int, n: int, lhs: int) -> int:
    """The mask at flat ``index`` of ``subcube(table, n, lhs)``: the
    inverse of :func:`restrict`.  Monotone in ``index``."""
    for bit in range(n):  # open a gap at each bit of lhs, bottom up
        if lhs >> bit & 1:
            index = (index & ((1 << bit) - 1)) | (index >> bit << (bit + 1))
    return index | lhs


def superset_indicator(n: int, lhs_mask: int) -> np.ndarray:
    """Boolean table ``T[U] = [lhs subseteq U]`` over all ``2^n`` masks:
    one write of the subcube above ``lhs``."""
    table = np.zeros(1 << n, dtype=bool)
    fill(table, n, lhs_mask, True)
    return table


def blocked_table(n: int, members: Sequence[int]) -> np.ndarray:
    """Boolean table ``B[U] = [some member is a subset of U]``: the
    union of the members' superset subcubes, one write each."""
    table = np.zeros(1 << n, dtype=bool)
    for m in members:
        fill(table, n, m, True)
    return table


def lattice_table(n: int, lhs_mask: int, members: Sequence[int]) -> np.ndarray:
    """Boolean table of ``L(X, Y)``: supersets of ``X`` blocked by no
    member -- the subcube of ``X`` minus the sub-subcubes of ``X | Y_j``."""
    table = superset_indicator(n, lhs_mask)
    for m in members:
        fill(table, n, lhs_mask | m, False)
    return table


def local_lattice(n: int, lhs_mask: int, members: Sequence[int]) -> np.ndarray:
    """``L(X, Y)`` on the subcube of ``view_mask(X)``: a flat table in
    :func:`subcube`'s index order -- ``lattice_table`` without the
    entries that lack a high bit of ``X`` and are ``False`` anyway."""
    fixed = view_mask(lhs_mask)
    k, (lhs_local, *local) = restrict(n, fixed, (lhs_mask, *members))
    return lattice_table(k, lhs_local, local)


def joint_lattice_table(
    n: int, constraints: Iterable[Tuple[int, Sequence[int]]]
) -> np.ndarray:
    """Boolean table of ``L(C)`` for ``constraints`` given as
    ``(lhs_mask, members)`` pairs -- the union of the per-constraint
    lattice decompositions (Theorem 3.5's containment target), each
    OR-ed straight into its subcube."""
    out = np.zeros(1 << n, dtype=bool)
    for lhs_mask, members in constraints:
        view = subcube(out, n, view_mask(lhs_mask))
        view |= local_lattice(n, lhs_mask, members).reshape(view.shape)
    return out


def density_table_of(f, backend: Optional[Backend] = None) -> Table:
    """A fresh density table ``d_f`` in ``backend`` storage.

    Dense functions hand over their (cached) density table; sparse
    density functions scatter their nonzero entries -- the density-sum
    evaluation path of Proposition 2.9.
    """
    if backend is None:
        backend = EXACT if getattr(f, "exact", True) else FLOAT
    size = 1 << f.ground.size
    if hasattr(f, "density") and hasattr(f, "table"):
        # .table() already hands back a fresh copy; adopt avoids a second
        return backend.adopt(f.density().table())
    return backend.scatter(size, f.density_items())


def differential_table(
    density: Table, members: Sequence[int], backend: Optional[Backend] = None
) -> Table:
    """One-pass evaluation of ``D_f^Y(X)`` for all ``X`` from ``d_f``.

    Consumes ``density`` (modified in place when owned by the caller --
    pass a fresh copy).  ``O(n * 2^n)`` total, vs ``O(4^n * 2^|Y|)`` for
    the scalar inclusion-exclusion loop.
    """
    if backend is None:
        backend = backend_for_table(density)
    n = len(density).bit_length() - 1
    backend.zero_where(density, blocked_table(n, members))
    backend.superset_zeta_inplace(density)
    return density


def batched_differential(f, family, backend: Optional[Backend] = None) -> Table:
    """``D_f^Y`` as a whole table, for any dense-capable set function."""
    if backend is None:
        backend = EXACT if getattr(f, "exact", True) else FLOAT
    density = density_table_of(f, backend)
    return differential_table(density, family.members, backend)
