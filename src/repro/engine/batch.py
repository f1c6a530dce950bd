"""Batched whole-table evaluation of lattices and differentials.

The scalar evaluation of ``D_f^Y(X)`` from Definition 2.1 costs
``O(2^|Y|)`` evaluations of ``f`` *per subset* ``X``; evaluating the
whole differential that way costs ``O(4^n)`` and worse.  Proposition 2.9
rewrites the differential as a density sum over the lattice
decomposition::

    D_f^Y(X) = sum_{U in L(X, Y)}  d_f(U)
             = sum_{X subseteq U}  d_f(U) * [no member of Y inside U]

which factors into three whole-table passes, each ``O(n * 2^n)`` or
cheaper:

1. the density table ``d_f`` (one superset Moebius butterfly);
2. a *blocked* indicator ``B[U] = [some member of Y is a subset of U]``
   (a subset-zeta over the family's member indicator);
3. zero the density at blocked masks and run one superset zeta
   butterfly -- the result table holds ``D_f^Y(X)`` for **every** ``X``.

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

from typing import Iterable, Optional, Sequence, Tuple

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
    "superset_indicator",
    "blocked_table",
    "lattice_table",
    "joint_lattice_table",
    "density_table_of",
    "differential_table",
    "batched_differential",
]


def superset_indicator(n: int, lhs_mask: int) -> np.ndarray:
    """Boolean table ``T[U] = [lhs subseteq U]`` over all ``2^n`` masks."""
    masks = np.arange(1 << n, dtype=np.int64)
    return (masks & lhs_mask) == lhs_mask


def blocked_table(n: int, members: Sequence[int]) -> np.ndarray:
    """Boolean table ``B[U] = [some member is a subset of U]``.

    Computed as a subset-zeta of the member indicator: an upward closure
    over the subset order, ``O(n * 2^n)`` whole-array bit-ors.
    """
    table = np.zeros(1 << n, dtype=bool)
    for m in members:
        table[m] = True
    for i in range(n):
        view = table.reshape(-1, 2, 1 << i)
        view[:, 1, :] |= view[:, 0, :]
    return table


def lattice_table(n: int, lhs_mask: int, members: Sequence[int]) -> np.ndarray:
    """Boolean table of ``L(X, Y)``: supersets of ``X`` blocked by no member."""
    return superset_indicator(n, lhs_mask) & ~blocked_table(n, members)


def joint_lattice_table(
    n: int, constraints: Iterable[Tuple[int, Sequence[int]]]
) -> np.ndarray:
    """Boolean table of ``L(C)`` for ``constraints`` given as
    ``(lhs_mask, members)`` pairs -- the union of the per-constraint
    lattice decompositions (Theorem 3.5's containment target)."""
    out = np.zeros(1 << n, dtype=bool)
    for lhs_mask, members in constraints:
        out |= lattice_table(n, lhs_mask, members)
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
