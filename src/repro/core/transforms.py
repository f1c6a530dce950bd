"""Superset zeta and Moebius transforms (Remark 2.3, equations (4)-(5)).

The paper's Remark 2.3 states the bijection between a set function ``f``
and its *density* ``d_f`` (the Moebius inverse of ``f`` over the superset
order)::

    d(X) = sum_{X subseteq U subseteq S} (-1)^{|U| - |X|} f(U)      (4)
    f(X) = sum_{X subseteq U subseteq S} d(U)                       (5)

Equation (5) is the *superset zeta transform* and equation (4) the
*superset Moebius transform*.  Both run as the standard in-place
butterfly over bit positions in ``O(n * 2^n)`` arithmetic operations --
exponentially faster than the naive ``O(4^n)`` double loop, which is
retained (:func:`naive_density_table`, :func:`naive_zeta_table`) as an
oracle for the test suite.

The butterflies themselves live in :mod:`repro.engine.backends`, where
each storage mode is a first-class backend:

* ``numpy.ndarray`` of floats -- numpy strided butterflies
  (:class:`~repro.engine.backends.FloatBackend`, the fast path);
* exact numbers (``int``, ``Fraction``) in a
  :class:`~repro.engine.backends.VecTable` or a plain Python ``list``
  -- the same strided butterflies over int64 storage that promotes
  to object dtype before it could overflow
  (:class:`~repro.engine.backends.ExactBackend`), used when constraints
  must be checked without floating-point tolerance.

The functions here dispatch on the table's type.  A plain list is
transformed in place and keeps python-number entries.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.core import subsets as sb
from repro.engine.backends import EXACT, VecTable, backend_for_table, n_bits_for

__all__ = [
    "superset_zeta_inplace",
    "superset_mobius_inplace",
    "subset_zeta_inplace",
    "subset_mobius_inplace",
    "density_table",
    "function_table_from_density",
    "naive_density_table",
    "naive_zeta_table",
    "table_size_for",
]

Table = Union[np.ndarray, List, VecTable]


def table_size_for(n_elements: int) -> int:
    """Number of entries in a dense table over a ground set of size ``n``."""
    return 1 << n_elements


def _inplace(op: str, values: Table) -> None:
    """Run the backend butterfly ``op`` on ``values`` in place; a plain
    list round-trips through an exact table and is rewritten with the
    python-number results."""
    if isinstance(values, list):
        table = EXACT.copy(values)
        getattr(EXACT, op)(table)
        values[:] = table.tolist()
    else:
        getattr(backend_for_table(values), op)(values)


def superset_zeta_inplace(values: Table) -> None:
    """In-place superset zeta transform: ``values[X] <- sum_{U >= X} values[U]``.

    Implements equation (5): applied to a density table it yields the
    function table.
    """
    _inplace("superset_zeta_inplace", values)


def superset_mobius_inplace(values: Table) -> None:
    """In-place superset Moebius transform (the inverse of the zeta).

    Implements equation (4): applied to a function table it yields the
    density table ``d_f``.
    """
    _inplace("superset_mobius_inplace", values)


def subset_zeta_inplace(values: Table) -> None:
    """In-place subset zeta transform: ``values[X] <- sum_{U <= X} values[U]``.

    The *downward* analogue of equation (5); applied to a Dempster-Shafer
    mass table it yields the belief function (Section 8's pointer to the
    Dempster-Shafer theory, made executable in :mod:`repro.measures`).
    """
    _inplace("subset_zeta_inplace", values)


def subset_mobius_inplace(values: Table) -> None:
    """In-place subset Moebius transform (inverse of the subset zeta);
    recovers a mass table from a belief table."""
    _inplace("subset_mobius_inplace", values)


def density_table(values: Sequence) -> Table:
    """Return a fresh density table ``d_f`` for the function table ``values``."""
    out = _copy(values)
    superset_mobius_inplace(out)
    return out


def function_table_from_density(density: Sequence) -> Table:
    """Return the function table whose density is ``density`` (equation (5))."""
    out = _copy(density)
    superset_zeta_inplace(out)
    return out


def naive_density_table(values: Sequence) -> list:
    """Oracle implementation of equation (4) by direct double summation.

    ``O(4^n)`` -- used only to validate :func:`density_table` in tests.
    """
    size = len(values)
    n_bits_for(size)
    universe = size - 1
    out = []
    for x in range(size):
        acc = values[x] - values[x]  # zero of the value type
        for u in sb.iter_supersets(x, universe):
            sign = 1 if (sb.popcount(u) - sb.popcount(x)) % 2 == 0 else -1
            acc = acc + sign * values[u]
        out.append(acc)
    return out


def naive_zeta_table(density: Sequence) -> list:
    """Oracle implementation of equation (5) by direct summation."""
    size = len(density)
    n_bits_for(size)
    universe = size - 1
    out = []
    for x in range(size):
        acc = density[x] - density[x]
        for u in sb.iter_supersets(x, universe):
            acc = acc + density[u]
        out.append(acc)
    return out


def _copy(values: Sequence) -> Table:
    if isinstance(values, np.ndarray):
        return values.astype(np.float64, copy=True)
    if isinstance(values, VecTable):
        return EXACT.copy(values)
    return list(values)
