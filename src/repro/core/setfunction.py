"""Set functions ``f : 2^S -> R`` -- the class ``F(S)`` of the paper.

Two concrete representations are provided:

:class:`SetFunction`
    A *dense* table of ``2^|S|`` values (numpy float64, or exact Python
    numbers in the exact backend's int64/object table when
    ``exact=True``).  Supports the full transform machinery
    of :mod:`repro.core.transforms`; this is the workhorse for ground sets
    up to ~20 elements.

:class:`SparseDensityFunction`
    A function specified by its finitely many *nonzero density values*
    (Remark 2.3).  Function values are recovered on demand through
    equation (5) as ``f(X) = sum of d(U) over stored U superseteq X``.
    Support functions of basket databases are exactly of this form -- the
    density of ``s_B`` is the basket multiset count ``d^B`` (Section 6.1)
    -- which makes constraint checking scale with the number of *distinct
    baskets* instead of ``2^|S|``.

Both classes implement the small protocol consumed by the constraint
machinery: ``ground``, ``value(mask)``, ``density_value(mask)`` and
``density_items()`` (iterating the nonzero density entries).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, Mapping, Tuple, Union

import numpy as np

from repro.core import subsets as sb
from repro.core import transforms
from repro.core.ground import GroundSet
from repro.engine.backends import EXACT, FLOAT, Backend
from repro.errors import GroundSetMismatchError

__all__ = ["SetFunction", "SparseDensityFunction", "DEFAULT_TOLERANCE"]

#: Absolute tolerance used when deciding ``d_f(U) == 0`` on float tables.
DEFAULT_TOLERANCE = 1e-9

Number = Union[int, float]



def _require_dense(ground: GroundSet) -> None:
    """Refuse to build 2^|S| tables past the dense-capability limit."""
    if not ground.is_dense_capable():
        raise ValueError(
            f"|S| = {ground.size} exceeds the dense-table limit; use "
            "SparseDensityFunction (or basket-level machinery) instead"
        )


class SetFunction:
    """A dense element of ``F(S)``.

    Parameters
    ----------
    ground:
        The ground set ``S``.
    values:
        A sequence of ``2^|S|`` values indexed by subset mask.
    exact:
        When ``True`` the values are kept as exact Python numbers (in
        the exact backend's :class:`~repro.engine.backends.VecTable`:
        int64 storage that promotes to object dtype before it could
        overflow) and all transforms run in exact arithmetic; when
        ``False`` (default) the values live in a ``numpy.float64``
        array.
    """

    __slots__ = ("_ground", "_values", "_exact", "_density_cache")

    def __init__(self, ground: GroundSet, values, exact: bool = False):
        _require_dense(ground)
        size = transforms.table_size_for(ground.size)
        if len(values) != size:
            raise ValueError(
                f"expected {size} values for |S|={ground.size}, got {len(values)}"
            )
        self._ground = ground
        self._exact = exact
        self._values = self.backend.copy(values)
        self._density_cache = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, ground: GroundSet, exact: bool = False) -> "SetFunction":
        """The identically-zero function."""
        _require_dense(ground)
        size = transforms.table_size_for(ground.size)
        backend = EXACT if exact else FLOAT
        return cls(ground, backend.zeros(size), exact=exact)

    @classmethod
    def constant(cls, ground: GroundSet, c: Number, exact: bool = False) -> "SetFunction":
        """The function with ``f(X) = c`` for every ``X``."""
        _require_dense(ground)
        size = transforms.table_size_for(ground.size)
        backend = EXACT if exact else FLOAT
        return cls(ground, backend.full(size, c), exact=exact)

    @classmethod
    def from_dict(
        cls,
        ground: GroundSet,
        mapping: Mapping,
        default: Number = 0,
        exact: bool = False,
    ) -> "SetFunction":
        """Build from a mapping of subsets to values.

        Keys may be masks (ints) or anything :meth:`GroundSet.parse`
        accepts (label iterables, shorthand strings).  Missing subsets get
        ``default`` -- this mirrors the paper's Example 3.2 style
        ``f((/)) = f(C) = 2 and f = 1 elsewhere``.
        """
        _require_dense(ground)
        size = transforms.table_size_for(ground.size)
        values = [default] * size
        for key, val in mapping.items():
            mask = key if isinstance(key, int) else ground.parse(key)
            ground._check_mask(mask)
            values[mask] = val
        return cls(ground, values, exact=exact)

    @classmethod
    def from_callable(
        cls, ground: GroundSet, fn: Callable[[int], Number], exact: bool = False
    ) -> "SetFunction":
        """Build by evaluating ``fn`` on every subset mask."""
        _require_dense(ground)
        values = [fn(mask) for mask in ground.all_masks()]
        return cls(ground, values, exact=exact)

    @classmethod
    def from_density(
        cls,
        ground: GroundSet,
        density: Mapping,
        exact: bool = False,
    ) -> "SetFunction":
        """Build the unique ``f`` whose density is ``density`` (eq. (5)).

        ``density`` maps subsets (masks or parseable labels) to their
        density values; unspecified subsets have density ``0``.
        """
        _require_dense(ground)
        size = transforms.table_size_for(ground.size)
        table = [0] * size
        for key, val in density.items():
            mask = key if isinstance(key, int) else ground.parse(key)
            ground._check_mask(mask)
            table[mask] = table[mask] + val
        backend = EXACT if exact else FLOAT
        table = backend.adopt(table)
        backend.superset_zeta_inplace(table)
        return cls(ground, table, exact=exact)

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    @property
    def ground(self) -> GroundSet:
        return self._ground

    @property
    def exact(self) -> bool:
        return self._exact

    @property
    def backend(self) -> Backend:
        """The :mod:`repro.engine` backend owning this function's tables."""
        return EXACT if self._exact else FLOAT

    def value(self, mask: int) -> Number:
        """``f(X)`` for the subset with bitmask ``mask``."""
        self._ground._check_mask(mask)
        v = self._values[mask]
        return v if self._exact else float(v)

    def __call__(self, subset) -> Number:
        """``f(X)`` with ``X`` given as labels or shorthand string."""
        return self.value(self._ground.parse(subset))

    def table(self):
        """The raw value table (a copy): a list of python numbers when
        exact, else a float64 array."""
        if self._exact:
            return self._values.tolist()
        return self._values.copy()

    # ------------------------------------------------------------------
    # density (Moebius inverse)
    # ------------------------------------------------------------------
    def density(self) -> "SetFunction":
        """The density function ``d_f`` (Remark 2.3, equation (4))."""
        if self._density_cache is None:
            table = transforms.density_table(self._values)
            self._density_cache = SetFunction(self._ground, table, exact=self._exact)
        return self._density_cache

    def density_value(self, mask: int) -> Number:
        """``d_f(X)``."""
        return self.density().value(mask)

    def density_items(self) -> Iterator[Tuple[int, Number]]:
        """Iterate ``(mask, d_f(mask))`` over subsets with nonzero density."""
        for mask, v in enumerate(self.density()._values.tolist()):
            if v != 0:
                yield mask, v

    def is_nonnegative_density(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        """Whether ``d_f >= 0`` everywhere, i.e. ``f`` is in ``positive(S)``.

        By Proposition 2.9 a function has all differentials nonnegative
        (the paper's definition of *frequency function*, Section 6) if and
        only if its density is nonnegative.
        """
        dens = self.density()
        # exact functions keep the historic strict ``>= 0`` check
        return self.backend.all_nonnegative(dens._values, 0 if self._exact else tol)

    def apply_density_delta(self, mask: int, delta: Number) -> "SetFunction":
        """In place: add ``delta`` to the density at ``mask``.

        The streaming hook (equation (5) is linear in the density): the
        value table gets ``delta`` added at every subset position of
        ``mask`` -- one numpy subset add -- instead of being rebuilt
        by an ``O(n * 2^n)`` transform.  The cached density (if
        materialized) is patched point-wise.
        """
        from repro.engine.incremental import add_on_subsets

        self._ground._check_mask(mask)
        add_on_subsets(self._values, mask, delta, self.backend)
        if self._density_cache is not None:
            cached = self._density_cache
            cached._values[mask] = cached._values[mask] + delta
            cached._density_cache = None
        return self

    def differential(self, family) -> "SetFunction":
        """``D_f^Y`` as a whole function, via the batched engine pass."""
        from repro.core.differential import differential_function

        return differential_function(self, family)

    # ------------------------------------------------------------------
    # arithmetic / comparison
    # ------------------------------------------------------------------
    def _binary(self, other: "SetFunction", op) -> "SetFunction":
        if not isinstance(other, SetFunction):
            return NotImplemented
        if self._ground != other._ground:
            raise GroundSetMismatchError("set functions over different ground sets")
        if self._exact and other._exact:
            vals = [
                op(a, b)
                for a, b in zip(self._values.tolist(), other._values.tolist())
            ]
            return SetFunction(self._ground, vals, exact=True)
        return SetFunction(
            self._ground, op(self._float_values(), other._float_values())
        )

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, scalar: Number) -> "SetFunction":
        if self._exact:
            return SetFunction(
                self._ground,
                [v * scalar for v in self._values.tolist()],
                exact=True,
            )
        return SetFunction(self._ground, self._values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SetFunction":
        return self * -1

    def allclose(self, other: "SetFunction", tol: float = DEFAULT_TOLERANCE) -> bool:
        """Whether two functions agree up to absolute tolerance ``tol``."""
        if self._ground != other._ground:
            return False
        return bool(
            np.allclose(
                self._float_values(), other._float_values(), atol=tol, rtol=0.0
            )
        )

    def _float_values(self) -> np.ndarray:
        """The values as a float64 array (exact tables are converted)."""
        if self._exact:
            return np.asarray(self._values.arr, dtype=np.float64)
        return self._values

    def __repr__(self) -> str:
        n = self._ground.size
        kind = "exact" if self._exact else "float"
        return f"SetFunction(|S|={n}, {kind})"


class SparseDensityFunction:
    """An element of ``F(S)`` given by its nonzero density entries.

    This is the scalable representation for support functions: the density
    of ``s_B`` is the basket multiset count ``d^B`` (Section 6.1), so a
    database with ``m`` distinct baskets is represented by ``m`` entries
    regardless of ``|S|``.
    """

    __slots__ = ("_ground", "_density")

    def __init__(self, ground: GroundSet, density: Mapping[int, Number]):
        clean: Dict[int, Number] = {}
        for mask, val in density.items():
            ground._check_mask(mask)
            if val != 0:
                clean[mask] = clean.get(mask, 0) + val
        self._ground = ground
        self._density = {m: v for m, v in clean.items() if v != 0}

    @property
    def ground(self) -> GroundSet:
        return self._ground

    def value(self, mask: int) -> Number:
        """``f(X) = sum_{U superseteq X} d(U)`` over the stored entries."""
        self._ground._check_mask(mask)
        return sum(v for u, v in self._density.items() if sb.is_subset(mask, u))

    def __call__(self, subset) -> Number:
        return self.value(self._ground.parse(subset))

    def density_value(self, mask: int) -> Number:
        self._ground._check_mask(mask)
        return self._density.get(mask, 0)

    def density_items(self) -> Iterator[Tuple[int, Number]]:
        """Iterate the nonzero ``(mask, density)`` pairs."""
        return iter(sorted(self._density.items()))

    def is_nonnegative_density(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        return all(v >= -tol for v in self._density.values())

    def apply_density_delta(self, mask: int, delta: Number) -> "SparseDensityFunction":
        """In place: add ``delta`` to the density at ``mask`` (streaming
        hook; entries hitting exactly zero are dropped)."""
        self._ground._check_mask(mask)
        value = self._density.get(mask, 0) + delta
        if value == 0:
            self._density.pop(mask, None)
        else:
            self._density[mask] = value
        return self

    def support_size(self) -> int:
        """Number of nonzero density entries."""
        return len(self._density)

    def to_dense(self, exact: bool = True) -> SetFunction:
        """Materialize as a dense :class:`SetFunction` (small ``|S|`` only)."""
        return SetFunction.from_density(self._ground, dict(self._density), exact=exact)

    def differential(self, family) -> SetFunction:
        """``D_f^Y`` as a dense function, via the batched density-sum pass."""
        from repro.core.differential import differential_function

        return differential_function(self, family)

    def __repr__(self) -> str:
        return (
            f"SparseDensityFunction(|S|={self._ground.size}, "
            f"nnz={len(self._density)})"
        )
