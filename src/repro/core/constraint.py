"""Differential constraints ``X -> Y`` (Definition 3.1).

A differential constraint pairs a subset ``X`` of the ground set with a
family ``Y`` of subsets.  Under the paper's *density-based* semantics a
function ``f`` satisfies ``X -> Y`` iff ``d_f(U) = 0`` for every ``U`` in
the lattice decomposition ``L(X, Y)``.

Remark 3.6's earlier *differential-based* semantics -- ``f`` satisfies
``X -> Y`` iff ``D_f^Y(X) = 0`` -- is strictly weaker (satisfaction under
density implies satisfaction under differential but not conversely; the
remark's one-element counterexample is reproduced in the tests) and is
available through ``semantics="differential"``.  The two coincide on
functions with nonnegative (or nonpositive) density, which is why the FIS
results of Section 6 can use either.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Union

from repro.core import subsets as sb
from repro.core.differential import differential_value
from repro.core.family import SetFamily
from repro.core.ground import GroundSet
from repro.core.lattice import in_lattice, iter_lattice
from repro.core.setfunction import (
    DEFAULT_TOLERANCE,
    SetFunction,
    SparseDensityFunction,
)
from repro.errors import InvalidConstraintError

__all__ = ["DifferentialConstraint", "DENSITY", "DIFFERENTIAL"]

AnySetFunction = Union[SetFunction, SparseDensityFunction]

#: Semantics selectors for :meth:`DifferentialConstraint.satisfied_by`.
DENSITY = "density"
DIFFERENTIAL = "differential"


class DifferentialConstraint:
    """A differential constraint ``X -> Y`` over a ground set ``S``.

    Instances are immutable, hashable and compare by exact
    ``(ground, lhs, family)`` identity -- the equality the proof checker
    relies on when validating rule applications.
    """

    __slots__ = ("_ground", "_lhs", "_family", "_lattice_cache")

    def __init__(self, ground: GroundSet, lhs_mask: int, family: SetFamily):
        ground._check_mask(lhs_mask)
        ground.check_same(family.ground)
        self._ground = ground
        self._lhs = lhs_mask
        self._family = family
        self._lattice_cache: Optional[frozenset] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, ground: GroundSet, lhs, *members) -> "DifferentialConstraint":
        """Build from labels in the paper's shorthand.

        >>> S = GroundSet("ABCD")
        >>> DifferentialConstraint.of(S, "A", "B", "CD")
        A -> {B, CD}
        """
        return cls(ground, ground.parse(lhs), SetFamily.of(ground, *members))

    @classmethod
    def parse(cls, ground: GroundSet, text: str) -> "DifferentialConstraint":
        """Parse ``"A -> B, CD"`` style notation.

        The right-hand side is a comma-separated list of subsets in the
        paper's shorthand; an empty right-hand side (``"A ->"``) denotes
        the empty family, and ``"(/)"`` denotes the empty-set member.
        """
        if "->" not in text:
            raise InvalidConstraintError(f"missing '->' in {text!r}")
        lhs_text, rhs_text = text.split("->", 1)
        lhs = ground.parse(lhs_text.strip())
        rhs_text = rhs_text.strip()
        if rhs_text in ("", "{}"):
            family = SetFamily(ground)
        else:
            rhs_text = rhs_text.strip("{}")
            parts = [p.strip() for p in rhs_text.split(",")]
            family = SetFamily(ground, (ground.parse(p) for p in parts if p != ""))
        return cls(ground, lhs, family)

    @classmethod
    def atom(cls, ground: GroundSet, u_mask: int) -> "DifferentialConstraint":
        """The atomic constraint ``atom(U) = U -> {{z} | z in S - U}``
        (Section 4.2)."""
        complement = ground.complement(u_mask)
        return cls(ground, u_mask, SetFamily.singletons_of(ground, complement))

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def ground(self) -> GroundSet:
        return self._ground

    @property
    def lhs(self) -> int:
        """The left-hand side ``X`` as a mask."""
        return self._lhs

    @property
    def family(self) -> SetFamily:
        """The right-hand side family ``Y``."""
        return self._family

    @property
    def is_trivial(self) -> bool:
        """Triviality per Definition 3.1: some ``Y in Y`` with
        ``Y subseteq X`` (equivalently ``L(X, Y)`` is empty)."""
        return self._family.is_trivial_for(self._lhs)

    def is_atomic(self) -> bool:
        """Whether this constraint is ``atom(U)`` for some ``U``."""
        complement = self._ground.complement(self._lhs)
        expected = SetFamily.singletons_of(self._ground, complement)
        return self._family == expected

    def has_singleton_family(self) -> bool:
        """Whether the family has exactly one member -- the fragment
        equivalent to functional dependencies (paper's conclusion)."""
        return len(self._family) == 1

    # ------------------------------------------------------------------
    # lattice decomposition
    # ------------------------------------------------------------------
    def iter_lattice(self) -> Iterator[int]:
        """Iterate ``L(X, Y)``."""
        return iter_lattice(self._lhs, self._family, self._ground)

    def lattice_set(self) -> frozenset:
        """``L(X, Y)`` as a cached frozenset of masks."""
        if self._lattice_cache is None:
            self._lattice_cache = frozenset(self.iter_lattice())
        return self._lattice_cache

    def lattice_contains(self, u_mask: int) -> bool:
        """Membership ``U in L(X, Y)`` in ``O(|Y|)``."""
        return in_lattice(self._lhs, self._family, u_mask)

    def delta_affects(self, u_mask: int) -> bool:
        """Whether a density delta at ``u_mask`` can change satisfaction.

        Under density semantics satisfaction reads ``d_f`` only on
        ``L(X, Y)``, so a streaming delta is relevant exactly when its
        mask lies in the lattice decomposition -- the ``O(|Y|)`` test
        the incremental engine fires per tracked constraint per delta.
        """
        return self.lattice_contains(u_mask)

    # ------------------------------------------------------------------
    # satisfaction
    # ------------------------------------------------------------------
    def satisfied_by(
        self,
        f: AnySetFunction,
        semantics: str = DENSITY,
        tol: float = DEFAULT_TOLERANCE,
    ) -> bool:
        """Whether ``f`` satisfies this constraint.

        ``semantics="density"`` (Definition 3.1, the paper's default):
        ``d_f`` vanishes on all of ``L(X, Y)``.  Dense functions are
        checked by the batched engine -- one numpy sweep of the
        density table against the cached ``L(X, Y)`` bitset.  Sparse
        functions iterate their *nonzero density entries* and test
        lattice membership, costing ``O(nnz * |Y|)``.

        ``semantics="differential"`` (Remark 3.6): ``D_f^Y(X) = 0``.
        """
        self._ground.check_same(f.ground)
        if semantics == DIFFERENTIAL:
            return abs(differential_value(f, self._family, self._lhs)) <= tol
        if semantics != DENSITY:
            raise ValueError(f"unknown semantics {semantics!r}")
        if isinstance(f, SetFunction):
            from repro.engine import shared_cache

            lattice_tbl = shared_cache().lattice_table(self)
            density = f.density()._values
            return not f.backend.any_nonzero_where(density, lattice_tbl, tol)
        for mask, value in f.density_items():
            if abs(value) > tol and self.lattice_contains(mask):
                return False
        return True

    # ------------------------------------------------------------------
    # value protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DifferentialConstraint)
            and self._ground == other._ground
            and self._lhs == other._lhs
            and self._family == other._family
        )

    def __hash__(self) -> int:
        return hash((self._ground, self._lhs, self._family))

    def __repr__(self) -> str:
        lhs = self._ground.format_mask(self._lhs)
        rhs = self._ground.format_family(self._family.members)
        return f"{lhs} -> {rhs}"
