"""Audit regressions: delta hooks on degenerate densities.

Snapshots, recovery and mining rebuild state from ``density_items()``,
which makes the protocol's edge cases load-bearing: an entry that a
consumer silently mishandles becomes a rebuild mismatch.  The audit
found one real divergence, pinned here:

* ``IncrementalEvalContext.density_items()`` / ``value()`` (and hence
  ``support_size``) used the *tolerance-based* nonzero set, silently
  dropping sub-tolerance residues that the live density/support tables
  still carry -- so rebuilding from ``density_items()`` did not
  reproduce ``density_table()``.  Dense ``SetFunction.density_items()``
  yields exactly-nonzero entries, so the incremental context now does
  too; constraint statuses and ``zero_set`` keep the paper's tolerance
  semantics (Definition 3.1) unchanged.

The remaining tests pin the all-zero-density behaviors (cancelling
deltas, zero deltas, trivial and empty families, the empty ground set)
across ``apply_density_delta`` / ``delta_affects`` implementations.
"""

from fractions import Fraction

import pytest

from repro.core import (
    ConstraintSet,
    DifferentialConstraint,
    GroundSet,
    SetFamily,
    SetFunction,
    SparseDensityFunction,
)
from repro.engine import IncrementalEvalContext, recompute_tables
from repro.engine.backends import backend_by_name


@pytest.fixture
def ground() -> GroundSet:
    return GroundSet("ABC")


class TestSubToleranceResidues:
    """The pinned divergence: residues below tol but not exactly zero."""

    def test_exact_residue_survives_density_items(self, ground):
        ctx = IncrementalEvalContext(ground, backend="exact")
        residue = Fraction(1, 10**12)  # far below the 1e-9 tolerance
        ctx.apply_delta(ground.parse("A"), residue)
        assert dict(ctx.density_items()) == {ground.parse("A"): residue}
        assert ctx.support_size() == 1

    def test_exact_residue_value_matches_support_table(self, ground):
        residue = Fraction(1, 10**12)
        lazy = IncrementalEvalContext(ground, backend="exact")
        eager = IncrementalEvalContext(ground, backend="exact")
        eager.support_table()  # maintained table path
        for ctx in (lazy, eager):
            ctx.apply_delta(ground.parse("AB"), residue)
        # the sparse fallback and the table path must agree exactly
        assert lazy.value(0) == eager.value(0) == residue
        assert lazy.value(ground.parse("A")) == residue

    def test_rebuild_from_density_items_reproduces_tables(self, ground):
        """density_items() is a faithful serialization of the state."""
        for backend_name in ("exact", "float"):
            backend = backend_by_name(backend_name)
            ctx = IncrementalEvalContext(ground, backend=backend)
            ctx.apply_delta(ground.parse("A"), 2)
            ctx.apply_delta(
                ground.parse("BC"),
                Fraction(1, 10**12) if backend.exact else 1e-12,
            )
            density, support, _ = recompute_tables(
                ground.size, ctx.density_items(), [], backend
            )
            assert list(density) == list(ctx.density_table())
            assert list(support) == list(ctx.support_table())

    def test_tolerance_semantics_unchanged(self, ground):
        """Constraint statuses and Z(f) keep Definition 3.1's tolerance:
        a sub-tolerance residue violates nothing and stays in Z(f)."""
        c = DifferentialConstraint.parse(ground, "A -> B")
        ctx = IncrementalEvalContext(ground, constraints=[c], backend="exact")
        before = ctx.zero_version
        flips = ctx.apply_delta(ground.parse("AC"), Fraction(1, 10**12))
        assert flips == []
        assert not ctx.is_violated(c)
        assert ctx.zero_version == before  # no zero crossing
        assert ctx.zero_set() == set(range(1 << ground.size))

    def test_residue_crossing_tolerance_flips(self, ground):
        """Growing a residue past tol is one zero crossing, as before."""
        c = DifferentialConstraint.parse(ground, "A -> B")
        ctx = IncrementalEvalContext(ground, constraints=[c], backend="exact")
        mask = ground.parse("AC")
        ctx.apply_delta(mask, Fraction(1, 10**12))
        flips = ctx.apply_delta(mask, 1)
        assert flips == [(c, True)]
        assert ctx.is_violated(c)

class TestAllZeroDensity:
    """Deltas that cancel must leave every representation truly empty."""

    def test_cancelled_deltas_empty_everything(self, ground):
        for backend_name in ("exact", "float"):
            ctx = IncrementalEvalContext(ground, backend=backend_name)
            ctx.support_table()
            mask = ground.parse("AB")
            ctx.apply_delta(mask, 3)
            ctx.apply_delta(mask, -3)
            assert dict(ctx.density_items()) == {}
            assert ctx.support_size() == 0
            assert ctx.value(0) == 0
            assert list(ctx.support_table()) == list(
                backend_by_name(backend_name).zeros(1 << ground.size)
            )

    def test_setfunction_hook_cancellation(self, ground):
        f = SetFunction.zeros(ground, exact=True)
        f.density()  # materialize the cache so patching is exercised
        f.apply_density_delta(ground.parse("AB"), 5)
        f.apply_density_delta(ground.parse("AB"), -5)
        assert list(f.table()) == [0] * (1 << ground.size)
        assert list(f.density().table()) == [0] * (1 << ground.size)
        assert dict(f.density_items()) == {}

    def test_sparse_hook_drops_exact_zeros(self, ground):
        f = SparseDensityFunction(ground, {})
        f.apply_density_delta(ground.parse("A"), 2)
        f.apply_density_delta(ground.parse("A"), -2)
        assert f.support_size() == 0
        assert dict(f.density_items()) == {}

    def test_zero_delta_is_a_noop_everywhere(self, ground):
        c = DifferentialConstraint.parse(ground, "A -> B")
        ctx = IncrementalEvalContext(ground, constraints=[c])
        before = ctx.theory_version
        assert ctx.apply_delta(ground.parse("AC"), 0) == []
        assert ctx.theory_version == before
        f = SetFunction.zeros(ground, exact=True)
        f.apply_density_delta(ground.parse("AC"), 0)
        assert list(f.table()) == [0] * 8


class TestDeltaAffectsEdges:
    """delta_affects on degenerate families and ground sets."""

    def test_trivial_constraint_is_never_affected(self, ground):
        trivial = DifferentialConstraint(
            ground, ground.parse("AB"), SetFamily(ground, [ground.parse("A")])
        )
        assert trivial.is_trivial
        assert all(
            not trivial.delta_affects(mask) for mask in range(1 << 3)
        )
        ctx = IncrementalEvalContext(ground, constraints=[trivial])
        ctx.apply_delta(ground.parse("AB"), 1)
        assert not ctx.is_violated(trivial)

    def test_empty_family_matches_lattice(self, ground):
        c = DifferentialConstraint(
            ground, ground.parse("A"), SetFamily(ground, [])
        )
        for mask in range(1 << 3):
            assert c.delta_affects(mask) == c.lattice_contains(mask)

    def test_constraint_set_hook_is_the_union(self, ground):
        cset = ConstraintSet.of(ground, "A -> B", "B -> C")
        for mask in range(1 << 3):
            assert cset.delta_affects(mask) == any(
                c.delta_affects(mask) for c in cset
            )

    def test_empty_ground_set_hooks(self):
        empty = GroundSet("")
        ctx = IncrementalEvalContext(empty)
        ctx.apply_delta(0, 4)
        assert ctx.value(0) == 4
        assert dict(ctx.density_items()) == {0: 4}
        ctx.apply_delta(0, -4)
        assert dict(ctx.density_items()) == {}
