"""Property tests: the batched engine agrees with the scalar paths.

The engine's whole-table evaluation (masked zeta transforms, boolean
lattice tables, the memoized decider) must be *indistinguishable* from
the paper-facing scalar definitions -- identical values on the exact
backend, ``allclose`` on the float backend -- on randomized instances.
"""

import random

import numpy as np
import pytest

from repro.core import (
    ConstraintSet,
    GroundSet,
    SetFamily,
    SetFunction,
    SparseDensityFunction,
    differential_function,
    differential_function_by_definition,
    differential_value,
    differential_via_density,
    find_uncovered,
    implies_lattice,
)
from repro.core.implication import find_uncovered_engine, implies_engine
from repro.core.lattice import in_lattice
from repro.engine import (
    EXACT,
    FLOAT,
    EvalContext,
    ImplicationCache,
    backend_by_name,
    batched_differential,
    blocked_table,
    lattice_table,
)
from repro.instances import (
    random_constraint,
    random_constraint_set,
    random_family,
    random_set_function,
)


@pytest.fixture
def ground_6() -> GroundSet:
    return GroundSet("ABCDEF")


class TestBatchedDifferential:
    def test_float_matches_scalar_definition(self, ground_6, rng):
        for _ in range(25):
            f = random_set_function(rng, ground_6)
            fam = random_family(rng, ground_6, max_members=3)
            table = batched_differential(f, fam)
            for x in ground_6.all_masks():
                assert table[x] == pytest.approx(
                    differential_value(f, fam, x)
                )

    def test_exact_matches_scalar_identically(self, ground_6, rng):
        for _ in range(25):
            values = [rng.randint(-9, 9) for _ in range(64)]
            f = SetFunction(ground_6, values, exact=True)
            fam = random_family(rng, ground_6, max_members=3)
            table = batched_differential(f, fam)
            for x in ground_6.all_masks():
                want = differential_value(f, fam, x)
                assert table[x] == want
                assert isinstance(table[x], int)

    def test_differential_function_matches_definition_loop(
        self, ground_6, rng
    ):
        for exact in (False, True):
            for _ in range(10):
                if exact:
                    f = SetFunction(
                        ground_6,
                        [rng.randint(-5, 5) for _ in range(64)],
                        exact=True,
                    )
                else:
                    f = random_set_function(rng, ground_6)
                fam = random_family(rng, ground_6, max_members=3)
                batched = differential_function(f, fam)
                oracle = differential_function_by_definition(f, fam)
                assert batched.exact == oracle.exact == exact
                assert batched.allclose(oracle)
                if exact:
                    assert batched.table() == oracle.table()

    def test_sparse_input_uses_density_sum_path(self, ground_6, rng):
        for _ in range(25):
            density = {
                rng.randrange(64): rng.randint(1, 5)
                for _ in range(rng.randint(1, 8))
            }
            f = SparseDensityFunction(ground_6, density)
            fam = random_family(rng, ground_6, max_members=3)
            batched = differential_function(f, fam)
            for x in ground_6.all_masks():
                assert batched.value(x) == differential_via_density(f, fam, x)
                assert batched.value(x) == differential_value(f, fam, x)

    def test_context_forces_backend(self, ground_6, rng):
        f = random_set_function(rng, ground_6)
        fam = random_family(rng, ground_6, max_members=2)
        forced = differential_function(f, fam, context=EvalContext("exact"))
        assert forced.exact
        inherit = differential_function(f, fam)
        assert not inherit.exact
        assert forced.allclose(inherit)


def _check_blocked_table(ground, rng):
    for _ in range(40):
        fam = random_family(rng, ground, max_members=3, allow_empty_member=True)
        table = blocked_table(ground.size, fam.members)
        assert table.shape == (1 << ground.size,)
        for u in ground.all_masks():
            assert bool(table[u]) == fam.contains_subset_of(u)


def _check_lattice_table(ground, rng):
    for _ in range(40):
        # |S| = 0 has no nonempty member to draw
        fam = random_family(
            rng, ground, max_members=3, allow_empty_member=ground.size == 0
        )
        lhs = rng.randrange(1 << ground.size)
        table = lattice_table(ground.size, lhs, fam.members)
        assert table.shape == (1 << ground.size,)
        for u in ground.all_masks():
            assert bool(table[u]) == in_lattice(lhs, fam, u)


class TestLatticeTables:
    def test_blocked_table_matches_family_membership(self, ground_6, rng):
        _check_blocked_table(ground_6, rng)

    def test_lattice_table_matches_closed_form(self, ground_6, rng):
        _check_lattice_table(ground_6, rng)

    # the degenerate cubes: one axis, or none at all
    @pytest.mark.parametrize("n", [0, 1])
    def test_tables_on_degenerate_grounds(self, n, rng):
        ground = GroundSet("A"[:n])
        _check_blocked_table(ground, rng)
        _check_lattice_table(ground, rng)


class TestEngineDecider:
    def test_agrees_with_scalar_lattice_decider(self, ground_6, rng):
        for _ in range(200):
            cs = random_constraint_set(
                rng, ground_6, rng.randint(0, 4), max_members=3,
                allow_empty_member=True,
            )
            t = random_constraint(
                rng, ground_6, max_members=3, allow_empty_member=True
            )
            assert implies_engine(cs, t) == implies_lattice(cs, t)
            assert find_uncovered_engine(cs, t) == find_uncovered(cs, t)

    def test_cache_hits_across_equal_sets(self, ground_6):
        cache = ImplicationCache()
        ctx = EvalContext(cache=cache)
        cs1 = ConstraintSet.of(ground_6, "A -> B", "B -> C")
        cs2 = ConstraintSet.of(ground_6, "B -> C", "A -> B")  # equal, reordered
        t = random_constraint(random.Random(7), ground_6, max_members=2)
        implies_engine(cs1, t, context=ctx)
        misses_before = cache.stats()["misses"]
        implies_engine(cs2, t, context=ctx)
        assert cache.stats()["misses"] == misses_before
        assert cache.stats()["hits"] > 0

    def test_private_cache_is_isolated(self, ground_6):
        ctx = EvalContext(private_cache=True)
        cs = ConstraintSet.of(ground_6, "A -> B")
        t = random_constraint(random.Random(3), ground_6, max_members=2)
        implies_engine(cs, t, context=ctx)
        assert ctx.cache.stats()["set_tables"] == 1

    def test_refuses_non_dense_ground_sets(self):
        from repro.errors import NotApplicableError

        big = GroundSet([f"x{i}" for i in range(30)])
        cs = ConstraintSet.of(big, "x0 -> x1")
        t = ConstraintSet.of(big, "x0 -> x2").constraints[0]
        with pytest.raises(NotApplicableError):
            implies_engine(cs, t)


class TestBackends:
    def test_backend_by_name(self):
        assert backend_by_name("exact") is EXACT
        assert backend_by_name("float") is FLOAT
        for gone in ("decimal", "exact-vec"):
            with pytest.raises(ValueError):
                backend_by_name(gone)

    def test_exact_copy_semantics(self):
        """Copy never aliases its source and preserves exact values.

        Pins the ndarray round trip: ``.tolist()`` hands back python
        scalars, so a float array's entries read back as ``float``.
        """
        from fractions import Fraction

        src = [1, Fraction(2, 3), -5, 0]
        copied = EXACT.copy(src)
        assert copied == src and copied is not src
        copied[0] = 99
        assert src[0] == 1  # no aliasing
        assert copied[1] is src[1]  # Fractions carried through, not coerced
        assert type(copied[1]) is Fraction

        arr = np.array([1.0, -2.0, 0.5, 0.0])
        from_arr = EXACT.copy(arr)
        assert from_arr == [1.0, -2.0, 0.5, 0.0]
        assert all(type(v) is float for v in from_arr)
        from_arr[0] = 7.0
        assert arr[0] == 1.0  # fresh storage, not a view

    def test_exact_masked_helpers_return_python_ints(self):
        """The masked helpers hand back python bools and leave python
        ints on read-out, not boxed numpy scalars."""
        values = EXACT.copy([0, 3, 0, -2])
        where = np.array([True, True, True, True])
        assert EXACT.any_nonzero_where(values, where, 0.0) is True
        EXACT.zero_where(values, np.array([False, True, False, False]))
        assert values == [0, 0, 0, -2]
        assert all(type(v) is int for v in values)

    def test_exact_scatter_preserves_ints(self):
        table = EXACT.scatter(8, [(3, 2), (3, 1), (5, -4)])
        assert table == [0, 0, 0, 3, 0, -4, 0, 0]
        assert all(isinstance(v, int) for v in table)

    def test_float_zeta_agrees_with_exact(self, rng):
        values = [rng.randint(-9, 9) for _ in range(32)]
        exact = EXACT.copy(values)
        floats = FLOAT.copy(values)
        EXACT.superset_zeta_inplace(exact)
        FLOAT.superset_zeta_inplace(floats)
        assert np.allclose(floats, exact)

    def test_roundtrip_both_backends(self, rng):
        values = [rng.randint(-9, 9) for _ in range(64)]
        for backend in (EXACT, FLOAT):
            table = backend.copy(values)
            backend.superset_mobius_inplace(table)
            backend.superset_zeta_inplace(table)
            assert np.allclose(np.asarray(table, dtype=float), values)


class TestSatisfactionEquivalence:
    def test_dense_engine_check_matches_itemwise(self, ground_6, rng):
        # constraint.satisfied_by routes dense functions through the
        # engine; replicate the old itemwise loop as the oracle
        for _ in range(60):
            f = random_set_function(rng, ground_6)
            c = random_constraint(rng, ground_6, max_members=3)
            itemwise = True
            for mask, value in f.density_items():
                if abs(value) > 1e-9 and c.lattice_contains(mask):
                    itemwise = False
                    break
            assert c.satisfied_by(f) == itemwise
