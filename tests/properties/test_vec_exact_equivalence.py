"""Property suite: the vectorized exact backend equals the list backend.

``VecExactBackend`` runs the float backend's strided butterflies on
int64 (or, after promotion, object-dtype) ndarrays -- but it claims
*exactness*: every table, verdict and derived answer must equal the
pure-python ``ExactBackend`` bit for bit, including across the
overflow-promotion ladder (int64 -> object dtype) and for Fractions,
which route to object storage from the start.  The suite drives random
inputs through both backends across all tiers -- raw butterflies,
batched differentials, incremental delta maintenance -- plus targeted
overflow-boundary cases at
``+/- 2^62`` (the exact point where one butterfly add could leave
int64).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.core import DifferentialConstraint, GroundSet, SetFamily
from repro.engine import (
    EXACT,
    VEC_EXACT,
    IncrementalEvalContext,
    VecTable,
    recompute_tables,
)
from repro.engine.backends import backend_for_table
from repro.engine.batch import differential_table

GROUNDS = [GroundSet("ABCDE"[:n]) for n in range(6)]  # |S| = 0..5

BUTTERFLIES = (
    "superset_zeta_inplace",
    "superset_mobius_inplace",
    "subset_zeta_inplace",
    "subset_mobius_inplace",
)

#: One butterfly add can double a magnitude: 2^62 is the first value
#: whose doubling leaves int64, so tables seeded there must promote.
BOUNDARY = 2**62


def vec_equals_list(vec, want) -> bool:
    """Byte-identical: same values AND same python types on read-out."""
    got = list(vec)
    return got == list(want) and all(
        type(g) is type(w) for g, w in zip(got, want)
    )


# ----------------------------------------------------------------------
# raw butterflies
# ----------------------------------------------------------------------
small_ints = st.integers(min_value=-50, max_value=50)
wild_ints = st.one_of(
    small_ints,
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.just(BOUNDARY),
    st.just(-BOUNDARY),
)


@st.composite
def int_tables(draw, values=small_ints):
    n = draw(st.integers(min_value=0, max_value=5))
    return draw(
        st.lists(values, min_size=1 << n, max_size=1 << n)
    )


@settings(max_examples=200)
@given(values=int_tables(values=wild_ints), op=st.sampled_from(BUTTERFLIES))
def test_butterflies_byte_identical(values, op):
    exact = EXACT.copy(values)
    vec = VEC_EXACT.copy(values)
    getattr(EXACT, op)(exact)
    getattr(VEC_EXACT, op)(vec)
    assert vec_equals_list(vec, exact)


@settings(max_examples=100)
@given(values=int_tables(), members=st.lists(
    st.integers(min_value=0, max_value=31), max_size=3,
))
def test_differential_tables_byte_identical(values, members):
    members = tuple(m % len(values) for m in members)
    exact = differential_table(EXACT.copy(values), members, EXACT)
    vec = differential_table(VEC_EXACT.copy(values), members, VEC_EXACT)
    assert vec_equals_list(vec, exact)


@settings(max_examples=100)
@given(
    values=int_tables(values=wild_ints),
    where=st.lists(st.booleans(), min_size=1),
    tol=st.sampled_from([0.0, 1e-9, 0.5, 2.0, float(2**53)]),
)
def test_masked_helpers_agree(values, where, tol):
    where = np.array(
        (where * len(values))[: len(values)], dtype=bool
    )
    exact = EXACT.copy(values)
    vec = VEC_EXACT.copy(values)
    assert VEC_EXACT.any_nonzero_where(vec, where, tol) == (
        EXACT.any_nonzero_where(exact, where, tol)
    )
    assert VEC_EXACT.first_nonzero_where(vec, where, tol) == (
        EXACT.first_nonzero_where(exact, where, tol)
    )
    assert VEC_EXACT.all_nonnegative(vec, tol) == (
        EXACT.all_nonnegative(exact, tol)
    )
    VEC_EXACT.zero_where(vec, where)
    EXACT.zero_where(exact, where)
    assert vec_equals_list(vec, exact)


# ----------------------------------------------------------------------
# the incremental tier
# ----------------------------------------------------------------------
@st.composite
def instances(draw):
    ground = draw(st.sampled_from(GROUNDS))
    universe = ground.universe_mask
    masks = st.integers(min_value=0, max_value=universe)
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lhs = draw(masks)
        members = draw(st.lists(masks, min_size=0, max_size=3))
        constraints.append(
            DifferentialConstraint(ground, lhs, SetFamily(ground, members))
        )
    deltas = draw(
        st.lists(
            st.tuples(masks, st.integers(min_value=-3, max_value=3)),
            min_size=0,
            max_size=12,
        )
    )
    return ground, constraints, deltas


@settings(max_examples=200)
@given(data=instances())
def test_incremental_tier_byte_identical(data):
    """Delta-maintained tables, statuses and the set-function protocol
    agree between the vectorized and list exact backends -- including
    the empty ground set and all-zero densities (empty delta lists and
    deltas that cancel)."""
    ground, constraints, deltas = data
    vec = IncrementalEvalContext(
        ground, constraints=constraints, backend="exact-vec"
    )
    ref = IncrementalEvalContext(
        ground, constraints=constraints, backend="exact"
    )
    # materialize live tables first so they are delta-maintained
    vec.support_table(), ref.support_table()
    for c in constraints:
        vec.differential_table(c.family)
        ref.differential_table(c.family)
    for mask, delta in deltas:
        assert vec.apply_delta(mask, delta) == ref.apply_delta(mask, delta)

    assert vec_equals_list(vec.density_table(), ref.density_table())
    assert vec_equals_list(vec.support_table(), ref.support_table())
    for c in constraints:
        assert vec_equals_list(
            vec.differential_table(c.family), ref.differential_table(c.family)
        )
    assert list(vec.density_items()) == list(ref.density_items())
    assert vec.zero_set() == ref.zero_set()
    assert vec.violated_constraints() == ref.violated_constraints()
    assert vec.theory_version == ref.theory_version
    assert vec.zero_version == ref.zero_version
    for mask in range(1 << ground.size):
        assert vec.value(mask) == ref.value(mask)

    # and both equal the from-scratch batched oracle on their backend
    families = [c.family.members for c in constraints]
    density, support, diffs = recompute_tables(
        ground.size, ref.density_items(), families, VEC_EXACT
    )
    assert vec_equals_list(density, ref.density_table())
    assert vec_equals_list(support, ref.support_table())
    for c, want in zip(constraints, diffs):
        assert vec_equals_list(want, ref.differential_table(c.family))


# ----------------------------------------------------------------------
# the promotion ladder
# ----------------------------------------------------------------------
class TestOverflowPromotion:
    def test_boundary_values_promote_mid_transform(self):
        """+/- 2^62 entries force int64 -> object during a butterfly;
        the results still equal the list backend exactly."""
        for seed in ([BOUNDARY, BOUNDARY, 0, -BOUNDARY],
                     [-BOUNDARY, -BOUNDARY, -BOUNDARY, -BOUNDARY],
                     [2**63 - 1, 1, 0, 0]):
            for op in BUTTERFLIES:
                exact = EXACT.copy(seed)
                vec = VEC_EXACT.copy(seed)
                assert not vec.is_object  # fits int64 going in...
                getattr(EXACT, op)(exact)
                getattr(VEC_EXACT, op)(vec)
                assert vec_equals_list(vec, exact)

    def test_int64_stays_int64_below_the_boundary(self):
        vec = VEC_EXACT.copy([BOUNDARY - 1, 0, 0, 0])
        VEC_EXACT.superset_zeta_inplace(vec)
        assert not vec.is_object  # headroom check did not fire
        assert vec[0] == BOUNDARY - 1

    def test_fractions_route_to_object_from_the_start(self):
        seed = [Fraction(1, 3), Fraction(-2, 7), 5, 0]
        vec = VEC_EXACT.copy(seed)
        assert vec.is_object
        exact = EXACT.copy(seed)
        VEC_EXACT.superset_zeta_inplace(vec)
        EXACT.superset_zeta_inplace(exact)
        assert vec_equals_list(vec, exact)
        assert isinstance(vec[0], Fraction)

    def test_setitem_promotes_on_overflow_and_fractions(self):
        vec = VEC_EXACT.zeros(4)
        vec[1] = 2**63  # does not fit int64
        assert vec.is_object and vec[1] == 2**63 and vec[0] == 0
        vec2 = VEC_EXACT.zeros(4)
        vec2[2] = Fraction(1, 2)
        assert vec2.is_object and vec2[2] == Fraction(1, 2)

    def test_delta_add_promotes_exactly_at_the_bound(self):
        vec = VEC_EXACT.copy([2**63 - 2, 0, 0, 0])
        VEC_EXACT.add_on_subsets_inplace(vec, 0b01, 1)
        assert not vec.is_object and vec[0] == 2**63 - 1
        VEC_EXACT.add_on_subsets_inplace(vec, 0b01, 1)
        assert vec.is_object and vec[0] == 2**63 and vec[1] == 2
        assert vec[2] == 0  # untouched positions stay untouched

    def test_incremental_context_survives_promotion(self):
        ground = GroundSet("AB")
        vec = IncrementalEvalContext(ground, backend="exact-vec")
        ref = IncrementalEvalContext(ground, backend="exact")
        vec.support_table(), ref.support_table()
        for mask, delta in ((0b11, BOUNDARY), (0b01, BOUNDARY),
                            (0b11, BOUNDARY), (0b01, -1)):
            assert vec.apply_delta(mask, delta) == ref.apply_delta(mask, delta)
        assert vec_equals_list(vec.density_table(), ref.density_table())
        assert vec_equals_list(vec.support_table(), ref.support_table())
        assert list(vec.density_items()) == list(ref.density_items())

    def test_fraction_deltas_in_a_live_context(self):
        ground = GroundSet("ABC")
        vec = IncrementalEvalContext(ground, backend="exact-vec")
        ref = IncrementalEvalContext(ground, backend="exact")
        vec.support_table(), ref.support_table()
        for mask, delta in ((0b101, Fraction(1, 3)), (0b001, 2),
                            (0b101, Fraction(-1, 3))):
            assert vec.apply_delta(mask, delta) == ref.apply_delta(mask, delta)
        assert vec_equals_list(vec.density_table(), ref.density_table())
        assert vec_equals_list(vec.support_table(), ref.support_table())


class TestVecTable:
    def test_reads_hand_back_python_ints(self):
        vec = VEC_EXACT.copy([1, 2, 3, 4])
        assert type(vec[0]) is int
        assert all(type(v) is int for v in vec)
        assert vec.tolist() == [1, 2, 3, 4]

    def test_backend_for_table_roundtrip(self):
        assert backend_for_table(VEC_EXACT.zeros(2)) is VEC_EXACT

    def test_pickles_across_process_boundaries(self):
        import pickle

        for vec in (VEC_EXACT.copy([1, -2]),
                    VEC_EXACT.copy([Fraction(1, 3), 2**70])):
            clone = pickle.loads(pickle.dumps(vec))
            assert isinstance(clone, VecTable)
            assert list(clone) == list(vec)
            assert clone.is_object == vec.is_object

    def test_float_reads_go_to_object_not_truncated(self):
        # floats are not exact values, but storage must never silently
        # truncate them to ints (mirrors what a python list would hold)
        vec = VEC_EXACT.copy([1.5, 2])
        assert vec.is_object and vec[0] == 1.5
