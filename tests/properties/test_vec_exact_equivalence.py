"""Property suite: the exact backend equals the definitional oracles.

``ExactBackend`` runs the float backend's strided butterflies on int64
(or, after promotion, object-dtype) ndarrays -- but it claims
*exactness*: every table, verdict and derived answer must equal plain
python-number arithmetic bit for bit (same values, same python types on
read-out), including across the overflow promotion (int64 -> object
dtype) and for Fractions, which route to object storage from the start.
The references are the ``O(4^n)`` oracles
:func:`repro.core.transforms.naive_density_table` /
:func:`~repro.core.transforms.naive_zeta_table` and the definitional
subset sums; the suite drives random inputs through raw butterflies,
batched differentials and incremental delta maintenance, plus targeted
overflow-boundary cases at ``+/- 2^62`` (the exact point where one
butterfly add could leave int64).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.core import DifferentialConstraint, GroundSet, SetFamily
from repro.core import subsets as sb
from repro.core.transforms import naive_density_table, naive_zeta_table
from repro.engine import (
    EXACT,
    IncrementalEvalContext,
    VecTable,
    recompute_tables,
)
from repro.engine.backends import backend_for_table
from repro.engine.batch import differential_table

GROUNDS = [GroundSet("ABCDE"[:n]) for n in range(6)]  # |S| = 0..5


def naive_subset_zeta(values) -> list:
    """``T[X] = sum of values[U] for U subseteq X``, by definition."""
    return [
        sum(values[u] for u in sb.iter_subsets(x)) for x in range(len(values))
    ]


def naive_subset_mobius(values) -> list:
    """The inverse of :func:`naive_subset_zeta`, by definition."""
    return [
        sum(
            (-1) ** (sb.popcount(x) - sb.popcount(u)) * values[u]
            for u in sb.iter_subsets(x)
        )
        for x in range(len(values))
    ]


#: Each butterfly with its python-number oracle.
ORACLES = {
    "superset_zeta_inplace": naive_zeta_table,
    "superset_mobius_inplace": naive_density_table,
    "subset_zeta_inplace": naive_subset_zeta,
    "subset_mobius_inplace": naive_subset_mobius,
}
BUTTERFLIES = tuple(ORACLES)

#: One butterfly add can double a magnitude: 2^62 is the first value
#: whose doubling leaves int64, so tables seeded there must promote.
BOUNDARY = 2**62


def table_equals(vec, want) -> bool:
    """Byte-identical: same values AND same python types on read-out."""
    got = list(vec)
    want = list(want)
    return got == want and all(type(g) is type(w) for g, w in zip(got, want))


def naive_differential(values, members) -> list:
    """``D^Y(X) = sum of values[U] over U in L(X, Y)``: supersets of
    ``X`` that no member of ``Y`` is a subset of."""
    unblocked = [
        values[u] if not any(m & u == m for m in members) else 0
        for u in range(len(values))
    ]
    return naive_zeta_table(unblocked)


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
    vec = EXACT.copy(values)
    getattr(EXACT, op)(vec)
    assert table_equals(vec, ORACLES[op](values))


@settings(max_examples=100)
@given(values=int_tables(), members=st.lists(
    st.integers(min_value=0, max_value=31), max_size=3,
))
def test_differential_tables_byte_identical(values, members):
    members = tuple(m % len(values) for m in members)
    vec = differential_table(EXACT.copy(values), members, EXACT)
    assert table_equals(vec, naive_differential(values, members))


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
    vec = EXACT.copy(values)
    assert EXACT.any_nonzero_where(vec, where, tol) == any(
        abs(v) > tol for v, w in zip(values, where) if w
    )
    assert EXACT.all_nonnegative(vec, tol) == all(v >= -tol for v in values)
    EXACT.zero_where(vec, where)
    assert table_equals(
        vec, [0 if w else v for v, w in zip(values, where)]
    )


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


def dense(n: int, density: dict) -> list:
    """The python-number density table of a ``{mask: value}`` dict."""
    return [density.get(m, 0) for m in range(1 << n)]


def oracle_violated(constraints, density: dict) -> tuple:
    """Definition 3.1: violated iff some nonzero density lies in L(X, Y)."""
    return tuple(
        c for c in constraints
        if any(v != 0 and c.lattice_contains(u) for u, v in density.items())
    )


@settings(max_examples=200)
@given(data=instances())
def test_incremental_tier_byte_identical(data):
    """Delta-maintained tables, statuses and the set-function protocol
    agree with a python-dict density run through the oracles --
    including the empty ground set and all-zero densities (empty delta
    lists and deltas that cancel)."""
    ground, constraints, deltas = data
    n = ground.size
    ctx = IncrementalEvalContext(ground, constraints=constraints)
    # materialize live tables first so they are delta-maintained
    ctx.support_table()
    for c in constraints:
        ctx.differential_table(c.family)
    density: dict = {}
    theory_version, zero_version = ctx.theory_version, ctx.zero_version
    for mask, delta in deltas:
        before = oracle_violated(constraints, density)
        was_nonzero = density.get(mask, 0) != 0
        density[mask] = density.get(mask, 0) + delta
        if density[mask] == 0:
            del density[mask]
        after = oracle_violated(constraints, density)
        flips = [
            (c, c in after)
            for c in constraints
            if (c in before) != (c in after)
        ]
        assert ctx.apply_delta(mask, delta) == flips
        theory_version += bool(flips)
        zero_version += was_nonzero != (mask in density)

    table = dense(n, density)
    assert table_equals(ctx.density_table(), table)
    assert table_equals(ctx.support_table(), naive_zeta_table(table))
    for c in constraints:
        assert table_equals(
            ctx.differential_table(c.family),
            naive_differential(table, c.family.members),
        )
    assert list(ctx.density_items()) == sorted(density.items())
    assert ctx.zero_set() == frozenset(
        m for m in range(1 << n) if m not in density
    )
    assert ctx.violated_constraints() == oracle_violated(constraints, density)
    assert ctx.theory_version == theory_version
    assert ctx.zero_version == zero_version
    support = naive_zeta_table(table)
    for mask in range(1 << n):
        assert ctx.value(mask) == support[mask]

    # and the from-scratch batched rebuild equals the maintained tables
    families = [c.family.members for c in constraints]
    rebuilt, support, diffs = recompute_tables(
        n, ctx.density_items(), families, EXACT
    )
    assert table_equals(rebuilt, table)
    assert table_equals(support, ctx.support_table())
    for c, want in zip(constraints, diffs):
        assert table_equals(want, ctx.differential_table(c.family))


# ----------------------------------------------------------------------
# the promotion ladder
# ----------------------------------------------------------------------
class TestOverflowPromotion:
    def test_boundary_values_promote_mid_transform(self):
        """+/- 2^62 entries force int64 -> object during a butterfly;
        the results still equal python-int arithmetic exactly."""
        for seed in ([BOUNDARY, BOUNDARY, 0, -BOUNDARY],
                     [-BOUNDARY, -BOUNDARY, -BOUNDARY, -BOUNDARY],
                     [2**63 - 1, 1, 0, 0]):
            for op in BUTTERFLIES:
                vec = EXACT.copy(seed)
                assert not vec.is_object  # fits int64 going in...
                getattr(EXACT, op)(vec)
                assert table_equals(vec, ORACLES[op](seed))

    def test_int64_stays_int64_below_the_boundary(self):
        vec = EXACT.copy([BOUNDARY - 1, 0, 0, 0])
        EXACT.superset_zeta_inplace(vec)
        assert not vec.is_object  # headroom check did not fire
        assert vec[0] == BOUNDARY - 1

    def test_fractions_route_to_object_from_the_start(self):
        seed = [Fraction(1, 3), Fraction(-2, 7), 5, 0]
        vec = EXACT.copy(seed)
        assert vec.is_object
        EXACT.superset_zeta_inplace(vec)
        assert table_equals(vec, naive_zeta_table(seed))
        assert isinstance(vec[0], Fraction)

    def test_setitem_promotes_on_overflow_and_fractions(self):
        vec = EXACT.zeros(4)
        vec[1] = 2**63  # does not fit int64
        assert vec.is_object and vec[1] == 2**63 and vec[0] == 0
        vec2 = EXACT.zeros(4)
        vec2[2] = Fraction(1, 2)
        assert vec2.is_object and vec2[2] == Fraction(1, 2)

    def test_delta_add_promotes_exactly_at_the_bound(self):
        # 4 entries: a masked full-width add; 64 entries: the sparse
        # 2^|mask| gather/scatter path
        for size in (4, 64):
            for sign in (1, -1):
                edge = sign * (2**63 - 2) - (sign < 0)
                vec = EXACT.copy([edge] + [0] * (size - 1))
                EXACT.add_on_subsets_inplace(vec, 0b01, sign)
                assert not vec.is_object and vec[0] == edge + sign
                EXACT.add_on_subsets_inplace(vec, 0b01, sign)
                assert vec.is_object and vec[0] == edge + 2 * sign
                assert vec[1] == 2 * sign
                assert vec[2] == 0  # untouched positions stay untouched

    def test_incremental_context_survives_promotion(self):
        ground = GroundSet("AB")
        ctx = IncrementalEvalContext(ground)
        ctx.support_table()
        density = {}
        for mask, delta in ((0b11, BOUNDARY), (0b01, BOUNDARY),
                            (0b11, BOUNDARY), (0b01, -1)):
            assert ctx.apply_delta(mask, delta) == []
            density[mask] = density.get(mask, 0) + delta
        table = dense(2, density)
        assert ctx.support_table().is_object
        assert table_equals(ctx.density_table(), table)
        assert table_equals(ctx.support_table(), naive_zeta_table(table))
        assert list(ctx.density_items()) == sorted(density.items())

    def test_fraction_deltas_in_a_live_context(self):
        ground = GroundSet("ABC")
        ctx = IncrementalEvalContext(ground)
        ctx.support_table()
        density = {}
        for mask, delta in ((0b101, Fraction(1, 3)), (0b001, 2),
                            (0b101, Fraction(-1, 3))):
            assert ctx.apply_delta(mask, delta) == []
            density[mask] = density.get(mask, 0) + delta
            if density[mask] == 0:
                del density[mask]
        table = dense(3, density)
        assert table_equals(ctx.density_table(), table)
        # the promoted support table keeps the Fraction-typed sums
        assert ctx.support_table().is_object
        assert ctx.support_table().tolist() == naive_zeta_table(table)
        assert list(ctx.density_items()) == [(0b001, 2)]


class TestVecTable:
    def test_reads_hand_back_python_ints(self):
        vec = EXACT.copy([1, 2, 3, 4])
        assert type(vec[0]) is int
        assert all(type(v) is int for v in vec)
        assert vec.tolist() == [1, 2, 3, 4]

    def test_backend_for_table_roundtrip(self):
        assert backend_for_table(EXACT.zeros(2)) is EXACT
        assert backend_for_table([0, 0]) is EXACT

    def test_pickles_across_process_boundaries(self):
        import pickle

        for vec in (EXACT.copy([1, -2]),
                    EXACT.copy([Fraction(1, 3), 2**70])):
            clone = pickle.loads(pickle.dumps(vec))
            assert isinstance(clone, VecTable)
            assert list(clone) == list(vec)
            assert clone.is_object == vec.is_object

    def test_float_reads_go_to_object_not_truncated(self):
        # floats are not exact values, but storage must never silently
        # truncate them to ints (mirrors what a python list would hold)
        vec = EXACT.copy([1.5, 2])
        assert vec.is_object and vec[0] == 1.5
