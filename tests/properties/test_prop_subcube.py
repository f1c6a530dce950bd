"""Property suite: the subcube lattice kernels match Theorem 3.5.

The engine builds ``L(X, Y)``, the blocked table and the joint table
``L(C)`` by strided writes into subcubes of a ``2^n`` table, and decides
``C |= X -> Y`` by reading ``L(C)`` on the target's subcube only.  These
tests hold both to the definitions: the tables to their closed forms,
the decider to the scalar lattice decider's verdict *and* certificate
(the largest uncovered mask).  The strategies lean on the corners of
the subcube view: ``X`` empty or the whole ground (a 0-d view), empty
members, members inside ``X``, empty families and empty constraint
sets, over grounds of 0 to 6 elements, and each runs under several
values of ``batch.LOW_BITS`` (the bits no view fixes).
"""

from __future__ import annotations

import contextlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    ConstraintSet,
    DifferentialConstraint,
    GroundSet,
    SetFamily,
    find_uncovered,
    implies_lattice,
)
from repro.engine import (
    ImplicationCache,
    batch,
    find_uncovered_batched,
)

GROUNDS = [GroundSet("ABCDEF"[:n]) for n in range(7)]  # |S| = 0..6
#: Values of ``batch.LOW_BITS`` to run under: the stock value leaves
#: every left side of these small grounds unfixed in its view, so the
#: smaller ones are what put the strided subcube reads under test.
LOW_BITS = [0, 1, 2, batch.LOW_BITS]


@contextlib.contextmanager
def low_bits(value):
    saved = batch.LOW_BITS
    batch.LOW_BITS = value
    try:
        yield
    finally:
        batch.LOW_BITS = saved


def brute_lattice(n: int, lhs: int, members) -> np.ndarray:
    return np.array(
        [
            u & lhs == lhs and not any(u & m == m for m in members)
            for u in range(1 << n)
        ],
        dtype=bool,
    )


@st.composite
def lhs_masks(draw, ground):
    universe = ground.universe_mask
    return draw(
        st.one_of(
            st.just(0),
            st.just(universe),
            st.integers(min_value=0, max_value=universe),
        )
    )


@st.composite
def member_masks(draw, ground, lhs):
    """Any subset, the empty set, or a subset of ``lhs``."""
    universe = ground.universe_mask
    inside = [m for m in range(universe + 1) if m & lhs == m]
    return draw(
        st.one_of(
            st.integers(min_value=0, max_value=universe),
            st.just(0),
            st.sampled_from(inside),
        )
    )


@st.composite
def constraints(draw, ground):
    lhs = draw(lhs_masks(ground))
    members = draw(st.lists(member_masks(ground, lhs), max_size=3))
    return DifferentialConstraint(ground, lhs, SetFamily(ground, members))


@st.composite
def problems(draw):
    ground = draw(st.sampled_from(GROUNDS))
    cset = ConstraintSet(
        ground, draw(st.lists(constraints(ground), max_size=4))
    )
    return cset, draw(constraints(ground))


@given(problems(), st.sampled_from(LOW_BITS))
@settings(max_examples=400, deadline=None)
def test_subcube_decider_matches_the_lattice_decider(problem, bits):
    cset, target = problem
    with low_bits(bits):
        found = find_uncovered_batched(cset, target, ImplicationCache())
    assert found == find_uncovered(cset, target)  # the largest uncovered mask
    assert (found is None) == implies_lattice(cset, target)


@given(problems(), st.sampled_from(LOW_BITS))
@settings(max_examples=300, deadline=None)
def test_strided_tables_match_their_closed_forms(problem, bits):
    cset, target = problem
    with low_bits(bits):
        check_tables(cset, target)


def check_tables(cset, target):
    n, lhs, members = cset.ground.size, target.lhs, target.family.members
    assert np.array_equal(
        batch.lattice_table(n, lhs, members), brute_lattice(n, lhs, members)
    )
    assert np.array_equal(
        batch.superset_indicator(n, lhs), brute_lattice(n, lhs, ())
    )
    assert np.array_equal(
        batch.blocked_table(n, members), ~brute_lattice(n, 0, members)
    )
    fixed = batch.view_mask(lhs)
    on_subcube = brute_lattice(n, lhs, members)[
        [u for u in range(1 << n) if u & fixed == fixed]
    ]
    assert np.array_equal(batch.local_lattice(n, lhs, members), on_subcube)
    joint = np.zeros(1 << n, dtype=bool)
    for c in cset:
        joint |= brute_lattice(n, c.lhs, c.family.members)
    assert np.array_equal(
        batch.joint_lattice_table(
            n, ((c.lhs, c.family.members) for c in cset)
        ),
        joint,
    )


@pytest.mark.parametrize("n", [0, 1, 4])
def test_subcube_index_maps_back_in_bit_order(n):
    """``expand`` inverts the subcube's flat index order, monotonically."""
    for lhs in range(1 << n):
        above = [u for u in range(1 << n) if u & lhs == lhs]
        table = np.arange(1 << n)
        view = batch.subcube(table, n, lhs)
        assert view.reshape(-1).tolist() == above
        assert [batch.expand(i, n, lhs) for i in range(len(above))] == above


@pytest.mark.parametrize(
    "n, cset_texts, target_text, expected",
    [
        (0, [], "->", 0),  # |S| = 0, empty C, empty family: L = {0}
        (0, ["->"], "->", None),
        (1, [], "A ->", 1),  # X = S: the 0-d view
        (1, ["A ->"], "A ->", None),
        (3, ["ABC ->"], "ABC -> ", None),
        (3, ["AB -> C"], "ABC ->", 7),  # X = S, uncovered
        (3, [], "-> ", 7),  # X empty, empty family, empty C
        (3, ["A -> B"], "A -> 0", None),  # an empty member: L empty
        (3, [], "AB -> A", None),  # a member inside X: L empty
        (3, ["-> A"], "B -> AC", 3),  # L(target) = {B, AB, BC}; AB is uncovered
    ],
)
@pytest.mark.parametrize("bits", LOW_BITS)
def test_edge_cases(n, cset_texts, target_text, expected, bits):
    ground = GROUNDS[n]
    cset = ConstraintSet.of(ground, *cset_texts)
    target = DifferentialConstraint.parse(ground, target_text)
    assert find_uncovered(cset, target) == expected
    with low_bits(bits):
        found = find_uncovered_batched(cset, target, ImplicationCache())
    assert found == expected
