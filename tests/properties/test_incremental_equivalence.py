"""Property suite: incremental tables exactly equal full recomputation.

Random delta sequences applied to random instances must leave the
incremental engine's density / support / differential tables *exactly*
equal to a from-scratch batched recompute, and its per-delta violation
tracking exactly equal to scalar satisfaction checks -- on both the
exact and the float backend.  Deltas are integer-valued, so float64
arithmetic is exact and equality is bit-for-bit on both backends (any
divergence is a logic bug, not roundoff).

Ground sets deliberately include the degenerate corners: the empty
ground set, singleton ``S``, and all-zero densities (delta sequences
that cancel).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.core import (
    ConstraintSet,
    DifferentialConstraint,
    GroundSet,
    SetFamily,
    SetFunction,
    SparseDensityFunction,
    decide,
    differential_apply_delta,
    differential_function,
    differential_function_by_definition,
)
from repro.engine import (
    ConstraintServer,
    EngineConfig,
    IncrementalEvalContext,
    StreamSession,
    recompute_tables,
)
from repro.engine.backends import backend_by_name

GROUNDS = [GroundSet("ABCDE"[:n]) for n in range(6)]  # |S| = 0..5

BACKENDS = ["exact", "float"]


def tables_equal(a, b) -> bool:
    """Exact equality across list/ndarray storage."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a, dtype=np.float64),
                              np.asarray(b, dtype=np.float64))
    return list(a) == list(b)


@st.composite
def instances(draw, min_size: int = 0):
    """A ground set, a constraint list, and an integer delta sequence."""
    ground = draw(st.sampled_from(GROUNDS[min_size:]))
    universe = ground.universe_mask
    masks = st.integers(min_value=0, max_value=universe)
    n_constraints = draw(st.integers(min_value=0, max_value=3))
    constraints = []
    for _ in range(n_constraints):
        lhs = draw(masks)
        members = draw(st.lists(masks, min_size=0, max_size=3))
        constraints.append(
            DifferentialConstraint(ground, lhs, SetFamily(ground, members))
        )
    deltas = draw(
        st.lists(
            st.tuples(masks, st.integers(min_value=-3, max_value=3)),
            min_size=0,
            max_size=10,
        )
    )
    return ground, constraints, deltas


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=250)
@given(data=instances())
def test_tables_match_full_recompute(backend_name, data):
    """Incremental density/support/differential == batched recompute."""
    ground, constraints, deltas = data
    backend = backend_by_name(backend_name)
    ctx = IncrementalEvalContext(
        ground, constraints=constraints, backend=backend
    )
    # materialize every table *before* the deltas: they must be
    # delta-maintained, not lazily recomputed at comparison time
    ctx.support_table()
    for c in constraints:
        ctx.differential_table(c.family)
    for mask, delta in deltas:
        ctx.apply_delta(mask, delta)

    families = [c.family.members for c in constraints]
    density, support, diffs = recompute_tables(
        ground.size, ctx.density_items(), families, backend
    )
    assert tables_equal(ctx.density_table(), density)
    assert tables_equal(ctx.support_table(), support)
    for c, want in zip(constraints, diffs):
        assert tables_equal(ctx.differential_table(c.family), want)


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=150)
@given(data=instances())
def test_violations_match_scalar_paths(backend_name, data):
    """Per-delta violation tracking == scalar satisfied_by, dense and
    sparse, after every single delta."""
    ground, constraints, deltas = data
    ctx = IncrementalEvalContext(
        ground, constraints=constraints, backend=backend_name
    )
    for mask, delta in deltas:
        ctx.apply_delta(mask, delta)
        density = dict(ctx.density_items())
        dense = SetFunction.from_density(
            ground, density, exact=(backend_name == "exact")
        )
        sparse = SparseDensityFunction(ground, density)
        for c in constraints:
            want = c.satisfied_by(dense)
            assert c.satisfied_by(sparse) == want
            assert ctx.is_violated(c) == (not want)
    # the whole-set view agrees too
    cset = ConstraintSet(ground, constraints)
    dense = SetFunction.from_density(
        ground, dict(ctx.density_items()), exact=(backend_name == "exact")
    )
    assert cset.satisfied_by(dense) == (not ctx.violated_constraints())


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=100)
@given(data=instances())
def test_stream_reports_are_consistent(backend_name, data):
    """StreamReport flips reconcile: replaying the net flips from a
    satisfied-set snapshot reproduces the final violated set, and every
    reported flip is a real status change."""
    ground, constraints, deltas = data
    session = StreamSession(
        ground,
        constraints,
        config=EngineConfig(engine="incremental", backend=backend_name),
    )
    violated = set()
    for mask, delta in deltas:
        before = set(session.violated_constraints())
        report = session.apply([(mask, delta)])
        after = set(session.violated_constraints())
        assert set(report.newly_violated) == after - before
        assert set(report.restored) == before - after
        assert set(report.violated) == after
        violated = after
    assert violated == set(session.violated_constraints())


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=100)
@given(data=instances(min_size=1))
def test_setfunction_delta_hook_matches_rebuild(backend_name, data):
    """SetFunction.apply_density_delta == rebuilding from the patched
    density; differential_apply_delta == re-running the batched pass."""
    ground, constraints, deltas = data
    exact = backend_name == "exact"
    f = SetFunction.zeros(ground, exact=exact)
    density = {}
    family = (
        constraints[0].family
        if constraints
        else SetFamily(ground, [1])  # {A}
    )
    diff = f.differential(family)
    for mask, delta in deltas:
        f.apply_density_delta(mask, delta)
        differential_apply_delta(diff._values, family, mask, delta)
        density[mask] = density.get(mask, 0) + delta
    rebuilt = SetFunction.from_density(ground, density, exact=exact)
    assert tables_equal(f.table(), rebuilt.table())
    assert tables_equal(f.density().table(), rebuilt.density().table())
    want_diff = differential_function(rebuilt, family)
    assert tables_equal(diff._values, want_diff.table())


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=60)
@given(data=instances())
def test_engine_matches_scalar_definition(backend_name, data):
    """The maintained differential table also equals the scalar
    Definition 2.1 loop (engine vs scalar on arbitrary, possibly
    degenerate, instances)."""
    ground, constraints, deltas = data
    ctx = IncrementalEvalContext(
        ground, constraints=constraints, backend=backend_name
    )
    for c in constraints:
        ctx.differential_table(c.family)
    for mask, delta in deltas:
        ctx.apply_delta(mask, delta)
    f = SetFunction.from_density(
        ground, dict(ctx.density_items()), exact=(backend_name == "exact")
    )
    for c in constraints:
        want = differential_function_by_definition(f, c.family)
        assert tables_equal(ctx.differential_table(c.family), want.table())


@settings(max_examples=40)
@given(data=instances())
def test_server_answers_match_direct_decide(data):
    """Microbatched, coalesced, memoized answers == decide() -- for
    implication queries against C and checks against a live
    incremental instance."""
    ground, constraints, deltas = data
    cset = ConstraintSet(ground, constraints)
    live = IncrementalEvalContext(ground, constraints=constraints)
    for mask, delta in deltas:
        live.apply_delta(mask, delta)
    targets = list(constraints) + [
        DifferentialConstraint(
            ground, 0, SetFamily(ground, [ground.universe_mask])
        )
    ]

    async def scenario():
        async with ConstraintServer(cset, instance=live) as server:
            implied = await asyncio.gather(
                *[server.implies(t) for t in targets]
            )
            checked = await asyncio.gather(
                *[server.check(t) for t in targets]
            )
            return implied, checked

    implied, checked = asyncio.run(scenario())
    f = SetFunction.from_density(ground, dict(live.density_items()), exact=True)
    for t, answer in zip(targets, implied):
        assert answer == decide(cset, t)
    for t, answer in zip(targets, checked):
        assert answer == t.satisfied_by(f)
