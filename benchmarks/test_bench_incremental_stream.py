"""E16 -- incremental streaming: per-delta latency vs full recompute.

The incremental engine keeps a sparse live density and maintains the
materialized support and differential tables under single-row deltas
(one vectorized subset add per table per row) with per-delta
constraint monitoring, where a
non-incremental system rebuilds every table (``O(n * 2^n)`` each) and
rescans every constraint's lattice per change.  The regenerated table
reports per-delta latency for both on matched instances at
``|S| in {8, 12, 16}`` on both backends; the acceptance row is the
``>= 10x`` speedup at ``|S| = 16``.
"""

import random
import time

from repro.core import GroundSet
from repro.engine import IncrementalEvalContext, recompute_tables, shared_cache
from repro.engine.backends import backend_by_name
from repro.instances import random_constraint

from _harness import format_table, report

N_CONSTRAINTS = 4
N_SEED_ROWS = 32
N_DELTAS_INCREMENTAL = 200


def _instance(n: int, backend_name: str):
    """A seeded instance: ground set, constraints, density, delta stream."""
    ground = GroundSet([f"x{i}" for i in range(n)])
    rng = random.Random(1600 + n)
    constraints = [
        random_constraint(rng, ground, max_members=2, min_members=1)
        for _ in range(N_CONSTRAINTS)
    ]
    density = {}
    for _ in range(N_SEED_ROWS):
        mask = rng.randrange(1 << n)
        density[mask] = density.get(mask, 0) + rng.randint(1, 3)
    deltas = [
        (rng.randrange(1 << n), rng.choice([-1, 1, 1]))
        for _ in range(N_DELTAS_INCREMENTAL)
    ]
    return ground, constraints, density, deltas


def _context(ground, constraints, density, backend):
    ctx = IncrementalEvalContext(
        ground, density=density, constraints=constraints, backend=backend
    )
    ctx.support_table()
    for c in constraints:
        ctx.differential_table(c.family)
    return ctx


def _time_incremental(ground, constraints, density, deltas, backend) -> float:
    ctx = _context(ground, constraints, density, backend)
    t0 = time.perf_counter()
    for mask, delta in deltas:
        ctx.apply_delta(mask, delta)
    return (time.perf_counter() - t0) / len(deltas)


def _time_full(n, constraints, density, deltas, backend, rounds) -> float:
    """Per-change cost of the non-incremental system: rebuild density,
    support and all differential tables, then rescan each constraint's
    lattice for nonzero density.  (Generously reuses the cached boolean
    lattice tables -- those are structural and delta-independent.)"""
    cache = shared_cache()
    families = [c.family.members for c in constraints]
    running = dict(density)
    total = 0.0
    for mask, delta in deltas[:rounds]:
        running[mask] = running.get(mask, 0) + delta
        t0 = time.perf_counter()
        dens, support, diffs = recompute_tables(
            n, running.items(), families, backend
        )
        for c in constraints:
            backend.any_nonzero_where(dens, cache.lattice_table(c), 1e-9)
        total += time.perf_counter() - t0
    return total / rounds


class TestIncrementalStream:
    def test_per_delta_latency_vs_full_recompute(self, benchmark):
        rows = []
        speedups = {}
        for n in (8, 12, 16):
            for backend_name in ("exact", "float"):
                backend = backend_by_name(backend_name)
                ground, constraints, density, deltas = _instance(n, backend_name)
                t_incr = _time_incremental(
                    ground, constraints, density, deltas, backend
                )
                t_full = _time_full(
                    n, constraints, density, deltas, backend, rounds=5
                )
                speedup = t_full / t_incr
                speedups[(n, backend_name)] = speedup
                rows.append(
                    (
                        n,
                        backend_name,
                        f"{t_incr * 1e3:.4f}",
                        f"{t_full * 1e3:.3f}",
                        f"{speedup:.1f}x",
                    )
                )
        report(
            "E16_incremental_stream",
            "per-delta latency: incremental maintenance vs full recompute",
            format_table(
                [
                    "|S|",
                    "backend",
                    "incremental (ms/delta)",
                    "full recompute (ms/delta)",
                    "speedup",
                ],
                rows,
            ),
        )
        # acceptance: >= 10x at |S| = 16 on both backends
        assert speedups[(16, "exact")] >= 10
        assert speedups[(16, "float")] >= 10

        # pytest-benchmark row: the steady-state single-delta hot path
        ground, constraints, density, deltas = _instance(16, "float")
        ctx = _context(ground, constraints, density, backend_by_name("float"))
        state = {"i": 0}

        def one_delta():
            mask, delta = deltas[state["i"] % len(deltas)]
            state["i"] += 1
            ctx.apply_delta(mask, delta)

        benchmark(one_delta)

    def test_streamed_state_matches_recompute(self):
        """The timed stream ends in exactly the recomputed state."""
        for backend_name in ("exact", "float"):
            backend = backend_by_name(backend_name)
            ground, constraints, density, deltas = _instance(12, backend_name)
            ctx = _context(ground, constraints, density, backend)
            for mask, delta in deltas:
                ctx.apply_delta(mask, delta)
            families = [c.family.members for c in constraints]
            dens, support, diffs = recompute_tables(
                12, ctx.density_items(), families, backend
            )
            assert list(ctx.density_table()) == list(dens)
            assert list(ctx.support_table()) == list(support)
            for c, want in zip(constraints, diffs):
                assert list(ctx.differential_table(c.family)) == list(want)
