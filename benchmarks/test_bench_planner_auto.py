"""E19 -- the planner's choices vs hand-pinned ones, and plan overhead.

Three workload shapes mirror the engine benchmarks: E5's implication
queries (one constraint set, many ``decide`` calls), E16's streaming
transactions (delta-maintained constraint monitoring), and a loaded
evaluation loop (the ``loaded`` shape: delta bursts followed by
verdict + support probes over a seeded instance).  For each shape,
every choice a user could pin is timed -- the ``implies`` method for
E5, the numeric backend for the live shapes -- then ``auto`` (the
planner's resolution) is timed the same way.

Acceptance (asserted):

* the planner itself is free: **< 1 ms per plan()** decision;
* ``auto`` achieves **>= 0.9x the throughput of the best hand-tuned
  configuration** on every shape (one remeasure absorbs scheduler
  noise -- auto resolves to one of the candidate configurations, so
  the true ratio is ~1.0).

Row keys are host-independent (fixed candidate labels; the auto rows
record what the planner resolved for the fixed ground-set sizes, which
do not depend on the measuring host).
"""

from __future__ import annotations

import random
import time

from repro.core import ConstraintSet, GroundSet, decide
from repro.engine import (
    EngineConfig,
    EvalContext,
    StreamSession,
    default_planner,
)
from repro.instances import random_constraint

from _harness import format_table, report

N_QUERY = 12
N_STREAM = 12
N_SCALE = 14
QUERIES = 60
STREAM_TXS = 250
SCALE_ROUNDS = 40
SCALE_SEED_ROWS = 2_000
PLAN_CALLS = 2_000
FLOOR = 0.9


def _best_of(fn, rounds=5):
    best = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def _query_workload():
    from repro.core import DifferentialConstraint, SetFamily

    rng = random.Random(1900)
    ground = GroundSet([f"x{i}" for i in range(N_QUERY)])
    # two-member families keep the set out of the FD fragment (general
    # differential constraints, the E5 regime): auto dispatches every
    # query to the memoized engine decider, same as the hand-tuned pin
    cset = ConstraintSet(
        ground,
        [
            random_constraint(rng, ground, max_members=2, min_members=2)
            for _ in range(6)
        ],
    )
    # small left-hand sides make L(X, Y) exponentially large -- the E5
    # regime where table containment beats scalar lattice enumeration
    targets = []
    for _ in range(QUERIES):
        lhs = 1 << rng.randrange(N_QUERY) if rng.random() < 0.8 else 0
        members = [
            1 << b
            for b in rng.sample(
                [i for i in range(N_QUERY) if not (lhs >> i) & 1], 2
            )
        ]
        targets.append(
            DifferentialConstraint(ground, lhs, SetFamily(ground, members))
        )
    return ground, cset, targets


def _time_queries(cset, targets, method, repeats=10):
    context = EvalContext(private_cache=True)  # no cross-candidate reuse
    decide(cset, targets[0], method=method, context=context)  # warm caches

    def run():
        for _ in range(repeats):
            for target in targets:
                decide(cset, target, method=method, context=context)

    return QUERIES * repeats / _best_of(run)


def _stream_ops(n, txs, seed):
    rng = random.Random(seed)
    return [
        [(rng.randrange(1 << n), rng.choice((1, 1, 1, -1))) for _ in range(3)]
        for _ in range(txs)
    ]


def _time_stream(ground, constraints, transactions, config):
    def run():
        session = StreamSession(ground, constraints, config=config)
        for tx in transactions:
            session.apply(tx)
        session.close()

    return len(transactions) / _best_of(run)


def _time_scale(ground, constraints, seed_density, bursts, probes, config):
    session = StreamSession(
        ground, constraints, density=dict(seed_density), config=config
    )

    def run():
        for burst in bursts:
            session.apply(burst)
            session.violated_constraints()
            for mask in probes:
                session.value(mask)

    throughput = len(bursts) / _best_of(run)
    session.close()
    return throughput


class TestPlannerAuto:
    def test_auto_within_floor_of_best_hand_tuned(self, benchmark):
        planner = default_planner()
        rows = []
        ratios = {}

        # --- planner decision overhead --------------------------------
        sizes = (N_QUERY, N_STREAM, N_SCALE)
        t0 = time.perf_counter()
        for _ in range(PLAN_CALLS):
            for n in sizes:
                planner.plan(n)
        per_plan = (time.perf_counter() - t0) / (PLAN_CALLS * len(sizes))
        assert per_plan < 1e-3, f"plan() took {per_plan * 1e6:.1f} us"
        rows.append(
            ("plan-overhead", "auto", "us/plan", f"{per_plan * 1e6:.2f}")
        )

        # --- E5 shape: implication queries ----------------------------
        ground, cset, targets = _query_workload()
        auto_method, _ = planner.decide_method(ground.size)
        # scalar methods do ~ms of real work per pass (one repeat is a
        # stable measurement); the memoized engine path answers in us,
        # so it is looped up to comparable wall time
        e5 = {
            "engine": _time_queries(cset, targets, "engine", repeats=10),
            "lattice": _time_queries(cset, targets, "lattice", repeats=1),
            "sat": _time_queries(cset, targets, "sat", repeats=1),
        }
        best_method = max(e5, key=e5.get)
        best_repeats = 10 if best_method == "engine" else 1
        self._emit(
            rows, ratios, "E5-implication", "q/s", e5,
            _time_queries(cset, targets, "auto", repeats=10),
            f"auto->{auto_method}",
            lambda: _time_queries(cset, targets, "auto", repeats=10),
            lambda: _time_queries(
                cset, targets, best_method, repeats=best_repeats
            ),
        )

        # --- E16 shape: streaming transactions ------------------------
        s_ground = GroundSet([f"x{i}" for i in range(N_STREAM)])
        rng = random.Random(1601)
        s_constraints = [
            random_constraint(rng, s_ground, max_members=2, min_members=1)
            for _ in range(4)
        ]
        transactions = _stream_ops(N_STREAM, STREAM_TXS, 1602)
        pins = {
            backend: EngineConfig(backend=backend)
            for backend in ("exact", "float")
        }
        e16 = {
            label: _time_stream(s_ground, s_constraints, transactions, cfg)
            for label, cfg in pins.items()
        }
        best_stream = max(e16, key=e16.get)
        self._emit(
            rows, ratios, "E16-streaming", "tx/s", e16,
            _time_stream(
                s_ground, s_constraints, transactions, EngineConfig()
            ),
            f"auto->{planner.plan(N_STREAM).backend}",
            lambda: _time_stream(
                s_ground, s_constraints, transactions, EngineConfig()
            ),
            lambda: _time_stream(
                s_ground, s_constraints, transactions, pins[best_stream]
            ),
        )

        # --- loaded shape: delta bursts + verdict/probe reads ---------
        c_ground = GroundSet([f"x{i}" for i in range(N_SCALE)])
        rng = random.Random(1701)
        c_constraints = [
            random_constraint(rng, c_ground, max_members=2, min_members=1)
            for _ in range(4)
        ]
        seed = {}
        for _ in range(SCALE_SEED_ROWS):
            mask = rng.randrange(1 << N_SCALE)
            seed[mask] = seed.get(mask, 0) + 1
        bursts = _stream_ops(N_SCALE, SCALE_ROUNDS, 1702)
        probes = [rng.randrange(1 << N_SCALE) for _ in range(4)]
        loaded = {
            label: _time_scale(
                c_ground, c_constraints, seed, bursts, probes, cfg
            )
            for label, cfg in pins.items()
        }
        best_loaded = max(loaded, key=loaded.get)
        self._emit(
            rows, ratios, "loaded", "rounds/s", loaded,
            _time_scale(
                c_ground, c_constraints, seed, bursts, probes, EngineConfig()
            ),
            f"auto->{planner.plan(N_SCALE).backend}",
            lambda: _time_scale(
                c_ground, c_constraints, seed, bursts, probes, EngineConfig()
            ),
            lambda: _time_scale(
                c_ground, c_constraints, seed, bursts, probes,
                pins[best_loaded],
            ),
        )

        # --- acceptance: auto within the floor everywhere -------------
        retried = []
        for shape, (ratio, rerun) in list(ratios.items()):
            for _ in range(2):
                if ratio >= FLOOR:
                    break
                # a remeasure absorbs scheduler noise (auto resolves to
                # one of the candidate configs, so the true ratio is ~1)
                ratio = rerun()
                if shape not in retried:
                    retried.append(shape)
            assert ratio >= FLOOR, (
                f"{shape}: auto reached only {ratio:.2f}x of the best "
                f"hand-tuned configuration (floor {FLOOR}x)"
            )

        lines = format_table(
            ("workload", "config", "metric", "value"), rows
        )
        lines.append(
            f"acceptance floor (auto vs best hand-tuned): {FLOOR}x, met on "
            f"all {len(ratios)} shapes"
            + (f" (remeasured: {', '.join(retried)})" if retried else "")
        )
        report(
            "E19_planner_auto",
            "planner auto vs hand-pinned method/backend (cost model)",
            lines,
        )
        benchmark(lambda: planner.plan(N_QUERY))

    @staticmethod
    def _emit(
        rows, ratios, shape, metric, hand_tuned, auto_thr, auto_label,
        measure_auto, measure_best,
    ):
        for label, thr in sorted(hand_tuned.items()):
            rows.append((shape, f"{label}(hand)", metric, f"{thr:.1f}"))
        rows.append((shape, auto_label, metric, f"{auto_thr:.1f}"))
        best = max(hand_tuned.values())
        rows.append((shape, "auto/best", "ratio", f"{auto_thr / best:.2f}x"))

        def remeasure():
            return measure_auto() / measure_best()

        ratios[shape] = (auto_thr / best, remeasure)
