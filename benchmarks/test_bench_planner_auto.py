"""E19 -- the unpinned defaults vs hand-pinned choices, and planner
overhead.

Three workload shapes mirror the engine benchmarks: E5's implication
queries (one constraint set, many ``decide`` calls), E16's streaming
transactions (delta-maintained constraint monitoring), and a loaded
evaluation loop (the ``loaded`` shape: delta bursts followed by
verdict + support probes over a seeded instance).  For each shape,
every choice a user could pin is timed -- the ``implies`` method for
E5, the numeric backend for the live shapes -- then ``auto`` is timed
the same way: ``method="auto"`` (the planner's ``decide_method``) for
E5, an unpinned ``EngineConfig()`` (the ``exact`` backend) for the
live shapes.

Acceptance (asserted):

* the planner itself is free: **< 1 ms per decide_method()** call;
* ``auto`` achieves **>= 0.9x the throughput of the best hand-tuned
  configuration** on every shape.  A shape below the floor is
  remeasured as the median ratio of back-to-back single runs of
  ``auto`` and the best candidate, which a busy spell on a shared host
  slows alike.  Auto resolves to one of the candidate configurations,
  so the true ratio is ~1.0 on the live shapes; on E5 auto also pays
  its per-query method dispatch, a few percent of a memoized answer.

Row keys are host-independent (fixed candidate labels; the auto rows
record what ``auto`` resolved to for the fixed ground-set sizes, which
does not depend on the measuring host).
"""

from __future__ import annotations

import contextlib
import gc
import random
import statistics
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
DECIDE_CALLS = 2_000
FLOOR = 0.9
REMEASURE_PAIRS = 21


@contextlib.contextmanager
def _collector_off():
    # as in timeit: a collection pause lands on whichever candidate
    # happens to be running, so no timed run pays for one
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _elapsed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _best_of(fn, rounds=5):
    with _collector_off():
        return min(_elapsed(fn) for _ in range(rounds))


def _throughput(runner):
    """Operations per second of ``runner``'s run, best of five."""
    with runner as (run, ops):
        return ops / _best_of(run)


def _paired_ratio(auto_runner, best_runner, pairs=REMEASURE_PAIRS):
    """The median ``auto`` / ``best`` throughput ratio over back-to-back
    single runs, each side first in turn.

    Adjacent runs see the same host: a busy spell long enough to slow
    one side of a pair slows the other too, and the median ignores
    the pairs a spell only straddles.
    """
    with auto_runner as (auto, auto_ops), best_runner as (best, best_ops):
        auto()  # untimed warm-up: the first run fills the caches
        best()
        ratios = []
        with _collector_off():
            for i in range(pairs):
                if i % 2:
                    best_s = _elapsed(best)
                    auto_s = _elapsed(auto)
                else:
                    auto_s = _elapsed(auto)
                    best_s = _elapsed(best)
                ratios.append((auto_ops / auto_s) / (best_ops / best_s))
    return statistics.median(ratios)


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


@contextlib.contextmanager
def _queries(cset, targets, method, repeats=10):
    context = EvalContext(private_cache=True)  # no cross-candidate reuse
    decide(cset, targets[0], method=method, context=context)  # warm caches

    def run():
        for _ in range(repeats):
            for target in targets:
                decide(cset, target, method=method, context=context)

    yield run, QUERIES * repeats


def _stream_ops(n, txs, seed):
    rng = random.Random(seed)
    return [
        [(rng.randrange(1 << n), rng.choice((1, 1, 1, -1))) for _ in range(3)]
        for _ in range(txs)
    ]


def _auto_backend(ground):
    """The backend an unpinned session over ``ground`` runs on."""
    session = StreamSession(ground, config=EngineConfig())
    name = session.context.backend.name
    session.close()
    return name


@contextlib.contextmanager
def _stream(ground, constraints, transactions, config):
    def run():
        session = StreamSession(ground, constraints, config=config)
        for tx in transactions:
            session.apply(tx)
        session.close()

    yield run, len(transactions)


@contextlib.contextmanager
def _scale(ground, constraints, seed_density, bursts, probes, config):
    session = StreamSession(
        ground, constraints, density=dict(seed_density), config=config
    )

    def run():
        for burst in bursts:
            session.apply(burst)
            session.violated_constraints()
            for mask in probes:
                session.value(mask)

    try:
        yield run, len(bursts)
    finally:
        session.close()


class TestPlannerAuto:
    def test_auto_within_floor_of_best_hand_tuned(self, benchmark):
        planner = default_planner()
        rows = []
        ratios = {}

        # --- planner decision overhead --------------------------------
        sizes = (N_QUERY, N_STREAM, N_SCALE)
        t0 = time.perf_counter()
        for _ in range(DECIDE_CALLS):
            for n in sizes:
                planner.decide_method(n)
        per_call = (time.perf_counter() - t0) / (DECIDE_CALLS * len(sizes))
        assert per_call < 1e-3, (
            f"decide_method() took {per_call * 1e6:.1f} us"
        )
        rows.append(
            ("plan-overhead", "decide_method", "us/call",
             f"{per_call * 1e6:.2f}")
        )

        # --- E5 shape: implication queries ----------------------------
        ground, cset, targets = _query_workload()
        auto_method, _ = planner.decide_method(ground.size)
        # scalar methods do ~ms of real work per pass (one repeat is a
        # stable measurement); the memoized engine path answers in us,
        # so it is looped up to comparable wall time
        repeats = {"engine": 10, "lattice": 1, "sat": 1, "auto": 10}
        e5 = {
            method: _throughput(
                _queries(cset, targets, method, repeats[method])
            )
            for method in ("engine", "lattice", "sat")
        }
        best_method = max(e5, key=e5.get)
        self._emit(
            rows, ratios, "E5-implication", "q/s", e5,
            f"auto->{auto_method}",
            lambda: _queries(cset, targets, "auto", repeats["auto"]),
            lambda: _queries(
                cset, targets, best_method, repeats[best_method]
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
            label: _throughput(
                _stream(s_ground, s_constraints, transactions, cfg)
            )
            for label, cfg in pins.items()
        }
        best_stream = max(e16, key=e16.get)
        self._emit(
            rows, ratios, "E16-streaming", "tx/s", e16,
            f"auto->{_auto_backend(s_ground)}",
            lambda: _stream(
                s_ground, s_constraints, transactions, EngineConfig()
            ),
            lambda: _stream(
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
            label: _throughput(
                _scale(c_ground, c_constraints, seed, bursts, probes, cfg)
            )
            for label, cfg in pins.items()
        }
        best_loaded = max(loaded, key=loaded.get)
        self._emit(
            rows, ratios, "loaded", "rounds/s", loaded,
            f"auto->{_auto_backend(c_ground)}",
            lambda: _scale(
                c_ground, c_constraints, seed, bursts, probes, EngineConfig()
            ),
            lambda: _scale(
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
                # a paired remeasure absorbs scheduler noise
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
        benchmark(lambda: planner.decide_method(N_QUERY))

    @staticmethod
    def _emit(
        rows, ratios, shape, metric, hand_tuned, auto_label, auto_runner,
        best_runner,
    ):
        auto_thr = _throughput(auto_runner())
        for label, thr in sorted(hand_tuned.items()):
            rows.append((shape, f"{label}(hand)", metric, f"{thr:.1f}"))
        rows.append((shape, auto_label, metric, f"{auto_thr:.1f}"))
        best = max(hand_tuned.values())
        rows.append((shape, "auto/best", "ratio", f"{auto_thr / best:.2f}x"))

        def remeasure():
            return _paired_ratio(auto_runner(), best_runner())

        ratios[shape] = (auto_thr / best, remeasure)
