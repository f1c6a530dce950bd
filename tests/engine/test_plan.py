"""The engine planner: backend boundaries, the config surface and the
live factory.

Every cost-model threshold is crossed from both sides, degenerate
ground sets (``|S| in {0, 1}``) are pinned, and the engine kwargs and
tier knobs that the config object replaced are verified to be gone.
"""

from __future__ import annotations

import pytest

from repro.core import ConstraintSet, GroundSet
from repro.core.ground import MAX_DENSE_SIZE
from repro.engine import (
    EngineConfig,
    EvalContext,
    IncrementalEvalContext,
    StreamSession,
    build_context,
    default_context,
    default_planner,
)
from repro.engine.plan import DENSE_LIMIT
from repro.errors import NotApplicableError, PlanError
from repro.fis import BasketDatabase
from repro.relational import StreamingFDChecker


def plan_for(n, config=None):
    return default_planner().plan(n, config)


def ground_of(n):
    return GroundSet([f"x{i}" for i in range(n)])


class TestCostModelBoundaries:
    def test_dense_limit_matches_core(self):
        # one constant, two layers: the planner's cutoff must be the
        # ground set's own dense capability bound
        assert DENSE_LIMIT == MAX_DENSE_SIZE

    def test_one_shot_workloads_are_batched(self):
        # one-shot implication runs on a plain (stateless) EvalContext
        # and the planner sends it to the batched table decider
        assert type(default_context()) is EvalContext
        assert default_planner().decide_method(8)[0] == "engine"
        assert plan_for(8).backend == "exact"

    def test_past_dense_limit_is_scalar(self):
        # past the dense limit one-shot implication takes the SAT path;
        # the planner still resolves a backend for the one-shot context
        planner = default_planner()
        assert planner.decide_method(DENSE_LIMIT)[0] == "engine"
        assert planner.decide_method(DENSE_LIMIT + 1)[0] == "sat"
        assert plan_for(DENSE_LIMIT + 1).backend == "float"

    def test_streaming_is_incremental(self):
        session = StreamSession(ground_of(8))
        assert type(session.context) is IncrementalEvalContext
        session.close()

    def test_streaming_degenerate_ground_sets_stay_incremental(self):
        # a live session needs live tables even over |S| <= 1
        for n in (0, 1):
            session = StreamSession(ground_of(n))
            assert type(session.context) is IncrementalEvalContext
            session.close()

    def test_backend_crossover(self):
        flt = default_planner().FLOAT_MIN_N
        # two rungs: exact below the float bar, float from it up
        for n in (0, 2, flt - 1):
            assert plan_for(n).backend == "exact"
        for n in (flt, DENSE_LIMIT):
            assert plan_for(n).backend == "float"

    def test_incremental_tier_shares_the_backend_rule(self):
        flt = default_planner().FLOAT_MIN_N
        # the live density is a sparse dict on every backend, so live
        # contexts have no bar of their own: the factory builds the
        # one-shot plan's backend
        for n in range(DENSE_LIMIT + 1):
            plan = plan_for(n)
            live = build_context(plan, ground_of(n))
            assert live.backend.name == plan.backend
        assert plan_for(flt - 1).backend == "exact"
        assert plan_for(flt).backend == "float"
        assert plan_for(flt, EngineConfig(tol=0.0)).backend == "exact"

    def test_zero_tolerance_forces_exact(self):
        flt = default_planner().FLOAT_MIN_N
        # past the float bar, tol=0 still demands exact zero tests
        for n in (0, 2, flt - 1, flt, flt + 2, DENSE_LIMIT):
            assert plan_for(n, EngineConfig(tol=0.0)).backend == "exact"

    def test_pinned_backend_wins(self):
        assert plan_for(4, EngineConfig(backend="float")).backend == "float"
        assert plan_for(20, EngineConfig(backend="exact")).backend == "exact"

    def test_resolved_backend_table(self):
        """The backend rule over every dense-capable size, both
        tolerances and every pin: exact at tol=0 or below the float
        bar, float from it up, a pin always wins."""
        flt = default_planner().FLOAT_MIN_N
        for n in range(DENSE_LIMIT + 1):
            for tol in (0.0, EngineConfig().tol):
                for pin in (None, "exact", "float"):
                    config = EngineConfig(backend=pin, tol=tol)
                    if pin is not None:
                        expected = pin
                    elif tol == 0 or n < flt:
                        expected = "exact"
                    else:
                        expected = "float"
                    assert plan_for(n, config).backend == expected, (
                        n, tol, pin
                    )

    def test_single_cpu_host_never_shards(self, monkeypatch):
        from repro.engine import plan as plan_module

        monkeypatch.setattr(plan_module, "effective_cpus", lambda: 1)
        # a big live instance on one CPU is still one incremental
        # context: the plan names a backend and durability, nothing else
        plan = plan_for(16)
        assert set(plan.as_dict()) == {"backend", "durable"}
        session = StreamSession(
            ground_of(16), density={m: 1 for m in range(1000)},
            config=EngineConfig(),
        )
        assert type(session.context) is IncrementalEvalContext
        assert session.plan == plan
        session.close()

    def test_plan_overhead_reasons_and_stamp(self):
        plan = plan_for(8)
        assert plan.reasons  # --explain has something to print
        assert plan.stamp() == f"backend={plan.backend}"
        assert plan.as_dict() == {"backend": "exact", "durable": False}
        assert "backend=exact" in plan.explain()
        assert not hasattr(plan, "tier")


class TestForcedTiersAndValidation:
    def test_forced_live_tier_past_dense_limit_is_loud(self):
        big = ground_of(DENSE_LIMIT + 1)
        with pytest.raises(PlanError, match="dense limit"):
            StreamSession(big)
        with pytest.raises(PlanError, match="dense limit"):
            build_context(plan_for(big.size), big)
        from repro.fis.discovery import zero_set

        db = BasketDatabase.of(big, "x0")
        with pytest.raises(PlanError, match="dense limit"):
            zero_set(db, config=EngineConfig())

    def test_config_validation(self):
        for bad in ("decimal", "exact-vec"):
            with pytest.raises(PlanError, match="unknown backend"):
                EngineConfig(backend=bad)
        for ok in ("exact", "float"):
            assert EngineConfig(backend=ok).backend == ok
        with pytest.raises(PlanError):
            EngineConfig(fsync="sometimes")
        with pytest.raises(PlanError):
            EngineConfig(snapshot_every=0)
        with pytest.raises(PlanError):
            plan_for(-1)

    def test_config_has_exactly_five_fields(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(EngineConfig)] == [
            "backend", "durable", "snapshot_every", "fsync", "tol",
        ]

    @pytest.mark.parametrize(
        "kwarg", ["engine", "cache_size", "private_cache"]
    )
    def test_removed_config_fields_are_a_type_error(self, kwarg):
        with pytest.raises(TypeError, match=kwarg):
            EngineConfig(**{kwarg: "auto"})


class TestBuildContext:
    def test_factory_returns_the_plan_tier(self):
        ground = GroundSet("ABCD")
        for backend in ("exact", "float"):
            plan = plan_for(4, EngineConfig(backend=backend, tol=1e-6))
            ctx = build_context(plan, ground, density={0b0011: 2})
            # the one live factory: always the incremental context, on
            # the plan's backend and tolerance
            assert type(ctx) is IncrementalEvalContext
            assert ctx.backend.name == backend
            assert ctx.tol == 1e-6
            assert ctx.value(0b0011) == 2


class TestDecideMethod:
    def test_one_brain_with_the_implication_decider(self):
        planner = default_planner()
        assert planner.decide_method(4, fd_fragment=True)[0] == "fd"
        assert planner.decide_method(4, fd_fragment=False)[0] == "engine"
        assert planner.decide_method(DENSE_LIMIT, False)[0] == "engine"
        assert planner.decide_method(DENSE_LIMIT + 1, False)[0] == "sat"
        # the fd fragment stays P-time past the dense limit
        assert planner.decide_method(DENSE_LIMIT + 1, True)[0] == "fd"

    def test_engine_refusal_names_the_suggested_plan(self):
        from repro.core.implication import find_uncovered_engine

        ground = GroundSet([f"x{i}" for i in range(DENSE_LIMIT + 1)])
        cset = ConstraintSet.of(ground, "x0 -> x1, x2")
        target = cset.constraints[0]
        with pytest.raises(NotApplicableError, match="method='sat'"):
            find_uncovered_engine(cset, target)


class TestDeprecationShims:
    """The engine-kwarg deprecation is finished: the pre-config kwargs
    are gone, passing one is a plain ``TypeError``, and
    ``config=EngineConfig(...)`` is the only way in."""

    @pytest.mark.parametrize(
        "kwarg",
        [
            "backend", "shards", "workers", "durable",
            "tol", "fsync", "snapshot_every", "private_cache",
        ],
    )
    def test_stream_session_rejects_the_old_kwargs(self, kwarg):
        with pytest.raises(TypeError, match=kwarg):
            StreamSession(GroundSet("AB"), **{kwarg: "exact"})

    def test_wrappers_reject_the_old_kwargs(self):
        ground = GroundSet("AB")
        with pytest.raises(TypeError):
            BasketDatabase.of(ground, "A").stream_session(backend="exact")
        with pytest.raises(TypeError):
            StreamingFDChecker(ground, [], shards=2)
        for kwarg in ("snapshot_every", "fsync"):
            with pytest.raises(TypeError, match=kwarg):
                StreamingFDChecker(ground, [], **{kwarg: "always"})
        assert not hasattr(BasketDatabase, "sharded_context")
        assert not hasattr(EngineConfig, "from_legacy")
        # the live context shares the process-wide decider cache; only
        # the one-shot EvalContext keeps the private-cache switch
        with pytest.raises(TypeError, match="private_cache"):
            IncrementalEvalContext(ground, private_cache=True)

    def test_default_construction_does_not_warn(self):
        import warnings

        ground = GroundSet("AB")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            session = StreamSession(ground)
            BasketDatabase.of(ground, "A").stream_session()
            StreamingFDChecker(ground, [])
        # the default session: the live context on the exact backend
        assert session.plan.stamp() == "backend=exact"


class TestDurableReopen:
    def test_auto_reopen_inherits_the_recorded_backend(self, tmp_path):
        ground = GroundSet("ABC")
        data = str(tmp_path / "data")
        first = StreamSession(
            ground,
            config=EngineConfig(backend="float", durable=data),
        )
        first.insert("AB")
        first.close()
        reopened = StreamSession(ground, config=EngineConfig(durable=data))
        # the plan AND the reported config describe the running backend
        assert reopened.plan.backend == "float"
        assert reopened.config.backend == "float"
        assert reopened.context.backend.name == "float"
        reopened.close()

    @pytest.mark.parametrize("backend", [None, "exact"], ids=["auto", "exact"])
    def test_exact_vec_directories_reopen_as_exact(self, tmp_path, backend):
        """Directories recorded while the vectorized exact backend was a
        separate ``"exact-vec"`` rung reopen on today's ``exact``."""
        import json
        import os

        ground = GroundSet("ABCD")
        theory = ConstraintSet.of(ground, "A -> B", "C -> D").constraints
        data = str(tmp_path / "data")
        first = StreamSession(
            ground,
            constraints=theory,
            config=EngineConfig(backend="exact", durable=data),
        )
        for row in ("AB", "A", "CD", "C", "ABCD"):
            first.insert(row)
        density = list(first.context.density_items())
        violated = first.context.violated_constraints()
        first.close()
        meta_path = os.path.join(data, "meta.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta["backend"] = "exact-vec"
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)

        config = EngineConfig(durable=data)
        if backend is not None:
            config = config.replace(backend=backend)
        reopened = StreamSession(ground, constraints=theory, config=config)
        assert reopened.plan.backend == "exact"
        assert reopened.config.backend == "exact"
        assert reopened.context.backend.name == "exact"
        assert list(reopened.context.density_items()) == density
        assert reopened.context.violated_constraints() == violated
        reopened.close()


class TestAffinityAwareCpuDetection:
    """The host-CPU probe must see what the *process* may use, not what
    the box has: ``os.cpu_count()`` overstates parallelism under CPU
    pinning and container quotas (the fleet sizes itself from it)."""

    def test_effective_cpus_prefers_affinity(self, monkeypatch):
        from repro.engine import plan

        monkeypatch.setattr(
            plan.os, "sched_getaffinity", lambda pid: {0, 1},
            raising=False,
        )
        monkeypatch.setattr(plan.os, "cpu_count", lambda: 16)
        assert plan.effective_cpus() == 2

    def test_effective_cpus_falls_back_to_cpu_count(self, monkeypatch):
        from repro.engine import plan

        def unavailable(pid):
            raise OSError("no affinity syscall on this platform")

        monkeypatch.setattr(
            plan.os, "sched_getaffinity", unavailable, raising=False
        )
        monkeypatch.setattr(plan.os, "cpu_count", lambda: 3)
        assert plan.effective_cpus() == 3
