"""The engine planner: tier boundaries, the config surface and the factory.

Every cost-model threshold is crossed from both sides, degenerate
ground sets (``|S| in {0, 1}``) are pinned, and the engine kwargs that
the config object replaced are verified to be gone.
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
    Workload,
    build_context,
    default_planner,
    plan_of_context,
)
from repro.engine.plan import DENSE_LIMIT, TIERS
from repro.errors import NotApplicableError, PlanError
from repro.fis import BasketDatabase
from repro.relational import StreamingFDChecker
from repro.relational.fd import FunctionalDependency


def plan_for(config=None, **workload):
    return default_planner().plan(Workload(**workload), config)


class TestCostModelBoundaries:
    def test_dense_limit_matches_core(self):
        # one constant, two layers: the planner's cutoff must be the
        # ground set's own dense capability bound
        assert DENSE_LIMIT == MAX_DENSE_SIZE

    def test_one_shot_workloads_are_batched(self):
        plan = plan_for(n=8, constraints=4, queries=10)
        assert plan.tier == "batched"

    def test_degenerate_ground_sets_stay_scalar(self):
        for n in (0, 1):
            assert plan_for(n=n, queries=1).tier == "scalar"
        assert plan_for(n=2, queries=1).tier == "batched"

    def test_past_dense_limit_is_scalar(self):
        assert plan_for(n=DENSE_LIMIT, queries=1).tier == "batched"
        assert plan_for(n=DENSE_LIMIT + 1, queries=1).tier == "scalar"

    def test_streaming_is_incremental(self):
        plan = plan_for(n=8, constraints=2, streaming=True)
        assert plan.tier == "incremental"

    def test_streaming_degenerate_ground_sets_stay_incremental(self):
        # a live session needs live tables even over |S| <= 1
        for n in (0, 1):
            assert plan_for(n=n, streaming=True).tier == "incremental"

    def test_backend_crossover(self):
        flt = default_planner().FLOAT_MIN_N
        # two rungs: exact below the float bar, float from it up
        for n in (0, 2, flt - 1):
            assert plan_for(n=n, queries=1).backend == "exact"
        for n in (flt, DENSE_LIMIT):
            assert plan_for(n=n, queries=1).backend == "float"

    def test_incremental_tier_shares_the_backend_rule(self):
        flt = default_planner().FLOAT_MIN_N
        # the live density is a sparse dict on every backend, so the
        # streaming tier has no bar of its own
        for n in range(DENSE_LIMIT + 1):
            assert (
                plan_for(n=n, streaming=True).backend
                == plan_for(n=n, queries=1).backend
            )
        assert plan_for(n=flt - 1, streaming=True).backend == "exact"
        assert plan_for(n=flt, streaming=True).backend == "float"
        plan = plan_for(n=flt, streaming=True, config=EngineConfig(tol=0.0))
        assert plan.tier == "incremental" and plan.backend == "exact"

    def test_zero_tolerance_forces_exact(self):
        flt = default_planner().FLOAT_MIN_N
        # past the float bar, tol=0 still demands exact zero tests
        for n in (0, 2, flt - 1, flt, flt + 2, DENSE_LIMIT):
            for streaming in (False, True):
                plan = plan_for(
                    n=n, streaming=streaming, config=EngineConfig(tol=0.0)
                )
                assert plan.backend == "exact"

    def test_pinned_backend_wins(self):
        plan = plan_for(n=4, queries=1, config=EngineConfig(backend="float"))
        assert plan.backend == "float"

    def test_single_cpu_host_never_shards(self):
        plan = plan_for(
            n=16, streaming=True, density_size=10**6, delta_rate=1e6
        )
        assert plan.tier == "incremental"

    def test_plan_overhead_reasons_and_stamp(self):
        plan = plan_for(n=8, queries=1)
        assert plan.reasons  # --explain has something to print
        assert "tier=batched" in plan.stamp()
        assert plan.stamp() == f"tier=batched, backend={plan.backend}"
        assert plan.as_dict()["tier"] == "batched"
        assert "tier=batched" in plan.explain()


class TestForcedTiersAndValidation:
    def test_every_tier_can_be_forced(self):
        assert TIERS == ("scalar", "batched", "incremental")
        for tier in TIERS:
            plan = plan_for(
                n=6, streaming=True, config=EngineConfig(engine=tier)
            )
            assert plan.tier == tier

    def test_forced_live_tier_past_dense_limit_is_loud(self):
        with pytest.raises(PlanError, match="dense limit"):
            plan_for(
                n=DENSE_LIMIT + 1,
                streaming=True,
                config=EngineConfig(engine="incremental"),
            )

    def test_config_validation(self):
        with pytest.raises(PlanError):
            EngineConfig(engine="warp")
        with pytest.raises(PlanError, match="unknown engine tier"):
            EngineConfig(engine="sharded")
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
            EngineConfig(cache_size=0)
        with pytest.raises(PlanError):
            Workload(n=-1)

class TestBuildContext:
    def test_factory_returns_the_plan_tier(self):
        ground = GroundSet("ABCD")
        by_tier = {
            "scalar": EvalContext,
            "batched": EvalContext,
            "incremental": IncrementalEvalContext,
        }
        for tier, cls in by_tier.items():
            plan = plan_for(
                n=4, streaming=tier == "incremental",
                config=EngineConfig(engine=tier),
            )
            ctx = build_context(plan, ground)
            # incremental subclasses EvalContext: assert the exact
            # class, then the tier's distinguishing API
            assert type(ctx) is cls
            if tier == "scalar":
                assert ctx.backend is None  # operands keep their storage
            if tier == "batched":
                assert ctx.backend is not None

    def test_live_state_rejected_on_stateless_tiers(self):
        ground = GroundSet("AB")
        plan = plan_for(n=2, queries=1)
        assert plan.tier == "batched"
        with pytest.raises(PlanError, match="stateless"):
            build_context(plan, ground, density={1: 1})

    def test_plan_of_context_round_trips(self):
        ground = GroundSet("ABC")
        plan = plan_for(
            n=3, streaming=True, config=EngineConfig(engine="incremental")
        )
        described = plan_of_context(build_context(plan, ground))
        assert described.tier == "incremental"
        assert described.backend == plan.backend
        assert plan_of_context(EvalContext(backend="exact")).tier == "batched"
        assert plan_of_context(EvalContext()).tier == "scalar"


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
        "kwarg", ["backend", "shards", "workers", "durable"]
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
        assert not hasattr(BasketDatabase, "sharded_context")
        assert not hasattr(EngineConfig, "from_legacy")

    def test_default_construction_does_not_warn(self):
        import warnings

        ground = GroundSet("AB")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            session = StreamSession(ground)
            BasketDatabase.of(ground, "A").stream_session()
            StreamingFDChecker(ground, [])
        # the default session: incremental tier, exact backend
        assert session.plan.stamp() == "tier=incremental, backend=exact"


class TestDurableReopen:
    def test_auto_reopen_inherits_the_recorded_backend(self, tmp_path):
        ground = GroundSet("ABC")
        data = str(tmp_path / "data")
        first = StreamSession(
            ground,
            config=EngineConfig(
                engine="incremental", backend="float", durable=data
            ),
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
            config=EngineConfig(
                engine="incremental", backend="exact", durable=data
            ),
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
            config = config.replace(engine="incremental", backend=backend)
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
