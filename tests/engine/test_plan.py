"""The engine planner: the backend rule, the config surface and the
live context's dense-limit guard.

The backend is ``exact`` at every dense-capable size unless pinned,
every cost-model threshold is crossed from both sides, degenerate
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
    default_context,
    default_planner,
)
from repro.engine.plan import DENSE_LIMIT
from repro.errors import NotApplicableError, PlanError
from repro.fis import BasketDatabase
from repro.relational import StreamingFDChecker


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

    def test_past_dense_limit_is_scalar(self):
        # past the dense limit one-shot implication takes the SAT path
        planner = default_planner()
        assert planner.decide_method(DENSE_LIMIT)[0] == "engine"
        assert planner.decide_method(DENSE_LIMIT + 1)[0] == "sat"

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

    def test_incremental_tier_shares_the_backend_rule(self):
        # the live density is a sparse dict on every backend, so live
        # contexts have no size bar: unpinned, they run on exact
        for n in range(DENSE_LIMIT + 1):
            live = IncrementalEvalContext(ground_of(n))
            assert live.backend.name == "exact"

    def test_pinned_backend_wins(self):
        for n, pin in ((4, "float"), (20, "exact"), (20, "float")):
            session = StreamSession(
                ground_of(n), config=EngineConfig(backend=pin)
            )
            assert session.context.backend.name == pin
            session.close()

    def test_resolved_backend_table(self):
        """The backend rule over every dense-capable size, both
        tolerances and every pin: a pin wins, otherwise exact."""
        for n in range(DENSE_LIMIT + 1):
            ground = ground_of(n)
            for tol in (0.0, EngineConfig().tol):
                for pin in (None, "exact", "float"):
                    config = EngineConfig(backend=pin, tol=tol)
                    session = StreamSession(ground, config=config)
                    assert session.context.backend.name == (
                        pin or "exact"
                    ), (n, tol, pin)
                    assert session.context.tol == tol
                    session.close()

    def test_single_cpu_host_never_shards(self, monkeypatch):
        from repro.engine import plan as plan_module

        monkeypatch.setattr(plan_module, "effective_cpus", lambda: 1)
        # a big live instance on one CPU is still one incremental
        # context on the exact backend
        session = StreamSession(
            ground_of(16), density={m: 1 for m in range(1000)},
            config=EngineConfig(),
        )
        assert type(session.context) is IncrementalEvalContext
        assert session.context.backend.name == "exact"
        session.close()


class TestForcedTiersAndValidation:
    def test_forced_live_tier_past_dense_limit_is_loud(self):
        big = ground_of(DENSE_LIMIT + 1)
        # one guard, in the live context itself; PlanError is still a
        # ValueError for callers that catch that
        for build in (
            lambda: StreamSession(big),
            lambda: StreamSession(big, config=EngineConfig(backend="float")),
            lambda: IncrementalEvalContext(big),
            lambda: BasketDatabase.of(big, "x0").stream_session(),
        ):
            with pytest.raises(PlanError, match="dense limit"):
                build()
        with pytest.raises(ValueError, match="dense limit"):
            IncrementalEvalContext(big, backend="float")

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
        # a live mining source is a StreamSession, so discovery takes
        # no engine config
        from repro.fis.discovery import discover_cover, theory_of, zero_set

        db = BasketDatabase.of(ground, "A")
        for mine in (zero_set, theory_of, discover_cover):
            with pytest.raises(TypeError, match="config"):
                mine(db, config=EngineConfig())

    def test_default_construction_does_not_warn(self):
        import warnings

        ground = GroundSet("AB")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            session = StreamSession(ground)
            BasketDatabase.of(ground, "A").stream_session()
            StreamingFDChecker(ground, [])
        # the default session: the live context on the exact backend
        assert session.context.backend.name == "exact"


class TestDurableReopen:
    def test_auto_reopen_inherits_the_recorded_backend(self, tmp_path):
        """An unpinned reopen runs on the backend the directory
        recorded: float directories -- every ``repro serve --data-dir``
        at ``|S| >= 14`` wrote one while the planner had a float rung --
        reopen on float with identical state."""
        for n, rows in ((4, ("AB",)), (20, ("AB", "A", "CD", "ABT"))):
            ground = GroundSet("ABCDEFGHIJKLMNOPQRST"[:n])
            theory = ConstraintSet.of(ground, "A -> B", "C -> D").constraints
            data = str(tmp_path / f"data{n}")
            first = StreamSession(
                ground,
                constraints=theory,
                config=EngineConfig(backend="float", durable=data),
            )
            for row in rows:
                first.insert(row)
            density = list(first.context.density_items())
            violated = first.context.violated_constraints()
            first.close()
            reopened = StreamSession(
                ground, constraints=theory, config=EngineConfig(durable=data)
            )
            # the reported config AND the context describe the running
            # backend
            assert reopened.config.backend == "float"
            assert reopened.context.backend.name == "float"
            assert list(reopened.context.density_items()) == density
            assert reopened.context.violated_constraints() == violated
            assert reopened.transactions == len(rows)
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
