"""Tests for the memoizing constraint server.

Correctness against the direct decider is carried by the property suite
(tests/properties/test_incremental_equivalence.py); here we pin the serving
mechanics: memoization, the LRU bound, version-keyed invalidation
against a live instance, and the stats partition.
"""

import pytest

from repro.core import ConstraintSet, DifferentialConstraint, GroundSet, decide
from repro.engine import ConstraintServer, IncrementalEvalContext, serve_queries


@pytest.fixture
def ground() -> GroundSet:
    return GroundSet("ABCD")


@pytest.fixture
def cset(ground) -> ConstraintSet:
    return ConstraintSet.of(ground, "A -> B", "B -> C")


def target(ground, text: str) -> DifferentialConstraint:
    return DifferentialConstraint.parse(ground, text)


class TestServeQueries:
    def test_answers_match_direct_decide(self, ground, cset):
        texts = ["A -> C", "C -> A", "A -> B, CD", "B -> C", "AD -> BC"]
        queries = [("implies", target(ground, t)) for t in texts]
        answers, stats = serve_queries(cset, queries)
        assert answers == [decide(cset, q) for _, q in queries]
        assert stats.requests == len(texts)

    def test_identical_concurrent_queries_coalesce(self, ground, cset):
        # identical queries coalesce into one computation through the
        # answer LRU: equal constraints built independently share a
        # fingerprint, so every repeat is a cache hit
        queries = [("implies", target(ground, "A -> C")) for _ in range(11)]
        answers, stats = serve_queries(cset, queries)
        assert answers == [True] * 11
        assert stats.computed == 1
        assert stats.cache_hits == 10

    def test_check_queries_need_an_instance(self, ground, cset):
        with pytest.raises(RuntimeError, match="no live instance"):
            serve_queries(cset, [("check", target(ground, "A -> B"))])

    def test_unknown_kind_rejected(self, ground, cset):
        with pytest.raises(ValueError, match="unknown query kind"):
            serve_queries(cset, [("refute", target(ground, "A -> B"))])


class TestConstraintServer:
    def test_cross_batch_memoization(self, ground, cset):
        server = ConstraintServer(cset)
        first = server.implies(target(ground, "A -> C"))
        # a later, separate request: answered from the LRU
        second = server.implies(target(ground, "A -> C"))
        assert first is second is True
        assert server.stats.computed == 1
        assert server.stats.cache_hits == 1

    def test_lru_bound_evicts(self, ground, cset):
        server = ConstraintServer(cset, cache_size=1)
        a = target(ground, "A -> C")
        b = target(ground, "C -> A")
        server.implies(a)
        server.implies(b)  # evicts a
        server.implies(a)  # recomputed
        assert server.stats.computed == 3
        assert server.stats.cache_hits == 0

    def test_version_keyed_check_invalidation(self, ground, cset):
        ctx = IncrementalEvalContext(ground, constraints=cset.constraints)
        c = cset.constraints[0]  # A -> B
        server = ConstraintServer(cset, instance=ctx)
        ok_before = server.check(c)
        cached = server.check(c)
        ctx.apply_delta(ground.parse("AC"), 1)  # violates A -> B
        ok_after = server.check(c)
        assert ok_before is cached is True
        assert ok_after is False  # the stale answer missed on zero_version
        assert server.stats.cache_hits == 1
        assert server.stats.computed == 2

    def test_check_uses_the_instance_tolerance(self):
        """``/check`` answers under the tolerance the instance tracks its
        statuses and ``zero_version`` under, not the library default."""
        from repro.engine import EngineConfig, StreamSession
        from repro.fis.discovery import zero_set

        ground = GroundSet("ABC")
        cset = ConstraintSet.of(ground, "A -> B")
        c = cset.constraints[0]
        session = StreamSession(
            ground, constraints=cset.constraints,
            config=EngineConfig(tol=1e-6),
        )
        server = ConstraintServer(cset, instance=session.context)
        a = ground.parse("A")
        session.apply([(a, 1e-7)])  # below the instance's tolerance
        assert session.violated_constraints() == ()
        assert a in zero_set(session, tol=session.context.tol)
        assert server.check(c) is True
        session.apply([(a, 1e-3)])  # past it: A -> B is violated
        assert session.violated_constraints() == (c,)
        assert server.check(c) is False
        session.close()

    def test_unversioned_instances_are_not_memoized(self, ground, cset):
        from repro.core import SetFunction

        f = SetFunction.zeros(ground, exact=True)
        server = ConstraintServer(cset, instance=f)
        a = server.check(cset.constraints[0])
        b = server.check(cset.constraints[0])
        assert a is b is True
        assert server.stats.cache_hits == 0
        assert server.stats.computed == 2

    def test_stats_partition_the_requests(self, ground, cset):
        """requests == cache_hits + computed."""
        server = ConstraintServer(cset)
        t = target(ground, "A -> C")
        server.implies(t)  # computed, now cached
        for _ in range(3):
            server.implies(t)
        server.implies(target(ground, "C -> A"))
        stats = server.stats
        assert stats.requests == 5
        assert stats.cache_hits + stats.computed == stats.requests
        assert stats.computed == 2
        assert stats.as_dict() == {
            "requests": 5, "cache_hits": 3, "computed": 2,
        }

    def test_bad_cache_size(self, cset):
        for bad in (0, -3):
            with pytest.raises(ValueError, match="cache_size"):
                ConstraintServer(cset, cache_size=bad)

    def test_non_dense_ground_falls_back_to_sat(self, monkeypatch):
        """Past the dense limit the server must never build 2^|S| tables
        -- implication answers route through the SAT decider instead."""
        from repro.core import implication

        big = GroundSet("ABCDEFGHIJKLMNOPQRSTUVWXY")
        assert not big.is_dense_capable()
        cset = ConstraintSet.of(big, "A -> B, CD", "B -> C, E")
        routed = []
        real_sat = implication.implies_sat
        monkeypatch.setattr(
            implication, "implies_sat",
            lambda c, t: routed.append(t) or real_sat(c, t),
        )
        answers, _ = serve_queries(
            cset,
            [
                ("implies", target(big, "A -> B, CD")),
                ("implies", target(big, "C -> A, B")),
            ],
        )
        assert answers == [True, False]
        assert len(routed) == 2

    def test_fd_fragment_routes_to_fd_not_the_engine(
        self, ground, cset, monkeypatch
    ):
        """``/implies`` takes the library's planner route: an
        all-singleton-family query is answered by attribute closure and
        never builds the engine's lattice tables."""
        from repro.core import implication
        from repro.engine import decider

        routed, tables = [], []
        real_fd = implication.implies_fd
        real_tables = decider.find_uncovered_batched
        monkeypatch.setattr(
            implication, "implies_fd",
            lambda c, t: routed.append(t) or real_fd(c, t),
        )
        monkeypatch.setattr(
            decider, "find_uncovered_batched",
            lambda *args: tables.append(args) or real_tables(*args),
        )
        texts = ["A -> C", "C -> A", "AD -> C"]
        answers, _ = serve_queries(
            cset, [("implies", target(ground, t)) for t in texts]
        )
        assert answers == [True, False, True]
        assert len(routed) == len(texts) and tables == []

    def test_constraint_set_server_helper(self, ground, cset):
        server = cset.server()
        assert isinstance(server, ConstraintServer)
        assert server.implies(target(ground, "A -> C")) is True
