"""Tests for the microbatching constraint server.

Correctness against the direct decider is carried by the property suite
(tests/properties/test_incremental_equivalence.py); here we pin the serving
mechanics: coalescing, cross-batch memoization, the LRU bound,
version-keyed invalidation against a live instance, and lifecycle.
"""

import asyncio

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
        t = target(ground, "A -> C")
        # equal constraints built independently share a fingerprint
        queries = [
            ("implies", target(ground, "A -> C")) for _ in range(10)
        ] + [("implies", t)]
        answers, stats = serve_queries(cset, queries)
        assert answers == [True] * 11
        assert stats.computed + stats.cache_hits <= 2
        assert stats.coalesced + stats.cache_hits >= 9

    def test_check_queries_need_an_instance(self, ground, cset):
        with pytest.raises(RuntimeError, match="no live instance"):
            serve_queries(cset, [("check", target(ground, "A -> B"))])

    def test_unknown_kind_rejected(self, ground, cset):
        with pytest.raises(ValueError, match="unknown query kind"):
            serve_queries(cset, [("refute", target(ground, "A -> B"))])


class TestConstraintServer:
    def test_cross_batch_memoization(self, ground, cset):
        async def scenario():
            async with ConstraintServer(cset) as server:
                first = await server.implies(target(ground, "A -> C"))
                # a later, separate batch: answered from the LRU
                second = await server.implies(target(ground, "A -> C"))
                return first, second, server.stats

        first, second, stats = asyncio.run(scenario())
        assert first is second is True
        assert stats.computed == 1
        assert stats.cache_hits == 1
        assert stats.batches == 2

    def test_lru_bound_evicts(self, ground, cset):
        async def scenario():
            async with ConstraintServer(cset, cache_size=1) as server:
                a = target(ground, "A -> C")
                b = target(ground, "C -> A")
                await server.implies(a)
                await server.implies(b)  # evicts a
                await server.implies(a)  # recomputed
                return server.stats

        stats = asyncio.run(scenario())
        assert stats.computed == 3
        assert stats.cache_hits == 0

    def test_version_keyed_check_invalidation(self, ground, cset):
        ctx = IncrementalEvalContext(ground, constraints=cset.constraints)
        c = cset.constraints[0]  # A -> B

        async def scenario():
            async with ConstraintServer(cset, instance=ctx) as server:
                ok_before = await server.check(c)
                cached = await server.check(c)
                ctx.apply_delta(ground.parse("AC"), 1)  # violates A -> B
                ok_after = await server.check(c)
                return ok_before, cached, ok_after, server.stats

        ok_before, cached, ok_after, stats = asyncio.run(scenario())
        assert ok_before is cached is True
        assert ok_after is False  # the stale answer missed on zero_version
        assert stats.cache_hits == 1
        assert stats.computed == 2

    def test_unversioned_instances_are_not_memoized(self, ground, cset):
        from repro.core import SetFunction

        f = SetFunction.zeros(ground, exact=True)

        async def scenario():
            async with ConstraintServer(cset, instance=f) as server:
                a = await server.check(cset.constraints[0])
                b = await server.check(cset.constraints[0])
                return a, b, server.stats

        a, b, stats = asyncio.run(scenario())
        assert a is b is True
        assert stats.cache_hits == 0

    def test_batch_bound_respected(self, ground, cset):
        async def scenario():
            async with ConstraintServer(cset, max_batch=2) as server:
                answers = await asyncio.gather(
                    *[server.implies(target(ground, "A -> C")) for _ in range(5)]
                )
                return answers, server.stats

        answers, stats = asyncio.run(scenario())
        assert answers == [True] * 5
        # drain-ready batching is deterministic: ceil(5 / 2) batches
        assert stats.batches == 3

    def test_gathered_identical_requests_form_one_batch(self, ground, cset):
        """Requests submitted together are all queued before the
        dispatcher drains, so they ride one batch and one computation."""
        n = 6

        async def scenario():
            async with ConstraintServer(cset) as server:
                answers = await asyncio.gather(
                    *[server.implies(target(ground, "A -> C")) for _ in range(n)]
                )
                return answers, server.stats

        answers, stats = asyncio.run(scenario())
        assert answers == [True] * n
        assert stats.batches == 1
        assert stats.coalesced == n - 1
        assert stats.computed == 1

    def test_sequential_requests_arm_no_timer(self, ground, cset):
        """A lone request is served on the next loop turn: the
        dispatcher never schedules a timed wait for batch-mates."""

        async def scenario():
            loop = asyncio.get_running_loop()
            timers = []

            def counting(name):
                real = getattr(loop, name)

                def wrapper(*args, **kwargs):
                    timers.append(name)
                    return real(*args, **kwargs)

                return wrapper

            async with ConstraintServer(cset) as server:
                loop.call_at = counting("call_at")
                loop.call_later = counting("call_later")
                try:
                    for text in ("A -> C", "C -> A", "A -> C", "B -> C"):
                        await server.implies(target(ground, text))
                finally:
                    del loop.call_at, loop.call_later
                return timers, server.stats

        timers, stats = asyncio.run(scenario())
        assert timers == []
        assert stats.batches == 4

    def test_query_before_start_raises(self, ground, cset):
        server = ConstraintServer(cset)
        with pytest.raises(RuntimeError, match="not started"):
            asyncio.run(server.implies(target(ground, "A -> C")))

    def test_double_start_raises(self, cset):
        async def scenario():
            async with ConstraintServer(cset) as server:
                with pytest.raises(RuntimeError, match="already started"):
                    await server.start()

        asyncio.run(scenario())

    def test_stop_is_idempotent(self, cset):
        async def scenario():
            server = ConstraintServer(cset)
            await server.start()
            await server.stop()
            await server.stop()

        asyncio.run(scenario())

    def test_request_racing_stop_is_still_answered(self, ground, cset):
        """A query enqueued behind the stop sentinel must not hang."""
        from repro.engine.server import _STOP

        async def scenario():
            server = ConstraintServer(cset)
            await server.start()
            # simulate the race: the stop marker reaches the queue
            # before a concurrent request does
            await server._queue.put(_STOP)
            ask = asyncio.create_task(
                server.implies(target(ground, "A -> C"))
            )
            await asyncio.sleep(0.01)  # request lands after the sentinel
            await server.stop()  # must drain and answer the straggler
            return await asyncio.wait_for(ask, timeout=1)

        assert asyncio.run(scenario()) is True

    def test_stats_partition_the_requests(self, ground, cset):
        """requests == coalesced + cache_hits + computed, even when a
        coalesced group is also a cache hit."""

        async def scenario():
            async with ConstraintServer(cset) as server:
                t = target(ground, "A -> C")
                await server.implies(t)  # computed, now cached
                await asyncio.gather(*[server.implies(t) for _ in range(3)])
                return server.stats

        stats = asyncio.run(scenario())
        assert stats.requests == 4
        assert (
            stats.coalesced + stats.cache_hits + stats.computed
            == stats.requests
        )
        assert stats.computed == 1

    def test_bad_max_batch(self, cset):
        with pytest.raises(ValueError):
            ConstraintServer(cset, max_batch=0)

    def test_non_dense_ground_falls_back_to_sat(self):
        """Past the dense limit the server must never build 2^|S| tables
        -- implication answers route through the SAT decider instead."""
        big = GroundSet([f"x{i}" for i in range(25)])
        assert not big.is_dense_capable()
        cset = ConstraintSet.of(big, "x0 -> x1", "x1 -> x2")
        answers, _ = serve_queries(
            cset,
            [
                ("implies", target(big, "x0 -> x2")),
                ("implies", target(big, "x2 -> x0")),
            ],
        )
        assert answers == [True, False]

    def test_constraint_set_server_helper(self, ground, cset):
        async def scenario():
            async with cset.server() as server:
                return await server.implies(target(ground, "A -> C"))

        assert asyncio.run(scenario()) is True
