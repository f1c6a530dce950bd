"""The constraint server: async microbatching over the cached decider.

Serving workloads ask many small questions -- ``C |= target?`` from
concurrent clients, ``does the live instance satisfy c?`` from monitors.
Answering each arrival individually repeats dispatch overhead and, far
worse, recomputes answers that identical concurrent requests are about
to recompute again.  :class:`ConstraintServer` puts an asyncio
*microbatching* queue in front of the engine:

1. the dispatcher sleeps until a request arrives, yields to the event
   loop once so submitters that are already runnable can enqueue, then
   takes only what is queued (up to ``max_batch`` requests) -- batching
   is *drain-ready*: no timer ever holds a batch open waiting for
   batch-mates, so a lone request is served on the next loop turn;
2. the batch is *coalesced*: requests with equal fingerprint keys
   (:func:`repro.engine.decider.constraint_fingerprint` -- value
   identity, so equal constraints built independently coalesce) are
   computed once and fan the answer back out to every waiter;
3. answers are memoized in an LRU-bounded cache keyed by the same
   fingerprints, so repeated queries across batches are cache hits that
   never reach the decider at all.

Implication queries key on ``(fingerprint(C), fingerprint(target))``
and are immutable -- cached forever (up to the LRU bound).  Instance
checks key additionally on the live context's :attr:`zero_version`,
the incremental engine's counter that moves exactly when the zero set
``Z(f)`` changes -- stale entries therefore miss automatically after
any status-relevant delta, and benign deltas keep hitting the cache.

:func:`serve_queries` is the synchronous convenience wrapper used by
``repro serve``: it submits every query concurrently (so coalescing is
actually exercised) and returns the answers with the server stats.

Duck-typed like the rest of the engine; imports nothing from core.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Sequence, Tuple

from repro.engine.context import EvalContext
from repro.engine.decider import (
    ImplicationCache,
    _Lru,
    constraint_fingerprint,
    constraint_set_fingerprint,
    shared_cache,
)

__all__ = ["ConstraintServer", "ServerStats", "serve_queries"]

_STOP = object()


class ServerStats:
    """Counters describing how the server earned its keep."""

    __slots__ = ("requests", "batches", "coalesced", "cache_hits", "computed")

    def __init__(self):
        self.requests = 0
        #: Dispatcher wake-ups (each serves one drained batch).
        self.batches = 0
        #: Requests answered by riding another request in the same batch.
        self.coalesced = 0
        #: Distinct batch queries answered from the LRU without computing.
        self.cache_hits = 0
        #: Unique computations actually performed.
        self.computed = 0
        # the three request outcomes are disjoint, so
        # requests == coalesced + cache_hits + computed always holds

    def as_dict(self) -> dict:
        """The counters as a plain dict (the ``/stats`` server block)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ServerStats({inner})"


class ConstraintServer:
    """Async microbatching front end for implication and instance checks.

    Parameters
    ----------
    constraints:
        The constraint set ``C`` that ``implies`` queries are decided
        against: anything with the ``ConstraintSet.implies(target,
        method=, context=)`` signature, so a query takes the library's
        planner route.
    instance:
        Optional live instance for ``check`` queries -- an
        :class:`~repro.engine.incremental.IncrementalEvalContext` or
        any object with the set-function density protocol.
        Version-keyed caching needs ``zero_version``.
    max_batch:
        Microbatch bound: a batch holds at most ``max_batch`` requests.
        Batching is drain-ready -- a batch is whatever is already queued
        when the dispatcher wakes, and no timer ever holds it open.
    cache_size:
        LRU bound on memoized answers.
    cache:
        The :class:`ImplicationCache` handed to the decider (the
        process-wide shared one by default).
    """

    def __init__(
        self,
        constraints,
        instance=None,
        max_batch: int = 64,
        cache_size: int = 4096,
        cache: Optional[ImplicationCache] = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self._cset = constraints
        self._cset_fp = constraint_set_fingerprint(constraints)
        self._instance = instance
        self._max_batch = max_batch
        self._answers = _Lru(cache_size, max_bytes=16 << 20)
        self._decider_cache = cache if cache is not None else shared_cache()
        self._queue: Optional[asyncio.Queue] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self.stats = ServerStats()

    @property
    def instance(self):
        """The live instance ``check`` queries run against."""
        return self._instance

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ConstraintServer":
        """Start the dispatcher task; returns self for chaining."""
        if self._dispatcher is not None:
            raise RuntimeError("server already started")
        self._queue = asyncio.Queue()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def stop(self) -> None:
        """Drain the queue and cancel the dispatcher task."""
        if self._dispatcher is None:
            return
        queue = self._queue
        await queue.put(_STOP)
        await self._dispatcher
        # requests racing the sentinel must not hang their awaiters:
        # serve whatever landed in the queue after the stop marker
        leftovers = []
        while not queue.empty():
            item = queue.get_nowait()
            if item is not _STOP:
                leftovers.append(item)
        if leftovers:
            self._serve_batch(leftovers)
        self._dispatcher = None
        self._queue = None

    async def __aenter__(self) -> "ConstraintServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    async def implies(self, target) -> bool:
        """``C |= target`` (microbatched, coalesced, memoized)."""
        key = ("implies", self._cset_fp, constraint_fingerprint(target))
        return await self._submit(key, ("implies", target))

    async def check(self, constraint) -> bool:
        """Whether the live instance satisfies ``constraint``.

        Keyed by the instance's ``zero_version`` when available, so a
        delta that changes ``Z(f)`` invalidates exactly the stale
        answers; instances without versions are computed per batch
        (still coalesced, never memoized across batches).
        """
        if self._instance is None:
            raise RuntimeError("this server has no live instance to check")
        version = getattr(self._instance, "zero_version", None)
        fp = constraint_fingerprint(constraint)
        if version is None:
            # still coalesced within a batch (the instance cannot change
            # mid-batch: computation is synchronous on the event loop),
            # just never memoized across batches
            key = ("check-unversioned", fp)
            return await self._submit(key, ("check", constraint), memoize=False)
        key = ("check", version, fp)
        return await self._submit(key, ("check", constraint))

    async def _submit(self, key, work, memoize: bool = True) -> bool:
        if self._queue is None:
            raise RuntimeError("server not started (use 'async with')")
        self.stats.requests += 1
        future = asyncio.get_running_loop().create_future()
        await self._queue.put((key, work, memoize, future))
        return await future

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        queue = self._queue
        stopping = False
        while not stopping:
            item = await queue.get()
            if item is _STOP:
                return
            batch = [item]
            # one bare yield lets submitters that are already runnable
            # enqueue; then take only what is queued -- no timer, so a
            # lone request never waits for batch-mates that won't come
            await asyncio.sleep(0)
            while len(batch) < self._max_batch and not queue.empty():
                nxt = queue.get_nowait()
                if nxt is _STOP:
                    stopping = True
                    break
                batch.append(nxt)
            self._serve_batch(batch)

    def _serve_batch(self, batch) -> None:
        self.stats.batches += 1
        groups: dict = {}
        for key, work, memoize, future in batch:
            groups.setdefault(key, (work, memoize, []))[2].append(future)
        self.stats.coalesced += len(batch) - len(groups)
        for key, (work, memoize, futures) in groups.items():
            answer = self._answers.get(key) if memoize else None
            if answer is None:
                answer = self._compute(work)
                if memoize:
                    self._answers.put(key, answer)
                self.stats.computed += 1
            else:
                self.stats.cache_hits += 1
            for future in futures:
                if not future.done():
                    future.set_result(answer)

    def _compute(self, work) -> bool:
        kind, payload = work
        if kind == "implies":
            # the library's planner route (fd / engine / sat), with the
            # engine decider memoizing into this server's table cache
            return self._cset.implies(
                payload,
                method="auto",
                context=EvalContext(cache=self._decider_cache),
            )
        if kind == "check":
            return payload.satisfied_by(self._instance)
        raise ValueError(f"unknown work kind {kind!r}")

    def __repr__(self) -> str:
        state = "running" if self._dispatcher is not None else "stopped"
        return (
            f"ConstraintServer({state}, max_batch={self._max_batch}, "
            f"answers={len(self._answers)})"
        )


def serve_queries(
    constraints,
    queries: Sequence[Tuple[str, object]],
    instance=None,
    **server_kwargs,
) -> Tuple[List[bool], ServerStats]:
    """Answer ``("implies" | "check", constraint)`` queries via one server.

    All queries are submitted concurrently, so identical neighbors
    coalesce into shared computations exactly as they would under real
    concurrent load.  Returns the answers in query order plus the
    server's stats.  This is the engine behind ``repro serve``.
    """
    async def _run() -> List[bool]:
        async with ConstraintServer(
            constraints, instance=instance, **server_kwargs
        ) as server:
            tasks = []
            for kind, constraint in queries:
                if kind == "implies":
                    tasks.append(server.implies(constraint))
                elif kind == "check":
                    tasks.append(server.check(constraint))
                else:
                    raise ValueError(f"unknown query kind {kind!r}")
            answers = await asyncio.gather(*tasks)
            stats = server.stats
            return list(answers), stats

    answers, stats = asyncio.run(_run())
    return answers, stats
