"""The constraint server: memoized answers over the cached decider.

Serving workloads ask many small questions -- ``C |= target?`` from
clients, ``does the live instance satisfy c?`` from monitors -- and ask
the same ones again and again.  An implication verdict is a pure
function of ``(C, target)``, and a check verdict a pure function of the
target and the live zero set ``Z(f)``, so :class:`ConstraintServer`
answers each question inline and memoizes it in an LRU-bounded cache
(entry count and bytes) keyed by fingerprints
(:func:`repro.engine.decider.constraint_fingerprint` -- value identity,
so equal constraints built independently share an entry).  A repeated
question is a cache hit that never reaches the decider at all.

Implication queries key on ``(fingerprint(C), fingerprint(target))``
and are immutable -- cached forever (up to the LRU bound).  Instance
checks key additionally on the live context's :attr:`zero_version`,
the incremental engine's counter that moves exactly when the zero set
``Z(f)`` changes -- stale entries therefore miss automatically after
any status-relevant delta, and benign deltas keep hitting the cache.
Instances without a ``zero_version`` are checked afresh every time.

:func:`serve_queries` is the convenience loop behind ``repro serve``:
it answers a list of queries in order and returns the server stats.

Duck-typed like the rest of the engine; imports nothing from core.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.engine.context import EvalContext
from repro.engine.decider import (
    ImplicationCache,
    _Lru,
    constraint_fingerprint,
    constraint_set_fingerprint,
    shared_cache,
)
from repro.engine.incremental import DEFAULT_TOLERANCE

__all__ = ["ConstraintServer", "ServerStats", "serve_queries"]


class ServerStats:
    """Counters describing how the server earned its keep."""

    __slots__ = ("requests", "cache_hits", "computed")

    def __init__(self):
        self.requests = 0
        #: Queries answered from the LRU without computing.
        self.cache_hits = 0
        #: Computations actually performed.
        self.computed = 0
        # the two request outcomes are disjoint, so
        # requests == cache_hits + computed always holds

    def as_dict(self) -> dict:
        """The counters as a plain dict (the ``/stats`` server block)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ServerStats({inner})"


class ConstraintServer:
    """Memoizing front end for implication and instance checks.

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
        cache_size: int = 4096,
        cache: Optional[ImplicationCache] = None,
    ):
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self._cset = constraints
        self._cset_fp = constraint_set_fingerprint(constraints)
        self._instance = instance
        self._answers = _Lru(cache_size, max_bytes=16 << 20)
        self._decider_cache = cache if cache is not None else shared_cache()
        self.stats = ServerStats()

    @property
    def instance(self):
        """The live instance ``check`` queries run against."""
        return self._instance

    def implies(self, target) -> bool:
        """``C |= target`` (memoized)."""
        key = ("implies", self._cset_fp, constraint_fingerprint(target))

        def compute() -> bool:
            # the library's planner route (fd / engine / sat), with the
            # engine decider memoizing into this server's table cache
            return self._cset.implies(
                target,
                method="auto",
                context=EvalContext(cache=self._decider_cache),
            )

        return self._serve_batch([(key, compute, True)])[0]

    def check(self, constraint) -> bool:
        """Whether the live instance satisfies ``constraint``.

        Keyed by the instance's ``zero_version`` when available, so a
        delta that changes ``Z(f)`` invalidates exactly the stale
        answers; instances without versions are never memoized.  The
        check runs under the instance's own ``tol`` (the tolerance its
        statuses and ``zero_version`` are tracked under), else the
        library default.
        """
        if self._instance is None:
            raise RuntimeError("this server has no live instance to check")
        version = getattr(self._instance, "zero_version", None)
        key = ("check", version, constraint_fingerprint(constraint))
        compute = partial(
            constraint.satisfied_by,
            self._instance,
            tol=getattr(self._instance, "tol", DEFAULT_TOLERANCE),
        )
        return self._serve_batch([(key, compute, version is not None)])[0]

    # the name is kept for perfbench/spans.py, which wraps it by name
    def _serve_batch(self, requests) -> List[bool]:
        """Answer ``(key, compute, memoize)`` requests: LRU, then
        ``compute()`` on a miss."""
        answers = []
        for key, compute, memoize in requests:
            self.stats.requests += 1
            answer = self._answers.get(key) if memoize else None
            if answer is None:
                answer = compute()
                if memoize:
                    self._answers.put(key, answer)
                self.stats.computed += 1
            else:
                self.stats.cache_hits += 1
            answers.append(answer)
        return answers

    def __repr__(self) -> str:
        return f"ConstraintServer(answers={len(self._answers)})"


def serve_queries(
    constraints,
    queries: Sequence[Tuple[str, object]],
    instance=None,
    **server_kwargs,
) -> Tuple[List[bool], ServerStats]:
    """Answer ``("implies" | "check", constraint)`` queries via one server.

    Returns the answers in query order plus the server's stats.  This
    is the engine behind ``repro serve``.
    """
    server = ConstraintServer(constraints, instance=instance, **server_kwargs)
    answers = []
    for kind, constraint in queries:
        if kind == "implies":
            answers.append(server.implies(constraint))
        elif kind == "check":
            answers.append(server.check(constraint))
        else:
            raise ValueError(f"unknown query kind {kind!r}")
    return answers, server.stats
