"""The engine planner: one :class:`EngineConfig` and one cost model.

Which evaluation context a caller runs on is fixed by the question it
asks, so the planner never chooses it:

* one-shot questions -- implication ``C |= X -> Y`` (Theorem 3.5
  containment, the Prop 5.4 reduction, the FD fragment) -- run on a
  stateless :class:`~repro.engine.context.EvalContext`;
* a live instance, whose Definition 3.1 satisfaction is re-asked after
  every delta, runs on an
  :class:`~repro.engine.incremental.IncrementalEvalContext` (stream
  sessions, served basket files), which refuses ground sets past
  :data:`DENSE_LIMIT` with :class:`~repro.errors.PlanError`.  The
  durable :class:`~repro.engine.net.ReproService` and the fleet are
  built on top of it.

Policy lives in one place and flows *down*:

* :class:`EngineConfig` is the single configuration object: an
  optional pinned backend, the zero tolerance and durability
  (``durable`` / ``snapshot_every`` / ``fsync``).  The backend is
  ``exact`` unless a caller pins ``float``: Definition 3.1 decides
  satisfaction by whether the density is zero, and live densities are
  integer basket counts, so nothing is gained by storing them lossily.
  A ``None`` backend on a reopened data directory means the backend
  the directory recorded.
* :class:`Planner` resolves ``method="auto"`` for
  :func:`repro.core.implication.decide` (``fd`` fragment -> attribute
  closure, dense-capable -> batched engine, otherwise -> SAT
  refutation) and caps the fleet size.  Its dense cutoff is the same
  :data:`DENSE_LIMIT` the live context refuses past, so the decider
  and the live context can never disagree.

Like the rest of the engine this module imports nothing from
:mod:`repro.core`; ground sets are duck-typed (``.size``).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from repro.engine.incremental import DEFAULT_TOLERANCE, DENSE_LIMIT
from repro.errors import PlanError

__all__ = [
    "EngineConfig",
    "Planner",
    "default_fleet_workers",
    "default_planner",
    "effective_cpus",
]

@dataclass(frozen=True)
class EngineConfig:
    """One configuration object for the whole engine stack.

    ``backend`` pins the numeric backend (``None`` means the backend a
    reopened data directory recorded, else ``exact``); ``tol`` is the
    zero tolerance of live constraint checks.  Durability (``durable``
    / ``snapshot_every`` / ``fsync``) rides along so a service boots
    from exactly one object.
    """

    backend: Optional[str] = None
    durable: Optional[str] = None
    snapshot_every: Optional[int] = None
    fsync: str = "always"
    tol: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if self.backend is not None and self.backend not in (
            "exact",
            "float",
        ):
            raise PlanError(
                f"unknown backend {self.backend!r}; expected 'exact' "
                "or 'float'"
            )
        if self.fsync not in ("always", "never"):
            raise PlanError(
                f"unknown fsync policy {self.fsync!r}; "
                "expected 'always' or 'never'"
            )
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise PlanError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )

    def replace(self, **changes) -> "EngineConfig":
        """A copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


class Planner:
    """The cost model.  Its thresholds are fixed class constants: the
    dense limit the ``implies`` method switches at and the fleet-size
    cap.
    """

    #: Fleet workers beyond this just multiply idle event loops: each
    #: worker process pins (at most) one core, so the fleet size is
    #: CPU-bound.
    FLEET_MAX_WORKERS = 8

    # ------------------------------------------------------------------
    def decide_method(
        self, n: int, fd_fragment: bool = False
    ) -> Tuple[str, str]:
        """Resolve ``method="auto"`` for the implication decider.

        Returns ``(method, reason)``.  One brain for the whole stack:
        the dense cutoff here is the same :data:`DENSE_LIMIT` the live
        context enforces, so the decider and the live context cannot
        disagree.  The answer depends on ``(n, fd_fragment)`` alone, so
        it is memoized: ``decide(method="auto")`` asks once per query.
        """
        return _decide_method(n, bool(fd_fragment))


@lru_cache(maxsize=256)
def _decide_method(n: int, fd_fragment: bool) -> Tuple[str, str]:
    if fd_fragment:
        return (
            "fd",
            "every family is a singleton: the P-time FD fragment "
            "(attribute closure)",
        )
    if n <= DENSE_LIMIT:
        return (
            "engine",
            f"|S|={n} <= dense limit {DENSE_LIMIT}: batched "
            "fingerprint-memoized table containment",
        )
    return (
        "sat",
        f"|S|={n} > dense limit {DENSE_LIMIT}: DPLL refutation "
        "(Prop 5.4) scales past dense tables",
    )


_DEFAULT_PLANNER = Planner()


def default_planner() -> Planner:
    """The process-wide planner: the stock cost model, so its choices
    are fully deterministic."""
    return _DEFAULT_PLANNER


def effective_cpus() -> int:
    """The CPU budget available to *this process*, not the whole box.

    ``os.sched_getaffinity(0)`` reflects CPU pinning (taskset, cpuset
    cgroups, container ``--cpuset-cpus``), which ``os.cpu_count()``
    ignores; platforms without it (macOS, Windows) fall back to
    ``os.cpu_count()``.  Always at least 1.
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = 0
    return affinity or os.cpu_count() or 1


def default_fleet_workers(cpus: Optional[int] = None) -> int:
    """The worker-process count ``repro fleet`` defaults to.

    One :class:`~repro.engine.net.ReproService` event loop saturates
    one core, so the natural fleet size is the affinity-aware
    :func:`effective_cpus` count, capped at
    :attr:`Planner.FLEET_MAX_WORKERS` (past the cap extra processes
    only add restart surface and memory).  Pass ``cpus`` to plan for a
    different host.
    """
    if cpus is None:
        cpus = effective_cpus()
    return max(1, min(cpus, Planner.FLEET_MAX_WORKERS))
