"""The engine planner: one :class:`EngineConfig`, one cost model, one
live factory.

Which evaluation context a caller runs on is fixed by the question it
asks, so the planner never chooses it:

* one-shot questions -- implication ``C |= X -> Y`` (Theorem 3.5
  containment, the Prop 5.4 reduction, the FD fragment) -- run on a
  stateless :class:`~repro.engine.context.EvalContext`;
* a live instance, whose Definition 3.1 satisfaction is re-asked after
  every delta, runs on an
  :class:`~repro.engine.incremental.IncrementalEvalContext` built by
  :func:`build_context`, the one live factory (stream sessions, served
  basket files, discovery over a basket database).  The durable
  :class:`~repro.engine.net.ReproService` and the fleet are built on
  top of it.

Policy lives in one place and flows *down*:

* :class:`EngineConfig` is the single configuration object: an
  optional pinned backend, the zero tolerance and durability
  (``durable`` / ``snapshot_every`` / ``fsync``).  A ``None`` backend
  is resolved by the planner.
* :class:`Planner` resolves two things through an explicit cost model
  whose thresholds are fixed class constants: :meth:`Planner.plan`
  picks the numeric backend for a ground set of ``n`` elements, and
  :meth:`Planner.decide_method` picks the implication method.

The cost model
--------------

Backend (``backend=`` pins it) -- two rungs: ``exact`` (int64
ndarrays with overflow-checked promotion to object dtype) whenever
``tol == 0`` demands exact zero tests or ``n < FLOAT_MIN_N``; ``float``
otherwise, where float64 butterflies are marginally leaner (no
promotion checks) and the nonzero tolerance absorbs representation
error (E20 measures both rebuilds).  One-shot and live contexts share
the rule: the live density is a sparse dict on either backend.

Implication method: :meth:`Planner.decide_method` resolves
``method="auto"`` for :func:`repro.core.implication.decide` (``fd``
fragment -> attribute closure, dense-capable -> batched engine,
otherwise -> SAT refutation).  Its dense cutoff is the same
:data:`DENSE_LIMIT` the live factory refuses past, so the decider and
the factory can never disagree.

Like the rest of the engine this module imports nothing from
:mod:`repro.core`; ground sets are duck-typed (``.size``).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.engine.incremental import DEFAULT_TOLERANCE, IncrementalEvalContext
from repro.errors import PlanError

__all__ = [
    "EngineConfig",
    "Plan",
    "Planner",
    "build_context",
    "default_fleet_workers",
    "default_planner",
    "effective_cpus",
]

#: Mirrors ``repro.core.ground.MAX_DENSE_SIZE`` (engine layering keeps
#: this module from importing core; the test suite asserts agreement).
DENSE_LIMIT = 22

@dataclass(frozen=True)
class EngineConfig:
    """One configuration object for the whole engine stack.

    ``backend`` pins the numeric backend (``None`` lets the planner
    resolve it); ``tol`` is the zero tolerance of live constraint
    checks.  Durability (``durable`` / ``snapshot_every`` / ``fsync``)
    rides along so a service boots from exactly one object.
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

@dataclass(frozen=True)
class Plan:
    """A resolved plan: the backend the planner chose, the config it
    was resolved from, and why."""

    backend: str
    config: EngineConfig
    reasons: Tuple[str, ...] = ()

    def stamp(self) -> str:
        """The one-line configuration stamp (CLI output, /stats)."""
        return f"backend={self.backend}"

    def as_dict(self) -> dict:
        """JSON-friendly form (the service's ``/stats`` block)."""
        return {
            "backend": self.backend,
            "durable": bool(self.config.durable),
        }

    def explain(self) -> str:
        """Multi-line cost-model reasoning (``repro plan --explain``)."""
        lines = [f"plan: {self.stamp()}"]
        lines.extend(f"  - {reason}" for reason in self.reasons)
        return "\n".join(lines)


class Planner:
    """The cost model.  Its thresholds are fixed class constants that
    encode the measured crossovers from the E5/E16/E20 benchmarks.
    """

    #: From here up, float64 tables edge out int64+promotion checks
    #: whenever a nonzero tolerance licenses lossy storage.
    FLOAT_MIN_N = 14
    #: Fleet workers beyond this just multiply idle event loops: each
    #: worker process pins (at most) one core, so the fleet size is
    #: CPU-bound.
    FLEET_MAX_WORKERS = 8

    # ------------------------------------------------------------------
    def plan(self, n: int, config: Optional[EngineConfig] = None) -> Plan:
        """Resolve the backend for a ground set of ``n`` elements under
        ``config``."""
        if n < 0:
            raise PlanError(f"ground-set size must be >= 0, got {n}")
        if config is None:
            config = EngineConfig()
        backend = config.backend
        if backend is not None:
            reason = f"backend={backend}: pinned by config"
        elif config.tol == 0:
            backend = "exact"
            reason = (
                "backend=exact: tol=0 demands exact zero tests; int64 "
                "tables with overflow-checked promotion keep them exact"
            )
        elif n >= self.FLOAT_MIN_N:
            backend = "float"
            reason = (
                f"backend=float: |S|={n} >= {self.FLOAT_MIN_N}, float64 "
                f"2^n tables skip promotion checks and tol={config.tol:g} "
                "absorbs fp error"
            )
        else:
            backend = "exact"
            reason = (
                f"backend=exact: |S|={n} < {self.FLOAT_MIN_N}, int64 "
                "tables are as fast as float64 here and lossless"
            )
        return Plan(backend=backend, config=config, reasons=(reason,))

    # ------------------------------------------------------------------
    def decide_method(
        self, n: int, fd_fragment: bool = False
    ) -> Tuple[str, str]:
        """Resolve ``method="auto"`` for the implication decider.

        Returns ``(method, reason)``.  One brain for the whole stack:
        the dense cutoff here is the same :data:`DENSE_LIMIT` the live
        factory enforces, so the decider and the factory cannot
        disagree.
        """
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

    def __repr__(self) -> str:
        return f"Planner(float>={self.FLOAT_MIN_N})"


_DEFAULT_PLANNER = Planner()


def default_planner() -> Planner:
    """The process-wide planner: the stock cost model, so plans are
    fully deterministic."""
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


def build_context(
    plan: Plan, ground, density=None, constraints=(), cache=None
):
    """The one live factory: a resolved :class:`Plan` becomes an
    :class:`~repro.engine.incremental.IncrementalEvalContext` seeded
    with ``density``/``constraints`` on the plan's backend.  Stream
    sessions, served basket files and discovery over a basket database
    all build their live instance here; one-shot callers use a plain
    :class:`~repro.engine.context.EvalContext` instead.

    Raises :class:`~repro.errors.PlanError` past :data:`DENSE_LIMIT`:
    the live context keeps dense ``2^|S|`` views.
    """
    if ground.size > DENSE_LIMIT:
        raise PlanError(
            f"live contexts keep dense 2^|S| views; |S| = {ground.size} "
            f"exceeds the dense limit {DENSE_LIMIT} (one-shot "
            "implication takes method='sat')"
        )
    return IncrementalEvalContext(
        ground,
        density=density,
        constraints=constraints,
        backend=plan.backend,
        tol=plan.config.tol,
        cache=cache,
    )
