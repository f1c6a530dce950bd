"""The engine planner: one :class:`EngineConfig`, one cost model, one factory.

The engine has three evaluation tiers -- scalar deciders, the batched
:class:`~repro.engine.context.EvalContext` and the delta-maintained
:class:`~repro.engine.incremental.IncrementalEvalContext` -- with the
durable :class:`~repro.engine.net.ReproService` and the fleet built on
top of the incremental one.  Policy lives in one place and flows
*down*:

* :class:`EngineConfig` is the single user-facing configuration object:
  a tier request (``engine="auto"`` or a pinned tier) plus optional
  pinned knobs (backend, durability, cache budgets).  Everything left
  ``None`` is resolved by the planner.
* :class:`Workload` describes the job: ground-set size ``n``, constraint
  count, expected delta rate, live-density size and query count.
* :class:`Planner` maps ``(Workload, EngineConfig)`` to a :class:`Plan`
  through an explicit, documented cost model whose thresholds are fixed
  class constants.
* :func:`build_context` is the **only** place evaluation contexts are
  constructed from a plan; every consumer (CLI, stream sessions, basket
  databases, FD checkers, the network service) routes through it.

The cost model
--------------

Tier (cheapest adequate tier wins; ``engine=`` pins it):

========== ==========================================================
scalar      ``n > DENSE_LIMIT`` (dense ``2^n`` tables impossible) or a
            degenerate ground set (``n <= SCALAR_MAX_N``: at most two
            subsets, table machinery cannot pay for itself).
batched     One-shot questions (no deltas expected): build tables once
            through the batched engine, memoize by fingerprint.
incremental Streaming instances (``streaming`` or a nonzero
            ``delta_rate``): ``O(2^n)`` per delta beats ``O(n * 2^n)``
            rebuilds as soon as anything changes twice.
========== ==========================================================

Backend (``backend=`` pins it) -- two rungs: ``exact`` (int64
ndarrays with overflow-checked promotion to object dtype) whenever
``tol == 0`` demands exact zero tests or ``n < FLOAT_MIN_N``; ``float``
otherwise, where float64 butterflies are marginally leaner (no
promotion checks) and the nonzero tolerance absorbs representation
error (E20 measures both rebuilds).

Implication methods reuse the same brain: :meth:`Planner.decide_method`
resolves ``method="auto"`` for :func:`repro.core.implication.decide`
(``fd`` fragment -> attribute closure, dense-capable -> batched engine,
otherwise -> SAT refutation), so the decider and the context factory can
never disagree about the dense limit again.

Like the rest of the engine this module imports nothing from
:mod:`repro.core`; ground sets are duck-typed (``.size``).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.engine.context import EvalContext
from repro.engine.incremental import DEFAULT_TOLERANCE
from repro.errors import PlanError

__all__ = [
    "EngineConfig",
    "Workload",
    "Plan",
    "Planner",
    "TIERS",
    "build_context",
    "default_fleet_workers",
    "default_planner",
    "effective_cpus",
    "plan_of_context",
]

#: The tiers, cheapest first.  ``auto`` is a request, not a tier.
TIERS = ("scalar", "batched", "incremental")

#: Mirrors ``repro.core.ground.MAX_DENSE_SIZE`` (engine layering keeps
#: this module from importing core; the test suite asserts agreement).
DENSE_LIMIT = 22

@dataclass(frozen=True)
class EngineConfig:
    """One configuration object for the whole engine stack.

    ``engine`` requests a tier (``"auto"`` lets the planner choose);
    every other evaluation knob is either pinned here or left ``None``
    for the planner to resolve.  Durability (``durable`` /
    ``snapshot_every`` / ``fsync``) and cache budgets ride along so a
    service boots from exactly one object.
    """

    engine: str = "auto"
    backend: Optional[str] = None
    durable: Optional[str] = None
    snapshot_every: Optional[int] = None
    fsync: str = "always"
    tol: float = DEFAULT_TOLERANCE
    #: LRU budget for memoized server answers (ConstraintServer).
    cache_size: int = 4096
    #: Use a private ImplicationCache instead of the process-wide one.
    private_cache: bool = False

    def __post_init__(self):
        if self.engine not in ("auto",) + TIERS:
            raise PlanError(
                f"unknown engine tier {self.engine!r}; expected 'auto' "
                f"or one of {', '.join(TIERS)}"
            )
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
        if self.cache_size < 1:
            raise PlanError(f"cache_size must be >= 1, got {self.cache_size}")

    def replace(self, **changes) -> "EngineConfig":
        """A copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

@dataclass(frozen=True)
class Workload:
    """What the planner knows about the job.

    ``delta_rate`` is the expected density deltas per committed
    transaction; ``density_size`` the number of distinct nonzero
    density masks; ``queries`` the expected implication/check query
    volume.
    """

    n: int
    constraints: int = 0
    delta_rate: float = 0.0
    density_size: int = 0
    queries: int = 0
    streaming: bool = False

    def __post_init__(self):
        if self.n < 0:
            raise PlanError(f"ground-set size must be >= 0, got {self.n}")

@dataclass(frozen=True)
class Plan:
    """A fully resolved evaluation plan: the tier and backend the
    planner chose, the config it was resolved from, and why."""

    tier: str
    backend: str
    config: EngineConfig
    reasons: Tuple[str, ...] = ()

    def stamp(self) -> str:
        """The one-line configuration stamp (CLI output, /stats)."""
        return f"tier={self.tier}, backend={self.backend}"

    def as_dict(self) -> dict:
        """JSON-friendly form (the service's ``/stats`` block)."""
        return {
            "tier": self.tier,
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

    #: Ground sets this small have at most two subsets: stay scalar.
    SCALAR_MAX_N = 1
    #: From here up, float64 tables edge out int64+promotion checks
    #: whenever a nonzero tolerance licenses lossy storage.
    FLOAT_MIN_N = 14
    #: Fleet workers beyond this just multiply idle event loops: each
    #: worker process pins (at most) one core, so the fleet size is
    #: CPU-bound.
    FLEET_MAX_WORKERS = 8

    # ------------------------------------------------------------------
    def plan(self, workload: Workload, config: Optional[EngineConfig] = None) -> Plan:
        """Resolve a :class:`Plan` for ``workload`` under ``config``."""
        if config is None:
            config = EngineConfig()
        n = workload.n
        reasons = []

        tier = self._resolve_tier(workload, config, reasons)
        if tier != "scalar" and n > DENSE_LIMIT:
            raise PlanError(
                f"tier {tier!r} builds dense 2^|S| tables; |S| = {n} "
                f"exceeds the dense limit {DENSE_LIMIT} "
                "(use engine='scalar' / method='sat')"
            )

        backend = config.backend
        if backend is not None:
            reasons.append(f"backend={backend}: pinned by config")
        elif config.tol == 0:
            backend = "exact"
            reasons.append(
                "backend=exact: tol=0 demands exact zero tests; int64 "
                "tables with overflow-checked promotion keep them exact"
            )
        elif n >= self.FLOAT_MIN_N:
            backend = "float"
            reasons.append(
                f"backend=float: |S|={n} >= {self.FLOAT_MIN_N}, float64 "
                f"2^n tables skip promotion checks and tol={config.tol:g} "
                "absorbs fp error"
            )
        else:
            backend = "exact"
            reasons.append(
                f"backend=exact: |S|={n} < {self.FLOAT_MIN_N}, int64 "
                "tables are as fast as float64 here and lossless"
            )

        return Plan(
            tier=tier, backend=backend, config=config, reasons=tuple(reasons)
        )

    def _resolve_tier(self, workload, config, reasons) -> str:
        n = workload.n
        if config.engine != "auto":
            reasons.append(f"tier={config.engine}: pinned by config")
            return config.engine
        live = workload.streaming or workload.delta_rate > 0
        if n > DENSE_LIMIT:
            reasons.append(
                f"tier=scalar: |S|={n} > dense limit {DENSE_LIMIT}, "
                "2^n tables are impossible (scalar/SAT paths only)"
            )
            return "scalar"
        if not live:
            if n <= self.SCALAR_MAX_N:
                reasons.append(
                    f"tier=scalar: |S|={n} <= {self.SCALAR_MAX_N}, the "
                    "table machinery cannot pay for itself"
                )
                return "scalar"
            reasons.append(
                "tier=batched: one-shot workload (no deltas expected); "
                "build tables once, memoize by fingerprint"
            )
            return "batched"
        reasons.append(
            "tier=incremental: streaming workload "
            f"(density={workload.density_size}, "
            f"delta_rate={workload.delta_rate:g}); O(2^n) per delta "
            "beats O(n * 2^n) rebuilds"
        )
        return "incremental"

    # ------------------------------------------------------------------
    def decide_method(
        self, n: int, fd_fragment: bool = False
    ) -> Tuple[str, str]:
        """Resolve ``method="auto"`` for the implication decider.

        Returns ``(method, reason)``.  One brain for the whole stack:
        the dense cutoff here is the same :data:`DENSE_LIMIT` the tier
        model uses, so the decider and the context factory cannot
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
    """The one context factory: a resolved :class:`Plan` becomes the
    matching evaluation context.  Nothing else in the library (CLI,
    sessions, databases, checkers, services) constructs contexts.

    ``scalar``/``batched`` plans yield a stateless
    :class:`~repro.engine.context.EvalContext` (scalar plans force no
    backend so operands keep their own storage); ``incremental`` plans
    yield an :class:`~repro.engine.incremental.IncrementalEvalContext`
    seeded with ``density``/``constraints``.
    """
    config = plan.config
    if plan.tier not in TIERS:
        raise PlanError(f"unknown plan tier {plan.tier!r}")
    if plan.tier != "incremental":
        if density or tuple(constraints):
            raise PlanError(
                f"plan tier {plan.tier!r} builds a stateless context; "
                "live density/constraints need the incremental tier"
            )
        return EvalContext(
            backend=None if plan.tier == "scalar" else plan.backend,
            cache=cache,
            private_cache=config.private_cache,
        )
    from repro.engine.incremental import IncrementalEvalContext

    return IncrementalEvalContext(
        ground,
        density=density,
        constraints=constraints,
        backend=plan.backend,
        tol=config.tol,
        cache=cache,
        private_cache=config.private_cache,
    )


def plan_of_context(context, config: Optional[EngineConfig] = None) -> Plan:
    """Describe an existing context as a :class:`Plan` (for stamping
    contexts that were built directly rather than planned)."""
    from repro.engine.incremental import IncrementalEvalContext

    backend = context.backend.name if context.backend is not None else "inherit"
    if isinstance(context, IncrementalEvalContext):
        tier = "incremental"
    else:
        tier = "batched" if context.backend is not None else "scalar"
    if config is None:
        config = EngineConfig(
            engine=tier, backend=None if backend == "inherit" else backend
        )
    return Plan(
        tier=tier,
        backend=backend,
        config=config,
        reasons=(f"described from a live {type(context).__name__}",),
    )
