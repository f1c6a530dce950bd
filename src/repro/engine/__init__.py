"""Batched evaluation engine: whole-table differentials, pluggable
exact/float backends, and a memoizing implication decider.

The engine is the performance layer under :mod:`repro.core`.  It
replaces three scalar hot paths with table-at-a-time computation:

* :mod:`repro.engine.backends` -- the storage split as first-class
  :class:`Backend` objects owning the zeta/Moebius butterflies: exact
  (int64 ndarrays with overflow-checked promotion to object dtype) and
  float (numpy float64);
* :mod:`repro.engine.batch` -- ``D_f^Y(X)`` for *all* ``X`` in one
  ``O(n * 2^n)`` pass (Proposition 2.9 as a masked zeta transform), and
  boolean lattice tables for ``L(X, Y)`` / ``L(C)``;
* :mod:`repro.engine.decider` -- Theorem 3.5 containment decided by
  whole-table numpy operations, memoized across queries by structural
  fingerprints;
* :mod:`repro.engine.context` -- :class:`EvalContext`, the single
  handle (backend + cache) threaded through the CLI and library;
* :mod:`repro.engine.plan` -- the planner: :class:`EngineConfig` (one
  configuration object: an optional backend pin -- ``exact`` unless
  pinned -- tolerance, durability), :class:`Planner` (the explicit
  cost model resolving the ``implies`` method and capping the fleet
  size), and the affinity-aware :func:`effective_cpus` the fleet
  sizing consults;
* :mod:`repro.engine.incremental` -- :class:`IncrementalEvalContext`,
  a sparse live density with delta-maintained support/differential
  views (one subset add per row delta instead of ``O(n * 2^n)``
  rebuilds) and per-delta constraint-violation detection;
* :mod:`repro.engine.stream` -- :class:`StreamSession`, the
  transactional surface (batch of deltas -> newly violated / restored
  constraints) and the transaction-log format behind ``repro stream``;
* :mod:`repro.engine.server` -- :class:`ConstraintServer`, the
  front end behind ``repro serve``: answers implication/check queries
  inline and memoizes them in a fingerprint-keyed LRU;
* :mod:`repro.engine.persist` -- :class:`DurableStore`, durability for
  live instances: a CRC-framed write-ahead log in the ``repro stream``
  transaction format plus versioned snapshots with log compaction and
  loudly-checked crash recovery;
* :mod:`repro.engine.net` -- :class:`ReproService` /
  :class:`ReproClient`, the asyncio HTTP/JSON wire protocol in front of
  the constraint server and a durable stream session (``repro serve
  --port``): memoized answers, bounded-queue backpressure,
  graceful drain on SIGTERM;
* :mod:`repro.engine.quota` -- :class:`TenantQuotas`, per-tenant
  token-bucket admission control (quota ``429`` distinct from
  saturation ``503``);
* :mod:`repro.engine.fleet` -- :class:`FleetService` /
  :class:`FleetRouter`, fleet mode (``repro fleet``): consistent-hash
  tenant routing across N supervised ``repro serve`` worker processes
  with restart-on-crash backoff, SIGTERM fan-out drain, and
  :class:`ShippingStore` WAL shipping to a warm standby directory
  (``repro fleet --takeover`` recovers from it).

Layering: engine modules never import :mod:`repro.core`; the scalar
entry points in core remain as thin wrappers over this package, so the
paper-facing API is unchanged.
"""

from repro.engine.backends import (
    EXACT,
    FLOAT,
    Backend,
    ExactBackend,
    FloatBackend,
    VecTable,
    backend_by_name,
    backend_for_table,
)
from repro.engine.batch import (
    batched_differential,
    blocked_table,
    density_table_of,
    differential_table,
    joint_lattice_table,
    lattice_table,
    superset_indicator,
)
from repro.engine.context import EvalContext, default_context
from repro.engine.plan import (
    EngineConfig,
    Planner,
    default_fleet_workers,
    default_planner,
    effective_cpus,
)
from repro.engine.incremental import (
    IncrementalEvalContext,
    add_on_subsets,
    iter_subset_masks,
    recompute_tables,
)
from repro.engine.stream import (
    StreamReport,
    StreamSession,
    parse_transaction_log,
)
from repro.engine.server import (
    ConstraintServer,
    ServerStats,
    serve_queries,
)
from repro.engine.persist import (
    DurableStore,
    SnapshotStore,
    WriteAheadLog,
    decode_transaction,
    density_fingerprint,
    encode_transaction,
    snapshot_state,
    verify_recovered,
)
from repro.engine.net import (
    ReproClient,
    ReproService,
    ServiceError,
    ServiceHandle,
)
from repro.engine.quota import (
    QuotaPolicy,
    TenantQuotas,
    TokenBucket,
)
from repro.engine.fleet import (
    FleetRouter,
    FleetService,
    FleetSupervisor,
    FleetWorker,
    HashRing,
    ShippingStore,
)
from repro.engine.decider import (
    ImplicationCache,
    constraint_fingerprint,
    constraint_set_fingerprint,
    find_uncovered_batched,
    shared_cache,
)

__all__ = [
    "Backend",
    "ExactBackend",
    "FloatBackend",
    "VecTable",
    "EXACT",
    "FLOAT",
    "backend_by_name",
    "backend_for_table",
    "batched_differential",
    "blocked_table",
    "density_table_of",
    "differential_table",
    "joint_lattice_table",
    "lattice_table",
    "superset_indicator",
    "EvalContext",
    "default_context",
    "EngineConfig",
    "Planner",
    "default_fleet_workers",
    "default_planner",
    "effective_cpus",
    "IncrementalEvalContext",
    "add_on_subsets",
    "iter_subset_masks",
    "recompute_tables",
    "StreamReport",
    "StreamSession",
    "parse_transaction_log",
    "ConstraintServer",
    "ServerStats",
    "serve_queries",
    "DurableStore",
    "SnapshotStore",
    "WriteAheadLog",
    "decode_transaction",
    "density_fingerprint",
    "encode_transaction",
    "snapshot_state",
    "verify_recovered",
    "ReproClient",
    "ReproService",
    "ServiceError",
    "ServiceHandle",
    "QuotaPolicy",
    "TenantQuotas",
    "TokenBucket",
    "FleetRouter",
    "FleetService",
    "FleetSupervisor",
    "FleetWorker",
    "HashRing",
    "ShippingStore",
    "ImplicationCache",
    "constraint_fingerprint",
    "constraint_set_fingerprint",
    "find_uncovered_batched",
    "shared_cache",
]
