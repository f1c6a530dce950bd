"""Streaming workloads: transaction logs over an incremental context.

A :class:`StreamSession` wraps an
:class:`~repro.engine.incremental.IncrementalEvalContext` with the
transactional surface a live instance needs: apply a *batch* of row
deltas, get back the set of constraints the batch newly violated or
restored (net of intra-batch churn).  Sessions also parse the plain-text
transaction-log format replayed by ``repro stream``:

.. code-block:: text

    # one op per line; a `commit` line ends a transaction
    + AB        insert one row with itemset AB
    + AB 3      insert three
    - AB        delete one
    = AB 5      update: set the multiplicity of AB to 5
    commit

Subsets use the same shorthand as constraint files (``ground.parse``);
``#`` comments and blank lines are ignored; a trailing transaction
without ``commit`` is committed implicitly.

Sessions can be **durable**: ``EngineConfig(durable=<data dir>)``
attaches a :class:`~repro.engine.persist.DurableStore`, every
committed transaction is appended to a CRC-framed write-ahead log
*before* it is applied (in exactly the transaction-log format above),
and
:meth:`StreamSession.snapshot` persists the live density with its
consistency counters and compacts the log.  Reopening a session on the
same directory recovers: load the newest snapshot, assert its counters
against the seeded state, replay the log tail.
``EngineConfig(snapshot_every=N)`` snapshots automatically every ``N``
transactions.

Like the rest of the engine, this module imports nothing from
:mod:`repro.core`; ground sets and constraints are duck-typed.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.engine.decider import ImplicationCache
from repro.engine.incremental import IncrementalEvalContext, Number
from repro.engine.plan import EngineConfig
from repro.engine.persist import (
    DurableStore,
    decode_density,
    decode_transaction,
    density_fingerprint,
    encode_transaction,
    parse_value,
    snapshot_state,
    verify_recovered,
)
from repro.errors import PersistenceError

__all__ = ["StreamReport", "StreamSession", "parse_transaction_log"]


def _recorded_backend(meta: dict) -> Optional[str]:
    """The backend a data directory's meta records, under today's name:
    directories written while the int64 exact backend was a separate
    rung record ``"exact-vec"``, which is now ``"exact"``."""
    name = meta.get("backend")
    return "exact" if name == "exact-vec" else name


#: One parsed log operation: ``("delta", mask, amount)`` adds ``amount``
#: rows with itemset ``mask``; ``("set", mask, value)`` pins the
#: multiplicity (resolved against the live density at apply time).
Op = Tuple[str, int, Number]


class StreamReport:
    """What one committed transaction changed."""

    __slots__ = ("tx", "newly_violated", "restored", "violated")

    def __init__(
        self,
        tx: int,
        newly_violated: Tuple,
        restored: Tuple,
        violated: Tuple,
    ):
        self.tx = tx
        #: Constraints satisfied before the batch, violated after.
        self.newly_violated = newly_violated
        #: Constraints violated before the batch, satisfied after.
        self.restored = restored
        #: All tracked constraints violated after the batch.
        self.violated = violated

    @property
    def changed(self) -> bool:
        """Whether this transaction flipped any constraint status."""
        return bool(self.newly_violated or self.restored)

    def __repr__(self) -> str:
        return (
            f"StreamReport(tx={self.tx}, "
            f"newly_violated={list(self.newly_violated)}, "
            f"restored={list(self.restored)}, "
            f"violated={len(self.violated)})"
        )


class StreamSession:
    """Transactional deltas against one incremental evaluation context.

    ``density`` seeds the instance (e.g. a basket database's multiset
    counts) without counting as a transaction.  Engine policy comes in
    as one :class:`~repro.engine.plan.EngineConfig` (``config=``): the
    live :class:`~repro.engine.incremental.IncrementalEvalContext` runs
    on ``config.backend``, else on the backend a reopened data
    directory recorded, else on ``exact``; it refuses ground sets past
    the dense limit with :class:`~repro.errors.PlanError`.
    ``config.tol`` is the zero tolerance of the constraint checks.
    ``cache`` is the :class:`~repro.engine.decider.ImplicationCache`
    the context memoizes into (the process-wide one by default).

    ``config.durable`` (a data-directory path or a
    :class:`~repro.engine.persist.DurableStore`) makes the session
    crash-proof.  On an empty directory the seed density is recorded
    (its fingerprint pins the directory to this seed) and a tx-0
    snapshot is written; on a non-empty directory the session
    *recovers* -- the provided ``density`` must then either be ``None``
    or match the recorded seed fingerprint, so reopening a grown
    instance from the same source database is checked, not assumed.
    ``config.fsync`` is the WAL policy (``"always"``/``"never"``);
    ``config.snapshot_every=N`` auto-snapshots (and compacts the log)
    every ``N`` committed transactions; ``retain`` is how many
    snapshots the store keeps.
    """

    def __init__(
        self,
        ground,
        constraints: Iterable = (),
        density=None,
        cache: Optional[ImplicationCache] = None,
        retain: int = 2,
        config: Optional[EngineConfig] = None,
    ):
        if config is None:
            config = EngineConfig()
        self._config = config
        constraints = tuple(constraints)
        self._snapshot_every = config.snapshot_every
        self._wedged = False
        self._store: Optional[DurableStore] = None
        if config.durable is not None:
            self._store = (
                config.durable
                if isinstance(config.durable, DurableStore)
                else DurableStore(
                    config.durable, fsync=config.fsync, retain=retain
                )
            )
        if (
            self._store is not None
            and not self._store.is_empty()
            and config.backend is None
        ):
            # an unpinned reopen inherits the directory's recorded
            # backend, so directories written on float reopen on float
            recorded = _recorded_backend(self._store.meta or {})
            if recorded in ("exact", "float"):
                config = config.replace(backend=recorded)
                # session.config must describe the session as it runs:
                # consumers forward it to build sibling components
                self._config = config
        backend = config.backend or "exact"
        recovered = None
        if self._store is not None and not self._store.is_empty():
            recovered = self._store.recover()
            density = self._check_reopen(
                ground, backend, config.tol, density, recovered
            )
        self._context = IncrementalEvalContext(
            ground,
            density=density,
            constraints=constraints,
            backend=backend,
            tol=config.tol,
            cache=cache,
        )
        self._tx = 0
        if self._store is not None:
            if recovered is None:
                self._init_store(density)
            else:
                self._replay_recovered(recovered)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _check_reopen(self, ground, backend, tol, density, recovered):
        """Validate a reopen against the directory's identity record and
        return the density to seed the context with (the snapshot's)."""
        meta = self._store.meta
        if meta.get("kind") != "stream-session":
            raise PersistenceError(
                f"{self._store.path}: data dir belongs to "
                f"{meta.get('kind')!r}, not a stream session"
            )
        if meta["n"] != ground.size:
            raise PersistenceError(
                f"{self._store.path}: recorded |S|={meta['n']} != "
                f"ground set size {ground.size}"
            )
        if _recorded_backend(meta) != backend:
            raise PersistenceError(
                f"{self._store.path}: recorded backend "
                f"{meta['backend']!r} != requested {backend!r}"
            )
        if meta["tol"] != tol:
            raise PersistenceError(
                f"{self._store.path}: recorded tol {meta['tol']} != "
                f"requested {tol}"
            )
        if density is not None:
            seed_fp = density_fingerprint(
                density.items() if hasattr(density, "items") else density
            )
            if seed_fp != meta["seed_fingerprint"]:
                raise PersistenceError(
                    f"{self._store.path}: the provided seed density "
                    f"(fingerprint {seed_fp:#010x}) is not the one this "
                    f"directory was created from "
                    f"({meta['seed_fingerprint']:#010x}); refusing to "
                    "recover onto a different instance"
                )
        if recovered.snapshot is None:
            # crash window between write_meta and the tx-0 snapshot:
            # the seed only exists on the caller's side.  A matching
            # provided density (fingerprint-checked above) re-seeds;
            # otherwise recovery would silently drop the seed -- refuse.
            if density is not None:
                return density
            if meta["seed_fingerprint"] == density_fingerprint([]):
                return None
            raise PersistenceError(
                f"{self._store.path}: the seed snapshot is missing "
                "(interrupted initialization) and no density was "
                "provided; reopen with the original seed density"
            )
        return decode_density(recovered.snapshot)

    def _init_store(self, density) -> None:
        """First open on an empty directory: record identity + seed."""
        items = (
            sorted(density.items() if hasattr(density, "items") else density)
            if density
            else []
        )
        self._store.write_meta(
            {
                "format": 1,
                "kind": "stream-session",
                "n": self._context.ground.size,
                "backend": self._context.backend.name,
                "tol": self._context.tol,
                "seed_fingerprint": density_fingerprint(items),
            }
        )
        self.snapshot()

    def _replay_recovered(self, recovered) -> None:
        """Finish recovery: assert counters, replay the WAL tail."""
        if recovered.snapshot is not None:
            self._tx = recovered.snapshot["tx"]
            verify_recovered(self._context, recovered.snapshot)
        for seq, payload in recovered.tail:
            self._context.apply_batch(
                decode_transaction(self.ground, payload)
            )
            self._tx = seq
        if recovered.snapshot is None:
            # heal an interrupted initialization: persist the tx-0-style
            # snapshot now so the next open recovers without the seed
            self.snapshot()

    @property
    def durable(self) -> bool:
        """Whether commits are write-ahead logged to a data directory."""
        return self._store is not None

    @property
    def store(self) -> Optional[DurableStore]:
        """The attached durable store (None for in-memory sessions)."""
        return self._store

    def _check_not_wedged(self) -> None:
        if self._wedged:
            raise PersistenceError(
                "session is wedged: a durably-logged transaction failed "
                "to apply, so the live tables lag the log; reopen from "
                "the data directory to recover (replay heals the state)"
            )

    def snapshot(self) -> None:
        """Persist the live state and compact the write-ahead log."""
        if self._store is None:
            raise PersistenceError(
                "this session is not durable "
                "(pass config=EngineConfig(durable=<data dir>))"
            )
        self._check_not_wedged()
        self._store.snapshot(snapshot_state(self._context, self._tx))

    def close(self) -> None:
        """Flush and close the durable store."""
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def context(self) -> IncrementalEvalContext:
        """The live context (set-function protocol, tables, versions)."""
        return self._context

    @property
    def config(self) -> EngineConfig:
        """The engine configuration this session runs on."""
        return self._config

    @property
    def ground(self):
        """The ground set of the live instance."""
        return self._context.ground

    @property
    def transactions(self) -> int:
        """Number of committed transactions."""
        return self._tx

    def value(self, mask: int) -> Number:
        """Current ``f(X)`` (for basket streams: the live support)."""
        return self._context.value(mask)

    def support(self, subset) -> Number:
        """Live support of a subset given as labels/shorthand."""
        return self._context.value(self.ground.parse(subset))

    def violated_constraints(self) -> Tuple:
        """The watched constraints currently violated."""
        return self._context.violated_constraints()

    def satisfied_constraints(self) -> Tuple:
        """The watched constraints currently satisfied."""
        return self._context.satisfied_constraints()

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def apply(self, deltas: Iterable[Tuple[int, Number]]) -> StreamReport:
        """Commit a batch of raw ``(mask, delta)`` density deltas.

        Durable sessions log the batch to the write-ahead log *before*
        touching the live tables; a crash after the append replays the
        transaction on recovery (it was acknowledged as committed), a
        crash during the append leaves a torn record that recovery
        drops (it never committed).
        """
        deltas = list(deltas)
        if self._store is not None:
            # validate masks before the append: a record must never hit
            # the log unless the apply below is guaranteed to accept it
            # (otherwise recovery would replay a poisoned transaction)
            n = self.ground.size
            for mask, _ in deltas:
                if mask < 0 or mask >> n:
                    raise ValueError(
                        f"mask {mask:#x} uses bits outside the ground "
                        f"set of size {n}"
                    )
            self._check_not_wedged()
            try:
                self._store.append(
                    self._tx + 1, encode_transaction(self.ground, deltas)
                )
            except OSError:
                # a failed append (ENOSPC, EIO) may have left partial
                # record bytes in the file; appending after them would
                # poison the log, so refuse all further writes -- the
                # reopen path repairs the torn bytes and heals
                self._wedged = True
                raise
            # the append is the commit point: advance the counter now,
            # so a failure in the apply below cannot make a later
            # transaction reuse this sequence number and brick the log
            # -- reopening replays the record and heals the live state
            # instead
            self._tx += 1
            try:
                newly, restored = self._context.apply_batch(deltas)
            except BaseException:
                # the log has the record but the tables do not: wedge
                # the session so no later write or snapshot can persist
                # (and compact away) the divergent state
                self._wedged = True
                raise
        else:
            newly, restored = self._context.apply_batch(deltas)
            self._tx += 1
        if (
            self._snapshot_every is not None
            and self._store is not None
            and self._tx % self._snapshot_every == 0
        ):
            self.snapshot()
        return StreamReport(
            self._tx, newly, restored, self._context.violated_constraints()
        )

    def apply_ops(self, ops: Iterable[Op]) -> StreamReport:
        """Commit a batch of parsed log operations."""
        deltas: List[Tuple[int, Number]] = []
        staged = {}  # resolve "set" against density *plus staged deltas*
        for op, mask, amount in ops:
            if op == "delta":
                delta = amount
            elif op == "set":
                current = self._context.density_value(mask) + staged.get(mask, 0)
                delta = amount - current
            else:
                raise ValueError(f"unknown stream op {op!r}")
            staged[mask] = staged.get(mask, 0) + delta
            deltas.append((mask, delta))
        return self.apply(deltas)

    def insert(self, subset, count: Number = 1) -> StreamReport:
        """Commit a single-row insert (labels/shorthand accepted)."""
        mask = subset if isinstance(subset, int) else self.ground.parse(subset)
        return self.apply([(mask, count)])

    def delete(self, subset, count: Number = 1) -> StreamReport:
        """Commit a single-row delete."""
        mask = subset if isinstance(subset, int) else self.ground.parse(subset)
        return self.apply([(mask, -count)])

    def replay(self, lines: Sequence[str]) -> List[StreamReport]:
        """Replay a transaction log; one report per committed batch."""
        return [
            self.apply_ops(batch)
            for batch in parse_transaction_log(self.ground, lines)
        ]


# the log's value codec is the snapshot/WAL codec: one implementation
_parse_amount = parse_value


def parse_transaction_log(ground, lines: Sequence[str]) -> List[List[Op]]:
    """Parse the log format into transactions (lists of ops).

    ``ground`` is anything with ``.parse`` (subset shorthand codec).
    """
    transactions: List[List[Op]] = []
    current: List[Op] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()  # trailing comments allowed
        if not line:
            continue
        if line == "commit":
            transactions.append(current)
            current = []
            continue
        parts = line.split()
        op, rest = parts[0], parts[1:]
        if op not in ("+", "-", "=") or not rest or len(rest) > 2:
            raise ValueError(
                f"line {lineno}: expected '+|-|= SUBSET [AMOUNT]' or "
                f"'commit', got {raw!r}"
            )
        mask = ground.parse(rest[0])
        if op == "=":
            if len(rest) != 2:
                raise ValueError(
                    f"line {lineno}: '=' needs an explicit amount: {raw!r}"
                )
            amount = _parse_amount(rest[1])
            if amount < 0:
                raise ValueError(
                    f"line {lineno}: multiplicities are nonnegative: {raw!r}"
                )
            current.append(("set", mask, amount))
        else:
            amount = _parse_amount(rest[1]) if len(rest) == 2 else 1
            if amount < 0:
                raise ValueError(
                    f"line {lineno}: amounts are nonnegative "
                    f"(use '-' to delete): {raw!r}"
                )
            current.append(
                ("delta", mask, amount if op == "+" else -amount)
            )
    if current:
        transactions.append(current)
    return transactions
