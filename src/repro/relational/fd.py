"""Classical functional dependencies and the P-time fragment.

The paper's conclusion singles out the subclass of differential
constraints whose right-hand sides contain exactly one member: its
implication problem "is equivalent to the implication problem for
functional dependencies, a problem in P".  This module supplies the
classical side of that equivalence:

* :class:`FunctionalDependency` with relation-level satisfaction
  (``t[X] = t'[X]  =>  t[Y] = t'[Y]``),
* the attribute-closure decision procedure (delegating to
  :func:`repro.core.implication.fd_closure`),
* Armstrong-axiom derivations (reflexivity / augmentation / transitivity)
  as a tiny independent proof system -- mirroring at FD level what
  Section 4 does for differential constraints,
* candidate-key computation as a worked consumer of closures.

Tests verify the equivalence: for singleton-family instances, FD
implication by closure == differential implication by lattices == boolean
dependency implication (an FD *is* the boolean dependency with
``Y = {Y}``).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, List, Sequence, Set, Tuple

from repro.core import subsets as sb
from repro.core.constraint import DifferentialConstraint
from repro.core.family import SetFamily
from repro.core.ground import GroundSet
from repro.core.implication import fd_closure
from repro.relational.boolean_dependency import BooleanDependency
from repro.relational.relation import Relation

__all__ = [
    "FunctionalDependency",
    "StreamingFDChecker",
    "closure",
    "implies_fd_classic",
    "is_superkey",
    "candidate_keys",
    "armstrong_derives",
]


class FunctionalDependency:
    """A functional dependency ``X -> Y`` over an attribute ground set."""

    __slots__ = ("_ground", "_lhs", "_rhs")

    def __init__(self, ground: GroundSet, lhs_mask: int, rhs_mask: int):
        ground._check_mask(lhs_mask)
        ground._check_mask(rhs_mask)
        self._ground = ground
        self._lhs = lhs_mask
        self._rhs = rhs_mask

    @classmethod
    def of(cls, ground: GroundSet, lhs, rhs) -> "FunctionalDependency":
        """``FunctionalDependency.of(S, "AB", "C")``."""
        return cls(ground, ground.parse(lhs), ground.parse(rhs))

    @classmethod
    def parse(cls, ground: GroundSet, text: str) -> "FunctionalDependency":
        """Parse ``"AB -> C"``."""
        lhs, _, rhs = text.partition("->")
        return cls.of(ground, lhs.strip(), rhs.strip())

    # ------------------------------------------------------------------
    @property
    def ground(self) -> GroundSet:
        return self._ground

    @property
    def lhs(self) -> int:
        return self._lhs

    @property
    def rhs(self) -> int:
        return self._rhs

    @property
    def is_trivial(self) -> bool:
        """Reflexivity: ``Y subseteq X``."""
        return sb.is_subset(self._rhs, self._lhs)

    # ------------------------------------------------------------------
    def satisfied_by(self, relation: Relation) -> bool:
        """No two tuples agree on ``X`` while disagreeing on ``Y``."""
        self._ground.check_same(relation.ground)
        rows = relation.rows
        for i, t in enumerate(rows):
            for t_prime in rows[i + 1 :]:
                agreement = relation.agreement_set(t, t_prime)
                if not self._lhs & ~agreement and self._rhs & ~agreement:
                    return False
        return True

    def to_differential(self) -> DifferentialConstraint:
        """The singleton-family differential constraint ``X -> {Y}``."""
        return DifferentialConstraint(
            self._ground, self._lhs, SetFamily(self._ground, [self._rhs])
        )

    def to_boolean(self) -> BooleanDependency:
        """The boolean dependency ``X =>bool {Y}``."""
        return BooleanDependency(
            self._ground, self._lhs, SetFamily(self._ground, [self._rhs])
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionalDependency)
            and self._ground == other._ground
            and self._lhs == other._lhs
            and self._rhs == other._rhs
        )

    def __hash__(self) -> int:
        return hash((self._ground, self._lhs, self._rhs))

    def __repr__(self) -> str:
        return (
            f"{self._ground.format_mask(self._lhs)} -> "
            f"{self._ground.format_mask(self._rhs)}"
        )


class StreamingFDChecker:
    """Delta-maintained FD checking over a stream of tuple inserts/deletes.

    The pairwise *agreement density* of a relation -- ``d(U)`` counting
    the unordered tuple pairs whose agreement set is exactly ``U`` --
    turns FD satisfaction into the paper's density semantics: ``X -> Y``
    fails on the relation iff some pair agrees on ``X`` but not on
    ``Y``, i.e. iff ``d`` is nonzero somewhere in ``L(X, {Y})``.  So the
    checker feeds agreement-pair deltas into a
    :class:`repro.engine.StreamSession` monitoring each FD's
    singleton-family differential constraint: inserting a tuple commits
    one batch of ``O(rows)`` deltas, each ``O(#FDs)`` to monitor, and
    every insert/delete reports exactly which FDs it newly violated or
    restored -- no quadratic re-scan of the relation per check.

    Engine policy comes in as one :class:`repro.engine.EngineConfig`
    (``config=``), which the live session runs on (the ``exact``
    backend unless pinned).

    ``config.durable`` (a data directory) makes the checker
    crash-proof: the durable state is the *rows* (the agreement
    density is derived), so every insert/delete is appended to a
    CRC-framed write-ahead log as a JSON row op before it is applied,
    and snapshots persist the full row multiset.  Reopening on the same
    directory recovers the relation and re-derives the pairwise density
    through a fresh session (an ``O(rows^2)`` rebuild, asserted against
    the snapshot's violation counters).  Durable rows must be
    JSON-round-trippable tuples.  ``config.fsync`` is the row log's
    sync policy, ``config.snapshot_every=N`` snapshots every ``N`` row
    operations, and ``retain`` is how many snapshots the store keeps.
    """

    def __init__(
        self,
        ground: GroundSet,
        fds: Iterable[FunctionalDependency] = (),
        config=None,
        retain: int = 2,
    ):
        from repro.engine.persist import DurableStore
        from repro.engine.plan import EngineConfig
        from repro.engine.stream import StreamSession

        if config is None:
            config = EngineConfig()
        durable = config.durable
        self._ground = ground
        self._fds: List[FunctionalDependency] = list(fds)
        self._by_constraint = {
            fd.to_differential(): fd for fd in self._fds
        }
        # the checker's durable state is the *rows* (the agreement
        # density is derived): the store is ours, the engine session
        # underneath stays in-memory
        self._session = StreamSession(
            ground,
            constraints=tuple(self._by_constraint),
            config=config.replace(durable=None),
        )
        self._rows: Counter = Counter()
        self._row_tx = 0
        self._snapshot_every = config.snapshot_every
        self._wedged = False
        self._store = None
        if durable is not None:
            self._store = (
                durable
                if isinstance(durable, DurableStore)
                else DurableStore(durable, fsync=config.fsync, retain=retain)
            )
            if self._store.is_empty():
                self._store.write_meta(
                    {
                        "format": 1,
                        "kind": "fd-checker",
                        "n": ground.size,
                        "backend": self._session.context.backend.name,
                    }
                )
                self.snapshot()
            else:
                self._recover()

    # ------------------------------------------------------------------
    @property
    def ground(self) -> GroundSet:
        return self._ground

    @property
    def fds(self) -> Tuple[FunctionalDependency, ...]:
        return tuple(self._fds)

    @property
    def session(self):
        """The underlying stream session (live agreement density)."""
        return self._session

    def __len__(self) -> int:
        return sum(self._rows.values())

    def _agreement(self, t: Tuple, u: Tuple) -> int:
        mask = 0
        for bit in range(self._ground.size):
            if t[bit] == u[bit]:
                mask |= 1 << bit
        return mask

    def _check_row(self, row) -> Tuple:
        row = tuple(row)
        if len(row) != self._ground.size:
            raise ValueError(
                f"row arity {len(row)} != |schema| {self._ground.size}"
            )
        return row

    def _pair_deltas(self, row: Tuple, sign: int) -> List[Tuple[int, int]]:
        deltas: Counter = Counter()
        for other, count in self._rows.items():
            deltas[self._agreement(row, other)] += sign * count
        return [(mask, d) for mask, d in deltas.items() if d]

    # ------------------------------------------------------------------
    # durability: the rows are the durable state
    # ------------------------------------------------------------------
    @property
    def durable(self) -> bool:
        return self._store is not None

    @staticmethod
    def _rows_fingerprint(rows: Counter) -> int:
        import json
        import zlib

        canon = json.dumps(
            sorted(
                ([list(row), count] for row, count in rows.items()),
                key=str,  # heterogeneous row values are not orderable
            ),
            separators=(",", ":"),
            default=str,
        )
        return zlib.crc32(canon.encode())

    def _check_not_wedged(self) -> None:
        if self._wedged:
            from repro.errors import PersistenceError

            raise PersistenceError(
                "checker is wedged: a durably-logged row op failed to "
                "apply, so the live state lags the log; reopen from the "
                "data directory to recover (replay heals the state)"
            )

    def _log_row(self, op: str, row: Tuple) -> None:
        """Durably commit a row op.  The append is the commit point:
        the sequence counter advances here, so a failed apply cannot
        make a later op reuse this record's sequence number."""
        import json

        if self._store is not None:
            self._check_not_wedged()
            payload = json.dumps(
                {"op": op, "row": list(row)}, separators=(",", ":")
            ).encode()
            try:
                self._store.append(self._row_tx + 1, payload)
            except OSError:
                # partial record bytes may be in the file: refuse all
                # further writes; the reopen path repairs the torn tail
                self._wedged = True
                raise
            self._row_tx += 1

    def _after_row_op(self) -> None:
        if self._store is None:
            self._row_tx += 1
        elif (
            self._snapshot_every is not None
            and self._row_tx % self._snapshot_every == 0
        ):
            self.snapshot()

    def snapshot(self) -> None:
        """Persist the row multiset and compact the row log."""
        from repro.errors import PersistenceError

        if self._store is None:
            raise PersistenceError(
                "this checker is not durable (pass durable=<data dir>)"
            )
        self._check_not_wedged()
        payload = {
            "format": 1,
            "tx": self._row_tx,
            "rows": sorted(
                ([list(row), count] for row, count in self._rows.items()),
                key=str,
            ),
            "rows_fingerprint": self._rows_fingerprint(self._rows),
            "tracked": len(self._fds),
            "violated": len(self.violated_fds()),
        }
        self._store.snapshot(payload)

    def _recover(self) -> None:
        """Rebuild rows from snapshot + log tail, re-derive the density."""
        import json

        from repro.errors import CorruptSnapshotError, CorruptWalError

        recovered = self._store.recover()
        meta = self._store.meta
        if meta.get("kind") != "fd-checker":
            raise CorruptSnapshotError(
                f"{self._store.path}: data dir belongs to "
                f"{meta.get('kind')!r}, not a streaming FD checker"
            )
        if meta["n"] != self._ground.size:
            raise CorruptSnapshotError(
                f"{self._store.path}: recorded |schema|={meta['n']} != "
                f"ground set size {self._ground.size}"
            )
        snapshot = recovered.snapshot
        if snapshot is not None:
            for row, count in snapshot["rows"]:
                for _ in range(count):
                    self._apply_insert(tuple(row))
            self._row_tx = snapshot["tx"]
            if self._rows_fingerprint(self._rows) != snapshot["rows_fingerprint"]:
                raise CorruptSnapshotError(
                    f"{self._store.path}: recovered rows do not match the "
                    "snapshot's fingerprint"
                )
            if (
                len(self._fds) == snapshot.get("tracked")
                and len(self.violated_fds()) != snapshot["violated"]
            ):
                raise CorruptSnapshotError(
                    f"{self._store.path}: recovered violation count "
                    f"{len(self.violated_fds())} != snapshot count "
                    f"{snapshot['violated']} for the same FD set"
                )
        for seq, payload in recovered.tail:
            try:
                record = json.loads(payload)
                op, row = record["op"], tuple(record["row"])
            except (ValueError, KeyError, TypeError) as err:
                raise CorruptWalError(
                    f"{self._store.path}: row record {seq} is not a "
                    f"JSON row op ({err})"
                ) from err
            if op == "+":
                self._apply_insert(row)
            elif op == "-":
                self._apply_delete(row)
            else:
                raise CorruptWalError(
                    f"{self._store.path}: unknown row op {op!r} in "
                    f"record {seq}"
                )
            self._row_tx = seq

    def close(self) -> None:
        """Flush and close the durable store and the session."""
        if self._store is not None:
            self._store.close()
        self._session.close()

    def __enter__(self) -> "StreamingFDChecker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _apply_insert(self, row: Tuple):
        row = self._check_row(row)
        report = self._session.apply(self._pair_deltas(row, +1))
        self._rows[row] += 1
        return report

    def _apply_delete(self, row: Tuple):
        row = self._check_row(row)
        if self._rows[row] <= 0:
            raise ValueError(f"row {row!r} not present")
        self._rows[row] -= 1
        if self._rows[row] == 0:
            del self._rows[row]
        return self._session.apply(self._pair_deltas(row, -1))

    def insert(self, row):
        """Insert one tuple; returns the transaction's
        :class:`repro.engine.StreamReport` (constraints are the FDs'
        differential translations; map back with :meth:`fd_of`).
        Durable checkers log the row op before applying it."""
        row = self._check_row(row)
        self._log_row("+", row)
        report = self._apply_logged(self._apply_insert, row)
        self._after_row_op()
        return report

    def delete(self, row):
        """Delete one copy of ``row`` (must be present)."""
        row = self._check_row(row)
        if self._rows[row] <= 0:
            raise ValueError(f"row {row!r} not present")
        self._log_row("-", row)
        report = self._apply_logged(self._apply_delete, row)
        self._after_row_op()
        return report

    def _apply_logged(self, apply, row):
        if self._store is None:
            return apply(row)
        try:
            return apply(row)
        except BaseException:
            # the log has the row op but the state does not: wedge the
            # checker so no later op or snapshot persists the divergence
            self._wedged = True
            raise

    def fd_of(self, constraint: DifferentialConstraint) -> FunctionalDependency:
        """The FD behind a reported differential constraint."""
        return self._by_constraint[constraint]

    def violated_fds(self) -> Tuple[FunctionalDependency, ...]:
        """The FDs currently violated by the streamed relation."""
        return tuple(
            self._by_constraint[c]
            for c in self._session.violated_constraints()
        )

    def to_relation(self) -> Relation:
        """Materialize the current rows as a :class:`Relation` -- the
        oracle the tests re-check against.  :class:`Relation` has set
        semantics, so duplicate streamed rows collapse (harmless for FD
        satisfaction: identical tuples agree everywhere)."""
        return Relation(self._ground, list(self._rows))

    def __repr__(self) -> str:
        return (
            f"StreamingFDChecker({len(self)} rows, {len(self._fds)} FDs, "
            f"{len(self.violated_fds())} violated)"
        )


def closure(
    ground: GroundSet, attrs_mask: int, fds: Iterable[FunctionalDependency]
) -> int:
    """The attribute-set closure ``X+`` under ``fds``."""
    pairs = [(fd.lhs, fd.rhs) for fd in fds]
    return fd_closure(ground.universe_mask, attrs_mask, pairs)


def implies_fd_classic(
    fds: Iterable[FunctionalDependency], target: FunctionalDependency
) -> bool:
    """``F |= X -> Y`` iff ``Y subseteq X+`` (the textbook P-time test)."""
    return sb.is_subset(
        target.rhs, closure(target.ground, target.lhs, list(fds))
    )


def is_superkey(
    ground: GroundSet, attrs_mask: int, fds: Iterable[FunctionalDependency]
) -> bool:
    """Whether ``attrs`` functionally determine every attribute."""
    return closure(ground, attrs_mask, list(fds)) == ground.universe_mask


def candidate_keys(
    ground: GroundSet, fds: Sequence[FunctionalDependency]
) -> List[int]:
    """All minimal superkeys, by increasing size (exponential search)."""
    keys: List[int] = []
    bits = list(range(ground.size))
    for size in range(ground.size + 1):
        for combo in combinations(bits, size):
            mask = sb.mask_of_bits(combo)
            if any(sb.is_subset(k, mask) for k in keys):
                continue
            if is_superkey(ground, mask, fds):
                keys.append(mask)
    return sorted(keys)


def armstrong_derives(
    fds: Sequence[FunctionalDependency],
    target: FunctionalDependency,
    max_rounds: int = 64,
) -> bool:
    """Derivability in Armstrong's system (saturation to fixpoint).

    Saturates under reflexivity-augmented transitivity in closure form:
    maintains, for each derived left-hand side, the set of attributes
    reachable; sound and complete for FD implication, so this must agree
    with :func:`implies_fd_classic` -- a cross-check used in the tests
    rather than a practical decision procedure.
    """
    ground = target.ground
    # reachable[L] = attributes derivable from L; seed with reflexivity
    reachable = {fd.lhs: fd.lhs | fd.rhs for fd in fds}
    reachable.setdefault(target.lhs, target.lhs)
    for _ in range(max_rounds):
        changed = False
        for lhs in list(reachable):
            current = reachable[lhs] | lhs
            for fd in fds:
                if sb.is_subset(fd.lhs, current) and fd.rhs & ~current:
                    current |= fd.rhs
                    changed = True
            if current != reachable[lhs]:
                reachable[lhs] = current
                changed = True
        if not changed:
            break
    return sb.is_subset(target.rhs, reachable.get(target.lhs, target.lhs))
