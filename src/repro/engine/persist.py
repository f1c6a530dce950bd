"""Durability: a write-ahead log and versioned snapshots for live state.

Everything the incremental engine maintains is a function of the density
(equation (5) and Proposition 2.9), and the density is a function of the
committed delta stream -- so durability only has to make the *stream*
crash-proof.  This module provides the three layers a durable session
needs:

:class:`WriteAheadLog`
    An append-only file of CRC-framed records.  Each record carries one
    committed transaction serialized in the exact plain-text format that
    ``repro stream`` replays (``+|-|= SUBSET [AMOUNT]`` lines ending in
    ``commit``), framed by a fixed header ``(seq, length, crc32)`` so a
    reader can detect truncation and bit rot.  A *torn final record* --
    the file ends mid-write because the process died -- is dropped on
    recovery (that transaction never committed); a CRC or framing
    failure anywhere *earlier* raises
    :class:`~repro.errors.CorruptWalError` because committed data is
    gone.  The fsync policy is per-log: ``"always"`` fsyncs every
    append (a crashed process loses nothing it acknowledged),
    ``"never"`` leaves flushing to the OS page cache (faster; an OS
    crash may drop the newest suffix, which recovery then treats as a
    torn tail).

:class:`SnapshotStore`
    Versioned JSON snapshots written atomically (temp file + rename +
    directory fsync), named by the transaction count they cover.  The
    newest ``retain`` snapshots are kept, older ones pruned.

:class:`DurableStore`
    One data directory combining both, plus a ``meta.json`` identity
    record: append transactions, write snapshots (which *compact* the
    log -- covered records are dropped by an atomic rewrite), and
    :meth:`~DurableStore.recover` the pair ``(snapshot, log tail)``
    with every crash window checked:

    * torn final record -> dropped (reported via ``torn_tail``);
    * CRC/framing damage before the tail -> ``CorruptWalError``;
    * record sequence gap after the snapshot -> ``WalGapError``
      (committed transactions are missing: fail loudly);
    * snapshot ahead of the log (its records already compacted, or the
      log empty/stale) -> fine, the snapshot alone carries the state.

The session-facing helpers (:func:`encode_transaction`,
:func:`snapshot_state`, :func:`verify_recovered`) serialize a batch of
density deltas and capture/assert the consistency counters -- density
fingerprint, support size, violated-constraint count -- that make
"replaying the log reproduces the live tables exactly" an *asserted*
recovery invariant rather than a hope.

Like the rest of the engine this module imports nothing from
:mod:`repro.core`; ground sets are duck-typed (``parse`` /
``format_mask``) and payloads are opaque bytes at the store layer, so
other subsystems (the streaming FD checker persists relation *rows*)
reuse the same log/snapshot machinery with their own codecs.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    CorruptSnapshotError,
    CorruptWalError,
    PersistenceError,
    WalGapError,
)

__all__ = [
    "DurableStore",
    "RecoveredState",
    "SnapshotStore",
    "WriteAheadLog",
    "decode_transaction",
    "density_fingerprint",
    "encode_transaction",
    "format_subset",
    "parse_value",
    "snapshot_state",
    "verify_recovered",
]

#: Record framing: little-endian ``(seq: u64, length: u32, crc32: u32)``
#: followed by ``length`` payload bytes; the CRC covers the payload.
_HEADER = struct.Struct("<QII")

FSYNC_POLICIES = ("always", "never")

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{16})\.json$")


def _fsync_dir(path: str) -> None:
    """fsync a directory so renames/creates inside it are durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: str, data: bytes) -> None:
    """Write ``path`` atomically: temp file, fsync, rename, dir fsync."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path) or ".")


class WriteAheadLog:
    """Append-only CRC-framed record log with torn-tail recovery."""

    def __init__(self, path: str, fsync: str = "always"):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self._path = path
        self._fsync = fsync
        self._fh = None

    @property
    def path(self) -> str:
        """The log file's path."""
        return self._path

    @property
    def fsync_policy(self) -> str:
        """``"always"`` (fsync every append) or ``"never"``."""
        return self._fsync

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, seq: int, payload: bytes) -> None:
        """Durably append one record (per the fsync policy)."""
        if self._fh is None:
            self._fh = open(self._path, "ab")
        self._fh.write(_HEADER.pack(seq, len(payload), zlib.crc32(payload)))
        self._fh.write(payload)
        self._fh.flush()
        if self._fsync == "always":
            os.fsync(self._fh.fileno())

    def sync(self) -> None:
        """Flush and fsync regardless of policy (used before snapshots)."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Flush, sync and release the log file handle."""
        if self._fh is not None:
            self._fh.flush()
            if self._fsync == "always":
                os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------
    # reading / repair
    # ------------------------------------------------------------------
    def scan(self) -> Tuple[List[Tuple[int, bytes]], bool]:
        """Read every complete record; returns ``(records, torn_tail)``.

        A record that the file ends inside -- short header, short
        payload, or a CRC mismatch on the very last framed record -- is
        a *torn tail*: the write was interrupted, the transaction never
        committed, and it is excluded from ``records``.  The same
        damage strictly before the end of the file means committed
        records are unreadable and raises :class:`CorruptWalError`.
        """
        if not os.path.exists(self._path):
            return [], False
        with open(self._path, "rb") as fh:
            blob = fh.read()
        records: List[Tuple[int, bytes]] = []
        offset = 0
        total = len(blob)
        while offset < total:
            if offset + _HEADER.size > total:
                return records, True  # torn mid-header
            seq, length, crc = _HEADER.unpack_from(blob, offset)
            start = offset + _HEADER.size
            end = start + length
            if end > total:
                return records, True  # torn mid-payload
            payload = blob[start:end]
            if zlib.crc32(payload) != crc:
                if end == total:
                    return records, True  # torn final record
                raise CorruptWalError(
                    f"{self._path}: record at byte {offset} (seq {seq}) "
                    "fails its CRC before the end of the log; committed "
                    "transactions are unrecoverable"
                )
            records.append((seq, payload))
            offset = end
        return records, False

    def repair(self) -> Tuple[List[Tuple[int, bytes]], bool]:
        """Scan and physically truncate a torn tail; returns the scan."""
        records, torn = self.scan()
        if torn:
            valid = sum(
                _HEADER.size + len(payload) for _, payload in records
            )
            with open(self._path, "rb+") as fh:
                fh.truncate(valid)
            _fsync_dir(os.path.dirname(self._path) or ".")
        return records, torn

    def rewrite(self, records: Iterable[Tuple[int, bytes]]) -> None:
        """Atomically replace the log's contents (compaction)."""
        self.close()
        chunks = []
        for seq, payload in records:
            chunks.append(
                _HEADER.pack(seq, len(payload), zlib.crc32(payload))
            )
            chunks.append(payload)
        _atomic_write(self._path, b"".join(chunks))

    def __repr__(self) -> str:
        return f"WriteAheadLog({self._path!r}, fsync={self._fsync!r})"


class SnapshotStore:
    """Versioned, atomically-written JSON snapshots in one directory."""

    def __init__(self, dirpath: str, retain: int = 2):
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self._dir = dirpath
        self._retain = retain

    def _path_for(self, tx: int) -> str:
        return os.path.join(self._dir, f"snapshot-{tx:016d}.json")

    def list(self) -> List[Tuple[int, str]]:
        """``(tx, path)`` for every snapshot, oldest first."""
        entries = []
        for name in os.listdir(self._dir):
            match = _SNAPSHOT_RE.match(name)
            if match:
                entries.append((int(match.group(1)), os.path.join(self._dir, name)))
        entries.sort()
        return entries

    def write(self, payload: dict) -> str:
        """Persist ``payload`` (must carry ``"tx"``) and prune old ones."""
        tx = payload["tx"]
        path = self._path_for(tx)
        _atomic_write(
            path, json.dumps(payload, separators=(",", ":")).encode()
        )
        for old_tx, old_path in self.list()[: -self._retain or None]:
            if old_tx != tx:
                os.unlink(old_path)
        return path

    def latest(self) -> Optional[dict]:
        """The newest snapshot's payload, or None; corruption is loud."""
        entries = self.list()
        if not entries:
            return None
        tx, path = entries[-1]
        try:
            with open(path, "rb") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as err:
            raise CorruptSnapshotError(
                f"{path}: snapshot cannot be decoded ({err}); refusing to "
                "fall back silently"
            ) from err
        if payload.get("tx") != tx:
            raise CorruptSnapshotError(
                f"{path}: snapshot claims tx {payload.get('tx')} but is "
                f"named for tx {tx}"
            )
        return payload

    def __repr__(self) -> str:
        return f"SnapshotStore({self._dir!r}, retain={self._retain})"


class RecoveredState:
    """What :meth:`DurableStore.recover` reconstructed."""

    __slots__ = ("snapshot", "tail", "torn_tail")

    def __init__(self, snapshot: Optional[dict], tail: List[Tuple[int, bytes]],
                 torn_tail: bool):
        #: The newest snapshot payload (None when only the log exists).
        self.snapshot = snapshot
        #: ``(seq, payload)`` records *after* the snapshot, contiguous.
        self.tail = tail
        #: Whether a torn final record was dropped during recovery.
        self.torn_tail = torn_tail

    @property
    def tx(self) -> int:
        """The transaction count the recovered state reaches."""
        if self.tail:
            return self.tail[-1][0]
        return self.snapshot["tx"] if self.snapshot else 0

    def __repr__(self) -> str:
        base = self.snapshot["tx"] if self.snapshot else 0
        return (
            f"RecoveredState(snapshot_tx={base}, tail={len(self.tail)}, "
            f"torn_tail={self.torn_tail})"
        )


class DurableStore:
    """One data directory: ``meta.json`` + ``wal.log`` + snapshots.

    The store is payload-agnostic: sequence numbers are transaction
    counts, payloads are opaque bytes, and the snapshot dict carries
    whatever state its owner needs (plus the mandatory ``"tx"``).  The
    owner-level codecs live next to their owners --
    :mod:`repro.engine.stream` persists density transactions through
    :func:`encode_transaction`, the relational layer persists rows.
    """

    META = "meta.json"
    WAL = "wal.log"

    def __init__(self, path: str, fsync: str = "always", retain: int = 2):
        self._path = path
        os.makedirs(path, exist_ok=True)
        self._wal = WriteAheadLog(os.path.join(path, self.WAL), fsync=fsync)
        self._snapshots = SnapshotStore(path, retain=retain)
        self._meta: Optional[dict] = None

    @property
    def path(self) -> str:
        """The store's data directory."""
        return self._path

    @property
    def wal(self) -> WriteAheadLog:
        """The store's write-ahead log."""
        return self._wal

    @property
    def snapshots(self) -> SnapshotStore:
        """The store's versioned snapshot directory view."""
        return self._snapshots

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def meta(self) -> Optional[dict]:
        """The identity record (``meta.json``), or None when empty."""
        if self._meta is None:
            meta_path = os.path.join(self._path, self.META)
            if os.path.exists(meta_path):
                try:
                    with open(meta_path, "rb") as fh:
                        self._meta = json.load(fh)
                except (OSError, ValueError) as err:
                    raise CorruptSnapshotError(
                        f"{meta_path}: meta record cannot be decoded ({err})"
                    ) from err
        return self._meta

    def is_empty(self) -> bool:
        """Whether the directory holds no durable state yet."""
        return self.meta is None

    def write_meta(self, meta: dict) -> None:
        """Atomically persist the identity record."""
        _atomic_write(
            os.path.join(self._path, self.META),
            json.dumps(meta, separators=(",", ":")).encode(),
        )
        self._meta = dict(meta)

    # ------------------------------------------------------------------
    # the durable write path
    # ------------------------------------------------------------------
    def append(self, seq: int, payload: bytes) -> None:
        """Append one committed transaction (write-ahead: call *before*
        applying to the live state)."""
        self._wal.append(seq, payload)

    def snapshot(self, payload: dict) -> str:
        """Persist a snapshot and compact the log it covers.

        The order is crash-safe: the log is fsynced, the snapshot lands
        atomically, *then* covered records are dropped.  A crash between
        the last two steps leaves records the snapshot already covers --
        recovery skips them by sequence number.
        """
        self._wal.sync()
        path = self._snapshots.write(payload)
        covered = payload["tx"]
        records, torn = self._wal.scan()
        if torn:
            raise CorruptWalError(
                f"{self._wal.path}: torn record found while compacting a "
                "live log (writes and snapshots must not race)"
            )
        self._wal.rewrite(
            [(seq, body) for seq, body in records if seq > covered]
        )
        return path

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveredState:
        """Reconstruct ``(snapshot, contiguous log tail)`` or fail loudly."""
        records, torn = self._wal.repair()
        for (prev_seq, _), (seq, _) in zip(records, records[1:]):
            if seq <= prev_seq:
                raise CorruptWalError(
                    f"{self._wal.path}: record sequence regressed "
                    f"({prev_seq} -> {seq})"
                )
        snapshot = self._snapshots.latest()
        base = snapshot["tx"] if snapshot else 0
        tail = [(seq, payload) for seq, payload in records if seq > base]
        expected = base
        for seq, _ in tail:
            expected += 1
            if seq != expected:
                raise WalGapError(
                    f"{self._wal.path}: transactions {expected}..{seq - 1} "
                    f"are missing after snapshot tx {base}; the log has "
                    "lost committed records"
                )
        return RecoveredState(snapshot, tail, torn)

    def close(self) -> None:
        """Flush and close the write-ahead log file handle."""
        self._wal.close()

    def reset(self) -> None:
        """Erase the directory's durable state (meta, WAL, snapshots).

        Used when a directory is being *re-seeded* from another store
        -- e.g. a WAL-shipping standby whose primary was rebuilt -- so
        stale state from a previous life cannot shadow the new seed.
        The directory itself is kept.
        """
        self._wal.close()
        for name in os.listdir(self._path):
            if (
                name in (self.META, self.WAL)
                or name == self.WAL + ".tmp"
                or name == self.META + ".tmp"
                or _SNAPSHOT_RE.match(name)
            ):
                os.unlink(os.path.join(self._path, name))
        _fsync_dir(self._path)
        self._meta = None

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DurableStore({self._path!r}, "
            f"fsync={self._wal.fsync_policy!r})"
        )


# ----------------------------------------------------------------------
# density-transaction codec (the ``repro stream`` log format)
# ----------------------------------------------------------------------
Number = Union[int, float, Fraction]


def format_subset(ground, mask: int) -> str:
    """``mask`` in transaction-log shorthand (``"0"`` for the empty set,
    which -- unlike ``format_mask``'s ``"(/)"`` -- round-trips through
    ``ground.parse``)."""
    return "0" if mask == 0 else ground.format_mask(mask)


def _format_value(value: Number) -> str:
    if isinstance(value, bool):
        raise PersistenceError("booleans are not density amounts")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)  # repr round-trips float64 exactly
    if isinstance(value, Fraction):
        return str(value)  # "p/q": exact, parsed back by parse_value
    raise PersistenceError(
        f"durable logs carry int/float/Fraction amounts, "
        f"not {type(value).__name__}"
    )


def parse_value(text: str) -> Number:
    """Inverse of the snapshot/log value serialization (exact)."""
    try:
        return int(text)
    except ValueError:
        pass
    if "/" in text:
        return Fraction(text)
    return float(text)


def encode_transaction(
    ground, deltas: Sequence[Tuple[int, Number]]
) -> bytes:
    """One committed batch as a ``repro stream`` transaction record.

    The payload is literally the plain-text log format (``+``/``-``
    lines closed by ``commit``), so a WAL record is human-readable and
    replayable by the same parser the CLI uses.
    """
    lines = []
    for mask, delta in deltas:
        if delta < 0:
            op, amount = "-", -delta
        else:
            op, amount = "+", delta
        lines.append(
            f"{op} {format_subset(ground, mask)} {_format_value(amount)}"
        )
    lines.append("commit")
    return ("\n".join(lines) + "\n").encode()


def decode_transaction(ground, payload: bytes) -> List[Tuple[int, Number]]:
    """Inverse of :func:`encode_transaction` (via the stream parser)."""
    from repro.engine.stream import parse_transaction_log

    try:
        text = payload.decode()
    except UnicodeDecodeError as err:
        raise CorruptWalError(f"undecodable WAL payload: {err}") from err
    transactions = parse_transaction_log(ground, text.splitlines())
    if len(transactions) != 1:
        raise CorruptWalError(
            f"WAL record holds {len(transactions)} transactions, expected 1"
        )
    deltas: List[Tuple[int, Number]] = []
    for op, mask, amount in transactions[0]:
        if op != "delta":
            raise CorruptWalError(
                f"WAL records carry resolved deltas, found {op!r} op"
            )
        deltas.append((mask, amount))
    return deltas


# ----------------------------------------------------------------------
# context snapshot codec + recovery assertions
# ----------------------------------------------------------------------
def density_fingerprint(items: Iterable[Tuple[int, Number]]) -> int:
    """CRC32 over the canonical density serialization (sorted by mask)."""
    canon = ";".join(
        f"{mask}:{_format_value(value)}" for mask, value in sorted(items)
    )
    return zlib.crc32(canon.encode())


def snapshot_state(context, tx: int) -> dict:
    """Capture a context's recoverable state plus consistency counters.

    ``context`` is duck-typed: anything with the incremental engine's
    set-function protocol (``density_items`` / ``support_size`` /
    ``violated_constraints``).
    """
    items = [(mask, value) for mask, value in context.density_items()]
    payload = {
        "format": 1,
        "tx": tx,
        "backend": context.backend.name,
        "n": context.ground.size,
        "density": [[mask, _format_value(v)] for mask, v in items],
        "fingerprint": density_fingerprint(items),
        "support_nnz": context.support_size(),
        "tracked": len(context.constraints),
        "violated": len(context.violated_constraints()),
    }
    return payload


def decode_density(snapshot: dict) -> Dict[int, Number]:
    """The snapshot's density as a ``{mask: value}`` seed mapping."""
    return {mask: parse_value(text) for mask, text in snapshot["density"]}


def verify_recovered(context, snapshot: dict) -> None:
    """Assert the seeded context reproduces the snapshot's counters.

    This is the recovery invariant made executable: fingerprint of the
    density items, support size and violated-count (when the same
    constraint theory is tracked) must all match, else recovery *fails
    loudly*.  Keys this check does not read (snapshots written by older
    releases carry ``shards``/``shard_sizes``) are ignored.
    """
    fingerprint = density_fingerprint(context.density_items())
    if fingerprint != snapshot["fingerprint"]:
        raise CorruptSnapshotError(
            f"recovered density fingerprint {fingerprint:#010x} != "
            f"snapshot fingerprint {snapshot['fingerprint']:#010x}"
        )
    if context.support_size() != snapshot["support_nnz"]:
        raise CorruptSnapshotError(
            f"recovered support size {context.support_size()} != "
            f"snapshot support size {snapshot['support_nnz']}"
        )
    if (
        len(context.constraints) == snapshot.get("tracked")
        and len(context.violated_constraints()) != snapshot["violated"]
    ):
        raise CorruptSnapshotError(
            f"recovered violation count "
            f"{len(context.violated_constraints())} != snapshot count "
            f"{snapshot['violated']} for the same tracked theory"
        )
