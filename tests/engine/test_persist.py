"""Durability: WAL framing, snapshots, recovery, and crash windows.

The crash-window cases the issue calls out are each pinned here:

* torn final WAL record (truncated mid-write) -> dropped on recovery,
  the uncommitted transaction vanishes, everything earlier survives;
* empty WAL with a stale snapshot -> recovery lands exactly on the
  snapshot state;
* snapshot ahead of the log (covered records already compacted away,
  or the whole log gone) -> recovery from the snapshot alone;
* CRC damage *before* the tail, sequence gaps, undecodable snapshots,
  or counter mismatches -> loud, typed errors, never silent divergence.
"""

from __future__ import annotations

import json
import os
import struct

import pytest

from repro.core import ConstraintSet, GroundSet
from repro.engine import EngineConfig, StreamSession
from repro.engine.persist import (
    DurableStore,
    SnapshotStore,
    WriteAheadLog,
    decode_transaction,
    density_fingerprint,
    encode_transaction,
    format_subset,
    parse_value,
)
from repro.errors import (
    CorruptSnapshotError,
    CorruptWalError,
    PersistenceError,
    WalGapError,
)


@pytest.fixture
def ground() -> GroundSet:
    return GroundSet("ABCD")


@pytest.fixture
def cset(ground) -> ConstraintSet:
    return ConstraintSet.of(ground, "A -> B", "B -> CD")


def wal_path(tmp_path) -> str:
    return os.path.join(str(tmp_path), "wal.log")


class TestWriteAheadLog:
    def test_roundtrip(self, tmp_path):
        log = WriteAheadLog(wal_path(tmp_path))
        payloads = [b"alpha", b"", b"\x00\xffbinary", b"x" * 5000]
        for seq, payload in enumerate(payloads, start=1):
            log.append(seq, payload)
        log.close()
        records, torn = WriteAheadLog(wal_path(tmp_path)).scan()
        assert not torn
        assert records == list(enumerate(payloads, start=1))

    def test_missing_file_scans_empty(self, tmp_path):
        records, torn = WriteAheadLog(wal_path(tmp_path)).scan()
        assert records == [] and not torn

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            WriteAheadLog(wal_path(tmp_path), fsync="sometimes")

    @pytest.mark.parametrize("cut", ["header", "payload", "crc"])
    def test_torn_tail_detected_and_repaired(self, tmp_path, cut):
        path = wal_path(tmp_path)
        log = WriteAheadLog(path)
        log.append(1, b"first")
        log.append(2, b"second-record-payload")
        log.close()
        size = os.path.getsize(path)
        second = 16 + len(b"second-record-payload")
        if cut == "header":
            torn_size = size - second + 7  # mid-header
        elif cut == "payload":
            torn_size = size - 10  # mid-payload
        else:  # flip a payload byte of the final record: CRC fails at EOF
            torn_size = None
        if torn_size is not None:
            with open(path, "rb+") as fh:
                fh.truncate(torn_size)
        else:
            with open(path, "rb+") as fh:
                fh.seek(size - 1)
                byte = fh.read(1)
                fh.seek(size - 1)
                fh.write(bytes([byte[0] ^ 0xFF]))
        records, torn = WriteAheadLog(path).repair()
        assert torn
        assert records == [(1, b"first")]
        # physically truncated: a fresh scan is clean
        records2, torn2 = WriteAheadLog(path).scan()
        assert records2 == [(1, b"first")] and not torn2

    def test_corruption_before_tail_is_loud(self, tmp_path):
        path = wal_path(tmp_path)
        log = WriteAheadLog(path)
        log.append(1, b"first-record")
        log.append(2, b"second")
        log.close()
        with open(path, "rb+") as fh:
            fh.seek(18)  # inside the first record's payload
            fh.write(b"X")
        with pytest.raises(CorruptWalError, match="unrecoverable"):
            WriteAheadLog(path).scan()

    def test_rewrite_compacts_atomically(self, tmp_path):
        path = wal_path(tmp_path)
        log = WriteAheadLog(path)
        for seq in range(1, 6):
            log.append(seq, f"tx{seq}".encode())
        log.rewrite([(4, b"tx4"), (5, b"tx5")])
        records, torn = log.scan()
        assert records == [(4, b"tx4"), (5, b"tx5")] and not torn
        # appends continue after a rewrite
        log.append(6, b"tx6")
        log.close()
        records, _ = WriteAheadLog(path).scan()
        assert [seq for seq, _ in records] == [4, 5, 6]

    def test_fsync_never_still_recovers_flushed_records(self, tmp_path):
        path = wal_path(tmp_path)
        log = WriteAheadLog(path, fsync="never")
        log.append(1, b"payload")
        log.close()
        records, torn = WriteAheadLog(path).scan()
        assert records == [(1, b"payload")] and not torn


class TestSnapshotStore:
    def test_write_prunes_and_latest_wins(self, tmp_path):
        store = SnapshotStore(str(tmp_path), retain=2)
        for tx in (0, 3, 7):
            store.write({"tx": tx, "state": tx * 10})
        assert [tx for tx, _ in store.list()] == [3, 7]
        assert store.latest()["state"] == 70

    def test_empty_dir_has_no_snapshot(self, tmp_path):
        assert SnapshotStore(str(tmp_path)).latest() is None

    def test_undecodable_snapshot_is_loud(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        path = store.write({"tx": 4})
        with open(path, "w") as fh:
            fh.write("{not json")
        with pytest.raises(CorruptSnapshotError, match="cannot be decoded"):
            store.latest()

    def test_mislabeled_snapshot_is_loud(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        path = store.write({"tx": 4})
        with open(path, "w") as fh:
            json.dump({"tx": 9}, fh)
        with pytest.raises(CorruptSnapshotError, match="claims tx 9"):
            store.latest()


class TestTransactionCodec:
    def test_roundtrip_including_empty_set(self, ground):
        deltas = [(0, 2), (ground.parse("AB"), 3), (ground.parse("C"), -1)]
        payload = encode_transaction(ground, deltas)
        assert b"commit" in payload and b"+ 0 2" in payload
        assert decode_transaction(ground, payload) == deltas

    def test_float_amounts_roundtrip_exactly(self, ground):
        deltas = [(3, 0.1), (5, -0.30000000000000004)]
        decoded = decode_transaction(
            ground, encode_transaction(ground, deltas)
        )
        assert decoded == deltas  # repr round-trip: bit-exact

    def test_fraction_amounts_roundtrip_exactly(self, ground):
        from fractions import Fraction

        deltas = [(1, Fraction(1, 3)), (3, Fraction(-2, 7))]
        decoded = decode_transaction(
            ground, encode_transaction(ground, deltas)
        )
        assert decoded == deltas
        assert all(isinstance(v, Fraction) for _, v in decoded)

    def test_exotic_amounts_rejected(self, ground):
        from decimal import Decimal

        with pytest.raises(PersistenceError, match="amounts"):
            encode_transaction(ground, [(1, Decimal("0.5"))])
        with pytest.raises(PersistenceError, match="boolean"):
            encode_transaction(ground, [(1, True)])

    def test_undecodable_payloads_are_loud(self, ground):
        with pytest.raises(CorruptWalError):
            decode_transaction(ground, b"\xff\xfe garbage")
        with pytest.raises(CorruptWalError, match="2 transactions"):
            decode_transaction(ground, b"+ A 1\ncommit\n+ B 1\ncommit\n")

    def test_format_subset_roundtrips_empty_mask(self, ground):
        assert ground.parse(format_subset(ground, 0)) == 0
        assert format_subset(ground, ground.parse("AC")) == "AC"

    def test_multi_character_labels_are_comma_separated(self):
        ground = GroundSet(["x0", "x1", "x2"])
        assert format_subset(ground, 0b011) == "x0,x1"
        assert format_subset(ground, 0b100) == "x2"
        deltas = [(0b011, 1), (0b111, -2), (0, 1)]
        payload = encode_transaction(ground, deltas)
        assert b"+ x0,x1 1" in payload
        assert decode_transaction(ground, payload) == deltas

    @pytest.mark.parametrize(
        "labels",
        [["a b", "c"], ["x,y", "z"], ["ab", "a", "b"], ["0", "x1"], "0AB", "A#B"],
    )
    def test_labels_a_log_cannot_read_back_are_refused(self, labels):
        ground = GroundSet(labels)
        with pytest.raises(PersistenceError, match="transaction log"):
            encode_transaction(ground, [(1, 1)])

    def test_parse_value_types(self):
        from fractions import Fraction

        assert parse_value("17") == 17 and isinstance(parse_value("17"), int)
        assert parse_value("0.5") == 0.5
        assert parse_value("1/3") == Fraction(1, 3)

    def test_fingerprint_is_order_insensitive_and_value_sensitive(self):
        a = density_fingerprint([(1, 2), (3, 4)])
        assert a == density_fingerprint([(3, 4), (1, 2)])
        assert a != density_fingerprint([(1, 2), (3, 5)])


def durable_config(data_dir: str, backend: str = "exact") -> EngineConfig:
    """A config on ``backend``, write-ahead logged to ``data_dir``."""
    return EngineConfig(backend=backend, durable=data_dir)


def make_session(ground, cset, tmp_path, backend="exact", **changes) -> StreamSession:
    config = durable_config(str(tmp_path / "data"), backend)
    return StreamSession(
        ground, constraints=cset.constraints, config=config.replace(**changes)
    )


def state_of(session):
    ctx = session.context
    return (
        list(ctx.density_items()),
        list(ctx.support_table()),
        session.violated_constraints(),
        session.transactions,
    )


class TestDurableSession:
    def test_reopen_reproduces_state_exactly(self, ground, cset, tmp_path):
        s = make_session(ground, cset, tmp_path, snapshot_every=2)
        s.insert("AB", 2)
        s.insert("ABC")
        s.insert("A")
        s.delete("A")
        expected = state_of(s)
        s.close()
        s2 = make_session(ground, cset, tmp_path)
        assert state_of(s2) == expected
        s2.close()

    def test_reopen_without_snapshot_every_replays_wal(self, ground, cset, tmp_path):
        s = make_session(ground, cset, tmp_path)
        s.apply([(ground.parse("AB"), 1), (ground.parse("CD"), 2)])
        s.apply([(0, 3)])
        expected = state_of(s)
        s.close()
        s2 = make_session(ground, cset, tmp_path)
        assert state_of(s2) == expected
        s2.close()

    def test_reopen_replays_multi_character_labels(self, tmp_path):
        ground = GroundSet(["x0", "x1", "x2"])
        cset = ConstraintSet.of(ground, "x0 -> x1", "x2 -> x0")
        s = make_session(ground, cset, tmp_path)
        s.insert(0b011)
        s.insert(0b101, 2)
        s.delete(0b011)
        s.insert(0b111)
        expected = state_of(s)
        s.close()
        s2 = make_session(ground, cset, tmp_path)
        assert state_of(s2) == expected
        s2.close()

    def test_float_backend_roundtrip(self, ground, cset, tmp_path):
        s = make_session(ground, cset, tmp_path, backend="float")
        s.apply([(3, 0.25)])
        s.apply([(7, 1.5), (3, -0.25)])
        expected = state_of(s)
        s.close()
        s2 = make_session(ground, cset, tmp_path, backend="float")
        assert state_of(s2) == expected
        s2.close()

    def test_older_release_snapshot_with_shard_keys_recovers(
        self, ground, cset, tmp_path
    ):
        # data dirs written by releases that had a sharded tier carry
        # ``shards``/``shard_sizes`` in their snapshots; they are input
        # from outside the program and must recover unchanged
        ops = ("AB", "ABC", "CD", "D", "AC")
        s = make_session(ground, cset, tmp_path)
        for text in ops[:4]:
            s.insert(text)
        s.snapshot()
        s.insert(ops[4])  # a WAL tail on top of the snapshot
        s.close()
        snapshots = sorted(
            name for name in os.listdir(tmp_path / "data")
            if name.startswith("snapshot-")
        )
        path = tmp_path / "data" / snapshots[-1]
        payload = json.loads(path.read_text())
        payload["shards"] = 3
        payload["shard_sizes"] = [2, 1, 1]
        path.write_text(json.dumps(payload))

        reopened = make_session(ground, cset, tmp_path)
        oracle = StreamSession(
            ground,
            constraints=cset.constraints,
            config=EngineConfig(backend="exact"),
        )
        for text in ops:
            oracle.insert(text)
        assert state_of(reopened) == state_of(oracle)
        assert dict(reopened.context.density_items()) == dict(
            oracle.context.density_items()
        )
        assert (
            reopened.satisfied_constraints()
            == oracle.satisfied_constraints()
        )
        reopened.close()

    def test_snapshot_compacts_wal(self, ground, cset, tmp_path):
        s = make_session(ground, cset, tmp_path)
        for _ in range(4):
            s.insert("AB")
        s.snapshot()
        s.close()
        store = DurableStore(str(tmp_path / "data"))
        assert store.wal.scan() == ([], False)
        recovered = store.recover()
        assert recovered.tx == 4 and recovered.tail == []

    def test_set_ops_replay_deterministically(self, ground, cset, tmp_path):
        s = make_session(ground, cset, tmp_path)
        s.apply_ops([("delta", ground.parse("AB"), 2)])
        s.apply_ops([("set", ground.parse("AB"), 7)])  # resolved to +5
        expected = state_of(s)
        s.close()
        s2 = make_session(ground, cset, tmp_path)
        assert state_of(s2) == expected
        s2.close()

    def test_mismatched_identity_is_loud(self, ground, cset, tmp_path):
        make_session(ground, cset, tmp_path).close()
        with pytest.raises(PersistenceError, match="backend"):
            make_session(ground, cset, tmp_path, backend="float")
        with pytest.raises(PersistenceError, match=r"\|S\|"):
            StreamSession(
                GroundSet("ABC"), config=durable_config(str(tmp_path / "data"))
            )

    def test_mismatched_seed_is_loud(self, ground, cset, tmp_path):
        s = StreamSession(
            ground, density={ground.parse("AB"): 2},
            config=durable_config(str(tmp_path / "data")),
        )
        s.close()
        # same seed: fine (the BasketDatabase reopen path)
        StreamSession(
            ground, density={ground.parse("AB"): 2},
            config=durable_config(str(tmp_path / "data")),
        ).close()
        # no seed: fine (recover whatever is there)
        StreamSession(ground, config=durable_config(str(tmp_path / "data"))).close()
        with pytest.raises(PersistenceError, match="different instance"):
            StreamSession(
                ground, density={ground.parse("AB"): 3},
                config=durable_config(str(tmp_path / "data")),
            )

    def test_wrong_kind_of_data_dir_is_loud(self, ground, tmp_path):
        store = DurableStore(str(tmp_path / "data"))
        store.write_meta({"format": 1, "kind": "fd-checker", "n": 4})
        with pytest.raises(PersistenceError, match="fd-checker"):
            StreamSession(ground, config=durable_config(str(tmp_path / "data")))

    def test_snapshot_on_memory_session_is_loud(self, ground):
        with pytest.raises(PersistenceError, match="not durable"):
            StreamSession(ground).snapshot()


class TestCrashWindows:
    """The issue's three named windows, plus the gap case."""

    def _data(self, tmp_path) -> str:
        return str(tmp_path / "data")

    def test_torn_final_record_drops_only_the_uncommitted_tx(
        self, ground, cset, tmp_path
    ):
        s = make_session(ground, cset, tmp_path)
        s.insert("AB")
        s.insert("ABC")
        committed = state_of(s)
        s.insert("A")  # this one will be torn away
        s.close()
        path = os.path.join(self._data(tmp_path), "wal.log")
        with open(path, "rb+") as fh:
            fh.truncate(os.path.getsize(path) - 3)
        s2 = make_session(ground, cset, tmp_path)
        # tx 3 never committed: recovery lands on tx 2 exactly
        assert state_of(s2) == committed
        # and the session keeps working (tx numbering continues at 3)
        s2.insert("D")
        assert s2.transactions == 3
        s2.close()

    def test_empty_wal_with_stale_snapshot_recovers_snapshot_state(
        self, ground, cset, tmp_path
    ):
        s = make_session(ground, cset, tmp_path)
        s.insert("AB")
        s.insert("CD")
        s.snapshot()  # compacts: WAL is now empty, snapshot carries tx 2
        expected = state_of(s)
        s.close()
        assert WriteAheadLog(
            os.path.join(self._data(tmp_path), "wal.log")
        ).scan() == ([], False)
        s2 = make_session(ground, cset, tmp_path)
        assert state_of(s2) == expected
        s2.close()

    def test_snapshot_ahead_of_log_recovers_from_snapshot_alone(
        self, ground, cset, tmp_path
    ):
        s = make_session(ground, cset, tmp_path)
        s.insert("AB")
        s.insert("CD")
        s.snapshot()
        s.insert("D")
        expected_through_2 = None
        s.close()
        # simulate losing the WAL entirely: the snapshot (tx 2) is now
        # "ahead" of an empty log -- recovery must land on tx 2, not
        # invent tx 3, and not fail
        os.unlink(os.path.join(self._data(tmp_path), "wal.log"))
        s2 = make_session(ground, cset, tmp_path)
        assert s2.transactions == 2
        # tx 3 is gone with the log: no density row at exactly {D}
        assert s2.context.density_value(ground.parse("D")) == 0
        expected_through_2 = state_of(s2)
        s2.close()
        # stale snapshot + records *behind* it (pre-compaction crash
        # window): the covered records are skipped by sequence number
        store = DurableStore(self._data(tmp_path))
        store.append(1, encode_transaction(ground, [(1, 1)]))
        store.append(2, encode_transaction(ground, [(2, 1)]))
        store.close()
        s3 = make_session(ground, cset, tmp_path)
        assert state_of(s3) == expected_through_2
        s3.close()

    def test_wal_gap_after_snapshot_is_loud(self, ground, cset, tmp_path):
        s = make_session(ground, cset, tmp_path)
        s.insert("AB")
        s.snapshot()
        s.insert("CD")
        s.insert("D")
        s.close()
        # drop the middle record (tx 2): committed data is missing
        path = os.path.join(self._data(tmp_path), "wal.log")
        records, torn = WriteAheadLog(path).scan()
        assert [seq for seq, _ in records] == [2, 3] and not torn
        WriteAheadLog(path).rewrite([records[1]])
        with pytest.raises(WalGapError, match="missing"):
            make_session(ground, cset, tmp_path)

    def test_out_of_order_wal_is_loud(self, ground, cset, tmp_path):
        s = make_session(ground, cset, tmp_path)
        s.insert("AB")
        s.insert("CD")
        s.close()
        path = os.path.join(self._data(tmp_path), "wal.log")
        records, _ = WriteAheadLog(path).scan()
        WriteAheadLog(path).rewrite([records[1], records[0]])
        with pytest.raises(CorruptWalError, match="regressed"):
            make_session(ground, cset, tmp_path)

    def test_tampered_snapshot_counters_are_loud(self, ground, cset, tmp_path):
        s = make_session(ground, cset, tmp_path)
        s.insert("AB")
        s.snapshot()
        s.close()
        store = SnapshotStore(self._data(tmp_path))
        entries = store.list()
        tx, path = entries[-1]
        with open(path) as fh:
            payload = json.load(fh)
        payload["fingerprint"] ^= 0xDEAD
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(CorruptSnapshotError, match="fingerprint"):
            make_session(ground, cset, tmp_path)

    def test_header_struct_is_16_bytes(self):
        # the framing constant the torn-tail arithmetic above relies on
        from repro.engine.persist import _HEADER

        assert _HEADER.size == 16
        assert _HEADER.pack(1, 2, 3) == struct.pack("<QII", 1, 2, 3)


class TestWriteAheadOrdering:
    def test_rejected_transaction_never_reaches_the_log(
        self, ground, cset, tmp_path
    ):
        from decimal import Decimal

        s = make_session(ground, cset, tmp_path)
        s.insert("AB")
        with pytest.raises(ValueError, match="outside the ground set"):
            s.apply([(1 << 10, 1)])  # mask outside |S| = 4
        with pytest.raises(PersistenceError, match="amounts"):
            s.apply([(1, Decimal("0.5"))])
        s.insert("CD")  # numbering unaffected by the rejected attempts
        expected = state_of(s)
        s.close()
        s2 = make_session(ground, cset, tmp_path)
        assert state_of(s2) == expected
        s2.close()

    def test_fraction_densities_survive_durability(self, ground, cset, tmp_path):
        from fractions import Fraction

        s = StreamSession(
            ground,
            density={1: Fraction(1, 2)},
            config=durable_config(str(tmp_path / "data")),
        )
        s.apply([(3, Fraction(1, 3))])
        expected = list(s.context.density_items())
        s.close()
        s2 = StreamSession(
            ground, density={1: Fraction(1, 2)},
            config=durable_config(str(tmp_path / "data")),
        )
        assert list(s2.context.density_items()) == expected
        s2.close()

    def test_failed_apply_wedges_instead_of_diverging(
        self, ground, cset, tmp_path, monkeypatch
    ):
        """An apply_batch failure after the append must neither reuse
        the logged sequence number (which would brick the log) nor let
        the session keep serving divergent state: the session wedges,
        refusing writes and snapshots, and reopening replays the
        logged record to heal."""
        from repro.engine import IncrementalEvalContext

        s = make_session(ground, cset, tmp_path)
        s.insert("AB")

        def exploding(self, deltas):
            raise RuntimeError("simulated executor death")

        monkeypatch.setattr(IncrementalEvalContext, "apply_batch", exploding)
        with pytest.raises(RuntimeError, match="executor death"):
            s.insert("CD")
        monkeypatch.undo()
        assert s.transactions == 2  # the logged record owns seq 2
        # live tables lag the log: writes and snapshots must refuse,
        # never persist (and compact away) the divergence
        with pytest.raises(PersistenceError, match="wedged"):
            s.insert("D")
        with pytest.raises(PersistenceError, match="wedged"):
            s.snapshot()
        s.close()
        s2 = make_session(ground, cset, tmp_path)
        # recovery replays the logged record: the state heals
        assert s2.transactions == 2
        assert s2.context.density_value(ground.parse("CD")) == 1
        s2.insert("D")  # seq 3, fresh and consistent
        s2.close()
        s3 = make_session(ground, cset, tmp_path)
        assert s3.transactions == 3
        assert s3.context.density_value(ground.parse("D")) == 1
        s3.close()

    def test_interrupted_initialization_reseeds_or_refuses(
        self, ground, cset, tmp_path
    ):
        """Crash window between write_meta and the tx-0 snapshot: a
        matching seed re-seeds (and heals), no seed fails loudly."""
        seed = {ground.parse("AB"): 5}
        data = str(tmp_path / "data")
        s = StreamSession(ground, density=seed, config=durable_config(data))
        s.close()
        for entry in os.listdir(data):
            if entry.startswith("snapshot-"):
                os.unlink(os.path.join(data, entry))
        with pytest.raises(PersistenceError, match="seed snapshot is missing"):
            StreamSession(ground, config=durable_config(data))
        s2 = StreamSession(ground, density=seed, config=durable_config(data))
        assert s2.support("AB") == 5  # not silently empty
        s2.close()
        # the reopen healed the missing snapshot: a bare open now works
        s3 = StreamSession(ground, config=durable_config(data))
        assert s3.support("AB") == 5
        s3.close()

    def test_failed_append_wedges_the_session(
        self, ground, cset, tmp_path, monkeypatch
    ):
        """A failed WAL append (ENOSPC, EIO) may leave partial record
        bytes behind; the session must refuse further writes instead of
        appending after the garbage."""
        s = make_session(ground, cset, tmp_path)
        s.insert("AB")

        def failing_append(self, seq, payload):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(DurableStore, "append", failing_append)
        with pytest.raises(OSError, match="No space left"):
            s.insert("CD")
        monkeypatch.undo()
        with pytest.raises(PersistenceError, match="wedged"):
            s.insert("D")
        s.close()
        # the failed transaction was never acknowledged: recovery has tx 1
        s2 = make_session(ground, cset, tmp_path)
        assert s2.transactions == 1
        s2.close()
