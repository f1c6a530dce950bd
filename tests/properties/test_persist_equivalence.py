"""Property suite: crash recovery reproduces the live state *exactly*.

The recovery invariant the durability layer promises (and the issue's
acceptance criterion): for a random delta stream, on either backend,
crashing at **any record boundary** -- including a torn
final record -- and running ``recover()`` yields density, support and
differential tables exactly equal to an uninterrupted live context
that committed the same prefix.  Deltas are integer-valued so float64
arithmetic is exact regardless of addition order (the same convention
as the incremental-equivalence suite), making "exactly equal" a
bit-for-bit claim on both backends.

Crash simulation is byte-level: the WAL is truncated at a drawn record
boundary, or mid-record to fabricate a torn tail, before reopening.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.core import ConstraintSet, GroundSet
from repro.engine import DurableStore, EngineConfig, StreamSession
from repro.engine.persist import _HEADER

BACKENDS = ["exact", "float"]

#: Constraint texts valid over every tested ground set (|S| >= 2).
THEORY = ("A -> B", "B -> A", "AB -> A, B")


def make_theory(ground: GroundSet) -> ConstraintSet:
    return ConstraintSet.of(ground, *THEORY)


def config(backend: str, durable=None) -> EngineConfig:
    """A config pinned to ``backend``, optionally durable."""
    return EngineConfig(backend=backend, durable=durable)


@st.composite
def delta_streams(draw):
    """``(ground, transactions)``: a random committed delta stream."""
    n = draw(st.integers(min_value=2, max_value=4))
    ground = GroundSet("ABCD"[:n])
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    amounts = st.integers(min_value=-3, max_value=3).filter(bool)
    transactions = draw(
        st.lists(
            st.lists(st.tuples(masks, amounts), min_size=1, max_size=3),
            min_size=1,
            max_size=7,
        )
    )
    return ground, transactions


def truncate_wal_to(data_dir: str, keep_records: int, extra_bytes: int) -> None:
    """Cut ``wal.log`` after ``keep_records`` whole records, optionally
    leaving ``extra_bytes`` of the next record behind (a torn tail)."""
    path = os.path.join(data_dir, "wal.log")
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0
    for _ in range(keep_records):
        _, length, _ = _HEADER.unpack_from(blob, offset)
        offset += _HEADER.size + length
    if extra_bytes:
        remaining = len(blob) - offset
        offset += min(extra_bytes, max(0, remaining - 1))
    with open(path, "rb+") as fh:
        fh.truncate(offset)


def assert_states_equal(recovered: StreamSession, oracle: StreamSession,
                        cset: ConstraintSet) -> None:
    rctx, octx = recovered.context, oracle.context
    assert recovered.transactions == oracle.transactions
    assert list(rctx.density_table()) == list(octx.density_table())
    assert list(rctx.support_table()) == list(octx.support_table())
    for constraint in cset.constraints:
        assert list(rctx.differential_table(constraint.family)) == list(
            octx.differential_table(constraint.family)
        )
    assert rctx.zero_set() == octx.zero_set()
    assert rctx.support_size() == octx.support_size()
    assert recovered.violated_constraints() == oracle.violated_constraints()


class TestCrashRecoveryEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(data=st.data())
    @settings(max_examples=40)
    def test_recover_at_any_record_boundary(self, backend, data):
        ground, transactions = data.draw(delta_streams())
        cset = make_theory(ground)
        snapshot_every = data.draw(st.sampled_from([None, 2]))
        with tempfile.TemporaryDirectory() as tmp:
            data_dir = os.path.join(tmp, "data")
            live = StreamSession(
                ground,
                constraints=cset.constraints,
                config=config(backend, durable=data_dir).replace(
                    snapshot_every=snapshot_every, fsync="never"
                ),
            )
            for deltas in transactions:
                live.apply(deltas)
            live.close()

            # the WAL holds records after the newest snapshot; a crash
            # can land on any boundary from there to the end
            floor = DurableStore(data_dir).recover().snapshot["tx"]
            crash_tx = data.draw(
                st.integers(min_value=floor, max_value=len(transactions)),
                label="crash_tx",
            )
            torn = (
                data.draw(st.booleans(), label="torn")
                and crash_tx < len(transactions)
            )
            truncate_wal_to(
                data_dir,
                keep_records=crash_tx - floor,
                extra_bytes=data.draw(
                    st.integers(min_value=1, max_value=24), label="torn_bytes"
                )
                if torn
                else 0,
            )

            recovered = StreamSession(
                ground,
                constraints=cset.constraints,
                config=config(backend, durable=data_dir),
            )
            oracle = StreamSession(
                ground, constraints=cset.constraints, config=config(backend)
            )
            for deltas in transactions[:crash_tx]:
                oracle.apply(deltas)
            try:
                assert_states_equal(recovered, oracle, cset)
            finally:
                recovered.close()
                oracle.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(data=st.data())
    @settings(max_examples=25)
    def test_recovered_session_streams_on_equivalently(self, backend, data):
        """Recovery is not a dead end: continuing the stream after a
        crash matches never having crashed at all."""
        ground, transactions = data.draw(delta_streams())
        cut = data.draw(
            st.integers(min_value=0, max_value=len(transactions)),
            label="cut",
        )
        cset = make_theory(ground)
        with tempfile.TemporaryDirectory() as tmp:
            data_dir = os.path.join(tmp, "data")
            first = StreamSession(
                ground,
                constraints=cset.constraints,
                config=config(backend, durable=data_dir).replace(
                    fsync="never"
                ),
            )
            for deltas in transactions[:cut]:
                first.apply(deltas)
            first.close()
            resumed = StreamSession(
                ground,
                constraints=cset.constraints,
                config=config(backend, durable=data_dir),
            )
            for deltas in transactions[cut:]:
                resumed.apply(deltas)
            oracle = StreamSession(
                ground, constraints=cset.constraints, config=config(backend)
            )
            for deltas in transactions:
                oracle.apply(deltas)
            try:
                assert_states_equal(resumed, oracle, cset)
            finally:
                resumed.close()
                oracle.close()
