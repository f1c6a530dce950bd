"""Fleet mode: ring, quotas, WAL shipping, supervision, routing.

The pure pieces (hash ring, token buckets, shipping store) are tested
in-process; the routed service is tested end to end by booting a real
:class:`FleetService` -- worker subprocesses spawned from a tiny
``repro serve`` command line -- and driving it with
:class:`ReproClient`, including the crash window: SIGKILL a worker mid
-stream and assert the standby holds exactly the acknowledged prefix.
"""

from __future__ import annotations

import os
import signal
import sys
import time

import pytest

from repro.engine.fleet import (
    DEFAULT_TENANT,
    FleetRouter,
    FleetService,
    FleetSupervisor,
    HashRing,
    ShippingStore,
    worker_dirs,
)
from repro.engine.net import ReproClient, ServiceError
from repro.engine.persist import DurableStore, decode_transaction
from repro.engine.plan import Planner, default_fleet_workers
from repro.engine.quota import QuotaPolicy, TenantQuotas, TokenBucket

CONSTRAINTS = "ABCD\nA -> B\nB -> CD\n"


# ----------------------------------------------------------------------
# hash ring
# ----------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_and_stable_across_instances(self):
        a, b = HashRing(4), HashRing(4)
        keys = [f"tenant-{i}" for i in range(300)]
        assert [a.route(k) for k in keys] == [b.route(k) for k in keys]

    def test_covers_every_worker(self):
        ring = HashRing(4)
        owners = {ring.route(f"tenant-{i}") for i in range(400)}
        assert owners == {0, 1, 2, 3}

    def test_spread_is_roughly_even(self):
        ring = HashRing(4, vnodes=64)
        counts = [0] * 4
        for i in range(4000):
            counts[ring.route(f"key-{i}")] += 1
        # with 64 vnodes the split should be within ~2x of fair share
        assert min(counts) > 4000 / 4 / 2, counts

    def test_growing_the_ring_moves_a_minority_of_keys(self):
        small, big = HashRing(3), HashRing(4)
        keys = [f"session-{i}" for i in range(1000)]
        moved = sum(small.route(k) != big.route(k) for k in keys)
        # consistent hashing: ~1/4 of keys move to the new worker, not
        # the ~3/4 a modulo split would reshuffle
        assert moved < 500, moved

    def test_single_worker_ring(self):
        ring = HashRing(1)
        assert all(ring.route(f"k{i}") == 0 for i in range(10))

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)


# ----------------------------------------------------------------------
# quotas
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3, clock=lambda: now[0])
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]
        now[0] = 0.5  # one token refilled at 2/s
        assert bucket.try_acquire() and not bucket.try_acquire()

    def test_retry_after_names_the_next_token(self):
        now = [0.0]
        bucket = TokenBucket(rate=0.5, burst=1, clock=lambda: now[0])
        assert bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(2.0)
        now[0] = 2.0
        assert bucket.retry_after() == 0.0

    def test_bucket_never_exceeds_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=100.0, burst=2, clock=lambda: now[0])
        now[0] = 60.0
        assert bucket.tokens == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                TokenBucket(rate=bad, burst=1)
            with pytest.raises(ValueError, match="finite"):
                TokenBucket(rate=1, burst=bad)


class TestTenantQuotas:
    def test_unmetered_admits_everything(self):
        quotas = TenantQuotas()
        assert all(quotas.admit("t")[0] for _ in range(1000))
        assert quotas.throttled == 0

    def test_per_tenant_isolation(self):
        now = [0.0]
        quotas = TenantQuotas(
            QuotaPolicy(rate=1.0, burst=1), clock=lambda: now[0]
        )
        assert quotas.admit("a")[0]
        allowed, retry_after = quotas.admit("a")
        assert not allowed and retry_after >= 1
        # tenant b has its own bucket
        assert quotas.admit("b")[0]

    def test_counters_surface_in_stats(self):
        now = [0.0]
        quotas = TenantQuotas(
            QuotaPolicy(rate=1.0, burst=1), clock=lambda: now[0]
        )
        quotas.admit("a"), quotas.admit("a"), quotas.admit("b")
        stats = quotas.as_dict()
        assert stats["admitted"] == 2 and stats["throttled"] == 1
        assert stats["tenants"]["a"] == {"admitted": 1, "throttled": 1}
        assert stats["policy"]["metered"] is True

    def test_overrides_beat_the_default_policy(self):
        now = [0.0]
        quotas = TenantQuotas(
            QuotaPolicy(rate=1.0, burst=1),
            overrides={"vip": QuotaPolicy.unlimited()},
            clock=lambda: now[0],
        )
        assert all(quotas.admit("vip")[0] for _ in range(50))
        assert quotas.admit("pleb")[0] and not quotas.admit("pleb")[0]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            QuotaPolicy(rate=-1)
        with pytest.raises(ValueError):
            QuotaPolicy(rate=1, burst=0.5)
        assert QuotaPolicy(rate=0.2).burst == 1.0  # floor at one token

    @pytest.mark.parametrize(
        "rate, burst",
        [
            (float("nan"), None),
            (float("inf"), None),
            (1.0, float("nan")),
            (1.0, float("inf")),
        ],
    )
    def test_policy_rejects_non_finite_rate_and_burst(self, rate, burst):
        # NaN passes a `rate <= 0` test, and a bucket's min(burst, nan)
        # refill would then admit every request
        with pytest.raises(ValueError, match="finite"):
            QuotaPolicy(rate=rate, burst=burst)

    def test_cli_refuses_a_nan_quota_rate(self, tmp_path, monkeypatch):
        import io

        from repro.cli import main
        from repro.engine import fleet

        def must_not_boot(*args, **kwargs):
            raise AssertionError("the fleet booted with a NaN quota")

        monkeypatch.setattr(fleet, "FleetService", must_not_boot)
        path = tmp_path / "c.txt"
        path.write_text("AB\nA -> B\n")
        out = io.StringIO()
        code = main(
            ["fleet", str(path), "--workers", "1", "--quota-rate", "nan"],
            out=out,
        )
        assert code == 2
        assert "finite" in out.getvalue()


# ----------------------------------------------------------------------
# fleet worker-count planning
# ----------------------------------------------------------------------
class TestFleetPlanning:
    def test_defaults_track_cpus_up_to_the_cap(self):
        assert default_fleet_workers(1) == 1
        assert default_fleet_workers(4) == 4
        assert default_fleet_workers(64) == Planner.FLEET_MAX_WORKERS

    def test_host_default_is_sane(self):
        count = default_fleet_workers()
        assert 1 <= count <= Planner.FLEET_MAX_WORKERS


# ----------------------------------------------------------------------
# WAL shipping
# ----------------------------------------------------------------------
class TestShippingStore:
    def test_appends_and_meta_mirror_synchronously(self, tmp_path):
        store = ShippingStore(str(tmp_path / "p"), str(tmp_path / "s"))
        store.write_meta({"kind": "stream-session", "n": 4})
        store.append(1, b"+ A\ncommit\n")
        store.append(2, b"+ AB 2\ncommit\n")
        store.close()
        standby = DurableStore(str(tmp_path / "s"))
        recovered = standby.recover()
        assert standby.meta == {"kind": "stream-session", "n": 4}
        assert [seq for seq, _ in recovered.tail] == [1, 2]

    def test_snapshot_compacts_both_directories(self, tmp_path):
        store = ShippingStore(str(tmp_path / "p"), str(tmp_path / "s"))
        store.write_meta({"kind": "x"})
        store.append(1, b"+ A\ncommit\n")
        store.snapshot({"tx": 1})
        store.close()
        for directory in ("p", "s"):
            recovered = DurableStore(str(tmp_path / directory)).recover()
            assert recovered.snapshot["tx"] == 1
            assert recovered.tail == []

    def test_recover_reseeds_a_stale_standby(self, tmp_path):
        primary, standby = str(tmp_path / "p"), str(tmp_path / "s")
        # the standby holds leftovers from a previous life
        old = DurableStore(standby)
        old.write_meta({"kind": "stale"})
        old.append(9, b"+ D\ncommit\n")
        old.close()
        plain = DurableStore(primary)
        plain.write_meta({"kind": "fresh"})
        plain.append(1, b"+ A\ncommit\n")
        plain.close()
        store = ShippingStore(primary, standby)
        recovered = store.recover()
        assert [seq for seq, _ in recovered.tail] == [1]
        store.close()
        reseeded = DurableStore(standby)
        assert reseeded.meta == {"kind": "fresh"}
        assert [seq for seq, _ in reseeded.recover().tail] == [1]

    def test_fresh_init_erases_the_old_standby(self, tmp_path):
        standby = str(tmp_path / "s")
        old = DurableStore(standby)
        old.write_meta({"kind": "stale"})
        old.close()
        store = ShippingStore(str(tmp_path / "p"), standby)
        store.write_meta({"kind": "new"})
        store.close()
        assert DurableStore(standby).meta == {"kind": "new"}

    def test_same_directory_refused(self, tmp_path):
        with pytest.raises(ValueError):
            ShippingStore(str(tmp_path / "d"), str(tmp_path / "d"))

    def test_stream_session_ships_acknowledged_commits(self, tmp_path):
        from repro.core import GroundSet
        from repro.engine import EngineConfig, StreamSession

        ground = GroundSet("ABC")
        store = ShippingStore(str(tmp_path / "p"), str(tmp_path / "s"))
        session = StreamSession(
            ground, config=EngineConfig(durable=store)
        )
        session.apply([(ground.parse("AB"), 2)])
        session.apply([(ground.parse("C"), 1)])
        session.close()
        # the standby alone reconstructs every acknowledged commit
        recovered = DurableStore(str(tmp_path / "s")).recover()
        deltas = [
            decode_transaction(ground, payload)
            for _, payload in recovered.tail
        ]
        assert deltas == [
            [(ground.parse("AB"), 2)], [(ground.parse("C"), 1)]
        ]

    def test_takeover_round_trip_via_sessions(self, tmp_path):
        """Primary dies; a session booted on the standby (shipping back)
        sees exactly the acknowledged state and keeps committing."""
        from repro.core import GroundSet
        from repro.engine import EngineConfig, StreamSession

        ground = GroundSet("ABC")
        primary, standby = str(tmp_path / "p"), str(tmp_path / "s")
        session = StreamSession(
            ground,
            config=EngineConfig(durable=ShippingStore(primary, standby)),
        )
        session.apply([(ground.parse("AB"), 3)])
        acknowledged_tx = session.transactions
        acknowledged = dict(session.context.density_items())
        session.close()

        # takeover: swap the roles -- the standby is now the data dir
        recovered = StreamSession(
            ground,
            config=EngineConfig(durable=ShippingStore(standby, primary)),
        )
        assert recovered.transactions == acknowledged_tx
        assert dict(recovered.context.density_items()) == acknowledged
        recovered.apply([(ground.parse("C"), 1)])
        assert recovered.transactions == acknowledged_tx + 1
        recovered.close()


# ----------------------------------------------------------------------
# the routed fleet, end to end
# ----------------------------------------------------------------------
def worker_command(constraint_path, data_dir=None, ship_to=None):
    cmd = [
        sys.executable, "-m", "repro", "serve", str(constraint_path),
        "--port", "0", "--host", "127.0.0.1", "--queue-size", "64",
    ]
    if data_dir:
        cmd += ["--data-dir", str(data_dir)]
    if ship_to:
        cmd += ["--ship-to", str(ship_to)]
    return cmd


def fleet_env():
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def constraint_file(tmp_path):
    path = tmp_path / "constraints.txt"
    path.write_text(CONSTRAINTS)
    return path


class TestFleetService:
    def test_routes_and_aggregates_health(self, constraint_file, tmp_path):
        service = FleetService(
            [worker_command(constraint_file) for _ in range(2)],
            env=fleet_env(),
        )
        with service.start_in_thread(timeout=90) as handle:
            client = handle.client()
            health = client.health()
            assert health["status"] == "ok" and health["fleet"] == 2
            assert client.implies("A -> CD") is True
            assert client.implies("C -> A") is False
            report = client.delta(["+ AB 2"])
            assert report["tx"] == 1
            stats = client.stats()
            assert stats["relayed"] >= 3
            assert stats["throttled"] == 0
            # one tenant -> all requests landed on one worker
            routed = [w["routed"] for w in stats["workers"]]
            assert sorted(routed)[0] == 0 and sorted(routed)[1] >= 3

    def test_tenants_partition_across_workers(self, constraint_file):
        service = FleetService(
            [worker_command(constraint_file) for _ in range(2)],
            env=fleet_env(),
        )
        ring = HashRing(2)
        # find two tenant ids living on different workers
        tenants = {ring.route(f"tenant-{i}"): f"tenant-{i}" for i in range(32)}
        assert set(tenants) == {0, 1}
        with service.start_in_thread(timeout=90) as handle:
            for index, tenant in tenants.items():
                client = handle.client(tenant=tenant)
                client.delta(["+ AB 1"])
            stats = handle.client().stats()
            by_index = {w["index"]: w["routed"] for w in stats["workers"]}
            assert by_index[0] >= 1 and by_index[1] >= 1
            # each worker saw exactly its own tenant's transaction (the
            # aggregated /healthz surfaces per-worker counters)
            health = handle.client().health()
            assert [row["transactions"] for row in health["workers"]] == [1, 1]

    def test_quota_429_is_distinct_from_saturation_503(self, constraint_file):
        service = FleetService(
            [worker_command(constraint_file)],
            quota=QuotaPolicy(rate=1.0, burst=2),
            env=fleet_env(),
        )
        with service.start_in_thread(timeout=90) as handle:
            client = handle.client(tenant="greedy", retries=0)
            statuses = []
            for _ in range(6):
                try:
                    client.implies("A -> CD")
                    statuses.append(200)
                except ServiceError as err:
                    statuses.append(err.status)
            assert 429 in statuses and 503 not in statuses
            stats = handle.client(tenant="watcher").stats()
            assert stats["throttled"] == statuses.count(429)
            assert stats["quota"]["tenants"]["greedy"]["throttled"] >= 1
            # the health/stats plane is never metered
            assert handle.client(tenant="greedy").health()["status"] == "ok"

    def test_429_is_never_auto_retried(self, constraint_file):
        service = FleetService(
            [worker_command(constraint_file)],
            quota=QuotaPolicy(rate=0.001, burst=1),
            env=fleet_env(),
        )
        with service.start_in_thread(timeout=90) as handle:
            client = handle.client(tenant="t", retries=5)
            assert client.implies("A -> CD") is True  # burst token
            before = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.implies("A -> CD")
            # a retrying client would sleep through its backoff budget
            assert time.monotonic() - before < 0.5
            assert excinfo.value.status == 429

    def test_restart_on_crash_with_takeover_of_routing(
        self, constraint_file
    ):
        service = FleetService(
            [worker_command(constraint_file) for _ in range(2)],
            env=fleet_env(),
        )
        with service.start_in_thread(timeout=90) as handle:
            client = handle.client(retries=6, backoff=0.2, max_backoff=2.0)
            assert client.implies("A -> CD") is True
            target = service.supervisor.workers[
                service.router.ring.route(DEFAULT_TENANT)
            ]
            target.proc.send_signal(signal.SIGKILL)
            target.proc.wait(timeout=30)
            # the routed worker is down: idempotent requests ride the
            # 503/retry loop until the supervisor respawns it
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    assert client.implies("A -> CD") is True
                    break
                except ServiceError as err:
                    assert err.status == 503
                    time.sleep(0.2)
            else:
                pytest.fail("worker never came back")
            assert target.restarts == 1

    def test_crash_window_standby_holds_acknowledged_prefix(
        self, constraint_file, tmp_path
    ):
        """SIGKILL a worker mid-stream; the standby directory recovers
        exactly the acknowledged transactions (the tentpole invariant)."""
        from repro.core import GroundSet

        data = worker_dirs(str(tmp_path / "data"), 1)[0]
        standby = worker_dirs(str(tmp_path / "standby"), 1)[0]
        service = FleetService(
            [worker_command(constraint_file, data_dir=data, ship_to=standby)],
            env=fleet_env(),
        )
        acknowledged = 0
        with service.start_in_thread(timeout=90) as handle:
            client = handle.client(retries=0)
            for i in range(5):
                report = client.delta([f"+ AB {i + 1}"])
                acknowledged = report["tx"]
            worker = service.supervisor.workers[0]
            worker.proc.send_signal(signal.SIGKILL)
            worker.proc.wait(timeout=30)
        # no drain, no snapshot: the standby WAL alone must replay to
        # exactly the acknowledged prefix
        ground = GroundSet("ABCD")
        recovered = DurableStore(standby).recover()
        seqs = [seq for seq, _ in recovered.tail]
        assert seqs == list(range(1, acknowledged + 1))
        total = 0
        for _, payload in recovered.tail:
            for _mask, amount in decode_transaction(ground, payload):
                total += amount
        assert total == sum(range(1, 6))

    def test_ready_failure_is_loud(self, tmp_path):
        bad = tmp_path / "nope.txt"  # missing constraint file
        service = FleetService(
            [worker_command(bad)], ready_timeout=6.0, env=fleet_env()
        )
        with pytest.raises(ServiceError):
            service.start_in_thread(timeout=30)

    def test_router_bind_failure_stops_every_worker(
        self, constraint_file, caplog
    ):
        """The router port is taken only after the workers are healthy:
        the failed boot must run the normal stop -- every worker exits
        and the crash monitor is not left pending on the dead loop."""
        import gc
        import logging
        import socket

        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            service = FleetService(
                [worker_command(constraint_file)],
                port=holder.getsockname()[1],
                env=fleet_env(),
            )
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                with pytest.raises(ServiceError, match="failed to start"):
                    service.start_in_thread(timeout=90)
                gc.collect()
        for worker in service.supervisor.workers:
            assert worker.proc is not None
            assert worker.proc.poll() is not None, "worker outlived the boot"
        assert not [
            r for r in caplog.records
            if "Task was destroyed but it is pending" in r.getMessage()
        ]


class TestFleetRouterUnits:
    def test_tenant_extraction_order(self):
        assert FleetRouter.tenant_of({"x-repro-tenant": "h"}, {"tenant": "b"}) == "h"
        assert FleetRouter.tenant_of({}, {"tenant": "b"}) == "b"
        assert FleetRouter.tenant_of({}, {}) == DEFAULT_TENANT
        assert FleetRouter.tenant_of({}, {"tenant": 7}) == DEFAULT_TENANT
        # perfbench's and the e2e driver's tenants stay valid
        for tenant in ("t0", "t1", "acme", "acme-7", "x" * 128):
            assert FleetRouter.tenant_of({}, {"tenant": tenant}) == tenant

    @pytest.mark.parametrize(
        "tenant",
        ["a\r\nX-Injected: 1\r\n\r\n{}", "two words", "x" * 129, "caf\u00e9"],
    )
    def test_unsafe_tenant_is_400_and_never_relayed(self, tenant):
        """A tenant id is relayed in the upstream ``X-Repro-Tenant``
        line, so a CR/LF in it would rewrite the worker's request."""
        import asyncio
        import json

        router = FleetRouter(FleetSupervisor([["unused"]]))

        async def roundtrip():
            server = await asyncio.start_server(
                router.handle_connection, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                body = json.dumps({"tenant": tenant, "constraint": "A -> B"})
                writer.write(
                    (
                        "POST /implies HTTP/1.1\r\n"
                        f"Content-Length: {len(body.encode())}\r\n\r\n"
                        f"{body}"
                    ).encode()
                )
                await writer.drain()
                response = await reader.read()
                writer.close()
                await writer.wait_closed()
                return response
            finally:
                server.close()
                await server.wait_closed()

        response = asyncio.run(roundtrip())
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"visible ASCII" in response
        stats = router.stats_payload()
        assert stats["relayed"] == stats["unrouteable"] == 0

    def test_supervisor_needs_workers(self):
        with pytest.raises(ValueError):
            FleetSupervisor([])
