"""Fleet mode: a routed, supervised multi-worker constraint service.

One :class:`~repro.engine.net.ReproService` process saturates one core
-- the event loop applies deltas and answers checks from the same
thread by design (see :mod:`repro.engine.net`).  Fleet mode is the
scaling rung above it: **N** independent worker processes, each a full
``repro serve`` instance with its own
:class:`~repro.engine.persist.DurableStore` data directory, behind one
front router that speaks the same wire protocol.  The pieces:

:class:`HashRing`
    Consistent hashing of tenant/session ids onto worker indexes
    (stable BLAKE2 positions, ~64 virtual nodes per worker), so a
    tenant's deltas always land on the same worker -- the per-worker
    session *is* the tenant's state -- and adding workers moves only
    ``1/N`` of the keyspace.

:class:`FleetRouter` / :class:`FleetService`
    The asyncio front end.  Requests carry a tenant id
    (``X-Repro-Tenant`` header, or a ``"tenant"`` body field); the
    router admission-tests it against per-tenant token buckets
    (:mod:`repro.engine.quota`), answers ``429 Too Many Requests`` on
    quota refusal -- *distinct* from the workers' saturation ``503`` --
    and otherwise relays the request verbatim to the routed worker.
    ``/healthz`` aggregates worker health (readiness is health-gated:
    200 only when every worker answers), ``/stats`` surfaces per-worker
    routing counts, restarts, and the quota counters.  Request frame
    and lifecycle are the worker's own (:mod:`repro.engine.net`).

:class:`FleetWorker` / :class:`FleetSupervisor`
    Process supervision: spawn the worker commands, parse each one's
    ``# listening on HOST:PORT`` line, restart crashed workers with
    capped exponential backoff (a worker that stayed up long enough
    resets its own backoff), and fan SIGTERM out to every worker on
    shutdown so each drains and snapshots its own store.

:class:`ShippingStore`
    WAL shipping: a :class:`~repro.engine.persist.DurableStore` that
    synchronously mirrors every append/snapshot into a *standby*
    directory.  Because :class:`~repro.engine.stream.StreamSession`
    appends to the store **before** acknowledging a commit, an
    acknowledged transaction is on disk in both directories -- so after
    losing the primary, booting from the standby (``repro fleet
    --takeover``) recovers exactly the acknowledged prefix.

Like the rest of the engine this module imports nothing from
:mod:`repro.core`: worker processes parse their own constraint files,
and the router treats payloads as opaque JSON.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import re
import signal
import subprocess
import threading
import time
from bisect import bisect_right
from typing import Callable, List, Optional, Sequence, Tuple

from repro.engine.net import (
    HttpService,
    ServiceError,
    _HttpError,
    serve_http_connection,
    write_http_response,
)
from repro.engine.persist import DurableStore
from repro.engine.quota import QuotaPolicy, TenantQuotas

__all__ = [
    "DEFAULT_TENANT",
    "FleetRouter",
    "FleetService",
    "FleetSupervisor",
    "FleetWorker",
    "HashRing",
    "ShippingStore",
    "worker_dirs",
]

#: Tenant id assumed when a request carries none.
DEFAULT_TENANT = "default"

#: A tenant id is relayed upstream in a header line, so it must be
#: header-safe: 1-128 visible ASCII characters (no spaces, no CR/LF).
_TENANT_ID = re.compile(r"[\x21-\x7e]{1,128}")

#: The line every worker prints once bound (also parsed by the CI e2e
#: driver); the supervisor reads the real port from it, so workers can
#: bind port 0 and restarts never fight over a stale port.
LISTENING = re.compile(r"# listening on ([\d.]+):(\d+)")


# ----------------------------------------------------------------------
# consistent hashing
# ----------------------------------------------------------------------
class HashRing:
    """Consistent-hash ring mapping string keys to worker indexes.

    Each worker contributes ``vnodes`` virtual points placed by a
    *stable* hash (BLAKE2b -- never the salted builtin ``hash``), so
    the mapping is identical across processes and restarts.  A key
    routes to the first point clockwise from its own hash.

    Parameters
    ----------
    count:
        Number of workers (>= 1).
    vnodes:
        Virtual nodes per worker; more gives a smoother key split.

    Raises
    ------
    ValueError
        If ``count`` or ``vnodes`` is < 1.
    """

    def __init__(self, count: int, vnodes: int = 64):
        if count < 1:
            raise ValueError(f"ring needs >= 1 worker, got {count}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self._count = count
        points: List[Tuple[int, int]] = []
        for index in range(count):
            for v in range(vnodes):
                points.append((self._hash(f"worker-{index}:{v}"), index))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [i for _, i in points]

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    @property
    def count(self) -> int:
        """How many workers the ring spreads keys across."""
        return self._count

    def route(self, key: str) -> int:
        """The worker index owning ``key`` (deterministic, stable)."""
        position = bisect_right(self._points, self._hash(key))
        if position == len(self._points):
            position = 0
        return self._owners[position]

    def __repr__(self) -> str:
        return f"HashRing(count={self._count}, points={len(self._points)})"


# ----------------------------------------------------------------------
# WAL shipping
# ----------------------------------------------------------------------
class ShippingStore(DurableStore):
    """A durable store that ships its WAL to a warm standby directory.

    Every durable write -- meta record, WAL append, snapshot -- is
    applied to the primary directory first and then mirrored
    *synchronously* into the standby.  A mirror failure raises before
    the owning session acknowledges the commit, so the invariant a
    takeover relies on holds by construction: **every acknowledged
    transaction exists in both directories**.

    The standby directory is a plain :class:`DurableStore` layout, so
    taking over is just booting a session on it (``repro fleet
    --takeover`` swaps the data/standby roots); shipping back toward
    the old primary re-seeds it as the new standby during
    :meth:`recover`.

    Parameters
    ----------
    path:
        The primary data directory (same meaning as
        :class:`DurableStore`).
    standby:
        The standby directory receiving the shipped copy.
    fsync / retain:
        Applied to both directories.

    Raises
    ------
    ValueError
        If ``standby`` and ``path`` are the same directory.
    """

    def __init__(
        self, path: str, standby: str, fsync: str = "always", retain: int = 2
    ):
        if os.path.abspath(standby) == os.path.abspath(path):
            raise ValueError(
                f"standby directory must differ from the primary ({path})"
            )
        super().__init__(path, fsync=fsync, retain=retain)
        # the standby is NOT reset here: until the primary proves
        # healthy (recover() below), the standby may be the only good
        # copy left.
        self._standby = DurableStore(standby, fsync=fsync, retain=retain)

    @property
    def standby(self) -> DurableStore:
        """The standby store the WAL is shipped to."""
        return self._standby

    def write_meta(self, meta: dict) -> None:
        """Record identity in the primary, then mirror to the standby.

        Called on first initialization of an empty primary; any stale
        state in the standby belongs to a previous life of the
        directory and is erased before the mirror.
        """
        super().write_meta(meta)
        self._standby.reset()
        self._standby.write_meta(meta)

    def append(self, seq: int, payload: bytes) -> None:
        """Append to the primary WAL, then ship to the standby WAL.

        Raises whatever either append raises; the owning session only
        acknowledges after both landed (write-ahead of the ack).
        """
        super().append(seq, payload)
        self._standby.append(seq, payload)

    def snapshot(self, payload: dict) -> str:
        """Snapshot (and compact) the primary, then the standby."""
        path = super().snapshot(payload)
        self._standby.snapshot(payload)
        return path

    def recover(self):
        """Recover the primary, then re-seed the standby to match.

        The standby is rebuilt from the *recovered* state (reset, meta,
        snapshot, WAL tail) rather than trusted incrementally: after a
        crash the two directories may disagree by a torn tail, and
        after a takeover the old primary may hold arbitrary damage.
        If primary recovery itself fails, the standby is left exactly
        as it was -- it is the copy a takeover will boot from.
        """
        recovered = super().recover()
        self._standby.reset()
        if self.meta is not None:
            self._standby.write_meta(self.meta)
        if recovered.snapshot is not None:
            self._standby.snapshots.write(recovered.snapshot)
        self._standby.wal.rewrite(recovered.tail)
        return recovered

    def close(self) -> None:
        """Close both WAL file handles."""
        super().close()
        self._standby.close()

    def __repr__(self) -> str:
        return (
            f"ShippingStore({self.path!r} -> {self._standby.path!r}, "
            f"fsync={self.wal.fsync_policy!r})"
        )


def worker_dirs(root: str, count: int) -> List[str]:
    """The per-worker data directories under ``root`` (created)."""
    dirs = []
    for index in range(count):
        path = os.path.join(root, f"worker-{index:02d}")
        os.makedirs(path, exist_ok=True)
        dirs.append(path)
    return dirs


# ----------------------------------------------------------------------
# worker processes + supervision
# ----------------------------------------------------------------------
class FleetWorker:
    """One supervised worker process and its routing counters.

    The worker is any command that prints ``# listening on HOST:PORT``
    once bound (``repro serve --port 0`` does); a pump thread reads its
    stdout, captures the address, and forwards lines to ``on_line`` for
    logging.

    Parameters
    ----------
    index:
        The worker's slot on the :class:`HashRing`.
    command:
        ``argv`` to spawn (re-used verbatim on every restart).
    on_line:
        Optional ``(index, line) -> None`` sink for worker output.
    """

    def __init__(
        self,
        index: int,
        command: Sequence[str],
        on_line: Optional[Callable[[int, str], None]] = None,
    ):
        self.index = index
        self.command = list(command)
        self._on_line = on_line
        self.proc: Optional[subprocess.Popen] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._bound = threading.Event()
        #: Times this worker has been respawned after a crash.
        self.restarts = 0
        #: Requests the router has relayed to this worker.
        self.routed = 0
        #: Consecutive short-lived crashes (drives the backoff).
        self.failures = 0
        #: Monotonic gate before which the supervisor must not respawn.
        self.respawn_at = 0.0
        self._spawned_at = 0.0

    def spawn(self, env: Optional[dict] = None) -> None:
        """Start (or restart) the worker process.

        Raises
        ------
        OSError
            If the command cannot be executed at all.
        """
        self._bound.clear()
        self.host = self.port = None
        self.proc = subprocess.Popen(
            self.command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self._spawned_at = time.monotonic()
        threading.Thread(
            target=self._pump,
            args=(self.proc,),
            name=f"fleet-worker-{self.index}-pump",
            daemon=True,
        ).start()

    def _pump(self, proc: subprocess.Popen) -> None:
        for line in proc.stdout:
            match = LISTENING.search(line)
            if match:
                self.host = match.group(1)
                self.port = int(match.group(2))
                self._bound.set()
            if self._on_line is not None:
                self._on_line(self.index, line.rstrip("\n"))
        proc.stdout.close()

    def alive(self) -> bool:
        """Whether the worker process is currently running."""
        return self.proc is not None and self.proc.poll() is None

    @property
    def uptime(self) -> float:
        """Seconds since the current process was spawned."""
        if self.proc is None:
            return 0.0
        return time.monotonic() - self._spawned_at

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """``(host, port)`` once bound and alive, else ``None``."""
        if self.alive() and self._bound.is_set():
            return self.host, self.port
        return None

    def as_dict(self) -> dict:
        """This worker's row in the router's ``/stats``."""
        return {
            "index": self.index,
            "port": self.port,
            "alive": self.alive(),
            "restarts": self.restarts,
            "routed": self.routed,
        }

    def __repr__(self) -> str:
        state = "up" if self.alive() else "down"
        return f"FleetWorker({self.index}, {state}, port={self.port})"


class FleetSupervisor:
    """Spawns, health-watches and restarts the worker processes.

    Restart policy: a crashed worker is respawned after a capped
    exponential backoff (``BACKOFF_BASE * 2^failures`` seconds, capped
    at ``BACKOFF_CAP``); a worker that survived ``HEALTHY_AGE`` seconds
    resets its failure count, so one-off crashes restart quickly while
    a crash-looping worker settles at the cap instead of spinning.
    Shutdown fans ``SIGTERM`` out to every worker -- each ``repro
    serve`` drains, snapshots and exits 0 on it -- and escalates to
    ``SIGKILL`` only past the drain timeout.

    Parameters
    ----------
    commands:
        One spawn ``argv`` per worker (index = ring slot).
    on_line:
        Optional ``(index, line) -> None`` sink for worker output.
    env:
        Environment for the workers (default: inherit).
    """

    BACKOFF_BASE = 0.5
    BACKOFF_CAP = 8.0
    HEALTHY_AGE = 10.0

    def __init__(
        self,
        commands: Sequence[Sequence[str]],
        on_line: Optional[Callable[[int, str], None]] = None,
        env: Optional[dict] = None,
    ):
        if not commands:
            raise ValueError("a fleet needs at least one worker command")
        self.workers = [
            FleetWorker(i, cmd, on_line=on_line)
            for i, cmd in enumerate(commands)
        ]
        self._env = env
        self._stopping = False

    def __len__(self) -> int:
        return len(self.workers)

    # ------------------------------------------------------------------
    async def start(self, timeout: float = 60.0) -> None:
        """Spawn every worker and wait until all are bound and healthy.

        Raises
        ------
        ServiceError
            If any worker fails to become healthy within ``timeout``.
        """
        for worker in self.workers:
            worker.spawn(env=self._env)
        await self.wait_ready(timeout)

    async def wait_ready(self, timeout: float = 60.0) -> None:
        """Health-gated readiness: every worker must answer ``/healthz``.

        Raises
        ------
        ServiceError
            On timeout (with the first unready worker named).
        """
        deadline = time.monotonic() + timeout
        for worker in self.workers:
            while True:
                address = worker.address
                if address is not None:
                    try:
                        status, _ = await probe_http(
                            *address, "/healthz", timeout=2.0
                        )
                        if status == 200:
                            break
                    except OSError:
                        pass
                if time.monotonic() >= deadline:
                    raise ServiceError(
                        f"fleet worker {worker.index} not healthy after "
                        f"{timeout:g}s (alive={worker.alive()}, "
                        f"port={worker.port})"
                    )
                await asyncio.sleep(0.05)

    async def monitor(self, interval: float = 0.2) -> None:
        """Respawn crashed workers forever (run as a background task)."""
        while not self._stopping:
            now = time.monotonic()
            for worker in self.workers:
                if worker.alive() or worker.proc is None:
                    continue
                if worker.respawn_at == 0.0:
                    # first sight of this crash: schedule the respawn
                    if worker.uptime >= self.HEALTHY_AGE:
                        worker.failures = 0
                    delay = min(
                        self.BACKOFF_CAP,
                        self.BACKOFF_BASE * (1 << worker.failures),
                    )
                    worker.failures += 1
                    worker.respawn_at = now + delay
                elif now >= worker.respawn_at:
                    worker.respawn_at = 0.0
                    worker.restarts += 1
                    try:
                        worker.spawn(env=self._env)
                    except OSError:
                        # command gone (e.g. teardown race): retry at
                        # the next crash-scheduling pass
                        worker.respawn_at = now + self.BACKOFF_CAP
            await asyncio.sleep(interval)

    async def stop(self, timeout: float = 30.0) -> List[Optional[int]]:
        """SIGTERM fan-out drain; returns each worker's exit code.

        Workers still running after ``timeout`` seconds are killed
        (their stores recover the WAL on the next boot).
        """
        self._stopping = True
        for worker in self.workers:
            if worker.alive():
                worker.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not any(worker.alive() for worker in self.workers):
                break
            await asyncio.sleep(0.05)
        for worker in self.workers:
            if worker.alive():  # pragma: no cover - drain-timeout path
                worker.proc.kill()
                worker.proc.wait(timeout=5)
        return [
            worker.proc.returncode if worker.proc is not None else None
            for worker in self.workers
        ]

    def __repr__(self) -> str:
        up = sum(worker.alive() for worker in self.workers)
        return f"FleetSupervisor({up}/{len(self.workers)} up)"


# ----------------------------------------------------------------------
# tiny async HTTP client bits (the router's upstream side)
# ----------------------------------------------------------------------
async def probe_http(
    host: str, port: int, path: str = "/healthz", timeout: float = 2.0
) -> Tuple[int, dict]:
    """One GET against a worker; returns ``(status, decoded body)``.

    Raises
    ------
    OSError
        On connect/read failure or timeout (``asyncio.TimeoutError``
        is translated so callers handle one exception family).
    """
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
    except asyncio.TimeoutError as err:
        raise OSError(f"connect to {host}:{port} timed out") from err
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    except asyncio.TimeoutError as err:
        raise OSError(f"read from {host}:{port} timed out") from err
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(None, 2)[1])
        decoded = json.loads(body) if body else {}
    except (IndexError, ValueError) as err:
        raise OSError(f"garbled response from {host}:{port}") from err
    return status, decoded


# ----------------------------------------------------------------------
# the router
# ----------------------------------------------------------------------
class FleetRouter:
    """The fleet's front end: tenant routing + quotas over raw relay.

    The router terminates the client connection, extracts the tenant id
    (``X-Repro-Tenant`` header, else a ``"tenant"`` body field, else
    :data:`DEFAULT_TENANT`), admission-tests data-plane POSTs against
    the per-tenant :class:`~repro.engine.quota.TenantQuotas`, and
    relays everything else byte-for-byte to the worker the
    :class:`HashRing` owns the tenant to.  Refusal codes are kept
    disjoint on purpose:

    * ``429`` -- *this tenant* is over quota (router-issued; clients
      must not auto-retry);
    * ``503`` -- the routed worker is saturated or restarting
      (worker-issued or router-issued; idempotent requests retry).

    A tenant id that is not 1-128 visible ASCII characters is refused
    with ``400`` and never relayed.

    Handled locally instead of relayed: ``GET /healthz`` (aggregated,
    health-gated: 200 only when every worker is up), ``GET /stats``
    (routing + quota counters), ``POST /shutdown`` (stops the fleet).

    Parameters
    ----------
    supervisor:
        The worker set to route across.
    quotas:
        Per-tenant admission registry (default: unmetered).
    """

    def __init__(
        self,
        supervisor: FleetSupervisor,
        quotas: Optional[TenantQuotas] = None,
    ):
        self._supervisor = supervisor
        self._quotas = quotas if quotas is not None else TenantQuotas()
        self._ring = HashRing(len(supervisor))
        self._on_stop: Optional[Callable[[], None]] = None
        self._relayed = 0
        self._throttled = 0
        self._unrouteable = 0

    @property
    def quotas(self) -> TenantQuotas:
        """The per-tenant admission registry."""
        return self._quotas

    @property
    def ring(self) -> HashRing:
        """The consistent-hash ring in use."""
        return self._ring

    def on_stop(self, callback: Callable[[], None]) -> None:
        """Register the ``/shutdown`` hook (the service's stop)."""
        self._on_stop = callback

    @staticmethod
    def tenant_of(headers: dict, body: dict) -> str:
        """The tenant id a request routes/meters by.

        Raises ``_HttpError(400)`` for an id that is not 1-128 visible
        ASCII characters: it is relayed in the upstream
        ``X-Repro-Tenant`` header line, so a CR/LF in it would rewrite
        the worker's request.
        """
        tenant = headers.get("x-repro-tenant")
        if not tenant:
            tenant = body.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            return DEFAULT_TENANT
        if not _TENANT_ID.fullmatch(tenant):
            raise _HttpError(
                400, "tenant ids are 1-128 visible ASCII characters"
            )
        return tenant

    # ------------------------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection (parse, admit, route, relay)."""
        await serve_http_connection(reader, writer, self._dispatch)

    async def _dispatch(
        self, writer, method: str, path: str, headers: dict, body: dict
    ) -> None:
        if path == "/healthz" and method == "GET":
            status, payload = await self.health_payload()
            write_http_response(writer, status, payload)
            return
        if path == "/stats" and method == "GET":
            write_http_response(writer, 200, self.stats_payload())
            return
        if path == "/shutdown" and method == "POST":
            write_http_response(writer, 200, {"stopping": True})
            if self._on_stop is not None:
                self._on_stop()
            return
        if method != "POST":
            write_http_response(
                writer, 405, {"error": f"{method} not allowed on {path}"}
            )
            return
        tenant = self.tenant_of(headers, body)
        allowed, retry_after = self._quotas.admit(tenant)
        if not allowed:
            # quota refusal: a 429, not a 503 -- "your budget", not
            # "our capacity"; clients must not auto-retry it
            self._throttled += 1
            write_http_response(
                writer,
                429,
                {
                    "error": f"tenant {tenant!r} is over its request quota",
                    "tenant": tenant,
                },
                (("Retry-After", str(int(retry_after))),),
            )
            return
        worker = self._supervisor.workers[self._ring.route(tenant)]
        address = worker.address
        if address is None:
            # the routed worker is down/restarting: transient -> 503
            self._unrouteable += 1
            write_http_response(
                writer,
                503,
                {"error": f"worker {worker.index} is restarting, retry"},
                (("Retry-After", "1"),),
            )
            return
        worker.routed += 1
        self._relayed += 1
        await self._relay(writer, address, method, path, tenant, body)

    async def _relay(
        self,
        writer,
        address: Tuple[str, int],
        method: str,
        path: str,
        tenant: str,
        body: dict,
    ) -> None:
        """Forward one request upstream and stream the reply back."""
        host, port = address
        payload = json.dumps(body).encode()
        upstream = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"X-Repro-Tenant: {tenant}\r\n"
            "Connection: close\r\n\r\n"
        ).encode() + payload
        try:
            up_reader, up_writer = await asyncio.open_connection(host, port)
        except OSError:
            write_http_response(
                writer,
                503,
                {"error": "worker connection refused, retry"},
                (("Retry-After", "1"),),
            )
            return
        try:
            up_writer.write(upstream)
            await up_writer.drain()
            # workers close after one response: relay bytes to EOF
            while True:
                chunk = await up_reader.read(1 << 16)
                if not chunk:
                    break
                writer.write(chunk)
                await writer.drain()
        except (ConnectionError, OSError):
            # mid-relay upstream failure: the response head may already
            # be on the client wire, so the only honest move is to drop
            # the connection (the client surfaces a transport error)
            writer.transport.abort()
        finally:
            up_writer.close()
            try:
                await up_writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    async def health_payload(self) -> Tuple[int, dict]:
        """Aggregate worker health; 200 only when every worker is ok."""
        workers = self._supervisor.workers

        async def one(worker: FleetWorker) -> dict:
            address = worker.address
            row = {"index": worker.index, "alive": worker.alive()}
            if address is None:
                row["status"] = "down"
                return row
            try:
                status, health = await probe_http(
                    *address, "/healthz", timeout=2.0
                )
            except OSError as err:
                row["status"] = f"unreachable: {err}"
                return row
            row["status"] = "ok" if status == 200 else f"http {status}"
            row["transactions"] = health.get("transactions")
            row["violated"] = health.get("violated")
            return row

        rows = await asyncio.gather(*(one(worker) for worker in workers))
        ready = sum(1 for row in rows if row["status"] == "ok")
        all_ok = ready == len(workers)
        return (200 if all_ok else 503), {
            "status": "ok" if all_ok else "degraded",
            "workers": rows,
            "ready": ready,
            "fleet": len(workers),
        }

    def stats_payload(self) -> dict:
        """Routing + supervision + quota counters (``GET /stats``)."""
        return {
            "fleet": len(self._supervisor),
            "relayed": self._relayed,
            "throttled": self._throttled,
            "unrouteable": self._unrouteable,
            "restarts": sum(w.restarts for w in self._supervisor.workers),
            "workers": [w.as_dict() for w in self._supervisor.workers],
            "quota": self._quotas.as_dict(),
        }

    def __repr__(self) -> str:
        return (
            f"FleetRouter({len(self._supervisor)} workers, "
            f"relayed={self._relayed}, throttled={self._throttled})"
        )


# ----------------------------------------------------------------------
# the composed service
# ----------------------------------------------------------------------
class FleetService(HttpService):
    """Router + supervisor on the :class:`~repro.engine.net.ReproService`
    lifecycle (:class:`~repro.engine.net.HttpService`), so handles, the
    benchmark harness and the CLI treat one worker and a fleet the same
    way.  Start boots the workers (health-gated) and the crash monitor;
    stop cancels the monitor and fans SIGTERM out to the workers.  A
    failed boot -- an unhealthy worker, a taken router port -- runs the
    same stop, so no worker outlives it.

    Parameters
    ----------
    commands:
        One worker spawn ``argv`` per ring slot (each must print the
        ``# listening on`` line; ``repro serve --port 0`` does).
    host / port:
        The router's bind address (port 0 = OS-assigned).
    quota:
        Default per-tenant policy (``None`` = unmetered).
    on_ready:
        ``(host, port) -> None`` once the router socket is bound.
    on_line:
        Optional sink for worker stdout lines.
    ready_timeout:
        Seconds allowed for the whole fleet to become healthy.
    env:
        Worker process environment (default: inherit).
    """

    _START_TIMEOUT = 90.0

    def __init__(
        self,
        commands: Sequence[Sequence[str]],
        host: str = "127.0.0.1",
        port: int = 0,
        quota: Optional[QuotaPolicy] = None,
        on_ready: Optional[Callable[[str, int], None]] = None,
        on_line: Optional[Callable[[int, str], None]] = None,
        ready_timeout: float = 60.0,
        env: Optional[dict] = None,
    ):
        super().__init__(host, port, on_ready)
        self.supervisor = FleetSupervisor(commands, on_line=on_line, env=env)
        self.router = FleetRouter(
            self.supervisor, quotas=TenantQuotas(policy=quota)
        )
        self.router.on_stop(self.request_stop)
        self._ready_timeout = ready_timeout
        self._monitor: Optional[asyncio.Task] = None

    async def _start(self) -> None:
        await self.supervisor.start(timeout=self._ready_timeout)
        self._monitor = asyncio.ensure_future(self.supervisor.monitor())

    async def _handle_connection(self, reader, writer) -> None:
        await self.router.handle_connection(reader, writer)

    async def _stop(self) -> None:
        if self._monitor is not None:
            self._monitor.cancel()
            try:
                await self._monitor
            except asyncio.CancelledError:
                pass
            self._monitor = None
        await self.supervisor.stop()

    def __repr__(self) -> str:
        return f"FleetService({len(self.supervisor)} workers, port={self._port})"
