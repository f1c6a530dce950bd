"""The wire protocol: an asyncio HTTP/JSON front end for ``repro serve``.

:class:`ReproService` puts a small, dependency-free HTTP/1.1 server in
front of the engine stack: implication and instance checks flow through
the :class:`~repro.engine.server.ConstraintServer` microbatching queue
(concurrent duplicates still coalesce, answers are still memoized),
density deltas flow through a :class:`~repro.engine.stream.StreamSession`
(write-ahead logged first when the session is durable), and support
probes read the live tables.  Endpoints:

==============  ======  ====================================================
path            method  body -> response
==============  ======  ====================================================
``/healthz``    GET     -> ``{"status", "transactions", "violated", ...}``
``/stats``      GET     -> microbatching counters + session state + the
                        resolved engine plan (tier/backend, durability,
                        calibration)
``/implies``    POST    ``{"constraint": "A -> B, CD"}`` -> ``{"implied"}``
``/check``      POST    ``{"constraint": ...}`` -> ``{"satisfied"}``
``/delta``      POST    ``{"ops": ["+ AB 3", "- C"]}`` (one transaction,
                        ``repro stream`` syntax) -> the commit report
``/probe``      POST    ``{"subset": "AB"}`` -> ``{"support"}``
``/snapshot``   POST    force a durable snapshot -> ``{"tx"}``
``/shutdown``   POST    graceful drain + stop -> ``{"stopping": true}``
==============  ======  ====================================================

Operational behavior:

* **Backpressure**: at most ``queue_size`` requests are admitted
  concurrently; excess arrivals are refused immediately with ``503``
  and a ``Retry-After`` hint instead of queueing without bound.
* **Write ordering**: deltas and snapshots are serialized through one
  lock, so WAL append -> apply stays atomic and recovery order equals
  acknowledgement order.  Commits (including the WAL fsync) run
  *synchronously on the event loop* -- deliberately: the check path
  reads the live tables from the same loop, so an off-thread apply
  would race it.  A durable service that must absorb write bursts
  should run with ``fsync="never"`` (the OS flushes; recovery treats a
  lost suffix as a torn tail) rather than move commits off the loop.
* **Graceful drain**: ``SIGTERM``/``SIGINT`` (or ``POST /shutdown``)
  stops accepting connections, drains in-flight requests, stops the
  microbatcher, snapshots a durable session, and closes the store.

:class:`ReproClient` is the matching blocking client (stdlib
``http.client``), used by tests, the CI end-to-end driver and scripts.

Like the rest of the engine this module imports nothing from
:mod:`repro.core`: constraint texts are parsed by a caller-provided
``parse_constraint`` callable (the CLI passes
``DifferentialConstraint.parse`` bound to the ground set), and subsets
go through the session ground's ``parse``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import signal
import socket
import threading
import time
from fractions import Fraction
from typing import Callable, Optional, Tuple

from repro.engine.server import ConstraintServer
from repro.engine.stream import StreamSession, parse_transaction_log
from repro.errors import PersistenceError

__all__ = [
    "ReproClient",
    "ReproService",
    "ServiceError",
    "ServiceHandle",
    "read_http_request",
    "write_http_response",
]

_MAX_BODY = 8 << 20  # refuse absurd request bodies rather than buffer them

#: How long a connection may take to deliver its request.  Bounds the
#: graceful drain too: an idle or wedged client cannot hold the service
#: open past this (the drain awaits every accepted connection task).
_READ_TIMEOUT = 30.0


class ServiceError(Exception):
    """A wire-protocol failure, carrying the HTTP status when known."""

    def __init__(self, message: str, status: int = 0):
        super().__init__(message)
        self.status = status


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


async def read_http_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, dict, dict]]:
    """Parse one HTTP/1.1 request from ``reader``.

    Returns ``(method, path, headers, body)`` -- headers lower-cased,
    body the decoded JSON object (``{}`` when there is none) -- or
    ``None`` if the peer closed before sending a request line.

    Raises
    ------
    _HttpError
        With status 400 for malformed framing/JSON and 413 for bodies
        over the 8 MiB cap.

    Shared by :class:`ReproService` and the fleet router
    (:class:`repro.engine.fleet.FleetRouter`), so both speak exactly
    the same dialect.
    """
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise _HttpError(400, "malformed request line")
    method, path, _version = parts
    headers: dict = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", 0))
    except ValueError:
        raise _HttpError(400, "bad Content-Length")
    if length > _MAX_BODY:
        raise _HttpError(413, f"body over {_MAX_BODY} bytes")
    body: dict = {}
    if length:
        try:
            raw = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise _HttpError(
                400, "connection closed before Content-Length bytes"
            )
        try:
            body = json.loads(raw)
        except ValueError as err:
            raise _HttpError(400, f"request body is not JSON: {err}")
        if not isinstance(body, dict):
            raise _HttpError(400, "request body must be a JSON object")
    return method, path, headers, body


def write_http_response(
    writer: asyncio.StreamWriter, status: int, payload: dict,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> None:
    """Serialize one ``Connection: close`` JSON response onto ``writer``.

    Shared by :class:`ReproService` and the fleet router; does not
    flush -- the caller drains/closes the writer.
    """
    body = json.dumps(payload).encode()
    headers = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    headers.extend(f"{k}: {v}" for k, v in extra_headers)
    writer.write(("\r\n".join(headers) + "\r\n\r\n").encode() + body)


def _json_value(value):
    """A support/density value as JSON: ints/floats pass, exact
    rationals travel as strings (parsed back by the client)."""
    if isinstance(value, (int, float)):
        return value
    return str(value)


def _parse_scalar(value):
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str) and "/" in value:
        return Fraction(value)
    return value


class ReproService:
    """One serving instance: session + microbatcher behind HTTP/JSON.

    Parameters
    ----------
    constraints:
        The constraint set ``C`` that ``/implies`` is decided against.
    session:
        The live :class:`StreamSession` behind ``/check``, ``/delta``
        and ``/probe`` (durable or not).  ``None`` builds an empty
        in-memory session over ``constraints.ground``.
    parse_constraint:
        ``text -> constraint`` for request bodies.  Defaults to
        ``constraints.parse`` when the set provides one.
    host / port:
        Bind address; port ``0`` asks the OS for a free port (read the
        bound port from :attr:`port` or the ``on_ready`` callback).
    queue_size:
        Concurrent-request admission bound (backpressure): past it,
        requests are refused with 503 instead of queueing unboundedly.
    max_batch / cache_size:
        Passed to the underlying :class:`ConstraintServer`, which
        batches drain-ready: each ``/implies`` or ``/check`` joins
        whatever requests are already queued, never a timed window.
    on_ready:
        ``(host, port) -> None`` called once the socket is bound (the
        CLI prints the listening line from it).
    config:
        The :class:`repro.engine.EngineConfig` the service boots from:
        with no ``session`` it is planned into the live session (via
        the single :func:`repro.engine.plan.build_context` factory) and
        it supplies the microbatcher's cache budgets; the resolved plan
        is stamped into ``/stats`` under ``"engine"``.
    """

    def __init__(
        self,
        constraints,
        session: Optional[StreamSession] = None,
        parse_constraint: Optional[Callable[[str], object]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_size: int = 128,
        max_batch: int = 64,
        cache_size: Optional[int] = None,
        on_ready: Optional[Callable[[str, int], None]] = None,
        config=None,
    ):
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        self._cset = constraints
        if session is None:
            # the service boots from exactly one EngineConfig: the
            # planner resolves it and the session constructs its
            # context through the single build_context factory
            session = StreamSession(
                constraints.ground,
                constraints=getattr(constraints, "constraints", ()),
                config=config,
            )
        self._session = session
        self._config = config if config is not None else session.config
        if parse_constraint is None:
            parse_constraint = getattr(constraints, "parse", None)
        if parse_constraint is None:
            raise ValueError(
                "parse_constraint is required when the constraint set "
                "has no .parse"
            )
        self._parse_constraint = parse_constraint
        self._host = host
        self._port = port
        self._queue_size = queue_size
        self._batcher = ConstraintServer(
            constraints,
            instance=session.context,
            max_batch=max_batch,
            cache_size=cache_size,
            config=config,
        )
        self._on_ready = on_ready
        self._inflight = 0
        self._refused = 0
        self._connections: set = set()
        self._drained: Optional[asyncio.Event] = None
        self._stopping: Optional[asyncio.Event] = None
        self._write_lock: Optional[asyncio.Lock] = None

    # ------------------------------------------------------------------
    @property
    def session(self) -> StreamSession:
        """The durable stream session deltas commit through."""
        return self._session

    @property
    def port(self) -> int:
        """The bound port (meaningful once the service is ready)."""
        return self._port

    @property
    def host(self) -> str:
        """The bind address the service listens on."""
        return self._host

    def request_stop(self) -> None:
        """Begin a graceful drain (thread-safe only via its own loop --
        external threads should use :meth:`ServiceHandle.stop`)."""
        if self._stopping is not None:
            self._stopping.set()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, dict]]:
        """One parsed request as ``(method, path, body)`` (or ``None``
        on a silent close); framing errors raise :class:`_HttpError`."""
        request = await read_http_request(reader)
        if request is None:
            return None
        method, path, _headers, body = request
        return method, path, body

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter, status: int, payload: dict,
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        """Emit one JSON response (see :func:`write_http_response`)."""
        write_http_response(writer, status, payload, extra_headers)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), timeout=_READ_TIMEOUT
                )
                if request is None:
                    return
                method, path, body = request
            except asyncio.TimeoutError:
                self._write_response(
                    writer, 408, {"error": "request not received in time"}
                )
                return
            except _HttpError as err:
                self._write_response(
                    writer, err.status, {"error": err.message}
                )
                return
            if self._inflight >= self._queue_size:
                # backpressure: refuse instead of queueing unboundedly
                self._refused += 1
                self._write_response(
                    writer,
                    503,
                    {"error": "server overloaded, retry"},
                    (("Retry-After", "1"),),
                )
                return
            self._inflight += 1
            try:
                status, payload = await self._dispatch(method, path, body)
            except _HttpError as err:
                status, payload = err.status, {"error": err.message}
            except Exception as err:  # noqa: BLE001 - wire boundary
                status, payload = 500, {"error": f"{type(err).__name__}: {err}"}
            finally:
                self._inflight -= 1
                if self._inflight == 0 and self._drained is not None:
                    self._drained.set()
            self._write_response(writer, status, payload)
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: dict
    ) -> Tuple[int, dict]:
        if path == "/healthz" and method == "GET":
            return 200, self._health_payload()
        if path == "/stats" and method == "GET":
            stats = dict(self._batcher.stats.as_dict())
            stats["refused"] = self._refused
            stats["inflight"] = self._inflight
            # the resolved engine plan the service is running
            stats["engine"] = self._session.plan.as_dict()
            stats["engine"]["calibration"] = self._session.calibration
            return 200, stats
        if method != "POST":
            return 405, {"error": f"{method} not allowed on {path}"}
        if path == "/implies":
            answer = await self._batcher.implies(self._constraint_of(body))
            return 200, {"implied": answer}
        if path == "/check":
            answer = await self._batcher.check(self._constraint_of(body))
            return 200, {"satisfied": answer}
        if path == "/delta":
            return await self._handle_delta(body)
        if path == "/probe":
            subset = body.get("subset")
            if subset is None:
                raise _HttpError(400, "probe body needs 'subset'")
            try:
                value = self._session.support(subset)
            except Exception as err:
                raise _HttpError(400, f"bad subset {subset!r}: {err}")
            return 200, {"subset": subset, "support": _json_value(value)}
        if path == "/snapshot":
            if not self._session.durable:
                raise _HttpError(400, "session is not durable (no --data-dir)")
            async with self._write_lock:
                self._session.snapshot()
            return 200, {"tx": self._session.transactions, "snapshot": True}
        if path == "/shutdown":
            self.request_stop()
            return 200, {"stopping": True}
        return 404, {"error": f"no such endpoint {path}"}

    def _health_payload(self) -> dict:
        return {
            "status": "ok",
            "transactions": self._session.transactions,
            "tracked": len(self._session.context.constraints),
            "violated": len(self._session.violated_constraints()),
            "durable": self._session.durable,
            "backend": self._session.context.backend.name,
        }

    def _constraint_of(self, body: dict):
        text = body.get("constraint")
        if not isinstance(text, str):
            raise _HttpError(400, "body needs a 'constraint' string")
        try:
            return self._parse_constraint(text)
        except Exception as err:
            raise _HttpError(400, f"bad constraint {text!r}: {err}")

    async def _handle_delta(self, body: dict) -> Tuple[int, dict]:
        ops = body.get("ops")
        if isinstance(ops, str):
            ops = ops.splitlines()
        if not isinstance(ops, list) or not all(
            isinstance(line, str) for line in ops
        ):
            raise _HttpError(400, "delta body needs 'ops': list of log lines")
        try:
            transactions = parse_transaction_log(self._session.ground, ops)
        except Exception as err:
            raise _HttpError(400, f"bad transaction: {err}")
        if len(transactions) != 1:
            raise _HttpError(
                400,
                f"one transaction per request, got {len(transactions)} "
                "(drop the extra 'commit' lines)",
            )
        async with self._write_lock:
            report = self._session.apply_ops(transactions[0])
        fmt = repr
        return 200, {
            "tx": report.tx,
            "newly_violated": [fmt(c) for c in report.newly_violated],
            "restored": [fmt(c) for c in report.restored],
            "violated": [fmt(c) for c in report.violated],
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def run(self, install_signal_handlers: bool = True) -> None:
        """Serve until SIGTERM/SIGINT or ``/shutdown``, then drain.

        The drain order is deliberate: stop accepting, wait for
        in-flight requests, stop the microbatcher, snapshot a durable
        session, close the store -- so a graceful exit always leaves a
        compacted data directory that recovers instantly.
        """
        loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._drained = asyncio.Event()
        self._drained.set()
        self._write_lock = asyncio.Lock()
        installed = []
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self._stopping.set)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main thread or unsupported platform
        await self._batcher.start()
        try:
            server = await asyncio.start_server(
                self._wrap_connection, host=self._host, port=self._port
            )
        except BaseException:
            # a failed bind must not leave the dispatcher task pending
            # on a loop that is about to close
            await self._batcher.stop()
            raise
        try:
            self._port = server.sockets[0].getsockname()[1]
            if self._on_ready is not None:
                self._on_ready(self._host, self._port)
            await self._stopping.wait()
        finally:
            server.close()
            await server.wait_closed()
            # wait_closed() does not wait for connection handlers before
            # py3.12: connections accepted pre-close may still be reading
            # their request (not yet counted in _inflight), so drain the
            # handler tasks themselves, then any admitted requests
            if self._connections:
                await asyncio.gather(
                    *list(self._connections), return_exceptions=True
                )
            if self._inflight:
                self._drained.clear()
                await self._drained.wait()
            await self._batcher.stop()
            for sig in installed:
                loop.remove_signal_handler(sig)
            try:
                if self._session.durable:
                    async with self._write_lock:
                        try:
                            self._session.snapshot()
                        except PersistenceError:
                            # wedged (a logged commit failed to apply)
                            # or store-level damage: the WAL remains
                            # authoritative and the reopen path heals,
                            # so the drain must still close and exit 0
                            pass
            finally:
                self._session.close()

    async def _wrap_connection(self, reader, writer) -> None:
        # connections racing the drain are served; new ones are not
        # accepted once the listener closes.  The task registry lets the
        # drain await handlers that were accepted but have not yet been
        # admitted into _inflight.
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._handle_connection(reader, writer)
        finally:
            self._connections.discard(task)

    def serve_forever(self) -> None:
        """Blocking entry point (the CLI's ``repro serve --port``)."""
        asyncio.run(self.run())

    def start_in_thread(self, timeout: float = 30.0) -> "ServiceHandle":
        """Run the service on a daemon thread; returns a handle with the
        bound port.  Used by tests, docs and the benchmark harness.
        Raises :class:`ServiceError` if the service has not bound its
        port within ``timeout`` seconds (measured on a monotonic clock,
        not inferred from wait quanta)."""
        ready = threading.Event()
        previous_on_ready = self._on_ready

        def _mark_ready(host: str, port: int) -> None:
            if previous_on_ready is not None:
                previous_on_ready(host, port)
            ready.set()

        self._on_ready = _mark_ready
        holder: dict = {}

        def _run() -> None:
            loop = asyncio.new_event_loop()
            holder["loop"] = loop
            try:
                loop.run_until_complete(
                    self.run(install_signal_handlers=False)
                )
            except BaseException as err:  # surfaced to the waiter below
                holder["error"] = err
            finally:
                loop.close()

        thread = threading.Thread(
            target=_run, name="repro-service", daemon=True
        )
        thread.start()
        started = time.monotonic()
        while not ready.wait(timeout=0.05):
            if not thread.is_alive() or "error" in holder:
                thread.join(timeout=5)
                raise ServiceError(
                    f"service failed to start: {holder.get('error')!r}"
                ) from holder.get("error")
            elapsed = time.monotonic() - started
            if elapsed >= timeout:
                raise ServiceError(
                    f"service failed to become ready after {elapsed:.2f}s "
                    f"(timeout {timeout:g}s)"
                )
        return ServiceHandle(self, thread, holder["loop"])


class ServiceHandle:
    """A running in-thread service: its port, and a way to stop it."""

    def __init__(self, service: ReproService, thread: threading.Thread, loop):
        self.service = service
        self._thread = thread
        self._loop = loop

    @property
    def port(self) -> int:
        """The running service's bound port."""
        return self.service.port

    @property
    def host(self) -> str:
        """The running service's bind address."""
        return self.service.host

    def client(self, **kwargs) -> "ReproClient":
        """A :class:`ReproClient` pointed at this service."""
        return ReproClient(self.host, self.port, **kwargs)

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully drain and join the service thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.service.request_stop)
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - hang diagnostics
            raise ServiceError("service thread did not stop in time")

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class ReproClient:
    """Small blocking HTTP client for the wire protocol.

    One connection per request (the protocol closes connections), so a
    client object is cheap, stateless and safe to share across threads.

    The server's bounded admission queue refuses excess load with
    ``503 "server overloaded, retry"``; the client honors that hint
    with up to ``retries`` jittered-backoff retries -- but **only for
    idempotent requests** (every GET, plus the read-only POSTs:
    ``/implies``, ``/check``, ``/probe``).  A ``/delta`` is never
    retried automatically: the refusal races the commit on the wire,
    and replaying a transaction that might have been applied would
    double-commit it.  Non-503 failures always surface immediately --
    in particular a quota ``429`` from the fleet router is **never**
    retried: a 503 means "the queue is momentarily full, back off and
    try again", a 429 means "this tenant is over its budget" and
    hammering the router will not mint new tokens.

    Parameters
    ----------
    host / port / timeout:
        Where to connect and the per-request socket timeout (seconds).
    retries / backoff / max_backoff:
        The 503 retry budget: up to ``retries`` attempts with
        exponential full-jitter backoff starting at ``backoff`` seconds
        and capped at ``max_backoff``.
    rng:
        Jitter source (injectable for deterministic tests).
    tenant:
        Optional tenant id sent as ``X-Repro-Tenant`` on every request;
        the fleet router routes and meters by it.  ``None`` (the
        default) lets the router fall back to its default tenant.

    Raises
    ------
    ValueError
        If ``retries`` is negative.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 80,
                 timeout: float = 30.0, retries: int = 4,
                 backoff: float = 0.05, max_backoff: float = 1.0,
                 rng: Optional[random.Random] = None,
                 tenant: Optional[str] = None):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._host = host
        self._port = port
        self._timeout = timeout
        self._retries = retries
        self._backoff = backoff
        self._max_backoff = max_backoff
        self._rng = rng if rng is not None else random.Random()
        self._tenant = tenant

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        idempotent: Optional[bool] = None,
    ) -> dict:
        if idempotent is None:
            idempotent = method == "GET"
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body)
            except ServiceError as err:
                if (
                    err.status != 503
                    or not idempotent
                    or attempt >= self._retries
                ):
                    raise
            # exponential backoff with full jitter: refused peers must
            # not reconverge on the queue in lockstep
            delay = min(self._max_backoff, self._backoff * (1 << attempt))
            time.sleep(delay * (0.5 + self._rng.random()))
            attempt += 1

    def _request_once(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout
        )
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            if self._tenant is not None:
                headers["X-Repro-Tenant"] = self._tenant
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except (ConnectionError, socket.timeout, OSError) as err:
                raise ServiceError(
                    f"{method} {path} failed: {err}"
                ) from err
            try:
                decoded = json.loads(raw) if raw else {}
            except ValueError as err:
                raise ServiceError(
                    f"{method} {path}: non-JSON response ({err})",
                    status=response.status,
                ) from err
            if response.status != 200:
                raise ServiceError(
                    f"{method} {path} -> {response.status}: "
                    f"{decoded.get('error', raw[:200])}",
                    status=response.status,
                )
            return decoded
        finally:
            conn.close()

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """``GET /healthz``: readiness plus instance counters."""
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        """``GET /stats``: queue depth and request counters."""
        return self._request("GET", "/stats")

    def implies(self, constraint: str) -> bool:
        """``C |= constraint`` through the microbatching server."""
        return self._request(
            "POST", "/implies", {"constraint": constraint}, idempotent=True
        )["implied"]

    def check(self, constraint: str) -> bool:
        """Whether the live instance satisfies ``constraint``."""
        return self._request(
            "POST", "/check", {"constraint": constraint}, idempotent=True
        )["satisfied"]

    def delta(self, ops) -> dict:
        """Commit one transaction of ``repro stream`` op lines."""
        if isinstance(ops, str):
            ops = ops.splitlines()
        return self._request("POST", "/delta", {"ops": list(ops)})

    def probe(self, subset: str):
        """The live support of ``subset`` (exact values round-trip)."""
        return _parse_scalar(
            self._request(
                "POST", "/probe", {"subset": subset}, idempotent=True
            )["support"]
        )

    def snapshot(self) -> dict:
        """Force a durable snapshot (and WAL compaction)."""
        return self._request("POST", "/snapshot")

    def shutdown(self) -> dict:
        """Ask the service to drain gracefully and exit."""
        return self._request("POST", "/shutdown")

    def wait_ready(self, timeout: float = 30.0, interval: float = 0.05) -> dict:
        """Poll ``/healthz`` until the service answers (for freshly
        spawned processes); raises :class:`ServiceError` on timeout."""
        deadline = time.monotonic() + timeout
        last: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self.health()
            except ServiceError as err:
                last = err
                time.sleep(interval)
        raise ServiceError(f"service not ready after {timeout}s: {last}")

    def __repr__(self) -> str:
        return f"ReproClient({self._host}:{self._port})"
