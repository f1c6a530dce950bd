"""The wire protocol: an asyncio HTTP/JSON front end for ``repro serve``.

:class:`ReproService` puts a small, dependency-free HTTP/1.1 server in
front of the engine stack: implication and instance checks are
answered inline by the :class:`~repro.engine.server.ConstraintServer`
(repeated questions are LRU cache hits), density deltas flow through a
:class:`~repro.engine.stream.StreamSession` (write-ahead logged first
when the session is durable), and support probes read the live tables.
Endpoints:

==============  ======  ====================================================
path            method  body -> response
==============  ======  ====================================================
``/healthz``    GET     -> ``{"status", "transactions", "violated", ...}``
``/stats``      GET     -> answer-cache counters + session state + the
                        resolved engine plan (backend, durability)
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
  stops accepting connections, drains in-flight requests, snapshots
  a durable session, and closes the store.

The fleet router (:mod:`repro.engine.fleet`) shares the plumbing: the
request frame :func:`serve_http_connection` and the lifecycle
:class:`HttpService` (bind, signals, drain, ``serve_forever()``,
``start_in_thread()``).

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
from typing import Awaitable, Callable, Optional, Tuple

from repro.engine.server import ConstraintServer
from repro.engine.stream import StreamSession, parse_transaction_log
from repro.errors import PersistenceError

__all__ = [
    "HttpService",
    "ReproClient",
    "ReproService",
    "ServiceError",
    "ServiceHandle",
    "read_http_request",
    "serve_http_connection",
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
        With status 400 for malformed framing/JSON (including a
        negative ``Content-Length``) and 413 for bodies over the 8 MiB
        cap.

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
    if length < 0:
        raise _HttpError(400, "negative Content-Length")
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


async def serve_http_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    respond: Callable[..., Awaitable[None]],
) -> None:
    """The request frame of every connection, worker and router alike.

    Reads one request within ``_READ_TIMEOUT`` (``408`` otherwise) and
    hands it to ``respond(writer, method, path, headers, body)``, which
    writes the reply.  An ``_HttpError`` from either step answers with
    its own status, any other exception with ``500``; the writer is
    drained and closed whatever happens.
    """
    try:
        try:
            request = await asyncio.wait_for(
                read_http_request(reader), timeout=_READ_TIMEOUT
            )
        except asyncio.TimeoutError:
            write_http_response(
                writer, 408, {"error": "request not received in time"}
            )
            return
        if request is not None:
            await respond(writer, *request)
    except _HttpError as err:
        write_http_response(writer, err.status, {"error": err.message})
    except Exception as err:  # noqa: BLE001 - wire boundary
        write_http_response(
            writer, 500, {"error": f"{type(err).__name__}: {err}"}
        )
    finally:
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


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


class HttpService:
    """The lifecycle of ``repro serve`` and ``repro fleet``.

    Subclasses supply three async hooks: ``_start()`` brings up what
    answers requests (before the bind), ``_handle_connection(reader,
    writer)`` serves one connection, and ``_stop()`` tears down once the
    listener is closed and every accepted connection has finished.
    ``_stop`` also runs when ``_start``, the bind or ``on_ready`` fails,
    so a failed boot leaves behind nothing a normal stop would not.

    Parameters
    ----------
    host / port:
        Bind address; port ``0`` asks the OS for a free port (read the
        bound port from :attr:`port` or the ``on_ready`` callback).
    on_ready:
        ``(host, port) -> None`` called once the socket is bound (the
        CLI prints its listening line from it).
    """

    #: Default readiness deadline of :meth:`start_in_thread`, seconds.
    _START_TIMEOUT = 30.0

    def __init__(
        self,
        host: str,
        port: int,
        on_ready: Optional[Callable[[str, int], None]],
    ):
        self._host = host
        self._port = port
        self._on_ready = on_ready
        self._stopping: Optional[asyncio.Event] = None
        self._connections: set = set()

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

    async def run(self, install_signal_handlers: bool = True) -> None:
        """Serve until SIGTERM/SIGINT or :meth:`request_stop`, then drain.

        Way up: signal handlers, ``_start``, bind, ``on_ready``.  Way
        down: close the listener, await every accepted connection, then
        ``_stop``.

        Raises
        ------
        OSError
            If the bind fails (after the teardown has run).
        """
        loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        installed = []
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self._stopping.set)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main thread or unsupported platform
        server = None
        try:
            await self._start()
            server = await asyncio.start_server(
                self._wrap_connection, host=self._host, port=self._port
            )
            self._port = server.sockets[0].getsockname()[1]
            if self._on_ready is not None:
                self._on_ready(self._host, self._port)
            await self._stopping.wait()
        finally:
            if server is not None:
                server.close()
                await server.wait_closed()
            # wait_closed() does not wait for connection handlers before
            # py3.12: drain the handler tasks themselves -- every
            # admitted request runs inside one -- until none is left
            while self._connections:
                await asyncio.gather(
                    *list(self._connections), return_exceptions=True
                )
            await self._stop()
            for sig in installed:
                loop.remove_signal_handler(sig)

    async def _wrap_connection(self, reader, writer) -> None:
        # connections racing the drain are served; new ones are not
        # accepted once the listener closes.  The task registry lets the
        # drain await handlers that are still reading their request.
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._handle_connection(reader, writer)
        finally:
            self._connections.discard(task)

    def serve_forever(self) -> None:
        """Blocking entry point (``repro serve --port``, ``repro fleet``)."""
        asyncio.run(self.run())

    def start_in_thread(
        self, timeout: Optional[float] = None
    ) -> "ServiceHandle":
        """Run the service on a daemon thread; returns a handle with the
        bound port.  Used by tests, docs and the benchmark harness.

        Raises
        ------
        ServiceError
            If the service fails to start, or has not bound its port
            within ``timeout`` seconds (default ``_START_TIMEOUT``,
            measured on a monotonic clock, not inferred from wait
            quanta).  On a timeout the run is cancelled through its
            loop -- its teardown runs -- and the thread joined before
            the error is raised.
        """
        if timeout is None:
            timeout = self._START_TIMEOUT
        ready = threading.Event()
        previous_on_ready = self._on_ready

        def _mark_ready(host: str, port: int) -> None:
            if previous_on_ready is not None:
                previous_on_ready(host, port)
            ready.set()

        self._on_ready = _mark_ready
        loop = asyncio.new_event_loop()
        run = loop.create_task(self.run(install_signal_handlers=False))
        errors: list = []

        def _run() -> None:
            try:
                loop.run_until_complete(run)
            except BaseException as err:  # surfaced to the waiter below
                errors.append(err)
            finally:
                loop.close()

        name = type(self).__name__
        thread = threading.Thread(target=_run, name=name, daemon=True)
        thread.start()
        started = time.monotonic()
        while not ready.wait(timeout=0.05):
            if not thread.is_alive():
                error = errors[0] if errors else None
                raise ServiceError(
                    f"{name} failed to start: {error!r}"
                ) from error
            elapsed = time.monotonic() - started
            if elapsed >= timeout:
                if thread.is_alive():
                    loop.call_soon_threadsafe(run.cancel)
                thread.join(timeout=30)
                raise ServiceError(
                    f"{name} failed to become ready after "
                    f"{elapsed:.2f}s (timeout {timeout:g}s)"
                )
        return ServiceHandle(self, thread, loop)


class ReproService(HttpService):
    """One serving instance: session + constraint server behind HTTP/JSON.

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
    host / port / on_ready:
        See :class:`HttpService`.
    queue_size:
        Concurrent-request admission bound (backpressure): past it,
        requests are refused with 503 instead of queueing unboundedly.
    config:
        The :class:`repro.engine.EngineConfig` an empty in-memory
        session is built from when no ``session`` is given (ignored
        otherwise: a given session already runs on its own config).
        ``/stats`` reports what the session runs on under ``"engine"``
        as ``{"backend", "durable"}``.
    """

    def __init__(
        self,
        constraints,
        session: Optional[StreamSession] = None,
        parse_constraint: Optional[Callable[[str], object]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_size: int = 128,
        on_ready: Optional[Callable[[str, int], None]] = None,
        config=None,
    ):
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        super().__init__(host, port, on_ready)
        self._cset = constraints
        if session is None:
            session = StreamSession(
                constraints.ground,
                constraints=getattr(constraints, "constraints", ()),
                config=config,
            )
        self._session = session
        if parse_constraint is None:
            parse_constraint = getattr(constraints, "parse", None)
        if parse_constraint is None:
            raise ValueError(
                "parse_constraint is required when the constraint set "
                "has no .parse"
            )
        self._parse_constraint = parse_constraint
        self._queue_size = queue_size
        self._server = ConstraintServer(constraints, instance=session.context)
        self._inflight = 0
        self._refused = 0
        self._write_lock: Optional[asyncio.Lock] = None

    # ------------------------------------------------------------------
    @property
    def session(self) -> StreamSession:
        """The durable stream session deltas commit through."""
        return self._session

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await serve_http_connection(reader, writer, self._respond)

    async def _respond(
        self, writer: asyncio.StreamWriter, method: str, path: str,
        _headers: dict, body: dict,
    ) -> None:
        if self._inflight >= self._queue_size:
            # backpressure: refuse instead of queueing unboundedly
            self._refused += 1
            write_http_response(
                writer,
                503,
                {"error": "server overloaded, retry"},
                (("Retry-After", "1"),),
            )
            return
        self._inflight += 1
        try:
            status, payload = await self._dispatch(method, path, body)
        finally:
            self._inflight -= 1
        write_http_response(writer, status, payload)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: dict
    ) -> Tuple[int, dict]:
        if path == "/healthz" and method == "GET":
            return 200, self._health_payload()
        if path == "/stats" and method == "GET":
            stats = dict(self._server.stats.as_dict())
            stats["refused"] = self._refused
            stats["inflight"] = self._inflight
            # what the live session runs on
            stats["engine"] = {
                "backend": self._session.context.backend.name,
                "durable": self._session.durable,
            }
            return 200, stats
        if method != "POST":
            return 405, {"error": f"{method} not allowed on {path}"}
        if path == "/implies":
            answer = self._server.implies(self._constraint_of(body))
            return 200, {"implied": answer}
        if path == "/check":
            answer = self._server.check(self._constraint_of(body))
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
        return 200, {
            "tx": report.tx,
            "newly_violated": [repr(c) for c in report.newly_violated],
            "restored": [repr(c) for c in report.restored],
            "violated": [repr(c) for c in report.violated],
        }

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    async def _start(self) -> None:
        self._write_lock = asyncio.Lock()

    async def _stop(self) -> None:
        # runs after every admitted request has been answered; the order
        # is deliberate: snapshot a durable session, then close the
        # store -- so a graceful exit always leaves a compacted data
        # directory that recovers instantly
        try:
            if self._session.durable:
                async with self._write_lock:
                    try:
                        self._session.snapshot()
                    except PersistenceError:
                        # wedged (a logged commit failed to apply) or
                        # store-level damage: the WAL remains
                        # authoritative and the reopen path heals, so
                        # the drain must still close and exit 0
                        pass
        finally:
            self._session.close()


class ServiceHandle:
    """A running in-thread service: its port, and a way to stop it."""

    def __init__(self, service: HttpService, thread: threading.Thread, loop):
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
        """``GET /stats``: request counters (``requests``,
        ``cache_hits``, ``computed``), admission and engine plan."""
        return self._request("GET", "/stats")

    def implies(self, constraint: str) -> bool:
        """``C |= constraint`` (answered from the service's LRU when
        the same question was asked before)."""
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
