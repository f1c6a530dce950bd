"""In-memory span tracing around the program's layer boundaries.

:func:`install` wraps public functions of each layer -- plus three
private methods with no public equivalent: the serve worker's
connection handler and endpoint dispatcher, and the microbatcher's
batch step -- so that every call records a span ``[name, start, end,
parent, request_id, info]`` on the ``time.monotonic`` clock, which all
processes of one host share.  Parents come from a
context variable, so spans nest correctly per asyncio task; the
request id is minted where a server accepts a connection.  Spans stay
in a list and are written to ``$PERFBENCH_TRACE_DIR/spans-<pid>.json``
when the process exits.

Nothing in ``src/`` is modified: the wrapping happens in the process
that imports this module (the benchmark itself, or a program started
through ``launch.py``).
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import inspect
import itertools
import json
import os
import time
from typing import Callable, List, Optional

_PARENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_parent", default=None)
_REQUEST: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.spans: List[list] = []
        self.recording = True
        self._ids = itertools.count(1)
        #: ``name -> callable`` evaluated at dump time (final counters).
        self.finals: dict = {}

    def _open(self, name: str) -> Optional[int]:
        if not self.recording:
            return None
        index = len(self.spans)
        self.spans.append(
            [name, time.monotonic(), None, _PARENT.get(), _REQUEST.get(), None]
        )
        return index

    def wrap(self, owner, attr: str, name: str,
             info: Optional[Callable] = None, request_root: bool = False) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``info(args, kwargs, result)`` may attach a JSON value to the
        span; ``request_root`` mints a new request id for the call.
        """
        original = getattr(owner, attr)
        tracer = self

        def enter():
            tokens = []
            if request_root and tracer.recording:
                tokens.append((_REQUEST, _REQUEST.set(f"{os.getpid()}-{next(tracer._ids)}")))
            index = tracer._open(name)
            if index is not None:
                tokens.append((_PARENT, _PARENT.set(index)))
            return index, tokens

        def leave(index, tokens, args, kwargs, result):
            if index is not None:
                span = tracer.spans[index]
                span[2] = time.monotonic()
                if info is not None:
                    span[5] = info(args, kwargs, result)
            for var, token in reversed(tokens):
                var.reset(token)

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                index, tokens = enter()
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    leave(index, tokens, args, kwargs, result)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index, tokens = enter()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    leave(index, tokens, args, kwargs, result)

        setattr(owner, attr, wrapper)

    def dump(self, path: str, role: str) -> None:
        finals = {}
        for key, fn in self.finals.items():
            try:
                finals[key] = fn()
            except Exception as err:  # a final counter must not lose the spans
                finals[key] = f"error: {err!r}"
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "role": role, "spans": self.spans,
                       "finals": finals}, fh)


def _first_result(_args, _kwargs, result):
    return result[0] if result else None


def _batch_size(args, _kwargs, _result):
    return len(args[1])


def _path_of(_args, _kwargs, result):
    # read_http_request -> (method, path, headers, body) or None
    return result[1] if result else None


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of the ``repro`` package."""
    from repro.core import implication
    from repro.core.constraint import DifferentialConstraint
    from repro.engine import decider, fleet, net, persist, plan, server
    from repro.engine.incremental import IncrementalEvalContext
    from repro.engine.stream import StreamSession

    tracer.wrap(plan.Planner, "decide_method", "plan.decide_method", _first_result)
    tracer.wrap(decider, "find_uncovered_batched", "decider.implies")
    tracer.wrap(implication, "implies_sat", "sat.implies")
    tracer.wrap(implication, "implies_fd", "fd.implies")

    # fleet imports the HTTP helpers by name: both modules get the one
    # wrapper, so the router's and the worker's parsing are both seen
    tracer.wrap(net, "read_http_request", "net.read", _path_of)
    fleet.read_http_request = net.read_http_request
    tracer.wrap(net, "write_http_response", "net.write")
    fleet.write_http_response = net.write_http_response
    tracer.wrap(net.ReproService, "_handle_connection", "net.handler", request_root=True)
    tracer.wrap(net.ReproService, "_dispatch", "net.dispatch")
    tracer.wrap(fleet.FleetRouter, "handle_connection", "fleet.handle", request_root=True)

    tracer.wrap(server.ConstraintServer, "implies", "server.request")
    tracer.wrap(server.ConstraintServer, "check", "server.request")
    tracer.wrap(server.ConstraintServer, "_serve_batch", "server.batch", _batch_size)

    live = {}

    def remember(args, _kwargs, _result):
        live["ctx"] = args[0]

    tracer.wrap(StreamSession, "apply", "stream.apply")
    tracer.wrap(IncrementalEvalContext, "apply_batch", "incremental.apply_batch", remember)
    tracer.wrap(IncrementalEvalContext, "value", "incremental.value")
    tracer.wrap(DifferentialConstraint, "satisfied_by", "incremental.check")

    def wal_bytes(args, _kwargs, _result):
        return os.path.getsize(args[0].wal.path)

    tracer.wrap(persist.DurableStore, "append", "persist.append", wal_bytes)
    tracer.wrap(persist.DurableStore, "snapshot", "persist.snapshot")

    tracer.finals["decider_cache"] = lambda: decider.shared_cache().stats()
    tracer.finals["nnz"] = lambda: live["ctx"].support_size() if live else 0
    tracer.finals["zero_version"] = lambda: live["ctx"].zero_version if live else 0


def install_for_process(role: str) -> Tracer:
    """Install tracing in this process and dump the spans at exit."""
    tracer = Tracer()
    install(tracer)
    out_dir = os.environ["PERFBENCH_TRACE_DIR"]
    atexit.register(
        tracer.dump, os.path.join(out_dir, f"spans-{os.getpid()}.json"), role
    )
    return tracer
