"""Per-layer metrics from the spans of one traced run.

Spans come from every traced process (the benchmark itself, a serve
worker, a fleet router).  Within a process a span's *self* time is its
duration minus its child spans; across processes layers are joined by
run-level sums over the load window, on the shared monotonic clock:
the router's own time is its connection spans minus the worker's, and
the wire is the client's wall time minus the outermost server span.
"""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict
from typing import Dict, List, Optional

#: Endpoints the load drives; spans of other requests (health polls,
#: ``/stats``) are left out of every per-request figure.
DATA_PLANE = ("/implies", "/check", "/delta", "/probe")

#: Spans whose time belongs to another layer when they run inside a
#: ``net.dispatch`` (so they are not the net layer's self time).
_NOT_NET = ("server.request", "stream.apply", "incremental.value")


class Process:
    """The spans of one process, indexed for self-time sums."""

    def __init__(self, role: str, spans: List[list], finals: dict):
        self.role = role
        self.spans = spans
        self.finals = finals
        self.children: Dict[int, List[int]] = defaultdict(list)
        for index, span in enumerate(spans):
            if span[3] is not None:
                self.children[span[3]].append(index)
        # the endpoint of each request, from the span that parsed it
        self.path_of: Dict[str, str] = {}
        for span in spans:
            if span[0] == "net.read" and span[4] is not None and span[5]:
                self.path_of.setdefault(span[4], span[5])

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return (span[2] - span[1]) if span[2] is not None else 0.0

    def child_time(self, index: int) -> float:
        return sum(self.duration(c) for c in self.children[index])

    def select(self, name: str, start: float, end: float, data_plane: bool = True):
        """Indexes of complete ``name`` spans inside ``[start, end]``
        (for request-scoped spans: data-plane requests only)."""
        out = []
        for index, span in enumerate(self.spans):
            if span[0] != name or span[2] is None:
                continue
            if span[1] < start or span[2] > end:
                continue
            if data_plane and span[4] is not None:
                if self.path_of.get(span[4]) not in DATA_PLANE:
                    continue
            out.append(index)
        return out

    def descendants(self, index: int, name: str) -> List[int]:
        found, stack = [], list(self.children[index])
        while stack:
            c = stack.pop()
            if self.spans[c][0] == name:
                found.append(c)
            stack.extend(self.children[c])
        return found


def load_dir(path: str) -> List[Process]:
    procs = []
    for name in sorted(glob.glob(os.path.join(path, "spans-*.json"))):
        with open(name) as fh:
            data = json.load(fh)
        procs.append(Process(data["role"], data["spans"], data["finals"]))
    return procs


def _mean(total: float, count: int, scale: float = 1e3) -> float:
    return total / count * scale if count else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(procs: List[Process], start: float, end: float,
              walls: List[float], server_stats: Optional[dict] = None,
              router_stats: Optional[dict] = None,
              cache_stats: Optional[dict] = None) -> Dict[str, float]:
    """Every per-layer metric of one traced load window.

    ``walls`` are the client's per-operation wall times (seconds) over
    the window; ``server_stats`` / ``router_stats`` are the ``/stats``
    payloads read after the load; ``cache_stats`` the decider table
    cache counters of the process that decided (``None``: take them
    from the serve worker's spans file).
    """
    m: Dict[str, float] = {}
    sums = defaultdict(float)
    counts = defaultdict(int)

    def add(key, seconds, n=1):
        sums[key] += seconds
        counts[key] += n

    routes = defaultdict(int)
    batch_sizes = []
    wal_sizes = []
    worker_handler = 0.0
    snapshots = []
    for proc in procs:
        for i in proc.select("plan.decide_method", start, end):
            add("plan", proc.duration(i))
            routes[proc.spans[i][5]] += 1
        for name in ("decider.implies", "sat.implies", "fd.implies",
                     "net.read", "net.write", "incremental.apply_batch",
                     "incremental.value", "incremental.check", "persist.append"):
            for i in proc.select(name, start, end):
                add(name, proc.duration(i))
        for i in proc.select("persist.append", start, end):
            wal_sizes.append(proc.spans[i][5])
        for i in proc.select("persist.snapshot", end, float("inf")):
            snapshots.append(proc.duration(i))
        for i in proc.select("net.handler", start, end):
            d = proc.duration(i)
            add("net.handler", d)
            worker_handler += d
            not_net = sum(
                proc.duration(c)
                for name in _NOT_NET for c in proc.descendants(i, name)
            )
            add("net.self", d - not_net)
        for i in proc.select("fleet.handle", start, end):
            add("fleet.handle", proc.duration(i))
        for i in proc.select("server.request", start, end):
            add("server.request", proc.duration(i))
        for i in proc.select("server.batch", start, end, data_plane=False):
            d = proc.duration(i)
            size = proc.spans[i][5]
            batch_sizes.append(size)
            add("server.batch", d)
            add("server.waited_on_compute", d * size, size)
            add("server.compute_self", d - proc.child_time(i))
        for i in proc.select("stream.apply", start, end):
            add("stream.apply_self", proc.duration(i) - proc.child_time(i))

    routed = sum(routes.values())
    m["plan.route_engine"] = routes.get("engine", 0)
    m["plan.route_sat"] = routes.get("sat", 0)
    m["plan.route_fd"] = routes.get("fd", 0)
    m["plan.decide_method_us"] = _mean(sums["plan"], routed, 1e6)

    m["decider.implies_ms"] = _mean(sums["decider.implies"], counts["decider.implies"])
    m["decider.calls"] = counts["decider.implies"]
    if cache_stats is None:
        cache_stats = next(
            (p.finals["decider_cache"] for p in procs if p.role == "serve"), {}
        )
    hits, misses = cache_stats.get("hits", 0), cache_stats.get("misses", 0)
    m["decider.table_hit_ratio"] = _ratio(hits, hits + misses)
    m["decider.tables_built"] = misses
    for layer in ("sat", "fd"):
        name = f"{layer}.implies"
        m[f"{layer}.implies_ms"] = _mean(sums[name], counts[name])
        m[f"{layer}.calls"] = counts[name]

    requests = counts["server.request"]
    m["server.wait_ms"] = _mean(
        sums["server.request"] - sums["server.waited_on_compute"], requests
    )
    m["server.compute_ms"] = _mean(sums["server.batch"], counts["server.batch"])
    m["server.batch_size"] = _ratio(sum(batch_sizes), len(batch_sizes))
    stats = server_stats or {}
    m["server.answer_hit_ratio"] = _ratio(stats.get("cache_hits", 0), stats.get("requests", 0))
    m["server.coalesced_ratio"] = _ratio(stats.get("coalesced", 0), stats.get("requests", 0))

    ops = len(walls)
    relayed = counts["fleet.handle"]
    outer = sums["fleet.handle"] if relayed else sums["net.handler"]
    m["net.read_ms"] = _mean(sums["net.read"], counts["net.read"])
    m["net.write_ms"] = _mean(sums["net.write"], counts["net.write"])
    m["net.handler_ms"] = _mean(sums["net.handler"], counts["net.handler"])
    wire = sum(walls) - outer if counts["net.handler"] else 0.0
    m["net.wire_ms"] = _mean(wire, ops)
    m["net.refused"] = stats.get("refused", 0)

    router = sums["fleet.handle"] - worker_handler if relayed else 0.0
    m["fleet.router_ms"] = _mean(router, relayed)
    m["fleet.relayed"] = (router_stats or {}).get("relayed", 0)
    m["fleet.throttled"] = (router_stats or {}).get("throttled", 0)

    tx = counts["stream.apply_self"]
    m["stream.apply_self_ms"] = _mean(sums["stream.apply_self"], tx)
    m["stream.tx"] = tx

    m["incremental.apply_batch_ms"] = _mean(sums["incremental.apply_batch"], counts["incremental.apply_batch"])
    m["incremental.value_ms"] = _mean(sums["incremental.value"], counts["incremental.value"])
    m["incremental.check_ms"] = _mean(sums["incremental.check"], counts["incremental.check"])
    worker = next((p for p in procs if p.role == "serve"), None)
    finals = worker.finals if worker is not None else {}
    m["incremental.zero_flips_per_tx"] = _ratio(finals.get("zero_version", 0), tx)

    appends = counts["persist.append"]
    m["persist.append_ms"] = _mean(sums["persist.append"], appends)
    m["persist.wal_bytes_per_tx"] = _ratio(max(wal_sizes, default=0), appends)
    m["persist.drain_snapshot_ms"] = _mean(sum(snapshots), len(snapshots))

    # share of the client's wall time the named layers account for
    if counts["net.handler"]:
        covered = (
            wire + router + sums["net.self"]
            + sums["server.request"] - sums["server.waited_on_compute"]
            + sums["server.compute_self"]
            + sums["decider.implies"] + sums["incremental.check"]
            + sums["stream.apply_self"] + sums["persist.append"]
            + sums["incremental.apply_batch"] + sums["incremental.value"]
        )
    else:
        covered = (sums["plan"] + sums["decider.implies"]
                   + sums["sat.implies"] + sums["fd.implies"])
    m["trace.coverage"] = _ratio(covered, sum(walls))
    return m
