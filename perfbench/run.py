"""The repository benchmark: three workloads over the public entry points.

    python3 perfbench/run.py --workload decide|ingest|query --seed N \\
        --seconds S --trace 0|1

``decide``
    In-process, one thread: ``ConstraintSet.implies(target)`` with the
    default ``method="auto"`` over constraint sets at |S| in {12, 16,
    20}, after a few untimed rounds on other inputs and with the table
    cache emptied.  Planner, decider and FD/SAT deciders do all the work.
    One operation builds a constraint set from its texts and answers
    all its targets.
``ingest``
    ``repro serve --data-dir`` with the default ``--fsync always`` at
    |S|=20: 80% ``/delta``, 10% ``/check``, 10% ``/probe`` from two
    closed-loop clients.  The durable write path dominates.
``query``
    ``repro fleet --workers 1`` (router plus one in-memory worker) at
    |S|=12, two tenants on two connections: 70% ``/implies``, 20%
    ``/check``, 10% ``/delta``.  The router hop, HTTP and the
    microbatch window dominate.

Load is closed-loop: each of at most two client threads waits for a
reply before sending its next request.  The benchmark and every program
it starts share one CPU (see ``main``).  Every answer is checked (see
each workload), and a wrong one makes the run print ``"correct":
false`` and exit 1.  With ``--trace 0`` the last line of output holds
the end-to-end metrics of an untraced run; with ``--trace 1`` the
per-layer metrics of a traced run (programs started through
``launch.py``), plus the tracing overhead against an untraced run of
the same inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")

#: Fresh-interpreter boots per run; the median is ``setup_s``.
SETUPS = 5
#: Untimed decide rounds first, in the same process: its first tables
#: come from fresh pages, a once-per-process cost no later query pays.
DECIDE_WARMUP_S = 4.0
#: Client socket timeout; a failed request counts as this slow.
CLIENT_TIMEOUT = 10.0

def cpu_ticks() -> Tuple[int, int]:
    """``(stolen, total)`` CPU ticks of this host so far: a busy
    hypervisor steals time from every workload here, so each run
    records how much it lost."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import ``repro`` from this checkout's ``src`` -- never from
    anywhere else, so a checkout without the program fails."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as err:
        fail(f"cannot import the program from {SRC}: {err}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        fail(f"repro was imported from {repro.__file__}, not {SRC}")


def hermetic_env(tmp: str) -> Dict[str, str]:
    """The environment of the benchmark and of every program it starts:
    no calibration profile, a private cache dir, temp files inside the
    run's own directory."""
    env = dict(os.environ)
    env.pop("REPRO_CALIBRATION", None)
    env["XDG_CACHE_HOME"] = os.path.join(tmp, "xdg")
    env["TMPDIR"] = tmp
    env["PYTHONPATH"] = SRC
    return env


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def latencies_ms(ops: List[Tuple[str, float, bool]]) -> List[float]:
    """``ops`` are ``(kind, seconds, ok)``; a failed op counts as
    ``CLIENT_TIMEOUT`` slow, so it misses any latency limit."""
    return [(s if ok else max(s, CLIENT_TIMEOUT)) * 1e3 for _, s, ok in ops]


def pass_seconds(args) -> float:
    """How long one pass measures: a traced run makes an untraced and a
    traced pass, half of ``--seconds`` each, so that every run measures
    for ``--seconds`` in all."""
    return args.seconds / 2 if args.trace else args.seconds


def end_to_end(ops: List[Tuple[str, float, bool]], busy: float,
               setups: List[float], rss_mb: float) -> Dict[str, float]:
    lat = latencies_ms(ops)
    reads = [x for (kind, _, _), x in zip(ops, lat) if kind == "read"]
    ok = sum(1 for _, _, good in ops if good)
    return {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": ok / busy,
        "p50_ms": percentile(lat, 0.50),
        "read_p50_ms": percentile(reads, 0.50),
        "success_ratio": ok / len(ops),
        "peak_rss_mb": rss_mb,
    }


# ----------------------------------------------------------------------
# decide
# ----------------------------------------------------------------------
_DECIDE_BOOT = """
import sys
from repro.core import ConstraintSet, DifferentialConstraint, GroundSet
g = GroundSet(sys.argv[1])
cs = ConstraintSet(g, [DifferentialConstraint.parse(g, t) for t in sys.argv[3:]])
print(cs.implies(sys.argv[2]), flush=True)
"""


def decide_setup(rng: random.Random, env) -> List[float]:
    """A fresh interpreter importing the package and answering one
    query, ``SETUPS`` times."""
    import gen

    n, _fd, ctexts, ttexts = next(item for item in gen.decide_round(rng) if item[0] == 12)
    times = []
    for _ in range(SETUPS):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", _DECIDE_BOOT, gen.ground_text(n), ttexts[0], *ctexts],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        times.append(time.monotonic() - start)
        if out.returncode != 0 or out.stdout.strip() not in ("True", "False"):
            raise RuntimeError(f"decide boot failed: {out.stdout}{out.stderr}")
    return times


def decide_pass(seed, seconds: float, tracer=None):
    """Whole rounds of the decide workload until ``seconds`` of busy
    time; returns ``(ops, busy, wrong answers, route counts)``.

    Each round is checked as soon as it is timed, with ``tracer`` (if
    any) paused, so the benchmark keeps no constraint set alive from
    one round to the next.
    """
    import gen
    from repro.core import ConstraintSet, DifferentialConstraint, GroundSet

    rng = random.Random(seed)
    grounds = {n: GroundSet(gen.ground_text(n)) for n, _ in gen.DECIDE_ROUND}
    ops = []
    wrong = 0
    routes: Dict[str, int] = {}
    busy = 0.0
    clock = time.perf_counter
    while busy < seconds:
        asked = []
        items = gen.decide_round(rng)
        # One op builds a set from its texts and answers all its
        # targets: a single target can take microseconds, too little to
        # time steadily on a shared host.
        for n, _fd, ctexts, ttexts in items:
            g = grounds[n]
            t0 = clock()
            cset = ConstraintSet(g, [DifferentialConstraint.parse(g, t) for t in ctexts])
            answers = [cset.implies(text) for text in ttexts]
            dt = clock() - t0
            ops.append(("read", dt, True))
            busy += dt
            asked.extend((cset, text, answer) for text, answer in zip(ttexts, answers))
        if tracer is not None:
            tracer.recording = False
        wrong += decide_verify(asked, routes)
        if tracer is not None:
            tracer.recording = True
    return ops, busy, wrong, routes


def decide_verify(asked, routes: Dict[str, int]) -> int:
    """Re-decide every answer by a method other than the one the
    planner chose, counting the planner's routes; returns the number
    of wrong answers."""
    from repro.core import DifferentialConstraint
    from repro.core.implication import decide, in_fd_fragment
    from repro.engine import EvalContext
    from repro.engine.plan import default_planner

    planner = default_planner()
    private = EvalContext(private_cache=True)  # leaves the shared tables alone
    wrong = 0
    for cset, text, answer in asked:
        target = DifferentialConstraint.parse(cset.ground, text)
        method, _ = planner.decide_method(
            cset.ground.size, fd_fragment=in_fd_fragment(cset, target)
        )
        routes[method] = routes.get(method, 0) + 1
        check = "engine" if method == "sat" else "sat"
        if decide(cset, target, method=check, context=private) != answer:
            wrong += 1
    return wrong


def run_decide(args, env) -> dict:
    import layers
    import spans
    from repro.engine import shared_cache

    seconds = pass_seconds(args)
    setups = [] if args.trace else decide_setup(random.Random(args.seed), env)
    _, _, wrong, _ = decide_pass(f"warmup-{args.seed}", DECIDE_WARMUP_S)
    shared_cache().clear()
    ops, busy, timed_wrong, routes = decide_pass(args.seed, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"ops": ops, "wrong": wrong + timed_wrong, "stamp": {"routes": routes}}
    if args.trace:
        untraced = len(ops) / busy
        shared_cache().clear()
        tracer = spans.Tracer()
        spans.install(tracer)
        start = time.monotonic()
        ops, busy, wrong_traced, _ = decide_pass(args.seed, seconds, tracer)
        end = time.monotonic()
        tracer.recording = False
        cache = shared_cache().stats()
        result["wrong"] += wrong_traced
        result["ops"] = ops
        procs = [layers.Process("decide", tracer.spans, {})]
        walls = [s for kind, s, _ in ops if kind == "read"]
        metrics = layers.per_layer(procs, start, end, walls, cache_stats=cache)
        metrics["trace.overhead"] = 1 - (len(ops) / busy) / untraced
        result["metrics"] = metrics
    else:
        result["metrics"] = end_to_end(ops, busy, setups, rss_mb)
    return result


# ----------------------------------------------------------------------
# serving workloads: processes, clients, load
# ----------------------------------------------------------------------
class Program:
    """One started program whose output is drained by a thread."""

    #: Every program started by this run, stopped at exit whatever happens.
    started: List["Program"] = []

    def __init__(self, argv: List[str], env):
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True,
        )
        Program.started.append(self)
        self.lines: List[str] = []
        self._new = threading.Condition()
        self._pump = threading.Thread(target=self._drain, daemon=True)
        self._pump.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            with self._new:
                self.lines.append(line.rstrip("\n"))
                self._new.notify_all()
        with self._new:
            self._new.notify_all()

    def wait_line(self, pattern: str, timeout: float) -> re.Match:
        regex = re.compile(pattern)
        deadline = time.monotonic() + timeout
        seen = 0
        with self._new:
            while True:
                for line in self.lines[seen:]:
                    match = regex.search(line)
                    if match:
                        return match
                seen = len(self.lines)
                left = deadline - time.monotonic()
                if left <= 0 or (self.proc.poll() is not None and not self._pump.is_alive()):
                    raise RuntimeError(
                        f"no line matching {pattern!r}; output: {self.lines[-20:]}"
                    )
                self._new.wait(min(left, 0.5))

    def descendants(self) -> List[int]:
        found, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            try:
                tasks = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tasks:
                try:
                    with open(f"/proc/{pid}/task/{tid}/children") as fh:
                        kids = [int(x) for x in fh.read().split()]
                except OSError:
                    kids = []
                found.extend(kids)
                frontier.extend(kids)
        return found

    def peak_rss_mb(self) -> float:
        """Summed peak RSS (VmHWM) of the program and its children."""
        total = 0
        for pid in [self.proc.pid] + self.descendants():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                pass
        return total / 1024

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain), then wait; kill what is left of the
        program's process group and wait until it has gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait(10)
        group = self.proc.pid
        deadline = time.monotonic() + 10
        try:
            os.killpg(group, signal.SIGKILL)
            while time.monotonic() < deadline:
                time.sleep(0.01)
                os.killpg(group, 0)
        except ProcessLookupError:
            pass
        self._pump.join(10)
        return code


def client_for(host: str, port: int, **kwargs):
    """A client that never retries, so every refusal is counted."""
    from repro.engine.net import ReproClient

    return ReproClient(host, port, retries=0, timeout=CLIENT_TIMEOUT, **kwargs)


def boot(argv: List[str], env, pattern: str):
    """Start a server program and time it until ``/healthz`` is 200;
    returns ``(program, host, port, seconds)``."""
    from repro.engine.net import ServiceError

    start = time.monotonic()
    program = Program(argv, env)
    try:
        match = program.wait_line(pattern, 120)
        host, port = match.group(1), int(match.group(2))
        client = client_for(host, port)
        deadline = start + 120
        while True:
            try:
                client.health()
                break
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
    except BaseException:
        program.stop()
        raise
    return program, host, port, time.monotonic() - start


class Load:
    """Closed-loop clients: each thread sends its next request only
    after the previous reply."""

    def __init__(self):
        self.ops: List[Tuple[str, float, bool]] = []
        self.refusals = {429: 0, 503: 0}
        self._lock = threading.Lock()

    def run(self, workers, seconds: float) -> Tuple[float, float]:
        """``workers`` are callables ``step() -> (kind, call)``; returns
        the load window ``(start, end)`` on the monotonic clock."""
        from repro.engine.net import ServiceError

        start = time.monotonic()
        deadline = start + seconds
        errors = []

        def loop(step):
            try:
                while time.monotonic() < deadline:
                    kind, call = step()
                    t0 = time.monotonic()
                    try:
                        call()
                        ok = True
                    except ServiceError as err:
                        ok = False
                        if err.status in self.refusals:
                            with self._lock:
                                self.refusals[err.status] += 1
                    self.ops.append((kind, time.monotonic() - t0, ok))
            except BaseException as err:  # surfaced after the join
                errors.append(err)

        threads = [threading.Thread(target=loop, args=(w,)) for w in workers]
        # the clients' own collector pauses must not count as latency
        gc.disable()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            gc.enable()
        if errors:
            raise errors[0]
        return start, time.monotonic()


def serving_run(args, env, tmp: str, spec) -> dict:
    """One serving workload: boot ``SETUPS`` times (once if traced; the
    last instance serves), drive the load, check the final state, stop,
    and (traced) collect the spans of every process."""
    import layers

    setups = []
    boots = 1 if args.trace else SETUPS
    for i in range(boots):
        program, host, port, seconds = boot(spec.argv(tmp, i, traced=False), env, spec.ready)
        setups.append(seconds)
        if i < boots - 1:
            program.stop()
    result = spec.drive(pass_seconds(args), program, host, port)
    result["stamp"] = spec.stamp
    if not args.trace:
        result["metrics"] = end_to_end(
            result["ops"], result["window"], setups, result["rss_mb"]
        )
        return result
    untraced = sum(ok for _, _, ok in result["ops"]) / result["window"]
    trace_dir = os.path.join(tmp, "trace")
    os.makedirs(trace_dir)
    traced_env = dict(env, PERFBENCH_TRACE_DIR=trace_dir)
    program, host, port, _ = boot(spec.argv(tmp, SETUPS, traced=True), traced_env, spec.ready)
    traced = spec.drive(pass_seconds(args), program, host, port)
    procs = layers.load_dir(trace_dir)
    # live state at the end: workload context, not a quality of a layer
    result["stamp"]["final_nnz"] = next(
        (p.finals.get("nnz") for p in procs if p.role == "serve"), None
    )
    metrics = layers.per_layer(
        procs, traced["start"], traced["end"], [s for _, s, _ in traced["ops"]],
        server_stats=traced["server_stats"], router_stats=traced.get("router_stats"),
    )
    metrics["trace.overhead"] = 1 - (
        sum(ok for _, _, ok in traced["ops"]) / traced["window"]
    ) / untraced
    result["wrong"] += traced["wrong"]
    result["ops"] = result["ops"] + traced["ops"]
    result["metrics"] = metrics
    return result


class Serving:
    """What ingest and query share: the load, the model, the checks."""

    n = 0
    ready = ""

    def __init__(self, seed: int):
        import gen

        self.seed = seed
        self.rng = random.Random(seed)
        self.constraints = [gen.random_constraint(self.rng, self.n) for _ in range(10)]
        self.stamp: dict = {}

    def client_kwargs(self, index: int) -> dict:
        return {}

    def write_constraints(self, tmp: str) -> str:
        import gen

        path = os.path.join(tmp, "constraints.txt")
        if not os.path.exists(path):
            with open(path, "w") as fh:
                fh.write(gen.constraint_file(self.n, self.constraints))
        return path

    def steps(self, index: int, client, acked: list, answers: list):
        raise NotImplementedError

    def drive(self, seconds: float, program, host: str, port: int) -> dict:
        """Load, then check the final state against the model."""
        import gen

        acked: List[List[str]] = []
        answers: List[Tuple[str, bool]] = []
        load = Load()
        workers = [
            self.steps(index, client_for(host, port, **self.client_kwargs(index)), acked, answers)
            for index in range(2)
        ]
        start, end = load.run(workers, seconds)
        window = end - start

        wrong = 0
        server_stats, router_stats = self.server_stats(host, port)
        density: Dict[int, int] = {}
        for ops in acked:
            gen.apply_delta(density, ops)
        health = client_for(*self.worker_address(host, port)).health()
        client = client_for(host, port, **self.client_kwargs(0))
        if health["transactions"] != len(acked):
            wrong += 1
        probe_rng = random.Random(self.seed + 7)
        for _ in range(32):
            subset = gen.random_subset(probe_rng, self.n, 0, 3)
            if client.probe(gen.subset_text(subset)) != gen.support(density, subset):
                wrong += 1
        for c in self.check_pool():
            if client.check(gen.constraint_text(c)) != gen.holds(density, c):
                wrong += 1
        wrong += self.verify_answers(answers)
        refused = server_stats.get("refused", 0) + (router_stats or {}).get("unrouteable", 0)
        if load.refusals[503] != refused:
            wrong += 1
        if load.refusals[429] != (router_stats or {}).get("throttled", 0):
            wrong += 1
        self.stamp["engine"] = {
            k: server_stats["engine"].get(k) for k in ("tier", "backend", "shards", "workers")
        }
        rss_mb = program.peak_rss_mb()
        code = program.stop()
        if code != 0:
            wrong += 1
        return {
            "ops": load.ops, "window": window,
            "start": start, "end": end, "wrong": wrong, "rss_mb": rss_mb,
            "server_stats": server_stats, "router_stats": router_stats,
        }

    def worker_address(self, host: str, port: int) -> Tuple[str, int]:
        return host, port

    def server_stats(self, host: str, port: int):
        return client_for(host, port).stats(), None

    def check_pool(self):
        return self.constraints

    def verify_answers(self, answers) -> int:
        return 0


class Ingest(Serving):
    """``repro serve --data-dir`` (``--fsync always``) at |S|=20."""

    n = 20
    ready = r"# listening on ([\d.]+):(\d+)"

    def argv(self, tmp: str, index: int, traced: bool) -> List[str]:
        data = os.path.join(tmp, f"data-{index}")
        head = [sys.executable, LAUNCH] if traced else [sys.executable, "-m", "repro"]
        return head + ["serve", self.write_constraints(tmp), "--port", "0",
                       "--data-dir", data, "--fsync", "always"]

    def steps(self, index: int, client, acked: list, answers: list):
        import gen

        rng = random.Random(self.seed * 1000 + index)
        basket = gen.Basket(rng, self.n, 2, 6, delete_share=0.3)
        checks = [gen.constraint_text(c) for c in self.constraints]

        def step():
            r = rng.random()
            if r < 0.8:
                ops, inserted = basket.transaction(rng.randint(1, 3))

                def call():
                    client.delta(ops)
                    basket.acknowledged(inserted)
                    acked.append(ops)

                return "write", call
            if r < 0.9:
                text = rng.choice(checks)
                return "read", lambda: client.check(text)
            subset = gen.subset_text(gen.random_subset(rng, self.n, 1, 3))
            return "read", lambda: client.probe(subset)

        return step


class Query(Serving):
    """``repro fleet --workers 1`` (in-memory worker) at |S|=12."""

    n = 12
    ready = r"# fleet listening on ([\d.]+):(\d+)"
    HOT = 256

    def __init__(self, seed: int):
        import gen

        super().__init__(seed)
        rng = self.rng
        self.pool = self.constraints[:4] + [gen.random_constraint(rng, self.n) for _ in range(4)]
        hot = set()
        while len(hot) < self.HOT:
            if len(hot) % 2:
                t = gen.weaken(rng, self.n, rng.choice(self.constraints), False)
            else:
                t = gen.random_constraint(rng, self.n)
            hot.add(gen.constraint_text(t))
        self.hot = sorted(hot)
        self.seen = set(self.hot)
        self.seen_lock = threading.Lock()

    def client_kwargs(self, index: int) -> dict:
        return {"tenant": f"t{index}"}

    def argv(self, tmp: str, index: int, traced: bool) -> List[str]:
        head = [sys.executable, LAUNCH] if traced else [sys.executable, "-m", "repro"]
        return head + ["fleet", self.write_constraints(tmp), "--workers", "1", "--port", "0"]

    def worker_address(self, host: str, port: int) -> Tuple[str, int]:
        worker = client_for(host, port).stats()["workers"][0]
        return host, worker["port"]

    def server_stats(self, host: str, port: int):
        router = client_for(host, port).stats()
        worker = client_for(host, router["workers"][0]["port"]).stats()
        return worker, router

    def check_pool(self):
        return self.pool

    def fresh_target(self, rng) -> str:
        import gen

        while True:
            text = gen.constraint_text(gen.random_constraint(rng, self.n))
            with self.seen_lock:
                if text not in self.seen:
                    self.seen.add(text)
                    return text

    def steps(self, index: int, client, acked: list, answers: list):
        import gen

        rng = random.Random(self.seed * 1000 + index)
        basket = gen.Basket(rng, self.n, 2, 5, delete_share=0.5)
        checks = [gen.constraint_text(c) for c in self.pool]

        def step():
            r = rng.random()
            if r < 0.7:
                text = self.fresh_target(rng) if rng.random() < 0.2 else rng.choice(self.hot)

                def call():
                    answers.append((text, client.implies(text)))

                return "read", call
            if r < 0.9:
                text = rng.choice(checks)
                return "read", lambda: client.check(text)
            ops, inserted = basket.transaction(1)

            def call():
                client.delta(ops)
                basket.acknowledged(inserted)
                acked.append(ops)

            return "write", call

        return step

    def verify_answers(self, answers) -> int:
        """Every ``/implies`` answer against DPLL in this process."""
        import gen
        from repro.core import ConstraintSet, DifferentialConstraint, GroundSet
        from repro.core.implication import implies_sat

        g = GroundSet(gen.ground_text(self.n))
        cset = ConstraintSet(g, [DifferentialConstraint.parse(g, gen.constraint_text(c))
                                 for c in self.constraints])
        truth: Dict[str, bool] = {}
        wrong = 0
        for text, answer in answers:
            if text not in truth:
                truth[text] = implies_sat(cset, DifferentialConstraint.parse(g, text))
            wrong += truth[text] != answer
        return wrong


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("decide", "ingest", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    # The whole benchmark -- clients and every program they start --
    # runs on one CPU.  On a 2-CPU host whose hypervisor steals time,
    # this roughly halved the run-to-run swing of the serving workloads
    # against giving the clients and the servers a CPU each.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    stolen, total = cpu_ticks()
    # a terminated run still stops its programs and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = os.path.join(scratch, f"run-{os.getpid()}")
    os.makedirs(tmp)
    try:
        env = hermetic_env(tmp)
        os.environ.clear()
        os.environ.update(env)
        sys.path.insert(0, HERE)
        if args.workload == "decide":
            result = run_decide(args, env)
        else:
            spec = (Ingest if args.workload == "ingest" else Query)(args.seed)
            result = serving_run(args, env, tmp, spec)
    finally:
        for program in Program.started:
            if program.proc.poll() is None:
                program.stop()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    import platform

    stolen_now, total_now = cpu_ticks()
    if not args.trace:
        # Shown, not bounded: on a 2-vCPU guest each slice the
        # hypervisor steals delays the requests in flight by ~10 ms,
        # and whether that reaches the 99th percentile follows the
        # host's load, so it swings past any bound the metric could have.
        result["stamp"]["p99_ms"] = round(percentile(latencies_ms(result["ops"]), 0.99), 3)
    stamp = dict(result["stamp"], host_cpus=len(cpus), pinned_cpu=cpus[-1],
                 effective_cpus=len(os.sched_getaffinity(0)),
                 steal_share=round((stolen_now - stolen) / max(1, total_now - total), 3),
                 python=platform.python_version(), workload=args.workload,
                 seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("# plan " + json.dumps(stamp, sort_keys=True))
    # names and units come from BENCHMARK.json, the single list of metrics
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result["metrics"]):
        fail(f"measured metrics differ from BENCHMARK.json: "
             f"{sorted(set(units) ^ set(result['metrics']))}")
    for name, value in result["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    correct = result["wrong"] == 0
    attempted = len(result["ops"])
    failed = sum(1 for _, _, ok in result["ops"] if not ok)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
