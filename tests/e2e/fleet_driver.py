#!/usr/bin/env python
"""End-to-end driver for the CI ``fleet-e2e`` job.

The fleet sibling of ``service_driver.py``: it boots the *binary* --
``python -m repro fleet --workers 2 --data-root ... --standby-root ...``
-- as a real subprocess, drives tenants through the router with
:class:`repro.engine.net.ReproClient`, then destroys the whole fleet
with **SIGKILL** (router and workers, no drain, no snapshot) and boots
``repro fleet --takeover`` on the shipped standby directories.  Every
recovered answer must match the state the clients had acknowledged
before the crash -- the WAL-shipping invariant, asserted across the
process boundary.  Also exercised: a tenant id carrying CR/LF is
refused with 400 and never relayed, quota 429s (distinct from 503s),
restart-on-crash supervision, a graceful SIGTERM drain exiting 0, and
a boot on a router port the driver holds: it must exit nonzero and
take its already-started worker down with it.

Run:  PYTHONPATH=src python tests/e2e/fleet_driver.py

Exits 0 on success, 1 on any mismatch (with a diagnostic).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from repro.engine.net import ReproClient, ServiceError  # noqa: E402

CONSTRAINTS = """\
ABCD
A -> B
B -> CD
"""

FLEET_LISTENING = re.compile(r"# fleet listening on ([\d.]+):(\d+)")
WORKER_LISTENING = re.compile(r"# \[worker 0\] # listening on ([\d.]+):(\d+)")
TENANTS = ("acme", "globex", "initech", "umbrella")


def boot(constraint_path: str, data_root: str, standby_root: str,
         takeover: bool = False, quota: bool = False):
    """Spawn ``repro fleet`` and wait for the router's listening line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, "-m", "repro", "fleet", constraint_path,
        "--workers", "2", "--port", "0", "--host", "127.0.0.1",
        "--data-root", data_root, "--standby-root", standby_root,
        "--snapshot-every", "50",
    ]
    if takeover:
        cmd.append("--takeover")
    if quota:
        cmd += ["--quota-rate", "2", "--quota-burst", "3"]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 120
    port = None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        sys.stdout.write(f"[fleet] {line}")
        match = FLEET_LISTENING.search(line)
        if match:
            port = int(match.group(2))
            break
    if port is None:
        proc.kill()
        raise SystemExit("FAIL: fleet never printed its listening line")
    # keep draining fleet output on a thread so the pipe never fills
    import threading

    threading.Thread(
        target=lambda: [None for _ in proc.stdout], daemon=True
    ).start()
    client = ReproClient("127.0.0.1", port, timeout=30)
    client.wait_ready(timeout=60)
    return proc, port


def boot_on_held_port(constraint_path: str):
    """Run ``repro fleet --workers 1`` against a router port this driver
    holds; returns its exit code and the port its worker had bound
    (``None`` if the worker never printed its listening line)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "fleet", constraint_path,
                "--workers", "1", "--host", "127.0.0.1",
                "--port", str(holder.getsockname()[1]),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            timeout=120,
        )
    for line in done.stdout.splitlines():
        print(f"[fleet] {line}")
    match = WORKER_LISTENING.search(done.stdout)
    return done.returncode, int(match.group(2)) if match else None


def post_status(port: int, path: str, body: dict) -> int:
    """POST ``body`` as JSON and return the bare HTTP status code."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST", path, json.dumps(body),
            {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def refuses_connections(port: int, timeout: float = 5.0) -> bool:
    """Whether ``127.0.0.1:port`` refuses connections within ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=2).close()
        except ConnectionRefusedError:
            return True
        except OSError:
            pass
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.1)


def observe(port: int) -> dict:
    """Everything the tenants can see about the fleet's live state."""
    view = {}
    for tenant in TENANTS:
        client = ReproClient("127.0.0.1", port, tenant=tenant, timeout=30)
        view[tenant] = {
            "probes": {s: client.probe(s) for s in ("A", "AB", "ABC", "0")},
            "checks": {t: client.check(t) for t in ("A -> B", "B -> CD")},
        }
    return view


def kill_fleet(proc: subprocess.Popen) -> None:
    """SIGKILL the router and every worker it spawned (total loss).

    The workers are direct children of the router; walking ``/proc``
    for their ppid keeps this dependency-free.
    """
    children = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().split()
            if int(fields[3]) == proc.pid:
                children.append(int(pid))
        except (OSError, IndexError, ValueError):
            continue
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)
    for pid in children:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in children:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and os.path.exists(f"/proc/{pid}"):
            time.sleep(0.05)


def main() -> int:
    failures = 0

    def expect(condition: bool, message: str) -> None:
        nonlocal failures
        status = "ok" if condition else "FAIL"
        print(f"[driver] {status}: {message}")
        if not condition:
            failures += 1

    with tempfile.TemporaryDirectory() as tmp:
        constraint_path = os.path.join(tmp, "constraints.txt")
        with open(constraint_path, "w") as fh:
            fh.write(CONSTRAINTS)
        data_root = os.path.join(tmp, "data")
        standby_root = os.path.join(tmp, "standby")

        # --- phase 1: boot the fleet, drive tenants through the router
        proc, port = boot(constraint_path, data_root, standby_root)
        client = ReproClient("127.0.0.1", port, timeout=30)
        expect(client.health()["fleet"] == 2, "fleet of 2 reports healthy")
        expect(
            client.implies("A -> CD") is True, "C |= A -> CD via the router"
        )
        for round_no in range(3):
            for tenant in TENANTS:
                tclient = ReproClient(
                    "127.0.0.1", port, tenant=tenant, timeout=30
                )
                report = tclient.delta([f"+ AB {round_no + 1}", "+ ABC"])
                expect(
                    report["tx"] >= 1,
                    f"tenant {tenant} committed round {round_no + 1}",
                )
        stats = client.stats()
        expect(
            all(w["routed"] > 0 for w in stats["workers"]),
            f"both workers took traffic: "
            f"{[w['routed'] for w in stats['workers']]}",
        )
        expect(stats["throttled"] == 0, "no quota refusals while unmetered")

        # --- phase 1b: a header-unsafe tenant is refused, not relayed --
        # the router formats the tenant into the upstream
        # X-Repro-Tenant line, so CR/LF in it would forge a request
        status = post_status(
            port, "/delta",
            {"tenant": "acme\r\nX-Injected: 1\r\n\r\n", "ops": ["+ A"]},
        )
        expect(status == 400, f"CRLF body tenant answered 400 (got {status})")
        expect(
            client.health()["status"] == "ok",
            "/healthz stays 200 after the refused tenant",
        )
        expect(
            client.stats()["relayed"] == stats["relayed"],
            "the refused request was never relayed",
        )

        # --- phase 2: SIGKILL the whole fleet mid-stream --------------
        pre = observe(port)
        print(f"[driver] pre-kill observation: {pre}")
        kill_fleet(proc)
        try:
            client.health()
            expect(False, "router port actually went dark")
        except ServiceError:
            expect(True, "router port actually went dark")

        # --- phase 3: takeover on the shipped standby directories -----
        proc2, port2 = boot(
            constraint_path, data_root, standby_root, takeover=True
        )
        post = observe(port2)
        print(f"[driver] post-takeover observation: {post}")
        expect(
            post == pre,
            "takeover recovered exactly the acknowledged state",
        )

        # --- phase 4: the recovered fleet still commits ----------------
        tclient = ReproClient(
            "127.0.0.1", port2, tenant=TENANTS[0], timeout=30
        )
        report = tclient.delta(["- A"])
        expect(report["tx"] >= 1, "recovered fleet keeps committing")

        # --- phase 5: supervision restarts a crashed worker ------------
        # the router does not expose worker pids, so find one by its
        # ``repro serve <constraints>`` cmdline in /proc
        killed = False
        for pid in os.listdir("/proc"):
            if not pid.isdigit():
                continue
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    cmdline = fh.read().decode().split("\0")
            except OSError:
                continue
            if "serve" in cmdline and constraint_path in cmdline:
                os.kill(int(pid), signal.SIGKILL)
                killed = True
                break
        expect(killed, "found and SIGKILLed one worker process")
        deadline = time.monotonic() + 60
        recovered = False
        stats_client = ReproClient("127.0.0.1", port2, timeout=30, retries=0)
        while time.monotonic() < deadline:
            try:
                health = stats_client.health()
                if health["status"] == "ok":
                    recovered = True
                    break
            except ServiceError:
                pass
            time.sleep(0.25)
        expect(recovered, "supervisor restarted the crashed worker")
        stats = stats_client.stats()
        expect(
            stats["restarts"] >= 1,
            f"restart surfaced in /stats (restarts={stats['restarts']})",
        )

        # --- phase 6: graceful SIGTERM drain exits 0 -------------------
        proc2.send_signal(signal.SIGTERM)
        rc = proc2.wait(timeout=90)
        expect(rc == 0, f"SIGTERM fan-out drain exit code is 0 (got {rc})")

        # --- phase 7: a failed router bind stops the booted worker -----
        rc, worker_port = boot_on_held_port(constraint_path)
        expect(rc != 0, f"fleet on a held port exits nonzero (got {rc})")
        expect(worker_port is not None, "its worker booted before the bind")
        if worker_port is not None:
            expect(
                refuses_connections(worker_port),
                f"worker port {worker_port} refuses connections afterwards",
            )

    if failures:
        print(f"[driver] {failures} check(s) FAILED")
        return 1
    print("[driver] fleet-e2e PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
