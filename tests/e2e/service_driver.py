#!/usr/bin/env python
"""End-to-end driver for the CI ``service-e2e`` job.

This script exercises the *binary*, not the library: it spawns
``python -m repro serve --port 0 --data-dir ...`` as a real subprocess,
drives it over the wire with :class:`repro.engine.net.ReproClient`
(implication queries, instance checks, streamed deltas, support
probes), then kills the process with **SIGKILL** mid-stream -- no
drain, no snapshot -- restarts it on the same data directory and
asserts every recovered answer matches the state the client had
acknowledged before the crash.  A final graceful shutdown must exit 0.

Run:  PYTHONPATH=src python tests/e2e/service_driver.py

Exits 0 on success, 1 on any mismatch (with a diagnostic), so the CI
job fails loudly.  No pytest involvement by design: this is the first
check that boots the shipped entry point end to end.
"""

from __future__ import annotations

import os
import re
import signal
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

LISTENING = re.compile(r"# listening on ([\d.]+):(\d+)")


def boot(constraint_path: str, data_dir: str):
    """Spawn ``repro serve`` and wait for its listening line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", constraint_path,
            "--port", "0", "--host", "127.0.0.1",
            "--data-dir", data_dir, "--snapshot-every", "5",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 60
    port = None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        sys.stdout.write(f"[server] {line}")
        match = LISTENING.search(line)
        if match:
            port = int(match.group(2))
            break
    if port is None:
        proc.kill()
        raise SystemExit("FAIL: server never printed its listening line")
    client = ReproClient("127.0.0.1", port, timeout=30)
    client.wait_ready(timeout=30)
    return proc, client


def observe(client: ReproClient) -> dict:
    """Everything the client can see about the live state."""
    return {
        "transactions": client.health()["transactions"],
        "violated": client.health()["violated"],
        "probes": {
            subset: client.probe(subset)
            for subset in ("A", "AB", "ABC", "CD", "D", "0")
        },
        "checks": {
            text: client.check(text)
            for text in ("A -> B", "B -> CD", "AB -> C")
        },
        "implies": {
            text: client.implies(text)
            for text in ("A -> CD", "C -> A", "AB -> D")
        },
    }


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
        data_dir = os.path.join(tmp, "data")

        # --- phase 1: boot fresh, drive the protocol ------------------
        proc, client = boot(constraint_path, data_dir)
        expect(client.implies("A -> CD") is True, "C |= A -> CD")
        expect(client.implies("C -> A") is False, "C |/= C -> A")
        for i in range(7):
            report = client.delta([f"+ AB {i + 1}"])
            expect(report["tx"] == i + 1, f"tx {i + 1} committed")
        report = client.delta(["+ ABC", "+ CD 2"])
        expect(
            report["newly_violated"] == [],
            "in-lattice-free batch flips nothing",
        )
        report = client.delta(["+ A"])
        expect(
            "A -> {B}" in report["newly_violated"],
            "bare-A row newly violates A -> B",
        )
        stats = client.stats()
        expect(stats["requests"] > 0, "constraint server served the checks")
        expect(
            stats["requests"] == stats["cache_hits"] + stats["computed"],
            "every request was a cache hit or a computation",
        )

        # --- phase 2: SIGKILL mid-stream ------------------------------
        pre = observe(client)
        print(f"[driver] pre-kill observation: {pre}")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        expect(proc.returncode == -signal.SIGKILL, "server died by SIGKILL")
        try:
            client.health()
            expect(False, "port actually went dark")
        except ServiceError:
            expect(True, "port actually went dark")

        # --- phase 3: restart on the same data dir --------------------
        proc2, client2 = boot(constraint_path, data_dir)
        post = observe(client2)
        print(f"[driver] post-recovery observation: {post}")
        expect(
            post == pre,
            "recovered answers match the acknowledged pre-kill state",
        )

        # --- phase 4: the recovered instance still streams ------------
        report = client2.delta(["- A"])
        expect(
            "A -> {B}" in report["restored"],
            "recovered session keeps flipping statuses",
        )
        expect(
            report["tx"] == pre["transactions"] + 1,
            "transaction numbering continues, not restarts",
        )
        client2.snapshot()

        # --- phase 5: graceful shutdown exits 0 -----------------------
        client2.shutdown()
        rc = proc2.wait(timeout=60)
        tail = proc2.stdout.read()
        for line in tail.splitlines():
            print(f"[server] {line}")
        expect(rc == 0, f"graceful shutdown exit code is 0 (got {rc})")

        # --- phase 6: a third boot sees the drained state -------------
        proc3, client3 = boot(constraint_path, data_dir)
        expect(
            client3.health()["transactions"] == pre["transactions"] + 1,
            "third boot recovers the post-restart stream",
        )
        expect(client3.check("A -> B") is True, "restored status persisted")
        client3.shutdown()
        expect(proc3.wait(timeout=60) == 0, "third boot drains cleanly")

    if failures:
        print(f"[driver] {failures} check(s) FAILED")
        return 1
    print("[driver] service-e2e PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
