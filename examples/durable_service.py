"""Running it as a service: durability, crash recovery, and the wire.

A constraint theory is served over HTTP/JSON with a write-ahead-logged
instance behind it: streamed transactions are durable before they are
acknowledged, snapshots compact the log, an abrupt stop loses nothing
committed, and a second service boots from the data directory with the
exact same answers -- the recovery invariant the Hypothesis suite
property-tests (replaying the log through the incremental engine
reproduces the live tables bit for bit).

Run:  PYTHONPATH=src python examples/durable_service.py
"""

import shutil
import tempfile

from repro.core import ConstraintSet, GroundSet
from repro.engine import (
    DurableStore,
    EngineConfig,
    ReproService,
    StreamSession,
)

ITEMS = GroundSet("ABCDE")

WATCH = ConstraintSet.of(ITEMS, "A -> B", "D -> C, E", "B -> C")

TRANSACTIONS = [
    ["+ AB 3"],
    ["+ ABC", "+ CDE 2"],
    ["+ CD", "+ D 2"],
    ["+ A"],          # a bare-A row: newly violates A -> B
    ["- A"],          # and deleting it restores the status
]


def boot(data_dir: str):
    config = EngineConfig(durable=data_dir, snapshot_every=3)
    session = StreamSession(
        ITEMS, constraints=WATCH.constraints, config=config,
    )
    service = ReproService(WATCH, session=session, config=config)
    return service.start_in_thread()


def main() -> None:
    data_dir = tempfile.mkdtemp(prefix="repro-durable-")
    print(f"data dir: {data_dir}")

    # --- first life: stream transactions over the wire --------------
    with boot(data_dir) as running:
        client = running.client()
        print(f"service listening on {running.host}:{running.port} "
              f"(durable={client.health()['durable']})")
        assert client.implies("A -> C") is True
        print("implies A -> C: IMPLIED  (memoized)")
        for ops in TRANSACTIONS:
            report = client.delta(ops)
            flips = report["newly_violated"] or report["restored"]
            note = f"  flips: {flips}" if flips else ""
            print(f"tx {report['tx']}: {ops}{note}")
        pre = {
            "transactions": client.health()["transactions"],
            "support(AB)": client.probe("AB"),
            "support(CD)": client.probe("CD"),
            "check(A -> B)": client.check("A -> B"),
        }
        print(f"acknowledged state before stopping: {pre}")
    # the context-manager exit drains gracefully: snapshot + compact

    recovered = DurableStore(data_dir).recover()
    print(f"on disk after drain: snapshot tx {recovered.snapshot['tx']}, "
          f"{len(recovered.tail)} WAL tail record(s)")

    # --- second life: a fresh process-equivalent boot ----------------
    with boot(data_dir) as running:
        client = running.client()
        post = {
            "transactions": client.health()["transactions"],
            "support(AB)": client.probe("AB"),
            "support(CD)": client.probe("CD"),
            "check(A -> B)": client.check("A -> B"),
        }
        print(f"recovered state after restart:      {post}")
        assert post == pre, "recovery must reproduce the acknowledged state"
        print("recovered answers match the acknowledged state  [exact]")

        # the recovered instance is fully live: keep streaming
        report = client.delta(["+ E 4"])
        assert report["tx"] == pre["transactions"] + 1
        print(f"tx {report['tx']}: streamed on after recovery; "
              f"support(E) = {client.probe('E')}")

    shutil.rmtree(data_dir)
    print("done (data dir removed)")


if __name__ == "__main__":
    main()
