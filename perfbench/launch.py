"""Start ``repro serve`` or ``repro fleet`` with span tracing installed.

    python3 perfbench/launch.py serve FILE --port 0 ...
    python3 perfbench/launch.py fleet FILE --workers 1 ...

The arguments are exactly those of ``python -m repro``; this program
installs :mod:`spans` and hands over to ``repro.cli.main``.  Fleet
workers, which the CLI spawns as ``python -m repro serve ...``, are
started through this launcher instead, so the router and every worker
record spans.  Spans are written to ``$PERFBENCH_TRACE_DIR`` at exit.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv):
    import spans
    from repro import cli
    from repro.engine import fleet

    role = argv[0]
    spans.install_for_process(role)
    if role == "fleet":
        spawn = fleet.FleetWorker.spawn

        def traced_spawn(worker, env=None):
            if worker.command[1:3] == ["-m", "repro"]:
                worker.command = [worker.command[0], os.path.abspath(__file__)] + worker.command[3:]
            return spawn(worker, env=env)

        fleet.FleetWorker.spawn = traced_spawn
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
