"""Command-line interface: ``python -m repro <command> ...``.

A thin, scriptable front door over the library for users who want to
reason about constraint files without writing Python:

``implies``
    Decide ``C |= target`` (any decider), optionally printing the
    Theorem 3.5 counterexample on failure.

``plan``
    Show the method ``implies`` takes for the constraint file (the
    engine planner's ``decide_method``) and the reason for it.  The
    question fixes the evaluation context: ``implies`` runs on a
    one-shot ``EvalContext``, while ``stream`` and ``serve`` hold a
    live ``IncrementalEvalContext`` on the ``exact`` backend.

``derive``
    Print a checked derivation of the target (Figure 1/2 or
    Figure-1-only with ``--primitive``).

``closure``
    Print the atomic closure ``L(C)`` and a minimal cover of ``C``.

``mine``
    Mine a basket file: frequent itemsets (Apriori) or the
    ``(FDFree, Bd-)`` concise representation.

``discover``
    Discover the basket file's differential theory: the minimal
    disjunctive rules and a redundancy-free constraint cover.

``stream``
    Replay a transaction log of row inserts/deletes/updates against a
    constraint file, reporting per transaction which constraints were
    newly violated or restored (the incremental engine: per-row delta
    maintenance instead of full recomputation).

``serve``
    Answer a batch of ``implies``/``check`` queries through the
    constraint server: each answer is memoized in a fingerprint-keyed
    LRU, so a repeated query is a cache hit, not a recomputation.
    ``--baskets`` loads a live (incremental) instance for ``check``
    queries.  With ``--port`` the command becomes a *long
    -running network service* speaking HTTP/JSON (check / implies /
    delta / probe endpoints; see :mod:`repro.engine.net`): it prints
    ``# listening on HOST:PORT`` and serves until SIGTERM, draining
    gracefully.  ``--data-dir`` makes the served instance durable --
    every committed transaction is write-ahead logged and
    ``--snapshot-every N`` checkpoints the state, so killing the
    process and restarting it on the same directory recovers the
    instance exactly.

Both ``stream`` and ``serve`` accept ``--data-dir`` (durability) and
``--fsync always|never`` (WAL sync policy), and print the backend the
live instance runs on as a ``# engine: backend=...`` stamp line.

Constraint files are plain text: first line the ground set (e.g.
``ABCD``), then one constraint per line in ``A -> B, CD`` syntax; ``#``
comments and blank lines are ignored.  Basket files: first line the item
ground set, then one basket per line in the same subset shorthand.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, TextIO, Tuple

from repro.core import (
    ConstraintSet,
    DifferentialConstraint,
    GroundSet,
    decide,
    derive,
    find_uncovered,
)
from repro.engine.incremental import IncrementalEvalContext
from repro.engine.plan import EngineConfig, default_planner
from repro.errors import NotImpliedError, ReproError

__all__ = [
    "main",
    "engine_config_from_args",
    "parse_constraint_file",
    "parse_basket_file",
]


def parse_constraint_file(lines: Sequence[str]) -> Tuple[GroundSet, ConstraintSet]:
    """Parse the constraint-file format described in the module docstring."""
    meaningful = [
        line.strip()
        for line in lines
        if line.strip() and not line.strip().startswith("#")
    ]
    if not meaningful:
        raise ValueError("empty constraint file: expected a ground-set line")
    ground = GroundSet(meaningful[0])
    constraints = [
        DifferentialConstraint.parse(ground, line) for line in meaningful[1:]
    ]
    return ground, ConstraintSet(ground, constraints)


def parse_basket_file(lines: Sequence[str]):
    """Parse the basket-file format (ground set, then one basket/line)."""
    from repro.fis import BasketDatabase

    meaningful = [
        line.strip()
        for line in lines
        if line.strip() and not line.strip().startswith("#")
    ]
    if not meaningful:
        raise ValueError("empty basket file: expected a ground-set line")
    ground = GroundSet(meaningful[0])
    baskets = [ground.parse(line) for line in meaningful[1:]]
    return ground, BasketDatabase(ground, baskets)


def _read(path: str) -> List[str]:
    if path == "-":
        return sys.stdin.read().splitlines()
    with open(path) as fh:
        return fh.read().splitlines()


def engine_config_from_args(args) -> EngineConfig:
    """One :class:`EngineConfig` from the parsed arguments -- the single
    place CLI flags become engine configuration.

    The backend is left unpinned (``exact``, or what a reopened data
    directory recorded); the durability flags
    (``--data-dir``/``--snapshot-every``/``--fsync``) ride along when
    the subcommand has them.
    """
    return EngineConfig(
        durable=getattr(args, "data_dir", None),
        snapshot_every=getattr(args, "snapshot_every", None),
        fsync=getattr(args, "fsync", "always"),
    )


def _engine_stamp_line(context=None) -> str:
    """The one-line configuration stamp printed by stream/serve output:
    the backend the live ``context`` runs on (``exact``, the default,
    when an implication-only ``serve`` loads no instance)."""
    backend = "exact" if context is None else context.backend.name
    return f"# engine: backend={backend}"


def _cmd_implies(args, out: TextIO) -> int:
    from repro.core import principal_ideal_function

    ground, cset = parse_constraint_file(_read(args.file))
    target = DifferentialConstraint.parse(ground, args.target)
    answer = decide(cset, target, method=args.method)
    print(f"{'IMPLIED' if answer else 'NOT IMPLIED'}: {target!r}", file=out)
    if not answer and args.counterexample:
        u = find_uncovered(cset, target)
        print(
            f"counterexample f^U with U = {ground.format_mask(u)} "
            "(density 1 at U, satisfies C, violates the target)",
            file=out,
        )
        if ground.is_dense_capable():
            # re-check the Theorem 3.5 witness with exact arithmetic
            f_u = principal_ideal_function(ground, u, exact=True)
            ok = cset.satisfied_by(f_u) and not target.satisfied_by(f_u)
            print("witness checked on the exact backend: "
                  f"{'ok' if ok else 'FAILED'}", file=out)
    return 0 if answer else 1


def _cmd_plan(args, out: TextIO) -> int:
    """``repro plan``: the method ``implies`` takes, and why."""
    ground, cset = parse_constraint_file(_read(args.file))
    method, why = default_planner().decide_method(
        ground.size, fd_fragment=cset.all_singleton_families()
    )
    print(f"plan: implies method={method}: {why}", file=out)
    return 0


def _cmd_derive(args, out: TextIO) -> int:
    ground, cset = parse_constraint_file(_read(args.file))
    target = DifferentialConstraint.parse(ground, args.target)
    try:
        proof = derive(cset, target, allow_derived=not args.primitive)
    except NotImpliedError as err:
        print(f"NOT IMPLIED: {err}", file=out)
        return 1
    print(proof.format(), file=out)
    print(f"# {proof.size()} steps, checked", file=out)
    return 0


def _cmd_closure(args, out: TextIO) -> int:
    ground, cset = parse_constraint_file(_read(args.file))
    atoms = list(cset.iter_lattice())
    print(f"atomic closure L(C): {len(atoms)} sets", file=out)
    if atoms:
        print("  " + " ".join(ground.format_mask(u) for u in atoms), file=out)
    else:
        print("  (empty)", file=out)
    cover = cset.minimal_cover()
    print(f"minimal cover ({len(cover)} of {len(cset)} constraints):", file=out)
    for c in cover:
        print(f"  {c!r}", file=out)
    return 0


def _cmd_mine(args, out: TextIO) -> int:
    from repro.fis import apriori, mine_concise

    ground, db = parse_basket_file(_read(args.file))
    if args.concise:
        rep = mine_concise(db, args.minsupport, max_rhs=args.rule_width)
        print(
            f"FDFree: {len(rep.elements)} sets, border: {len(rep.border)}",
            file=out,
        )
        for mask in sorted(rep.elements, key=lambda m: (m.bit_count(), m)):
            print(
                f"  {rep.elements[mask]:6d}  {ground.format_mask(mask)}",
                file=out,
            )
        for mask, entry in sorted(rep.border.items()):
            reason = "infrequent" if entry.infrequent else f"rule {entry.rule!r}"
            print(f"  border {ground.format_mask(mask)}: {reason}", file=out)
    else:
        result = apriori(db, args.minsupport)
        print(
            f"{len(result.frequent)} frequent itemsets at "
            f"minsupport {args.minsupport} "
            f"({result.support_counts} support counts)",
            file=out,
        )
        for mask in sorted(
            result.frequent, key=lambda m: (m.bit_count(), m)
        ):
            print(
                f"  {result.frequent[mask]:6d}  {ground.format_mask(mask)}",
                file=out,
            )
    return 0


def _cmd_discover(args, out: TextIO) -> int:
    from repro.fis.discovery import discover_cover, minimal_disjunctive_rules

    ground, db = parse_basket_file(_read(args.file))
    rules = minimal_disjunctive_rules(db, max_rhs=args.rule_width)
    print(f"{len(rules)} minimal disjunctive rules:", file=out)
    for rule in rules:
        print(f"  {rule!r}", file=out)
    if args.cover:
        cover = discover_cover(db)
        print(
            f"differential-theory cover ({len(cover)} constraints):",
            file=out,
        )
        for c in cover:
            print(f"  {c!r}", file=out)
    return 0


def _cmd_stream(args, out: TextIO) -> int:
    ground, cset = parse_constraint_file(_read(args.file))
    density = None
    if args.baskets:
        basket_ground, db = parse_basket_file(_read(args.baskets))
        ground.check_same(basket_ground)
        density = db.multiset_counts()
    config = engine_config_from_args(args)
    session = cset.stream_session(density=density, config=config)
    print(_engine_stamp_line(session.context), file=out)
    if args.data_dir and session.transactions:
        print(
            f"recovered {session.transactions} transaction(s) from "
            f"{args.data_dir}; "
            f"{len(session.violated_constraints())}/{len(cset)} "
            "constraints violated",
            file=out,
        )
    elif density:
        seeded = session.violated_constraints()
        print(
            f"seeded {sum(density.values())} rows; "
            f"{len(seeded)}/{len(cset)} constraints violated",
            file=out,
        )
    reports = session.replay(_read(args.log))
    for rep in reports:
        print(
            f"tx {rep.tx}: +{len(rep.newly_violated)} violated, "
            f"-{len(rep.restored)} restored; "
            f"{len(rep.violated)}/{len(cset)} violated",
            file=out,
        )
        for c in rep.newly_violated:
            print(f"  violated: {c!r}", file=out)
        for c in rep.restored:
            print(f"  restored: {c!r}", file=out)
    final = session.violated_constraints()
    print(
        f"final: {len(final)}/{len(cset)} constraints violated "
        f"after {len(reports)} transactions",
        file=out,
    )
    for c in final:
        print(f"  {c!r}", file=out)
    if args.data_dir:
        session.snapshot()
        print(
            f"# snapshotted tx {session.transactions} to {args.data_dir}",
            file=out,
        )
    session.close()
    return 1 if final else 0


def parse_query_file(ground, lines: Sequence[str]):
    """Parse serve queries: one per line, ``implies``/``check`` prefix
    optional (``implies`` assumed), then a constraint in arrow syntax."""
    queries = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind = "implies"
        head, _, rest = line.partition(" ")
        if head in ("implies", "check"):
            kind, line = head, rest.strip()
        queries.append(
            (kind, DifferentialConstraint.parse(ground, line))
        )
    return queries


def _cmd_serve(args, out: TextIO) -> int:
    from repro.engine.server import serve_queries

    ground, cset = parse_constraint_file(_read(args.file))
    if args.port is not None:
        return _serve_network(args, ground, cset, out)
    if args.queries is None:
        raise ValueError(
            "serve needs a query file in batch mode (or --port to run "
            "as a network service)"
        )
    queries = parse_query_file(ground, _read(args.queries))
    instance = None
    if args.baskets:
        basket_ground, db = parse_basket_file(_read(args.baskets))
        ground.check_same(basket_ground)
        instance = IncrementalEvalContext(
            ground, density=db.multiset_counts()
        )
    elif any(kind == "check" for kind, _ in queries):
        raise ValueError(
            "'check' queries need a live instance: no live instance was "
            "loaded (pass --baskets)"
        )
    print(_engine_stamp_line(instance), file=out)
    answers, stats = serve_queries(cset, queries, instance=instance)
    failures = 0
    for (kind, constraint), answer in zip(queries, answers):
        if kind == "implies":
            verdict = "IMPLIED" if answer else "NOT IMPLIED"
        else:
            verdict = "SATISFIED" if answer else "VIOLATED"
        if not answer:
            failures += 1
        print(f"{verdict}: {constraint!r}", file=out)
    print(
        f"# served {stats.requests} queries: {stats.cache_hits} cache "
        f"hits, {stats.computed} computed",
        file=out,
    )
    return 1 if failures else 0


def _serve_network(args, ground, cset, out: TextIO) -> int:
    """``repro serve --port``: the long-running HTTP/JSON service."""
    from repro.engine.net import ReproService
    from repro.engine.stream import StreamSession

    config = engine_config_from_args(args)
    ship_to = getattr(args, "ship_to", None)
    if ship_to:
        if not args.data_dir:
            raise ValueError(
                "--ship-to mirrors a durable store: pass --data-dir too"
            )
        from repro.engine.fleet import ShippingStore

        config = config.replace(
            durable=ShippingStore(args.data_dir, ship_to, fsync=config.fsync)
        )
        print(f"# shipping WAL to standby {ship_to}", file=out)
    density = None
    if args.baskets:
        basket_ground, db = parse_basket_file(_read(args.baskets))
        ground.check_same(basket_ground)
        density = db.multiset_counts()
    session = StreamSession(
        ground,
        constraints=cset.constraints,
        density=density,
        config=config,
    )
    print(_engine_stamp_line(session.context), file=out)
    if args.data_dir and session.transactions:
        print(
            f"recovered {session.transactions} transaction(s) from "
            f"{args.data_dir}",
            file=out,
        )

    def _ready(host: str, port: int) -> None:
        # the e2e driver (and any supervisor) parses this line, so it
        # must be flushed before the event loop settles into serving
        print(f"# listening on {host}:{port}", file=out, flush=True)

    service = ReproService(
        cset,
        session=session,
        config=config,
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        on_ready=_ready,
    )
    service.serve_forever()
    print(
        f"# drained after {session.transactions} transaction(s)",
        file=out,
    )
    return 0


def _cmd_fleet(args, out: TextIO) -> int:
    """``repro fleet``: N supervised workers behind the tenant router."""
    from repro.engine.fleet import FleetService, worker_dirs
    from repro.engine.plan import default_fleet_workers
    from repro.engine.quota import QuotaPolicy

    # parse the constraint file up front so a bad file fails here, not
    # N times inside the workers
    parse_constraint_file(_read(args.file))
    count = args.workers if args.workers is not None else default_fleet_workers()
    if count < 1:
        raise ValueError(f"--workers must be >= 1, got {count}")
    data_root, standby_root = args.data_root, args.standby_root
    if standby_root and not data_root:
        raise ValueError(
            "--standby-root mirrors durable stores: pass --data-root too"
        )
    if args.takeover:
        if not (data_root and standby_root):
            raise ValueError(
                "--takeover swaps the roots: pass both --data-root and "
                "--standby-root"
            )
        # recovery boot: the standby copies become the live stores, and
        # shipping re-seeds the old (possibly damaged) primaries
        data_root, standby_root = standby_root, data_root
        print(f"# takeover: recovering from {data_root}", file=out)
    data_dirs = (
        worker_dirs(data_root, count) if data_root else [None] * count
    )
    ship_dirs = (
        worker_dirs(standby_root, count) if standby_root else [None] * count
    )

    def worker_command(index: int) -> list:
        cmd = [
            sys.executable, "-m", "repro", "serve", args.file,
            "--port", "0", "--host", args.host,
            "--queue-size", str(args.queue_size),
        ]
        if data_dirs[index]:
            cmd += ["--data-dir", data_dirs[index], "--fsync", args.fsync]
        if ship_dirs[index]:
            cmd += ["--ship-to", ship_dirs[index]]
        if args.snapshot_every is not None:
            cmd += ["--snapshot-every", str(args.snapshot_every)]
        return cmd

    quota = None
    if args.quota_rate is not None:
        quota = QuotaPolicy(rate=args.quota_rate, burst=args.quota_burst)
        print(f"# per-tenant quota: {quota!r}", file=out)

    def _ready(host: str, port: int) -> None:
        # supervisors/drivers parse this line (note: distinct from the
        # workers' own '# listening on' lines, echoed below)
        print(
            f"# fleet listening on {host}:{port} ({count} workers)",
            file=out, flush=True,
        )

    def _worker_line(index: int, line: str) -> None:
        print(f"# [worker {index}] {line}", file=out, flush=True)

    service = FleetService(
        [worker_command(i) for i in range(count)],
        host=args.host,
        port=args.port,
        quota=quota,
        on_ready=_ready,
        on_line=_worker_line,
    )
    service.serve_forever()
    print("# fleet drained", file=out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Differential constraints (Sayrafi & Van Gucht, PODS 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("implies", help="decide C |= target")
    p.add_argument("file", help="constraint file ('-' for stdin)")
    p.add_argument("target", help='target constraint, e.g. "A -> B, CD"')
    p.add_argument(
        "--method",
        default="auto",
        choices=["auto", "engine", "lattice", "sat", "fd"],
    )
    p.add_argument(
        "--counterexample",
        action="store_true",
        help="print the Theorem 3.5 witness when not implied",
    )
    p.set_defaults(run=_cmd_implies)

    p = sub.add_parser(
        "plan",
        help="show the method 'implies' takes for the constraint file "
        "and why",
    )
    p.add_argument("file", help="constraint file ('-' for stdin)")
    p.set_defaults(run=_cmd_plan)

    p = sub.add_parser("derive", help="print a checked derivation")
    p.add_argument("file")
    p.add_argument("target")
    p.add_argument(
        "--primitive",
        action="store_true",
        help="expand Figure-2 macro rules into Figure-1 steps",
    )
    p.set_defaults(run=_cmd_derive)

    p = sub.add_parser("closure", help="atomic closure and minimal cover")
    p.add_argument("file")
    p.set_defaults(run=_cmd_closure)

    p = sub.add_parser("mine", help="mine a basket file")
    p.add_argument("file")
    p.add_argument("--minsupport", type=int, default=1)
    p.add_argument(
        "--concise",
        action="store_true",
        help="mine the (FDFree, Bd-) representation instead of Apriori",
    )
    p.add_argument("--rule-width", type=int, default=2)
    p.set_defaults(run=_cmd_mine)

    p = sub.add_parser(
        "discover", help="discover minimal rules / the constraint theory"
    )
    p.add_argument("file")
    p.add_argument("--rule-width", type=int, default=2)
    p.add_argument(
        "--cover",
        action="store_true",
        help="also print a redundancy-free cover of the full theory",
    )
    p.set_defaults(run=_cmd_discover)

    p = sub.add_parser(
        "stream", help="replay a transaction log against constraints"
    )
    p.add_argument("file", help="constraint file ('-' for stdin)")
    p.add_argument(
        "log",
        help="transaction log: '+|-|= SUBSET [AMOUNT]' lines, "
        "'commit' ends a transaction",
    )
    p.add_argument(
        "--baskets",
        default=None,
        help="seed the instance from a basket file before replaying",
    )
    _add_durability_flags(p)
    p.set_defaults(run=_cmd_stream)

    p = sub.add_parser(
        "serve",
        help="answer implication/check queries via the memoizing "
        "constraint server, or run the HTTP/JSON service with --port",
    )
    p.add_argument("file", help="constraint file ('-' for stdin)")
    p.add_argument(
        "queries",
        nargs="?",
        default=None,
        help="query file: one '[implies|check] X -> Y, Z' per line "
        "(omit when running with --port)",
    )
    p.add_argument(
        "--baskets",
        default=None,
        help="basket file loaded as the live instance for 'check' queries",
    )
    p.add_argument(
        "--port",
        type=int,
        default=None,
        help="run as a long-lived HTTP/JSON service on this port "
        "(0 = OS-assigned; prints '# listening on HOST:PORT')",
    )
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --port mode (default 127.0.0.1)",
    )
    p.add_argument(
        "--queue-size",
        type=int,
        default=128,
        help="backpressure bound: concurrent requests admitted before "
        "the service answers 503 (default 128)",
    )
    _add_durability_flags(p)
    p.add_argument(
        "--ship-to",
        default=None,
        help="ship the WAL synchronously to this warm-standby directory "
        "(requires --data-dir); 'repro fleet --takeover' boots from it",
    )
    p.set_defaults(run=_cmd_serve)

    p = sub.add_parser(
        "fleet",
        help="run N supervised 'repro serve' workers behind a "
        "consistent-hash tenant router (restart-on-crash, per-tenant "
        "quotas, WAL shipping to a standby root)",
    )
    p.add_argument("file", help="constraint file served by every worker")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker-process count (default: effective CPUs, capped at "
        "the planner's FLEET_MAX_WORKERS)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="router port (0 = OS-assigned; prints "
        "'# fleet listening on HOST:PORT')",
    )
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for the router and workers (default 127.0.0.1)",
    )
    p.add_argument(
        "--data-root",
        default=None,
        help="root directory for per-worker durable stores "
        "(worker-NN/ subdirectories; omit for in-memory workers)",
    )
    p.add_argument(
        "--standby-root",
        default=None,
        help="warm-standby root each worker ships its WAL to "
        "(requires --data-root)",
    )
    p.add_argument(
        "--takeover",
        action="store_true",
        help="recovery boot: swap the roots -- workers recover from "
        "--standby-root and ship back toward --data-root",
    )
    p.add_argument(
        "--queue-size",
        type=int,
        default=128,
        help="per-worker backpressure bound (worker answers 503 past it)",
    )
    p.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        help="per-worker auto-snapshot cadence (transactions)",
    )
    p.add_argument(
        "--fsync",
        default="always",
        choices=["always", "never"],
        help="per-worker WAL sync policy (default always)",
    )
    p.add_argument(
        "--quota-rate",
        type=float,
        default=None,
        help="per-tenant admission rate in requests/second (router "
        "answers 429 past it; default: unmetered)",
    )
    p.add_argument(
        "--quota-burst",
        type=float,
        default=None,
        help="per-tenant burst capacity (default: one second of rate)",
    )
    p.set_defaults(run=_cmd_fleet)
    return parser


def _add_durability_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--data-dir",
        default=None,
        help="durable data directory: transactions are write-ahead "
        "logged and the instance recovers from it on restart",
    )
    p.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        help="auto-snapshot (and compact the WAL) every N transactions",
    )
    p.add_argument(
        "--fsync",
        default="always",
        choices=["always", "never"],
        help="WAL sync policy: 'always' fsyncs each commit (default), "
        "'never' leaves flushing to the OS",
    )


def main(argv: Optional[Sequence[str]] = None, out: TextIO = sys.stdout) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, out)
    except (ReproError, ValueError, OSError) as err:
        print(f"error: {err}", file=out)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
