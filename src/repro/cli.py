"""Command-line interface.

::

    python -m repro generate --preset D100-S --out chain.json
    python -m repro stats chain.json
    python -m repro check chain.json --query "q() <- TxOut(t, s, 'X', a)"
    python -m repro worlds chain.json --limit 50
    python -m repro bench diff benchmarks/BASELINE.json BENCH_abc1234.json --gate

``generate`` builds a synthetic Bitcoin dataset and serializes its
relational blockchain database; ``check`` runs denial-constraint
satisfaction over a serialized database (exit status 1 signals a
violable constraint — script-friendly); ``worlds`` enumerates possible
worlds of small instances; ``bench`` renders trend reports over the
benchmark suite's ``BENCH_*.json`` artifacts and gates regressions
against the committed baseline.
"""

from __future__ import annotations

import argparse
import sys

from repro import serialize
from repro.core.checker import ALGORITHMS, DCSatChecker
from repro.errors import ReproError
from repro.obs.bench import add_bench_subcommands
from repro.obs.log import LEVELS, configure_logging


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.bitcoin.generator import PRESETS, generate_dataset

    spec = PRESETS.get(args.preset)
    if spec is None:
        print(
            f"unknown preset {args.preset!r}; options: {sorted(PRESETS)}",
            file=sys.stderr,
        )
        return 2
    if args.contradictions is not None:
        spec = spec.scaled(contradictions=args.contradictions)
    if args.seed is not None:
        spec = spec.scaled(seed=args.seed)
    dataset = generate_dataset(spec)
    db = dataset.to_blockchain_database()
    serialize.dump(db, args.out)
    stats = dataset.stats()
    print(
        f"wrote {args.out}: {stats.blocks} blocks, "
        f"{stats.transactions} committed txs, "
        f"{stats.pending_transactions} pending "
        f"({stats.contradictions} contradictions)"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    db = serialize.load(args.database)
    print(f"relations: {', '.join(db.current.relation_names)}")
    for name in db.current.relation_names:
        print(f"  {name}: {len(db.current[name])} committed tuples")
    print(f"constraints: {len(db.constraints.fds)} FDs, {len(db.constraints.inds)} INDs")
    for constraint in db.constraints:
        print(f"  {constraint}")
    print(f"pending transactions: {len(db.pending)}")
    checker = DCSatChecker(db)
    graph = checker.fd_graph
    print(
        f"fd-graph: {len(graph.nodes)} appendable, "
        f"{graph.conflict_count()} conflict pairs, "
        f"{len(graph.never_appendable)} never-appendable"
    )
    print(f"ind-components: {len(checker.ind_graph.components())}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    db = serialize.load(args.database)
    checker = DCSatChecker(
        db,
        backend=args.backend,
        assume_nonnegative_sums=args.assume_nonnegative_sums,
    )
    result = checker.check(
        args.query,
        algorithm=args.algorithm,
        short_circuit=not args.no_short_circuit,
    )
    stats = result.stats
    if result.satisfied:
        print("SATISFIED: the denial constraint holds in every possible world")
    else:
        witness = sorted(result.witness or ())
        world = " + ".join(witness) if witness else "(the current state)"
        print(f"VIOLATED: possible world {world} satisfies the query")
        if args.explain:
            from repro.core.explain import explain_violation
            from repro.query.parser import parse_query

            explanation = explain_violation(
                db, parse_query(args.query), result
            )
            print(explanation.render())
    print(
        f"  algorithm={stats.algorithm} engine={stats.engine or 'sync'} "
        f"worlds={stats.worlds_checked} "
        f"cliques={stats.cliques_enumerated} "
        f"components={stats.components_total} "
        f"(pruned {stats.components_pruned}) "
        f"elapsed={stats.elapsed_seconds * 1000:.2f}ms"
    )
    return 0 if result.satisfied else 1


def _cmd_worlds(args: argparse.Namespace) -> int:
    from repro.core.possible_worlds import enumerate_possible_worlds

    db = serialize.load(args.database)
    count = 0
    try:
        for world in enumerate_possible_worlds(db, limit=args.limit):
            label = " + ".join(sorted(world)) if world else "(current state)"
            print(f"  R ∪ {{{label}}}" if world else f"  R {label}")
            count += 1
    except ReproError as error:
        print(f"stopped: {error}", file=sys.stderr)
        return 3
    print(f"{count} possible worlds")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.monitor import ConstraintMonitor
    from repro.service.metrics import MetricsRegistry
    from repro.service.pool import PooledDCSatChecker, default_pool_size
    from repro.service.server import ConstraintService
    from repro.service.shard import ShardedMonitor

    db = serialize.load(args.database)
    metrics = MetricsRegistry()
    if args.shards > 1:
        # Split the worker budget evenly across shards; a shard with a
        # single worker gets a plain sequential checker (no pool).
        per_shard_workers = args.pool_size or max(
            1, default_pool_size() // args.shards
        )

        def shard_checker(shard_db):
            if per_shard_workers > 1:
                return PooledDCSatChecker(
                    shard_db,
                    backend=args.backend,
                    assume_nonnegative_sums=args.assume_nonnegative_sums,
                    max_workers=per_shard_workers,
                )
            return DCSatChecker(
                shard_db,
                backend=args.backend,
                assume_nonnegative_sums=args.assume_nonnegative_sums,
            )

        monitor = ShardedMonitor(
            db,
            shards=args.shards,
            checker_factory=shard_checker,
            metrics=metrics,
        )
        detail = f"shards={args.shards}x{per_shard_workers} workers"
    else:
        checker = PooledDCSatChecker(
            db,
            backend=args.backend,
            assume_nonnegative_sums=args.assume_nonnegative_sums,
            max_workers=args.pool_size,
        )
        monitor = ConstraintMonitor(checker)
        detail = f"pool={checker.pool.max_workers} workers"
    service = ConstraintService(
        monitor,
        metrics=metrics,
        queue_limit=args.queue_limit,
        default_deadline=args.deadline,
        drain_timeout=args.drain_timeout,
    )

    def ready(host: str, port: int) -> None:
        print(
            f"repro-service listening on {host}:{port} "
            f"({detail}, queue={args.queue_limit}, deadline={args.deadline}s)",
            flush=True,
        )

    def ready_with_http(host: str, port: int) -> None:
        ready(host, port)
        if service.http_port is not None:
            print(
                f"observability endpoint on "
                f"http://{service.http_host}:{service.http_port} "
                f"(/metrics /healthz /tracez /perfz)",
                flush=True,
            )

    try:
        asyncio.run(
            service.run(
                args.host,
                args.port,
                ready=ready_with_http,
                install_signal_handlers=True,
                http_host=args.http_host,
                http_port=args.http_port,
            )
        )
    finally:
        if isinstance(monitor, ShardedMonitor):
            monitor.close()
        else:
            monitor.checker.close()
    print("repro-service stopped (drained)", flush=True)
    return 0


def _cmd_fabric(args: argparse.Namespace) -> int:
    import asyncio

    from repro.fabric import (
        FabricJournal,
        FabricMonitor,
        FleetSupervisor,
        ShardSpec,
        reap_stale,
    )
    from repro.service.metrics import MetricsRegistry
    from repro.service.server import ConstraintService

    db = serialize.load(args.database)
    metrics = MetricsRegistry()
    spec = ShardSpec(
        db_path=args.database,
        backend=args.backend,
        pool_size=args.shard_pool_size,
        queue_limit=args.queue_limit,
        deadline=args.deadline,
        log_level=args.log_level,
    )

    journal = None
    state_path = None
    if args.recover and not args.journal_dir:
        print("repro fabric: --recover requires --journal-dir", flush=True)
        return 2
    if args.journal_dir:
        had_journal = FabricJournal.exists(args.journal_dir)
        if had_journal and not args.recover:
            print(
                f"repro fabric: {args.journal_dir} already holds a journal; "
                "pass --recover to rebuild from it, or use a fresh "
                "--journal-dir",
                flush=True,
            )
            return 2
        if args.recover and not had_journal:
            print(
                f"repro fabric: no journal at {args.journal_dir} to recover "
                "from",
                flush=True,
            )
            return 2
        journal = FabricJournal(
            args.journal_dir, shards=args.shards, fsync=args.fsync
        )
        state_path = journal.fleet_state_path
        if args.recover:
            # Shard subprocesses orphaned by the crashed router would
            # otherwise hold their ports and data forever.
            reaped = reap_stale(state_path)
            if reaped:
                print(
                    f"repro fabric: reaped {len(reaped)} orphaned shard "
                    f"process(es): {reaped}",
                    flush=True,
                )

    fleet = FleetSupervisor(spec, shards=args.shards, state_path=state_path)
    if args.recover:
        fleet.start()
        monitor = FabricMonitor.recover(
            db,
            fleet,
            journal=journal,
            metrics=metrics,
            journal_max_ops=args.journal_max_ops,
        )
    else:
        monitor = FabricMonitor(
            db,
            fleet,
            metrics=metrics,
            journal=journal,
            journal_max_ops=args.journal_max_ops,
        )
    if args.watchdog_interval > 0:
        monitor.start_watchdog(
            interval=args.watchdog_interval,
            flap_limit=args.watchdog_flap_limit,
            flap_window=args.watchdog_flap_window,
        )
    service = ConstraintService(
        monitor,
        metrics=metrics,
        queue_limit=args.queue_limit,
        default_deadline=args.deadline,
        drain_timeout=args.drain_timeout,
    )

    def ready(host: str, port: int) -> None:
        ports = [
            f"{item['port']}(pid {item['pid']})"
            for item in monitor.fleet_health()["shards"]
        ]
        print(
            f"repro-service listening on {host}:{port} "
            f"(fabric router, {args.shards} shard processes: "
            f"{', '.join(ports)})",
            flush=True,
        )
        if args.journal_dir:
            print(
                f"durable journal at {args.journal_dir} "
                f"(fsync={args.fsync}"
                + (", recovered" if args.recover else "")
                + ")",
                flush=True,
            )
        if service.http_port is not None:
            print(
                f"observability endpoint on "
                f"http://{service.http_host}:{service.http_port} "
                f"(/metrics /healthz /tracez /perfz)",
                flush=True,
            )

    try:
        asyncio.run(
            service.run(
                args.host,
                args.port,
                ready=ready,
                install_signal_handlers=True,
                http_host=args.http_host,
                http_port=args.http_port,
            )
        )
    finally:
        monitor.close()
    print("repro-fabric stopped (drained)", flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Denial-constraint satisfaction over blockchain databases "
            "(Cohen, Rosenthal, Zohar — ICDE 2020 reproduction)"
        ),
    )
    parser.add_argument(
        "--log-level", choices=LEVELS, default="warning",
        help="structured-log threshold for the repro.* loggers",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit one JSON object per log line (trace-id correlated)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="generate a synthetic dataset and serialize it"
    )
    generate.add_argument("--preset", default="D100-S")
    generate.add_argument("--out", required=True)
    generate.add_argument("--contradictions", type=int, default=None)
    generate.add_argument("--seed", type=int, default=None)
    generate.set_defaults(func=_cmd_generate)

    stats = sub.add_parser("stats", help="summarize a serialized database")
    stats.add_argument("database")
    stats.set_defaults(func=_cmd_stats)

    check = sub.add_parser(
        "check", help="check a denial constraint (exit 1 when violable)"
    )
    check.add_argument("database")
    check.add_argument("--query", required=True)
    check.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    check.add_argument(
        "--backend", choices=["memory", "sqlite"], default=None,
        help="storage backend (default: $REPRO_BACKEND or memory)",
    )
    check.add_argument("--no-short-circuit", action="store_true")
    check.add_argument("--assume-nonnegative-sums", action="store_true")
    check.add_argument(
        "--explain", action="store_true",
        help="when violated, print the witnessing assignment and facts",
    )
    check.set_defaults(func=_cmd_check)

    worlds = sub.add_parser("worlds", help="enumerate possible worlds")
    worlds.add_argument("database")
    worlds.add_argument("--limit", type=int, default=256)
    worlds.set_defaults(func=_cmd_worlds)

    bench = sub.add_parser(
        "bench",
        help="benchmark trend reports and the CI regression gate over "
        "BENCH_*.json artifacts",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    add_bench_subcommands(bench_sub)

    serve = sub.add_parser(
        "serve",
        help="run the constraint-checking service over a serialized database",
    )
    serve.add_argument("database")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7411)
    serve.add_argument(
        "--pool-size", type=int, default=None,
        help="solver worker processes (default: CPU count, capped at 8; "
        "1 disables the pool; with --shards, workers per shard)",
    )
    serve.add_argument(
        "--shards", type=int, default=1,
        help="partition registered constraints across this many monitor "
        "shards, routing state changes only to the shards they can "
        "affect (1 keeps the single monitor)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="bounded solve queue; beyond this, requests are rejected "
        "with retry-after (backpressure)",
    )
    serve.add_argument(
        "--deadline", type=float, default=30.0,
        help="default per-request deadline in seconds",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="how long graceful shutdown waits for in-flight checks",
    )
    serve.add_argument(
        "--http-port", type=int, default=None,
        help="also serve GET /metrics, /healthz and /tracez over plain "
        "HTTP on this port (0 picks a free one; default: disabled)",
    )
    serve.add_argument(
        "--http-host", default="127.0.0.1",
        help="bind address for the observability endpoint",
    )
    serve.add_argument(
        "--backend", choices=["memory", "sqlite"], default=None,
        help="storage backend (default: $REPRO_BACKEND or memory)",
    )
    serve.add_argument("--assume-nonnegative-sums", action="store_true")
    serve.set_defaults(func=_cmd_serve)

    fabric = sub.add_parser(
        "fabric",
        help="run a shard fleet: one server subprocess per shard behind "
        "a routing front-end speaking the same wire protocol",
    )
    fabric.add_argument("database")
    fabric.add_argument("--host", default="127.0.0.1")
    fabric.add_argument("--port", type=int, default=7411)
    fabric.add_argument(
        "--shards", type=int, default=2,
        help="shard server subprocesses to spawn and route across",
    )
    fabric.add_argument(
        "--shard-pool-size", type=int, default=1,
        help="solver worker processes per shard subprocess (1 keeps "
        "each shard's solver sequential)",
    )
    fabric.add_argument(
        "--queue-limit", type=int, default=64,
        help="bounded solve queue on the router and on every shard",
    )
    fabric.add_argument(
        "--deadline", type=float, default=30.0,
        help="default per-request deadline in seconds",
    )
    fabric.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="how long graceful shutdown waits for in-flight checks",
    )
    fabric.add_argument(
        "--http-port", type=int, default=None,
        help="also serve GET /metrics, /healthz and /tracez over plain "
        "HTTP on this port (0 picks a free one; default: disabled)",
    )
    fabric.add_argument(
        "--http-host", default="127.0.0.1",
        help="bind address for the observability endpoint",
    )
    fabric.add_argument(
        "--backend", choices=["memory", "sqlite"], default=None,
        help="storage backend for the shard subprocesses",
    )
    fabric.add_argument(
        "--journal-dir", default=None,
        help="directory for the durable write-ahead shard journal; "
        "enables crash recovery with --recover (default: in-memory "
        "journaling only)",
    )
    fabric.add_argument(
        "--fsync", choices=["always", "batch", "never"], default="batch",
        help="journal durability: fsync every record, every few records, "
        "or never (leave it to the OS)",
    )
    fabric.add_argument(
        "--recover", action="store_true",
        help="rebuild router state and shard fleet from --journal-dir "
        "after a crash (reaps orphaned shard processes first)",
    )
    fabric.add_argument(
        "--journal-max-ops", type=int, default=4096,
        help="compact a shard's journal (snapshot + truncate) once it "
        "holds more than this many records; 0 disables compaction",
    )
    fabric.add_argument(
        "--watchdog-interval", type=float, default=2.0,
        help="seconds between liveness-watchdog probes that proactively "
        "respawn dead shards; 0 disables the watchdog",
    )
    fabric.add_argument(
        "--watchdog-flap-limit", type=int, default=5,
        help="crashes within --watchdog-flap-window that circuit-break "
        "a shard instead of respawning it again",
    )
    fabric.add_argument(
        "--watchdog-flap-window", type=float, default=30.0,
        help="sliding window in seconds for flap detection",
    )
    fabric.set_defaults(func=_cmd_fabric)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(level=args.log_level, json_mode=args.log_json)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
