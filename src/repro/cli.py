"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the built-in scaled dataset analogues with their statistics.
``stats``
    Print the Table II row for a dataset name or a ``.hg`` file.
``sample``
    Sample a random-walk query from a dataset and write it to a file.
``plan``
    Show the execution plan HGMatch generates for a query.
``match``
    Count (or print) the embeddings of a query in a data hypergraph,
    with any engine from the benchmark line-up.
``serve-shard``
    Serve the whole data graph over TCP as one pool member — the
    worker side of
    ``match --executor sockets`` (see ``docs/ARCHITECTURE.md``);
    ``--announce host:port`` registers it with a worker registry.
``serve-match``
    Run the always-on match service: a multiplexed shard pool behind
    a line-JSON TCP front end with admission control, per-query
    deadlines, cancellation and a result cache.
``query``
    Send one query to a running ``serve-match`` daemon.
``supervise``
    Boot and babysit a local shard-worker pool: restart crashed
    workers under a retry budget, optionally run the worker registry
    the pool announces to (``docs/ARCHITECTURE.md``, "Elastic runtime
    & operations").

Data and query files use the native ``.hg`` text format
(:mod:`repro.hypergraph.io`); dataset names refer to the registry in
:mod:`repro.datasets`.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import List, Optional

from . import __version__
from .baselines import BASELINE_NAMES, make_baseline
from .core.engine import HGMatch
from .datasets import DATASET_ORDER, load_dataset
from .errors import ReproError, TimeoutExceeded
from .hypergraph import (
    DEFAULT_INDEX_BACKEND,
    INDEX_BACKENDS,
    Hypergraph,
    dataset_statistics,
)
from .hypergraph.io import (
    check_label_types,
    label_types,
    load_native,
    save_native,
)
from .hypergraph.sampling import query_setting, sample_query


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HGMatch: match-by-hyperedge subhypergraph matching",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list built-in datasets")

    stats = commands.add_parser("stats", help="dataset statistics (Table II row)")
    stats.add_argument("source", help="dataset name or path to a .hg file")

    sample = commands.add_parser("sample", help="sample a random-walk query")
    sample.add_argument("source", help="dataset name or path to a .hg file")
    sample.add_argument("--setting", default="q3", help="q2/q3/q4/q6")
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", required=True, help="output .hg path")

    plan = commands.add_parser("plan", help="show the execution plan")
    plan.add_argument("data", help="dataset name or .hg path")
    plan.add_argument("query", help="query .hg path")
    plan.add_argument(
        "--explain",
        action="store_true",
        help="include cardinality/cost estimates per step",
    )
    plan.add_argument(
        "--index-backend",
        default=None,
        choices=INDEX_BACKENDS,
        help="posting-list representation of the store: merge (sorted "
        "tuples), bitset (row bitmasks) or adaptive (roaring-style "
        f"containers); default REPRO_INDEX_BACKEND or {DEFAULT_INDEX_BACKEND}",
    )

    index = commands.add_parser(
        "index", help="build and save the indexed data hypergraph"
    )
    index.add_argument("source", help="dataset name or .hg path")
    index.add_argument("--out", required=True, help="output .hgstore path")
    match = commands.add_parser("match", help="count embeddings")
    match.add_argument("data", help="dataset name or .hg path")
    match.add_argument("query", help="query .hg path")
    match.add_argument(
        "--engine",
        default="HGMatch",
        choices=("HGMatch",) + BASELINE_NAMES,
    )
    match.add_argument(
        "--index-backend",
        default=None,
        choices=INDEX_BACKENDS,
        help="posting-list representation of the index: merge, bitset or "
        f"adaptive (default REPRO_INDEX_BACKEND or {DEFAULT_INDEX_BACKEND}); "
        "for baseline engines an explicit value enables store-backed IHS "
        "pruning",
    )
    match.add_argument("--workers", type=int, default=1)
    match.add_argument(
        "--executor",
        default=None,
        choices=("threads", "processes", "sockets", "simulated"),
        help="parallel engine for HGMatch: threads (the query's "
        "--workers root parts on a thread pool; GIL-serialised, never "
        "faster than sequential), processes (the same parts on "
        "worker processes over loopback TCP, each holding the whole "
        "graph, or remote servers via --hosts; real multi-core), "
        "sockets (another "
        "spelling of processes) or simulated (the paper's work-stealing "
        "scheduler, discrete-event, virtual time); default is "
        "sequential, or threads when --workers > 1",
    )
    match.add_argument(
        "--shards",
        type=int,
        default=None,
        help="worker count for --executor processes/sockets (each "
        "worker holds the whole graph and runs a root part of the "
        "query; default: --workers)",
    )
    match.add_argument(
        "--hosts",
        default=None,
        help="comma-separated host:port list of running shard-worker "
        "servers (see the serve-shard command); implies --executor "
        "processes and fixes the shard count to the host count",
    )
    match.add_argument("--timeout", type=float, default=None)
    match.add_argument(
        "--print-embeddings", action="store_true", help="print each embedding"
    )
    match.add_argument(
        "--limit", type=int, default=20, help="max embeddings to print"
    )

    serve = commands.add_parser(
        "serve-shard",
        help="serve the whole data graph over TCP as one pool member "
        "(the sockets executor's worker side); the framed protocol is "
        "specified in docs/WIRE_FORMAT.md",
    )
    serve.add_argument("source", help="dataset name or .hg path")
    serve.add_argument(
        "--shard-id", type=int, required=True,
        help="the worker's name: unique within a pool, the slot a "
        "registry or supervisor knows it by (0-based)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (use 0.0.0.0 to accept remote "
        "coordinators; the protocol trusts its peers — bind publicly "
        "only inside a private network)",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port to bind (0 = OS-assigned; the bound port is "
        "printed before serving)",
    )
    serve.add_argument(
        "--index-backend",
        default=None,
        choices=INDEX_BACKENDS,
        help="posting-list representation of the worker's index; must "
        "match the coordinator's (enforced at handshake)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=None,
        help="exit after serving this many coordinator sessions "
        "(default: serve until a peer sends the QUIT frame — "
        "repro.parallel.shutdown_worker((host, port)) — or Ctrl-C)",
    )
    serve.add_argument(
        "--announce", default=None, metavar="HOST:PORT",
        help="register with the worker registry at HOST:PORT (ANNOUNCE "
        "once, then a HEARTBEAT per interval; see docs/WIRE_FORMAT.md "
        "§2.7) so coordinators can discover this worker instead of "
        "being handed its address",
    )
    serve.add_argument(
        "--heartbeat-interval", type=float, default=None,
        help="seconds between registry heartbeats (default 0.5; must "
        "match the registry's expectation — it evicts after "
        "interval x miss-budget of silence)",
    )

    serve_match = commands.add_parser(
        "serve-match",
        help="run the always-on match service: a multiplexed shard "
        "pool behind a line-JSON TCP front end with admission "
        "control, deadlines, cancellation and a result cache "
        "(docs/ARCHITECTURE.md, 'Match service')",
    )
    serve_match.add_argument("source", help="dataset name or .hg path")
    serve_match.add_argument(
        "--shards", type=int, default=2,
        help="worker count of the service's pool (default 2)",
    )
    serve_match.add_argument(
        "--index-backend", default=None, choices=INDEX_BACKENDS,
        help="posting-list representation of the pooled workers",
    )
    serve_match.add_argument(
        "--host", default="127.0.0.1",
        help="interface the service listens on (the protocol trusts "
        "its peers — bind publicly only inside a private network)",
    )
    serve_match.add_argument(
        "--port", type=int, default=0,
        help="TCP port to bind (0 = OS-assigned; the bound address is "
        "printed before serving)",
    )
    serve_match.add_argument(
        "--max-concurrent", type=int, default=4,
        help="queries executing at once over the shared pool (default 4)",
    )
    serve_match.add_argument(
        "--queue-depth", type=int, default=8,
        help="admitted queries (running + backlog) before new ones "
        "are refused with BUSY (default 8)",
    )
    serve_match.add_argument(
        "--deadline", type=float, default=None,
        help="default per-query deadline in seconds (requests may "
        "override; default: none)",
    )
    serve_match.add_argument(
        "--cache-capacity", type=int, default=128,
        help="entries in the LRU result cache (default 128)",
    )
    serve_match.add_argument(
        "--duration", type=float, default=None,
        help="serve for this many seconds then drain and exit "
        "(default: until SIGTERM/Ctrl-C; smoke tests use a short "
        "duration)",
    )
    serve_match.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="seconds granted to in-flight queries at shutdown before "
        "they are cancelled (default 10)",
    )
    serve_match.add_argument(
        "--journal-dir", default=None,
        help="directory for the durable mutation journal: committed "
        "batches are logged inside the commit barrier and the service "
        "recovers graph + standing queries from it on restart "
        "(default: $REPRO_JOURNAL_DIR, else no journal)",
    )
    serve_match.add_argument(
        "--journal-fsync", default=None, choices=("always", "never"),
        help="fsync policy of the journal: 'always' fsyncs every "
        "commit (crash-safe), 'never' leaves flushing to the OS "
        "(default: $REPRO_JOURNAL_FSYNC, else 'always')",
    )
    serve_match.add_argument(
        "--snapshot-interval", type=int, default=None,
        help="journalled batches between snapshots (recovery replays "
        "at most this many; default: "
        "$REPRO_JOURNAL_SNAPSHOT_INTERVAL, else 64)",
    )

    query_cmd = commands.add_parser(
        "query",
        help="send one query to a running serve-match daemon and "
        "print the embedding count",
    )
    query_cmd.add_argument("query", help="query .hg path")
    query_cmd.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="address of the serve-match daemon",
    )
    query_cmd.add_argument(
        "--deadline", type=float, default=None,
        help="per-query deadline in seconds",
    )
    query_cmd.add_argument(
        "--timeout", type=float, default=30.0,
        help="client-side socket timeout in seconds (default 30)",
    )

    supervise = commands.add_parser(
        "supervise",
        help="boot and babysit a local shard-worker pool: restart "
        "crashed workers under a jittered-backoff retry budget, "
        "degrade to fewer workers when a slot exhausts it "
        "(docs/ARCHITECTURE.md, 'Elastic runtime & operations')",
    )
    supervise.add_argument("source", help="dataset name or .hg path")
    supervise.add_argument(
        "--num-shards", type=int, required=True,
        help="worker count of the supervised pool",
    )
    supervise.add_argument(
        "--index-backend", default=None, choices=INDEX_BACKENDS,
        help="posting-list representation the workers build",
    )
    supervise.add_argument(
        "--restart-budget", type=int, default=3,
        help="restarts granted to each worker slot before it is "
        "abandoned and the pool degrades (default 3)",
    )
    supervise.add_argument(
        "--registry", action="store_true",
        help="also run a worker registry and have the supervised "
        "workers announce to it (its address is printed; hand it to "
        "ShardPool.from_registry or watch it for evictions)",
    )
    supervise.add_argument(
        "--announce", default=None, metavar="HOST:PORT",
        help="have the supervised workers announce to an *external* "
        "registry at HOST:PORT instead of --registry's embedded one",
    )
    supervise.add_argument(
        "--heartbeat-interval", type=float, default=None,
        help="seconds between worker registry heartbeats (default 0.5)",
    )
    supervise.add_argument(
        "--duration", type=float, default=None,
        help="supervise for this many seconds, then exit cleanly "
        "(default: until Ctrl-C; smoke tests use a short duration)",
    )
    supervise.add_argument(
        "--poll-interval", type=float, default=0.2,
        help="seconds between supervision health checks (default 0.2)",
    )
    return parser


def _load_graph(source: str) -> Hypergraph:
    if source in DATASET_ORDER:
        return load_dataset(source)
    return load_native(source)


def _load_query(path: str, data: Hypergraph) -> Hypergraph:
    """The query file at ``path``, refused (a ``QueryError``) when its
    label type is not ``data``'s."""
    query = load_native(path)
    check_label_types(query, label_types(data))
    return query


def _cmd_datasets(out) -> int:
    for name in DATASET_ORDER:
        stats = dataset_statistics(name, load_dataset(name))
        out.write(
            f"{name}: |V|={stats.num_vertices} |E|={stats.num_edges} "
            f"|Σ|={stats.num_labels} a={stats.average_arity:.1f} "
            f"amax={stats.max_arity}\n"
        )
    return 0


def _cmd_stats(args, out) -> int:
    graph = _load_graph(args.source)
    stats = dataset_statistics(args.source, graph)
    for key, value in stats.as_row().items():
        out.write(f"{key}: {value}\n")
    return 0


def _cmd_sample(args, out) -> int:
    graph = _load_graph(args.source)
    setting = query_setting(args.setting)
    query = sample_query(graph, setting, random.Random(args.seed))
    save_native(query, args.out)
    out.write(
        f"sampled {setting.name} query (|V|={query.num_vertices}, "
        f"|E|={query.num_edges}) -> {args.out}\n"
    )
    return 0


def _cmd_plan(args, out) -> int:
    data = _load_graph(args.data)
    query = _load_query(args.query, data)
    engine = HGMatch(data, index_backend=args.index_backend)
    if args.explain:
        from .core.estimation import explain

        out.write(explain(engine, query) + "\n")
    else:
        out.write(engine.plan(query).describe() + "\n")
    return 0


def _cmd_index(args, out) -> int:
    from .hypergraph import PartitionedStore, save_store

    graph = _load_graph(args.source)
    store = PartitionedStore(graph)
    save_store(store, args.out)
    # The .hgstore format is backend-neutral posting lists; the reader
    # picks a representation via load_store(..., index_backend=...).
    out.write(
        f"indexed {graph.num_edges} hyperedges into "
        f"{store.num_partitions()} partitions -> {args.out}\n"
    )
    return 0


def _cmd_match(args, out) -> int:
    data = _load_graph(args.data)
    query = _load_query(args.query, data)
    started = time.perf_counter()
    try:
        if args.engine == "HGMatch":
            executor = args.executor
            shards = args.shards
            hosts = args.hosts
            sharded = ("processes", "sockets")  # two spellings, one pool
            named = [
                flag for flag, value in (
                    ("--hosts", hosts), ("--shards", shards),
                ) if value is not None
            ]
            if named and executor is None:
                # Naming workers or a worker count without naming an
                # engine means the pooled one.
                executor = "processes"
            if named and executor not in sharded:
                # These are the shard pool's concepts; silently running
                # threads/simulated without them would misreport.
                out.write(
                    f"error: {named[0]} applies to --executor processes "
                    f"or sockets, not {executor!r}\n"
                )
                return 1
            addresses = None
            if hosts is not None:
                from .parallel.transport import parse_address

                addresses = [
                    parse_address(entry.strip())
                    for entry in hosts.split(",")
                    if entry.strip()
                ]
                if not addresses:
                    out.write("error: --hosts lists no addresses\n")
                    return 1
            elif shards is None and executor in sharded:
                shards = max(args.workers, 1)
            engine = HGMatch(
                data,
                index_backend=args.index_backend,
                shards=shards if shards is not None else 1,
            )
            try:
                if executor in sharded:
                    # Pin the pool's layout before count() lazily builds
                    # a default local cluster; the arithmetic is the
                    # pool's (a typed error, printed by main()).
                    shards = engine.pool(shards, hosts=addresses).num_shards
                if args.print_embeddings:
                    if executor is not None:
                        # match() streams from the sequential loop;
                        # accepting the flag and silently ignoring it
                        # would misreport what ran.
                        out.write(
                            "error: --print-embeddings streams the "
                            "sequential engine; drop --executor/--shards\n"
                        )
                        return 1
                    count = 0
                    for embedding in engine.match(
                        query, time_budget=args.timeout
                    ):
                        if count < args.limit:
                            out.write(f"{embedding.hyperedge_mapping()}\n")
                        count += 1
                else:
                    count = engine.count(
                        query,
                        workers=args.workers,
                        time_budget=args.timeout,
                        executor=executor,
                        shards=shards,
                    )
            finally:
                engine.close()
        else:
            if (
                args.executor is not None
                or args.shards is not None
                or args.hosts is not None
            ):
                out.write(
                    "error: --executor/--shards/--hosts apply to the "
                    "HGMatch engine only\n"
                )
                return 1
            store = None
            if args.index_backend is not None:
                # An explicit backend opts the baseline's IHS filter into
                # posting-mask pruning over a partitioned store.
                from .hypergraph import PartitionedStore

                store = PartitionedStore(data, index_backend=args.index_backend)
            matcher = make_baseline(args.engine, data, store=store)
            count = len(matcher.hyperedge_embeddings(query, time_budget=args.timeout))
    except TimeoutExceeded:
        out.write(f"TIMEOUT after {args.timeout}s\n")
        return 2
    elapsed = time.perf_counter() - started
    out.write(f"{count} embeddings in {elapsed:.4f}s ({args.engine})\n")
    return 0


def _cmd_serve_shard(args, out) -> int:
    from .parallel.transport import parse_address
    from .parallel.worker import ShardWorker

    if args.shard_id < 0:
        out.write(f"error: --shard-id must be >= 0, got {args.shard_id}\n")
        return 1
    announce = (
        parse_address(args.announce)
        if args.announce is not None
        else None
    )
    graph = _load_graph(args.source)
    worker = ShardWorker(
        graph,
        args.shard_id,
        index_backend=args.index_backend,
        host=args.host,
        port=args.port,
        announce=announce,
        heartbeat_interval=args.heartbeat_interval,
    )
    host, port = worker.bind()
    announce_note = (
        f", announcing to {announce[0]}:{announce[1]}"
        if announce is not None
        else ""
    )
    out.write(
        f"serving shard {args.shard_id} of {args.source} "
        f"({worker.index_backend} backend, "
        f"{worker.store.index_size_entries()} posting entries) on "
        f"{host}:{port}{announce_note}\n"
    )
    if hasattr(out, "flush"):
        out.flush()  # wrappers read the port line before connecting
    try:
        worker.serve_forever(max_sessions=args.max_sessions)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        worker.close()
    return 0


def _cmd_serve_match(args, out) -> int:
    from .hypergraph.journal import MutationJournal, default_journal_dir
    from .service import MatchService
    from .service.daemon import run_daemon

    journal = None
    recovered = None
    journal_dir = args.journal_dir
    if journal_dir is None:
        journal_dir = default_journal_dir()
    if journal_dir is not None:
        journal = MutationJournal(
            journal_dir,
            fsync=args.journal_fsync,
            snapshot_interval=args.snapshot_interval,
        )
        recovered = journal.recover()
    if recovered is not None:
        graph = recovered.graph
    else:
        graph = _load_graph(args.source)
    engine = HGMatch(graph, index_backend=args.index_backend)
    daemon = None
    try:
        # Inside the try: a constructor that refuses its arguments (the
        # typed errors of MatchService and ShardPool, printed by main)
        # must leave no worker and no journal handle behind either.
        service = MatchService(
            engine,
            shards=args.shards,
            max_concurrent=args.max_concurrent,
            queue_depth=args.queue_depth,
            cache_capacity=args.cache_capacity,
            default_deadline=args.deadline,
            journal=journal,
        )
        restored = service.restore_standing()
        if recovered is not None:
            out.write(
                f"recovered graph at version {recovered.version} "
                f"(snapshot {recovered.snapshot_version} + "
                f"{recovered.replayed} replayed batch(es), "
                f"{restored} standing quer(ies)) from {journal_dir}\n"
            )

        def ready(address) -> None:
            host, port = address
            out.write(
                f"match service for {args.source} "
                f"({engine.index_backend} backend, {args.shards} workers, "
                f"depth {args.queue_depth}) on {host}:{port}\n"
            )
            if hasattr(out, "flush"):
                out.flush()  # wrappers read the address line first

        try:
            daemon = run_daemon(
                service,
                host=args.host,
                port=args.port,
                duration=args.duration,
                drain_timeout=args.drain_timeout,
                ready=ready,
            )
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            service.drain(args.drain_timeout)
    finally:
        engine.close()
    if daemon is not None:
        out.write(f"drained after {daemon.queries_served} query(ies)\n")
    return 0


def _cmd_query(args, out) -> int:
    from .parallel.transport import parse_address
    from .service.client import MatchClient

    host, port = parse_address(args.connect)
    query = load_native(args.query)
    client = MatchClient(host, port, timeout=args.timeout)
    try:
        outcome = client.query(query, deadline=args.deadline)
    except TimeoutExceeded as exc:
        out.write(f"deadline exceeded: {exc}\n")
        return 1
    cached_note = " (cached)" if outcome.cached else ""
    out.write(
        f"{outcome.embeddings} embeddings in "
        f"{outcome.elapsed:.3f}s{cached_note}\n"
    )
    return 0


def _cmd_supervise(args, out) -> int:
    from .parallel.registry import WorkerRegistry
    from .parallel.supervisor import WorkerSupervisor
    from .parallel.transport import parse_address

    if args.num_shards < 1:
        out.write("error: --num-shards must be >= 1\n")
        return 1
    if args.restart_budget < 0:
        out.write("error: --restart-budget must be >= 0\n")
        return 1
    if args.registry and args.announce is not None:
        out.write(
            "error: --registry and --announce are mutually exclusive "
            "(embedded vs external registry)\n"
        )
        return 1
    graph = _load_graph(args.source)
    registry = None
    announce = None
    if args.registry:
        registry = WorkerRegistry(
            heartbeat_interval=args.heartbeat_interval
        )
        announce = registry.start()
    elif args.announce is not None:
        announce = parse_address(args.announce)
    try:
        supervisor = WorkerSupervisor(
            graph,
            args.num_shards,
            index_backend=args.index_backend,
            announce=announce,
            heartbeat_interval=args.heartbeat_interval,
            restart_budget=args.restart_budget,
        )
        with supervisor:
            if registry is not None:
                host, port = registry.address
                out.write(f"registry on {host}:{port}\n")
            for slot in supervisor.status():
                host, port = slot.address
                out.write(
                    f"shard {slot.shard_id} on {host}:{port} "
                    f"(pid {slot.pid})\n"
                )
            out.write(
                f"supervising {args.num_shards} worker(s); restart "
                f"budget {args.restart_budget} per slot\n"
            )
            if hasattr(out, "flush"):
                out.flush()  # wrappers read the roster before poking us
            restarts = supervisor.run_forever(
                duration=args.duration,
                poll_interval=args.poll_interval,
            )
            live = supervisor.live_count()
            out.write(
                f"supervision ended: {restarts} restart(s), "
                f"{live} worker(s) live\n"
            )
    finally:
        if registry is not None:
            registry.close()
    return 0


def main(argv: "Optional[List[str]]" = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "datasets":
            return _cmd_datasets(out)
        if args.command == "stats":
            return _cmd_stats(args, out)
        if args.command == "sample":
            return _cmd_sample(args, out)
        if args.command == "plan":
            return _cmd_plan(args, out)
        if args.command == "index":
            return _cmd_index(args, out)
        if args.command == "match":
            return _cmd_match(args, out)
        if args.command == "serve-shard":
            return _cmd_serve_shard(args, out)
        if args.command == "serve-match":
            return _cmd_serve_match(args, out)
        if args.command == "query":
            return _cmd_query(args, out)
        if args.command == "supervise":
            return _cmd_supervise(args, out)
    except (ReproError, OSError) as exc:
        out.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
