"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-queries`` — the benchmark workloads and their metadata;
* ``compile`` — show the maintenance program compiled for a workload
  query or an ad-hoc SQL string;
* ``run`` — stream a generated dataset through an execution backend and
  report throughput;
* ``serve`` — host several views (workload queries and/or ad-hoc SQL,
  mixed backends) on one :class:`~repro.service.ViewService` over a
  shared stream and report per-view freshness — or, with ``--port``,
  host them on a real HTTP socket (:class:`~repro.net.ViewServer`) for
  remote clients to stream batches into and subscribe to deltas from;
* ``route`` — front a set of already-running shard ``serve --port``
  servers with a :class:`~repro.cluster.ClusterRouter`: one scatter/
  gather HTTP endpoint speaking the same wire protocol, partitioning
  batches across the shards and merging their delta streams;
* ``top`` — poll a server's or router's ``GET /metrics`` and render a
  live per-view rate table (batches/s, deltas/s, maintain p50/p99);
* ``list-backends`` — the registered execution backends;
* ``distributed`` — compile for the simulated cluster and show the
  blocks/jobs plan (optionally execute a weak-scaling sweep);
* ``advise`` — rank partitioning strategies for a query.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness import format_table


def _find_workload_query(name: str, prefer: str | None = None):
    """Look up a workload query by name, trying ``prefer``'s family
    first so colliding names (Q3 exists in both TPC-H and TPC-DS) bind
    to the workload the user asked for.  Returns None when unknown."""
    from repro.workloads import MICRO_QUERIES, TPCDS_QUERIES, TPCH_QUERIES

    families = {
        "tpch": TPCH_QUERIES, "tpcds": TPCDS_QUERIES, "micro": MICRO_QUERIES,
    }
    ordered = [families.pop(prefer)] if prefer in families else []
    ordered.extend(families.values())
    for family in ordered:
        if name in family:
            return family[name]
    return None


def _resolve_spec(args):
    from repro.query.sqlfront import sql_to_spec

    if getattr(args, "sql", None):
        catalog = _demo_catalog()
        return sql_to_spec("ADHOC", args.sql, catalog)
    name = args.query
    spec = _find_workload_query(name, prefer=getattr(args, "workload", None))
    if spec is None:
        raise SystemExit(f"unknown query {name!r}; see 'list-queries'")
    return spec


def _demo_catalog():
    from repro.workloads import MICRO_TABLES, TPCH_TABLES

    catalog = dict(TPCH_TABLES)
    catalog.update(MICRO_TABLES)
    return catalog


def cmd_list_queries(_args) -> int:
    from repro.workloads import MICRO_QUERIES, TPCDS_QUERIES, TPCH_QUERIES

    rows = []
    for family, queries in (
        ("tpch", TPCH_QUERIES),
        ("tpcds", TPCDS_QUERIES),
        ("micro", MICRO_QUERIES),
    ):
        for name in sorted(queries):
            spec = queries[name]
            rows.append(
                (family, name, ",".join(sorted(spec.updatable)))
            )
    print(format_table(("workload", "query", "streamed relations"), rows))
    return 0


def cmd_compile(args) -> int:
    from repro.compiler import apply_batch_preaggregation, compile_query

    spec = _resolve_spec(args)
    program = compile_query(spec.query, spec.name, updatable=spec.updatable)
    if args.preagg:
        program = apply_batch_preaggregation(program)
    print(program.describe())
    print(
        f"\n{program.view_count()} materialized views, "
        f"{program.statement_count()} trigger statements"
    )
    return 0


def cmd_list_backends(_args) -> int:
    from repro.exec import available_backends, backend_info

    rows = [
        (name, backend_info(name).description)
        for name in available_backends()
    ]
    print(format_table(("backend", "description"), rows))
    print(
        "\nany backend can be wrapped as async:<backend> — bounded-queue "
        "ingestion with a batcher thread (see 'run --async')"
    )
    return 0


def _resolve_backend(args, default: str = "rivm-batch") -> str:
    """``--backend``, checked against the registry."""
    from repro.exec import available_backends, is_registered

    backend = args.backend or default
    if not is_registered(backend):
        raise SystemExit(
            f"unknown backend {backend!r}; choose one of: "
            + ", ".join(available_backends())
            + " (each also available as async:<backend>)"
        )
    return backend


def _async_options(args, implied: bool = False) -> dict | None:
    """The ingestion-layer options of ``--async``, or ``None`` when
    async ingestion was not requested (rejecting stray async knobs).

    ``implied`` marks an explicitly async backend name
    (``--backend async:rivm-batch``): the knobs then apply without
    requiring a redundant ``--async``.
    """
    opts = {}
    if args.policy is not None:
        opts["policy"] = args.policy
    if args.max_batch is not None:
        opts["max_batch"] = args.max_batch
    if args.max_delay is not None:
        opts["max_delay_s"] = args.max_delay
    if not args.async_ingest and not implied:
        if opts:
            raise SystemExit(
                "--policy/--max-batch/--max-delay configure the async "
                "ingestion layer; add --async to enable it"
            )
        return None
    return opts


def _add_async_arguments(p) -> None:
    p.add_argument(
        "--async", dest="async_ingest", action="store_true",
        help="wrap the backend(s) in the async ingestion layer "
             "(bounded queue + batcher thread; backend becomes "
             "async:<backend>)",
    )
    p.add_argument(
        "--policy", default=None, choices=["fixed", "delay", "adaptive"],
        help="async batching policy (requires --async; default fixed)",
    )
    p.add_argument(
        "--max-batch", type=int, default=None,
        help="async flush-size target in tuples (requires --async)",
    )
    p.add_argument(
        "--max-delay", type=float, default=None,
        help="async max seconds a queued update may wait before its "
             "flush (requires --async; delay/adaptive policies)",
    )


def _validated_workers(args) -> int | None:
    """``--workers`` must be a positive count; a broken coordinator
    spawn is a far worse error message than this one."""
    if args.workers is not None and args.workers < 1:
        raise SystemExit(
            f"--workers must be at least 1 (got {args.workers}); the "
            "cluster/multiproc backends need at least one worker"
        )
    return args.workers


def cmd_run(args) -> int:
    from repro.harness import measure_throughput

    backend = _resolve_backend(args)
    spec = _resolve_spec(args)
    workload = args.workload
    backend_options = {}
    workers = _validated_workers(args)
    if workers is not None:
        backend_options["n_workers"] = workers
    if args.data_plane is not None:
        backend_options["data_plane"] = args.data_plane
    async_opts = _async_options(args, implied=backend.startswith("async:"))
    if async_opts is not None:
        if not backend.startswith("async:"):
            backend = f"async:{backend}"
        backend_options.update(async_opts)
    result = measure_throughput(
        spec,
        backend,
        None if args.batch_size == 0 else args.batch_size,
        workload=workload,
        sf=args.sf,
        max_batches=args.max_batches,
        use_compiled=not args.interpreted,
        **backend_options,
    )
    print(
        format_table(
            ("query", "strategy", "batch", "tuples", "seconds", "tuples/s"),
            [
                (
                    result.query,
                    result.strategy,
                    result.batch_label,
                    result.n_tuples,
                    round(result.elapsed_s, 3),
                    round(result.throughput),
                )
            ],
        )
    )
    return 0


def cmd_serve(args) -> int:
    from repro.exec import available_backends, is_registered
    from repro.harness import ViewDef, measure_service_throughput

    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    if not backends:
        raise SystemExit("--backends needs at least one backend name")
    for b in backends:
        if not is_registered(b):
            raise SystemExit(
                f"unknown backend {b!r}; choose from: "
                + ", ".join(available_backends())
                + " (each also available as async:<backend>)"
            )

    defs: list[ViewDef] = []
    view_options = {}
    workers = _validated_workers(args)
    if workers is not None:
        view_options["n_workers"] = workers
    if args.data_plane is not None:
        view_options["data_plane"] = args.data_plane
    # --async wraps every backend in the round-robin list; without it,
    # explicitly named async:<backend> entries still imply the knobs —
    # applied only to those views, so a mixed list keeps its
    # synchronous backends synchronous.
    async_opts = _async_options(
        args, implied=any(b.startswith("async:") for b in backends)
    )
    if args.async_ingest:
        backends = [
            b if b.startswith("async:") else f"async:{b}" for b in backends
        ]

    def next_backend() -> str:
        return backends[len(defs) % len(backends)]

    def options_for(backend_name: str) -> dict:
        options = dict(view_options)
        if async_opts and backend_name.startswith("async:"):
            options.update(async_opts)
        return options

    for name in args.views:
        spec = _find_workload_query(name, prefer=args.workload)
        if spec is None:
            raise SystemExit(f"unknown query {name!r}; see 'list-queries'")
        backend = next_backend()
        defs.append(ViewDef(name, spec, backend, options_for(backend)))
    for item in args.sql:
        view_name, sep, sql = item.partition("=")
        if not sep or not view_name or not sql:
            raise SystemExit(
                f"--sql expects NAME=SELECT ..., got {item!r}"
            )
        backend = next_backend()
        defs.append(ViewDef(view_name, sql, backend, options_for(backend)))
    if not defs and args.port is None:
        # Network mode can start empty: clients create views over
        # HTTP, and a --wal-dir server recovers its views from the log.
        raise SystemExit("serve needs at least one view (names or --sql)")
    seen: set[str] = set()
    for d in defs:
        if d.name in seen:
            raise SystemExit(f"duplicate view name {d.name!r}")
        seen.add(d.name)

    if args.port is not None:
        return _serve_network(args, defs)

    result = measure_service_throughput(
        defs,
        args.batch_size,
        workload=args.workload,
        sf=args.sf,
        max_batches=args.max_batches,
        catalog=_demo_catalog(),
    )
    print(
        format_table(
            ("view", "backend", "streams", "batches", "deltas", "tuples"),
            [
                (
                    v.name,
                    v.backend,
                    ",".join(v.streamed),
                    v.batches_applied,
                    v.deltas_delivered,
                    v.snapshot_tuples,
                )
                for v in result.views
            ],
            title=f"serving {len(result.views)} views over one stream",
        )
    )
    for v in result.views:
        if v.starved:
            print(
                f"warning: view {v.name!r} streams "
                f"{','.join(v.streamed)}, which the {args.workload!r} "
                "workload never generates — it will stay empty "
                "(wrong --workload?)",
                file=sys.stderr,
            )
    print(
        f"\n{result.n_tuples} streamed tuples in {result.n_batches} batches; "
        f"{round(result.throughput)} tuples/s shared-stream, "
        f"{round(result.routed_throughput)} tuples/s routed "
        f"({result.routed_tuples} view-deliveries)"
    )
    return 0


def _print_dag(service) -> None:
    """Startup printout of the shared-subplan DAG: which internal
    sub-views exist, who consumes their changefeed, and how many full
    maintenance programs actually run."""
    dump = service.dag_dump()
    if not dump["sharing"]:
        print("sharing: off (every view runs its own full program)",
              flush=True)
        return
    nodes = dump["nodes"]
    if not nodes:
        return  # nothing factored (yet) — keep startup output quiet
    n_views = len(dump["views"])
    print(
        f"shared subplan DAG: {len(nodes)} internal node(s); "
        f"{dump['maintenance_programs']} maintenance program(s) "
        f"for {n_views} view(s)",
        flush=True,
    )
    for node in nodes:
        print(
            f"  node {node['name']} [{node['fingerprint']}] streams "
            + (",".join(node["streams"]) or "-")
            + " -> " + (",".join(node["consumers"]) or "-"),
            flush=True,
        )


def _serve_network(args, defs) -> int:
    """``serve --port``: host the views on a real socket until
    interrupted (or a client POSTs /shutdown)."""
    from repro.net import ViewServer
    from repro.service import ViewService
    from repro.workloads import as_query_spec

    catalog = _demo_catalog()
    tracer = None
    if getattr(args, "trace_out", None):
        from repro.obs import Tracer

        tracer = Tracer(out=args.trace_out)
    sharing = not getattr(args, "no_sharing", False)
    if getattr(args, "wal_dir", None):
        from repro.durability import DurableViewService

        service = DurableViewService(
            args.wal_dir, catalog=catalog, tracer=tracer,
            checkpoint_every=args.checkpoint_every, fsync=args.fsync,
            sharing=sharing,
        )
        rec = service.recovered or {}
        print(
            f"durable: wal-dir={args.wal_dir} fsync={args.fsync} "
            f"checkpoint-every={args.checkpoint_every}",
            flush=True,
        )
        if rec.get("seq"):
            print(
                f"recovered seq={rec['seq']} "
                f"(checkpoint={rec['checkpoint_seq']}, "
                f"replayed={rec['replayed']} batches, "
                f"views={','.join(rec['views']) or '-'})",
                flush=True,
            )
    else:
        service = ViewService(catalog=catalog, tracer=tracer,
                              sharing=sharing)
    for d in defs:
        if d.name in service.views():
            continue  # recovered from the checkpoint/WAL already
        spec = as_query_spec(d.source, name=d.name, catalog=catalog)
        service.create_view(d.name, spec, backend=d.backend, **d.options)
    server_kwargs = {}
    if getattr(args, "stream_queue_limit", None) is not None:
        server_kwargs["stream_queue_limit"] = args.stream_queue_limit
    if getattr(args, "max_batches_per_sec", None) is not None:
        server_kwargs["max_batches_per_sec"] = args.max_batches_per_sec
    server = ViewServer(
        service, host=args.host, port=args.port,
        auth_token=args.auth_token, **server_kwargs,
    )
    if args.auth_token:
        print("auth: bearer token required (all endpoints but /health)",
              flush=True)
    if server.rate_limiter is not None:
        print(
            f"quota: max {args.max_batches_per_sec:g} batches/s per "
            "client on POST /batch (429 + Retry-After beyond it)",
            flush=True,
        )
    print(f"serving {len(defs)} views on {server.url}", flush=True)
    for d in defs:
        handle = service.view(d.name)
        print(
            f"  view {d.name!r} [{d.backend}] streams "
            + ",".join(sorted(handle.relations)),
            flush=True,
        )
    _print_dag(service)
    print(
        "endpoints: GET /health /views /views/<v>/snapshot "
        "/views/<v>/deltas /metrics /trace/recent | POST /views "
        "/batch/<rel> /drain /shutdown | DELETE /views/<v>",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        server.close()
        if hasattr(service, "wal"):  # durable: flush + close the log
            service.close()
    print("server closed", flush=True)
    return 0


def _parse_boundaries(text: str) -> list:
    """``--boundaries 10,20,30`` with numeric literals coerced (string
    cut points stay strings, matching string-typed key columns)."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            out.append(int(piece))
        except ValueError:
            try:
                out.append(float(piece))
            except ValueError:
                out.append(piece)
    return out


def cmd_route(args) -> int:
    """``route``: front already-running shard servers with a router."""
    from repro.cluster import ClusterRouter

    defs = []
    for item in args.sql:
        view_name, sep, sql = item.partition("=")
        if not sep or not view_name or not sql:
            raise SystemExit(f"--sql expects NAME=SELECT ..., got {item!r}")
        defs.append((view_name, sql))

    tracer = None
    if getattr(args, "trace_out", None):
        from repro.obs import Tracer

        tracer = Tracer(out=args.trace_out)
    router = ClusterRouter(
        args.shards,
        _demo_catalog(),
        partition=args.partition,
        boundaries=_parse_boundaries(args.boundaries) if args.boundaries else None,
        host=args.host,
        port=args.port,
        auth_token=args.auth_token,
        shard_token=args.shard_token,
        tracer=tracer,
        **(
            {"stream_queue_limit": args.stream_queue_limit}
            if args.stream_queue_limit is not None
            else {}
        ),
        **(
            {"max_batches_per_sec": args.max_batches_per_sec}
            if getattr(args, "max_batches_per_sec", None) is not None
            else {}
        ),
    )
    n = router.shardmap.n_shards
    if router.rate_limiter is not None:
        print(
            f"quota: max {args.max_batches_per_sec:g} batches/s per "
            "client on POST /batch (429 + Retry-After beyond it)",
            flush=True,
        )
    print(
        f"routing {n} shard group(s): "
        + " ".join(
            "+".join(f"{h}:{p}" for h, p in router.shardmap.endpoints(s))
            for s in range(n)
        ),
        flush=True,
    )
    try:
        for view_name, sql in defs:
            info = router.create_view(
                view_name, sql, backend=args.backend
            )
            kind = "replicated" if info["replicated"] else "partitioned"
            print(
                f"  view {view_name!r} [{info['backend']}] streams "
                + ",".join(info["streams"]) + f" ({kind})",
                flush=True,
            )
        if defs:
            print(
                "placement: "
                + router.shardmap.plan.describe(router.catalog),
                flush=True,
            )
    except Exception as exc:
        router.close()
        raise SystemExit(f"route: creating views failed: {exc}")
    print(f"router serving on {router.url}", flush=True)
    print(
        "endpoints: GET /health /shards /views /views/<v>/snapshot "
        "/views/<v>/deltas /metrics /trace/recent | POST /views "
        "/batch/<rel> /drain /shutdown | DELETE /views/<v>",
        flush=True,
    )
    try:
        router.serve_forever()
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        router.close()
    print("router closed", flush=True)
    return 0


def cmd_top(args) -> int:
    """``top``: live per-view metrics from a ``/metrics`` endpoint."""
    from repro.obs.top import run_top

    url = args.url
    if "://" not in url:
        url = f"http://{url}"
    return run_top(
        url,
        interval=args.interval,
        iterations=args.iterations,
        auth_token=args.auth_token,
        clear=not args.no_clear,
    )


def cmd_distributed(args) -> int:
    from repro.distributed import compile_distributed
    from repro.harness import weak_scaling

    spec = _resolve_spec(args)
    dprog = compile_distributed(
        spec.query, name=spec.name, key_hints=spec.key_hints,
        updatable=spec.updatable, opt_level=args.opt_level,
    )
    print(dprog.describe())
    if args.workers:
        workers = tuple(int(w) for w in args.workers.split(","))
        points = weak_scaling(
            spec, workers=workers, tuples_per_worker=args.tuples_per_worker,
            sf=args.sf, max_batches=args.max_batches,
        )
        print()
        print(
            format_table(
                ("workers", "batch", "median latency (s)", "tuples/s"),
                [
                    (
                        p.n_workers,
                        p.batch_size,
                        round(p.median_latency_s, 4),
                        round(p.throughput_tuples_per_s),
                    )
                    for p in points
                ],
                title=f"weak scaling of {spec.name}",
            )
        )
    return 0


def cmd_advise(args) -> int:
    from repro.compiler import compile_query
    from repro.distributed import PartitioningAdvisor

    spec = _resolve_spec(args)
    program = compile_query(spec.query, spec.name, updatable=spec.updatable)
    advisor = PartitioningAdvisor(program, spec.key_hints)
    rows = [
        (c.candidate, c.transformers, c.jobs, c.stages)
        for c in advisor.rank()
    ]
    print(
        format_table(
            ("strategy", "transformers", "jobs", "stages"),
            rows,
            title=f"partitioning strategies for {spec.name}",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Distributed incremental view maintenance with batch updates "
            "(SIGMOD 2016 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-queries", help="list benchmark queries")

    sub.add_parser("list-backends", help="list registered execution backends")

    p = sub.add_parser("compile", help="show a compiled maintenance program")
    p.add_argument("query", nargs="?", default="Q3")
    p.add_argument("--sql", help="compile an ad-hoc SQL string instead")
    p.add_argument(
        "--preagg", action="store_true",
        help="apply batch pre-aggregation",
    )

    p = sub.add_parser("run", help="measure one engine over a stream")
    p.add_argument("query", nargs="?", default="Q3")
    p.add_argument("--sql")
    p.add_argument("--backend", default=None,
                   help="execution backend (default rivm-batch; "
                        "see 'list-backends')")
    p.add_argument("--interpreted", action="store_true",
                   help="run statements through the interpreted evaluator "
                        "instead of compile-once pipelines")
    p.add_argument("--workers", type=int, default=None,
                   help="worker count for the cluster/multiproc backends")
    p.add_argument("--data-plane", default=None, choices=["pickle", "shm"],
                   help="multiproc payload transport: shared-memory "
                        "blocks (shm, default) or pickled GMRs over "
                        "pipes (pickle)")
    _add_async_arguments(p)
    p.add_argument("--batch-size", type=int, default=100,
                   help="0 = single-tuple execution")
    p.add_argument("--workload", default="tpch",
                   choices=["tpch", "tpcds", "micro"])
    p.add_argument("--sf", type=float, default=0.0005)
    p.add_argument("--max-batches", type=int, default=None)

    p = sub.add_parser(
        "serve",
        help="host several views on one ViewService over a shared stream",
    )
    p.add_argument(
        "views", nargs="*",
        help="workload query names to serve as views, from the chosen "
             "--workload (e.g. Q1 Q6 for tpch; M1 M2 for micro)",
    )
    p.add_argument(
        "--sql", action="append", default=[], metavar="NAME=SELECT...",
        help="add an ad-hoc SQL view over the demo catalog (repeatable; "
             "R/S/T tables stream under --workload micro)",
    )
    p.add_argument(
        "--backends", default="rivm-batch",
        help="comma-separated backends assigned to views round-robin",
    )
    p.add_argument("--workers", type=int, default=None,
                   help="worker count for cluster/multiproc-backed views")
    p.add_argument("--data-plane", default=None, choices=["pickle", "shm"],
                   help="multiproc payload transport: shared-memory "
                        "blocks (shm, default) or pickled GMRs (pickle)")
    _add_async_arguments(p)
    p.add_argument(
        "--port", type=int, default=None,
        help="host the views on a real socket (repro.net.ViewServer) "
             "instead of running the measurement loop; 0 binds an "
             "ephemeral port.  Clients then stream batches and "
             "subscribe to deltas over HTTP (see repro.net.Client)",
    )
    p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for --port (default 127.0.0.1)",
    )
    p.add_argument(
        "--auth-token", default=None,
        help="with --port: require 'Authorization: Bearer <token>' on "
             "every endpoint except GET /health",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="with --port: tee every trace span to this NDJSON file "
             "(the in-memory ring behind GET /trace/recent stays on)",
    )
    p.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="with --port: make the service durable — log every acked "
             "batch to a write-ahead log in DIR, checkpoint "
             "periodically, and recover checkpoint+WAL from DIR on "
             "startup (enables from_seq stream resume)",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=1000, metavar="N",
        help="with --wal-dir: checkpoint state and truncate the WAL "
             "every N batches (0 disables; default 1000)",
    )
    p.add_argument(
        "--fsync", default="interval", choices=["always", "interval", "off"],
        help="with --wal-dir: fsync every record (always), at most "
             "every 50ms (interval, default), or never (off — the OS "
             "page cache decides)",
    )
    p.add_argument(
        "--stream-queue-limit", type=int, default=None, metavar="N",
        help="with --port: per-subscriber stream queue bound; a reader "
             "lagging more than N queued events is dropped with a "
             "typed 'lagging' close and can resume via from_seq "
             "(default 256)",
    )
    p.add_argument(
        "--max-batches-per-sec", type=float, default=None, metavar="N",
        help="with --port: per-client ingest quota on POST /batch — a "
             "token bucket of N batches/second per bearer token (or "
             "peer address); over-quota requests get 429 with a "
             "Retry-After header",
    )
    p.add_argument(
        "--no-sharing", action="store_true",
        help="disable cross-view subplan sharing: every view runs its "
             "own full maintenance program (the default factors "
             "structurally-equal subplans into shared internal "
             "sub-views maintained once)",
    )
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--workload", default="tpch",
                   choices=["tpch", "tpcds", "micro"])
    p.add_argument("--sf", type=float, default=0.0005)
    p.add_argument("--max-batches", type=int, default=None)

    p = sub.add_parser(
        "route",
        help="scatter/gather router over running shard servers",
    )
    p.add_argument(
        "--shards", required=True,
        help="shard topology: comma-separated groups of host:port "
             "endpoints, replicas joined with '+' "
             "(e.g. 'localhost:9001,localhost:9002' or "
             "'a:9001+b:9001,a:9002+b:9002')",
    )
    p.add_argument(
        "--partition", default="hash", choices=["hash", "range"],
        help="how partitioned relations split across shards "
             "(default hash; range needs --boundaries)",
    )
    p.add_argument(
        "--boundaries", default=None,
        help="range mode: the n_shards-1 ascending cut values on the "
             "partition-key column, comma-separated (e.g. 100,200,300)",
    )
    p.add_argument(
        "--sql", action="append", default=[], metavar="NAME=SELECT...",
        help="create this view on every shard at startup (repeatable)",
    )
    p.add_argument(
        "--backend", default="async:rivm-batch",
        help="execution backend for --sql views on the shards "
             "(default async:rivm-batch)",
    )
    p.add_argument("--port", type=int, default=0,
                   help="router bind port (0 = ephemeral)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--auth-token", default=None,
        help="bearer token the router's own clients must present",
    )
    p.add_argument(
        "--shard-token", default=None,
        help="bearer token the router presents to the shard servers "
             "(their 'serve --auth-token' value)",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="tee the router's trace spans to this NDJSON file",
    )
    p.add_argument(
        "--stream-queue-limit", type=int, default=None, metavar="N",
        help="per-subscriber merged-stream queue bound; a lagging "
             "reader is dropped with a typed 'lagging' close "
             "(default 256)",
    )
    p.add_argument(
        "--max-batches-per-sec", type=float, default=None, metavar="N",
        help="per-client ingest quota on POST /batch — a token bucket "
             "of N batches/second per bearer token (or peer address); "
             "over-quota requests get 429 with a Retry-After header",
    )

    p = sub.add_parser(
        "top",
        help="live per-view metrics from a server or router /metrics",
    )
    p.add_argument(
        "url",
        help="base URL (or host:port) of a 'serve --port' server or "
             "'route' router; its GET /metrics is polled",
    )
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls (default 2)")
    p.add_argument("--iterations", type=int, default=None,
                   help="stop after N polls (default: run until ^C)")
    p.add_argument("--auth-token", default=None,
                   help="bearer token for the scraped endpoint")
    p.add_argument("--no-clear", action="store_true",
                   help="append refreshes instead of clearing the screen")

    p = sub.add_parser("distributed", help="distributed plan (and sweep)")
    p.add_argument("query", nargs="?", default="Q3")
    p.add_argument("--sql")
    p.add_argument("--opt-level", type=int, default=3, choices=[0, 1, 2, 3])
    p.add_argument("--workers", help="comma-separated counts, e.g. 2,4,8")
    p.add_argument("--tuples-per-worker", type=int, default=100)
    p.add_argument("--sf", type=float, default=0.002)
    p.add_argument("--max-batches", type=int, default=3)

    p = sub.add_parser("advise", help="rank partitioning strategies")
    p.add_argument("query", nargs="?", default="Q3")
    p.add_argument("--sql")

    return parser


_COMMANDS = {
    "list-queries": cmd_list_queries,
    "list-backends": cmd_list_backends,
    "compile": cmd_compile,
    "run": cmd_run,
    "serve": cmd_serve,
    "route": cmd_route,
    "top": cmd_top,
    "distributed": cmd_distributed,
    "advise": cmd_advise,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
