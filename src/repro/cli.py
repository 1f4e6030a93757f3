"""Command-line interface: ``python -m repro <command>``.

Gives the reproduction an operational surface over CSV extracts in the
Chambers-of-Commerce layout (companies.csv / persons.csv /
shareholdings.csv):

* ``generate``    — write a synthetic extract (+ planted ground truth);
* ``profile``     — the Section 2 statistical profile of an extract;
* ``control``     — company-control pairs (Definition 2.3);
* ``close-links`` — close-link pairs (Definition 2.6);
* ``family``      — detect personal links (Algorithm 7);
* ``ubo``         — ultimate beneficial owners per company;
* ``augment``     — run the whole pipeline, write the augmented KG JSON;
* ``reason``      — run a Vadalog program file against the extract;
* ``export-dot``  — render the (optionally augmented) graph as Graphviz DOT;
* ``serve``       — the asyncio HTTP reasoning API over versioned snapshots
  (``--tenant`` names the seeded tenant; ``--store`` restarts re-attach
  every tenant the store holds);
* ``store``       — inspect (``versions``) and maintain (``gc``) a
  durable frame store.

Every command exits nonzero with a one-line ``error: ...`` message (no
traceback) on bad input paths, unreadable extracts, malformed programs,
out-of-range thresholds or counts, or unusable ports.

Each handler imports what its command runs, so a process loads only the
components it uses (``generate`` needs neither numpy nor scipy,
``augment`` no scipy).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path


class CLIError(Exception):
    """A user-facing error: printed as one line, exit status 2."""


def _reported_errors() -> tuple[type[BaseException], ...]:
    """What ``main`` turns into one ``error:`` line.  Evaluated by its
    ``except`` clause, i.e. only once a command has raised."""
    from .datalog.errors import DatalogError
    from .graph.property_graph import GraphError

    return (CLIError, OSError, json.JSONDecodeError, DatalogError, GraphError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Vada-Link reproduction: reasoning over company ownership graphs",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print a telemetry span tree (per-stage / per-stratum / per-rule "
             "timings) to stderr after the command",
    )
    parser.add_argument(
        "--profile-json", type=Path, metavar="PATH",
        help="dump the telemetry span tree as JSON to PATH",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="write a synthetic CSV extract")
    generate.add_argument("directory", type=Path)
    generate.add_argument("--persons", type=int, default=500)
    generate.add_argument("--companies", type=int, default=400)
    generate.add_argument("--density", default="sparse",
                          choices=("sparse", "normal", "dense", "superdense"))
    generate.add_argument("--seed", type=int, default=0)

    profile_cmd = commands.add_parser("profile", help="Section 2 statistics of an extract")
    profile_cmd.add_argument("directory", type=Path)

    control = commands.add_parser("control", help="company control pairs")
    control.add_argument("directory", type=Path)
    control.add_argument("--source", help="only pairs controlled by this node id")
    control.add_argument("--threshold", type=float, default=0.5)

    close = commands.add_parser("close-links", help="close-link pairs")
    close.add_argument("directory", type=Path)
    close.add_argument("--threshold", type=float, default=0.2)

    family = commands.add_parser("family", help="detect personal links")
    family.add_argument("directory", type=Path)
    family.add_argument("--truth", type=Path,
                        help="ground-truth JSON to train the classifiers on")
    family.add_argument("--clusters", type=int, default=1,
                        help="first-level clusters (1 disables embeddings)")

    ubo = commands.add_parser("ubo", help="ultimate beneficial owners")
    ubo.add_argument("directory", type=Path)
    ubo.add_argument("--threshold", type=float, default=0.25)

    augment = commands.add_parser("augment", help="full pipeline -> augmented KG JSON")
    augment.add_argument("directory", type=Path)
    augment.add_argument("output", type=Path)
    augment.add_argument("--clusters", type=int, default=1)

    reason = commands.add_parser("reason", help="run a Vadalog program file")
    reason.add_argument("directory", type=Path)
    reason.add_argument("program", type=Path)
    reason.add_argument("--query", required=True,
                        help="predicate whose derived facts to print")

    export = commands.add_parser("export-dot",
                                 help="render the (optionally augmented) graph as Graphviz DOT")
    export.add_argument("directory", type=Path)
    export.add_argument("output", type=Path)
    export.add_argument("--augment", action="store_true",
                        help="run the pipeline first and include predicted edges")

    serve = commands.add_parser(
        "serve", help="asyncio HTTP reasoning API over versioned KG snapshots"
    )
    serve.add_argument("directory", type=Path, nargs="?",
                       help="CSV extract to build from (optional when "
                            "--store has a published snapshot to attach)")
    serve.add_argument("--store", type=Path, metavar="DIR",
                       help="durable frame store: with an extract, every "
                            "published version is also persisted here; "
                            "alone, boot by mmap-attaching the latest "
                            "stored version instead of rebuilding")
    serve.add_argument("--version", type=int, default=None,
                       help="attach this stored version of --tenant instead "
                            "of the latest (rollback; requires --store)")
    serve.add_argument("--tenant", default="default",
                       help="tenant the extract (or pinned --version) seeds; "
                            "un-prefixed routes alias to it "
                            "(default: %(default)s)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8707,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--clusters", type=int, default=1,
                       help="first-level clusters (>1 enables the warm "
                            "incremental embedder between snapshots)")
    serve.add_argument("--no-augment", action="store_true",
                       help="skip personal-link detection; serve ownership "
                            "analytics over the extensional graph only")
    serve.add_argument("--workers", type=int, default=1,
                       help="serving processes; >1 runs SO_REUSEPORT workers "
                            "over one shared-memory snapshot segment")
    serve.add_argument("--max-concurrency", type=int, default=32)
    serve.add_argument("--max-queue", type=int, default=128)
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       help="per-request deadline in seconds (exceeded -> 504)")
    serve.add_argument("--cache-capacity", type=int, default=1024)

    store_cmd = commands.add_parser(
        "store", help="inspect and maintain a durable frame store"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_versions = store_sub.add_parser(
        "versions", help="list every catalog version (tenant,version,state,...)"
    )
    store_versions.add_argument("directory", type=Path)
    store_versions.add_argument("--tenant", default=None,
                                help="restrict to one tenant")
    store_gc = store_sub.add_parser(
        "gc", help="prune old published versions (never the latest published "
                   "or staging)"
    )
    store_gc.add_argument("directory", type=Path)
    store_gc.add_argument("--keep", type=int, required=True,
                          help="published versions to keep per tenant (>= 1)")
    store_gc.add_argument("--tenant", default=None,
                          help="restrict pruning to one tenant")
    return parser


# ----------------------------------------------------------------------
# command implementations
# ----------------------------------------------------------------------

def _tracer_of(args: argparse.Namespace):
    """The live tracer installed by main(), or the no-op tracer."""
    tracer = getattr(args, "tracer", None)
    if tracer is None:
        from .telemetry import NULL_TRACER

        return NULL_TRACER
    return tracer


def _read_extract(directory: Path):
    from .graph.io import read_company_csv

    return read_company_csv(directory)


def _trained_classifiers(graph, truth_path: Path):
    """Link classifiers trained on the planted links in *truth_path*."""
    from .linkage.training import persons_of, train_classifiers

    with open(truth_path) as handle:
        links = {tuple(link) for link in json.load(handle).get("links", [])}
    return train_classifiers(persons_of(graph), links)


def _pipeline(args: argparse.Namespace, graph, clusters: int, classifiers=None):
    from .core.pipeline import PipelineConfig, ReasoningPipeline

    config = PipelineConfig(first_level_clusters=clusters, use_embeddings=clusters > 1)
    return ReasoningPipeline(
        graph, config, classifiers=classifiers, tracer=_tracer_of(args)
    )


def _check_threshold(value: float) -> None:
    if not 0.0 <= value <= 1.0:  # also false for nan
        raise CLIError(f"--threshold must be in [0, 1], got {value}")


def _check_clusters(value: int) -> None:
    if value < 1:
        raise CLIError(f"--clusters must be >= 1, got {value}")


def _generate(args: argparse.Namespace) -> int:
    from .datagen.company_generator import CompanySpec, generate_company_graph
    from .graph.io import write_company_csv

    if args.persons < 0 or args.companies < 0:
        raise CLIError(
            f"--persons and --companies must be >= 0, "
            f"got {args.persons} and {args.companies}"
        )
    spec = CompanySpec(
        persons=args.persons, companies=args.companies,
        density=args.density, seed=args.seed,
    )
    graph, truth = generate_company_graph(spec)
    write_company_csv(graph, args.directory)
    truth_path = args.directory / "ground_truth.json"
    with open(truth_path, "w") as handle:
        json.dump(
            {
                "families": {k: sorted(v) for k, v in truth.families.items()},
                "links": sorted(list(link) for link in truth.links),
            },
            handle,
        )
    print(f"wrote {graph.node_count} nodes / {graph.edge_count} edges to {args.directory}")
    print(f"ground truth ({len(truth.links)} links) in {truth_path}")
    return 0


def _profile(args: argparse.Namespace) -> int:
    from .graph.metrics import profile

    graph = _read_extract(args.directory)
    for name, value in profile(graph).as_rows():
        print(f"{name:<30}{value:>18}")
    return 0


def _control(args: argparse.Namespace) -> int:
    from .ownership.control import control_closure, controlled_by

    _check_threshold(args.threshold)
    graph = _read_extract(args.directory)
    with _tracer_of(args).span("control.procedural") as span:
        if args.source:
            pairs = sorted(
                (args.source, target)
                for target in controlled_by(graph, args.source, args.threshold)
            )
        else:
            pairs = sorted(control_closure(graph, threshold=args.threshold))
        span.set("pairs", len(pairs))
    for controller, controlled in pairs:
        print(f"{controller},{controlled}")
    print(f"# {len(pairs)} control pairs", file=sys.stderr)
    return 0


def _close_links(args: argparse.Namespace) -> int:
    from .ownership.close_links import close_link_pairs

    _check_threshold(args.threshold)
    graph = _read_extract(args.directory)
    with _tracer_of(args).span("close_links.procedural") as span:
        pairs = sorted(close_link_pairs(graph, args.threshold))
        span.set("pairs", len(pairs))
    for x, y in pairs:
        if x <= y:  # print the symmetric relation once
            print(f"{x},{y}")
    print(f"# {len(pairs)} ordered close-link pairs", file=sys.stderr)
    return 0


def _family(args: argparse.Namespace) -> int:
    _check_clusters(args.clusters)
    graph = _read_extract(args.directory)
    classifiers = _trained_classifiers(graph, args.truth) if args.truth else None
    links = sorted(_pipeline(args, graph, args.clusters, classifiers).family_links())
    for x, y, link_class in links:
        print(f"{x},{y},{link_class}")
    print(f"# {len(links)} personal links", file=sys.stderr)
    return 0


def _ubo(args: argparse.Namespace) -> int:
    from .ownership.ubo import all_beneficial_owners

    _check_threshold(args.threshold)
    graph = _read_extract(args.directory)
    with _tracer_of(args).span("ubo") as span:
        owners_by_company = all_beneficial_owners(graph, args.threshold)
        span.set("companies", len(owners_by_company))
    for company in sorted(owners_by_company, key=str):
        for owner in owners_by_company[company]:
            print(f"{company},{owner.person},{owner.integrated_share:.4f},{owner.basis}")
    print(f"# {sum(len(v) for v in owners_by_company.values())} beneficial owners "
          f"across {len(owners_by_company)} companies", file=sys.stderr)
    return 0


def _augment(args: argparse.Namespace) -> int:
    from .graph.io import save_json

    _check_clusters(args.clusters)
    args.output.parent.mkdir(parents=True, exist_ok=True)  # fail before the work
    graph = _read_extract(args.directory)
    truth_path = args.directory / "ground_truth.json"
    classifiers = _trained_classifiers(graph, truth_path) if truth_path.exists() else None
    augmented = _pipeline(args, graph, args.clusters, classifiers).augment()
    save_json(augmented, args.output)
    print(f"augmented graph: {augmented.edge_count - graph.edge_count} new edges "
          f"-> {args.output}")
    return 0


def _export_dot(args: argparse.Namespace) -> int:
    from .graph.dot import save_dot

    args.output.parent.mkdir(parents=True, exist_ok=True)  # fail before the work
    graph = _read_extract(args.directory)
    if args.augment:
        graph = _pipeline(args, graph, clusters=1).augment()
    save_dot(graph, args.output)
    print(f"wrote DOT ({graph.node_count} nodes, {graph.edge_count} edges) "
          f"to {args.output}")
    return 0


def _reason(args: argparse.Namespace) -> int:
    from .datalog.engine import Engine
    from .datalog.parser import parse_program
    from .datalog.slicing import slice_program
    from .graph.relational import to_facts

    graph = _read_extract(args.directory)
    # derive only what the queried relation depends on
    program = slice_program(parse_program(args.program.read_text()), [args.query])
    engine = Engine(program, to_facts(graph), tracer=_tracer_of(args))
    engine.run()
    rows = engine.query(args.query)
    for values in rows:
        print(",".join(str(v) for v in values))
    print(f"# {len(rows)} facts of {args.query}", file=sys.stderr)
    return 0


#: sanity ceiling for --workers; far above any core count this serves on
MAX_WORKERS = 64


def _import_asyncio_without_ssl():
    """``import asyncio`` with the ``ssl`` module blocked, unless it is
    already loaded.

    asyncio only *tries* to import ``ssl`` (for TLS transports, which
    ``serve`` has no option for) and runs without it as on a Python built
    without OpenSSL; importing it would map libssl and libcrypto into the
    serving process and every worker forked from it.  A ``None`` entry in
    ``sys.modules`` makes that import fail; it is removed again at once,
    so a later ``import ssl`` works as usual."""
    blocked = "ssl" not in sys.modules
    if blocked:
        sys.modules["ssl"] = None
    try:
        import asyncio
    finally:
        if blocked:
            del sys.modules["ssl"]
    return asyncio


def _serve(args: argparse.Namespace) -> int:
    asyncio = _import_asyncio_without_ssl()
    import signal

    from .service import ReasoningService, ServiceConfig, TenantError, validate_tenant

    try:
        validate_tenant(args.tenant)
    except TenantError as exc:
        raise CLIError(str(exc)) from exc
    if not 0 <= args.port <= 65535:
        raise CLIError(f"port must be in 0..65535, got {args.port}")
    if not 1 <= args.workers <= MAX_WORKERS:
        raise CLIError(f"--workers must be in 1..{MAX_WORKERS}, got {args.workers}")
    _check_clusters(args.clusters)
    if args.max_concurrency < 1:
        raise CLIError(f"--max-concurrency must be >= 1, got {args.max_concurrency}")
    if args.max_queue < 0:
        raise CLIError(f"--max-queue must be >= 0, got {args.max_queue}")
    if not 0.0 < args.request_timeout < float("inf"):  # also false for nan
        raise CLIError(
            f"--request-timeout must be a finite number of seconds > 0, "
            f"got {args.request_timeout}"
        )
    if args.cache_capacity < 1:
        raise CLIError(f"--cache-capacity must be >= 1, got {args.cache_capacity}")
    if args.version is not None and args.store is None:
        raise CLIError("--version requires --store")
    if args.version is not None and args.directory is not None:
        raise CLIError("--version attaches a stored snapshot; "
                       "drop the extract directory argument")
    if args.directory is None and args.store is None:
        raise CLIError("serve needs an extract directory or --store")
    if args.directory is not None and not args.directory.is_dir():
        raise CLIError(f"extract directory not found: {args.directory}")
    store = _serve_store(args)
    try:
        registry = _serve_registry(args, store)
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            max_concurrency=args.max_concurrency,
            max_queue=args.max_queue,
            request_timeout_s=args.request_timeout,
            cache_capacity=args.cache_capacity,
        )

        def ready(port: int, fleet: str = "") -> None:
            snapshot = registry.get(args.tenant).manager.current
            origin = (
                f"built in {snapshot.built_s:.2f}s" if args.directory is not None
                else f"attached from {args.store}, {len(registry)} tenant(s)"
            )
            print(
                f"serving snapshot v{snapshot.version} "
                f"({snapshot.graph.node_count} nodes, {snapshot.graph.edge_count} edges, "
                f"{origin}) on http://{args.host}:{port}{fleet}",
                flush=True,
            )

        if args.workers > 1:
            return _serve_pool(args, registry, config, ready)
        service = ReasoningService(
            config=config, tracer=_tracer_of(args), registry=registry
        )
        # SIGTERM shuts down the way Ctrl-C does, so the store below closes;
        # SIGINT too, which a shell's background job inherits as ignored
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, signal.default_int_handler)
        try:
            asyncio.run(service.run(ready=lambda svc: ready(svc.port)))
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
        return 0
    finally:
        # closing the last catalog connection checkpoints the WAL: a
        # clean shutdown leaves no catalog.db-wal / -shm behind
        if store is not None:
            store.close()


def _serve_store(args: argparse.Namespace):
    """``--store``'s :class:`FrameStore` (created when an extract seeds
    it), or None without the flag."""
    if args.store is None:
        return None
    from .storage import FrameStore, StoreError

    opener = FrameStore.open if args.directory is None else FrameStore.open_or_create
    try:
        return opener(args.store)
    except StoreError as exc:
        raise CLIError(str(exc)) from exc


def _serve_registry(args: argparse.Namespace, store):
    """Boot the registry ``serve`` runs, single-process or pooled:
    ``--tenant`` from the extract (built as the version after the store's
    newest) or from ``--store`` (mmap-attached, ``--version`` or latest,
    without running the build pipeline), plus every other tenant the
    store holds; ``--store`` is wired once as the registry's persist
    target, so tenants created over ``PUT /t/{tenant}`` are durable too."""
    from .service import GraphRegistry, SnapshotConfig

    tracer = _tracer_of(args)
    persist = None
    if store is not None:
        from .storage import StoreError

        def persist(snapshot, tenant: str):
            store.persist(snapshot, tenant=tenant)
            return store.last_persist  # what it wrote, for /stats

    def resume(name: str) -> int:
        # builders number after the tenant's newest stored version — not
        # after the attached one, which ``--version N`` may have rolled back
        return store.newest_version(name) if store is not None else 0

    if args.directory is not None:
        graph = _read_extract(args.directory)
        truth_path = args.directory / "ground_truth.json"
        classifiers = (
            _trained_classifiers(graph, truth_path) if truth_path.exists() else None
        )
        snapshot_config = SnapshotConfig(
            augment=not args.no_augment,
            first_level_clusters=args.clusters,
            use_embeddings=args.clusters > 1,
        )
        registry = GraphRegistry(snapshot_config, classifiers, tracer, persist=persist)
        registry.create(args.tenant, graph, start_version=resume(args.tenant))
    else:
        try:
            if args.version is not None:
                attached = store.attach(args.version, tenant=args.tenant)
            else:
                attached = store.attach_latest(tenant=args.tenant)
        except StoreError as exc:
            raise CLIError(str(exc)) from exc
        # link classifiers are not stored, so re-augmentation after a
        # mutation detects family links without them — see docs/STORAGE.md
        registry = GraphRegistry(attached.config, tracer=tracer, persist=persist)
        registry.create(args.tenant, snapshot=attached, start_version=resume(args.tenant))
    # a tenant with no intact published version is reported and skipped
    # rather than failing the boot
    for name in store.tenants() if store is not None else ():
        if name == args.tenant:
            continue
        try:
            snapshot = store.attach_latest(tenant=name)
        except StoreError as exc:
            print(f"# store: tenant {name} not attached ({exc})", file=sys.stderr)
            continue
        registry.create(name, snapshot=snapshot, start_version=resume(name))
    return registry


def _serve_pool(args, registry, config, ready) -> int:
    """``serve --workers N``: the SO_REUSEPORT pool, SIGTERM drains."""
    import signal
    import threading

    from .service.workers import PoolError, ServicePool

    pool = ServicePool(registry, workers=args.workers, config=config)
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    try:
        pool.start()
    except (PoolError, OSError) as exc:
        raise CLIError(f"worker pool failed to start: {exc}") from exc
    ready(pool.port, f" across {args.workers} workers")
    try:
        stop.wait()
    finally:
        print("draining workers", file=sys.stderr)
        pool.stop(drain=True)
    return 0


def _store_cmd(args: argparse.Namespace) -> int:
    from .storage import FrameStore, StoreError

    try:
        with contextlib.closing(FrameStore.open(args.directory)) as store:
            if args.store_command == "versions":
                rows = store.versions(tenant=args.tenant)
                model_rows = store.model_rows()
                column_files = store.column_files()
                print(
                    "tenant,version,state,nodes,edges,model_rows,"
                    "columns_written,column_bytes"
                )
                for row in rows:
                    key = (row["tenant"], row["version"])
                    files, nbytes = column_files.get(key, (0, 0))
                    print(
                        f"{row['tenant']},{row['version']},{row['state']},"
                        f"{row['nodes'] if row['nodes'] is not None else ''},"
                        f"{row['edges'] if row['edges'] is not None else ''},"
                        f"{model_rows.get(key, 0)},{files},{nbytes}"
                    )
                print(f"# {len(rows)} versions", file=sys.stderr)
                return 0
            # gc — the store refuses keep < 1, so the latest published
            # version of every tenant (and all staging rows) always survive
            pruned = store.gc(args.keep, tenant=args.tenant)
            for row in pruned:
                print(f"{row['tenant']},{row['version']}")
            print(f"# pruned {len(pruned)} version(s)", file=sys.stderr)
            return 0
    except StoreError as exc:
        raise CLIError(str(exc)) from exc


_HANDLERS = {
    "generate": _generate,
    "profile": _profile,
    "control": _control,
    "close-links": _close_links,
    "family": _family,
    "ubo": _ubo,
    "augment": _augment,
    "reason": _reason,
    "export-dot": _export_dot,
    "serve": _serve,
    "store": _store_cmd,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    tracer = None
    if args.profile or args.profile_json:
        from .telemetry import Tracer

        tracer = Tracer(f"repro {args.command}")
    args.tracer = tracer
    try:
        status = _HANDLERS[args.command](args)
    except _reported_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if tracer is not None:
        tracer.finish()
        if args.profile:
            print(tracer.render(), file=sys.stderr)
        if args.profile_json:
            args.profile_json.parent.mkdir(parents=True, exist_ok=True)
            args.profile_json.write_text(tracer.to_json())
            print(f"# telemetry JSON -> {args.profile_json}", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
