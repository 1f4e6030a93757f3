"""The traced pass: each workload replayed in-process under
benchmark-side spans around the public functions of every layer.

No span is added to ``src/``.  Where a public ``tracer=`` argument
exists (``ReasoningPipeline``, ``SnapshotBuilder``) a
``repro.telemetry.Tracer`` is handed in and its ``engine.run`` /
``stratum`` / ``rule:*`` spans are copied under the benchmark's own
span.  Every replay runs twice — untraced first, then traced — so the
cost of tracing itself is a reported number.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import statistics
import sys
import time
from urllib.parse import parse_qsl, urlsplit

from harness import run_cli
from spans import NullSpanLog, SpanLog
from workloads import (
    FAMILY_CLASSES,
    SIZES,
    Run,
    boot_classifiers,
    endpoint_of,
    payload_call,
)

from repro.bench.workloads import ownership_pyramid
from repro.core.pipeline import PipelineConfig, ReasoningPipeline
from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.datalog.engine import Engine
from repro.graph.columnar import GraphFrame
from repro.graph.io import read_company_csv, save_json
from repro.graph.relational import to_facts
from repro.linkage.training import persons_of
from repro.ownership.close_links import close_link_pairs
from repro.ownership.control import control_closure, controlled_by
from repro.ownership.matrix import integrated_ownership_from
from repro.ownership.ubo import all_beneficial_owners
from repro.service import (
    ReasoningCache,
    ReasoningService,
    SnapshotBuilder,
    SnapshotConfig,
    SnapshotManager,
    apply_deltas,
    attach_snapshot,
    encode_snapshot,
)
from repro.storage import FrameStore
from repro.telemetry import Tracer

_clock = time.perf_counter


def _median_ms(log: SpanLog, name: str, **match) -> float:
    values = log.durations(name, **match)
    return statistics.median(values) * 1e3 if values else 0.0


def _twice(run: Run, replay) -> dict:
    """Run ``replay`` untraced, then traced; report the overhead and
    return what the traced pass returned."""
    with run.spans.span("telemetry:untraced_replay"):
        plain = replay(run, NullSpanLog(), None)
    traced = replay(run, run.spans, Tracer(f"bench {run.workload}"))
    run.layer["telemetry.trace_overhead_frac"] = traced["total"] / plain["total"] - 1.0
    if plain.get("family_links"):
        run.layer["telemetry.engine_tracer_overhead_frac"] = (
            traced["family_links"] / plain["family_links"] - 1.0
        )
    return traced


def _begin(run: Run) -> None:
    """What every traced pass starts with: the end-to-end pass's own
    intervals as spans, and the CLI's start-up time."""
    for name, start, end, attrs in run.state.get("intervals", ()):
        run.spans.record(name, start, end, **attrs)
    walls = []
    for _ in range(3):
        with run.spans.span("cli:python -m repro --help") as span:
            _wall, code = run_cli(run.children, ["--help"], run.work)
        run.check(code == 0, f"repro --help exited {code}")
        walls.append(span["end"] - span["start"])
    run.layer["cli.startup_s"] = statistics.median(walls)


def _graph_layer(run: Run, graph) -> None:
    """Frame build and the one-off ``splu`` factorisation, on a fresh
    frame (``GraphFrame.of`` would hand back the cached one)."""
    with run.spans.span("graph.columnar:GraphFrame") as built:
        frame = GraphFrame(graph)
    with run.spans.span("graph.columnar:ownership_system") as factorised:
        frame.ownership_system()
    run.layer["graph.columnar.frame_build_s"] = built["end"] - built["start"]
    run.layer["graph.columnar.splu_s"] = factorised["end"] - factorised["start"]


def _datalog_counters(run: Run) -> None:
    log = run.spans
    run.layer["datalog.rule_firings"] = log.attribute_sum("datalog:engine.run", "rule_firings")
    run.layer["datalog.facts_derived"] = log.attribute_sum("datalog:engine.run", "facts_derived")
    run.layer["datalog.iterations"] = log.attribute_sum("datalog:engine.run", "iterations")
    run.layer["datalog.vector_fallbacks"] = log.attribute_sum(
        "datalog:engine.run", "vector_fallbacks")
    compared = derived = 0.0
    for cls in FAMILY_CLASSES:
        name = f"datalog:rule:fl_{cls}"
        run.layer[f"datalog.rule.fl_{cls}_s"] = log.total(name)
        compared += log.attribute_sum(name, "firings")
        derived += log.attribute_sum(name, "derived")
    run.layer["core.pipeline.pairs_compared"] = compared
    run.layer["core.pipeline.links_per_pair"] = derived / compared if compared else 0.0


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------

def _replay_augment(run: Run, log, tracer) -> dict:
    """The sequence ``repro augment`` performs, one span per layer call."""
    extract = run.state["extract"]
    started = _clock()
    with log.span("graph.io:read_company_csv"):
        graph = read_company_csv(extract)
    with log.span("linkage:train_classifiers"):
        classifiers = boot_classifiers(extract, graph)
    with log.span("graph.columnar:GraphFrame.of"):
        GraphFrame.of(graph)
    with log.span("graph.relational:to_facts") as facts:
        facts["facts"] = to_facts(graph).count()
    with log.span("core.pipeline:ReasoningPipeline"):
        pipeline = ReasoningPipeline(
            graph, PipelineConfig(first_level_clusters=1, use_embeddings=False),
            classifiers=classifiers, tracer=tracer,
        )
    with log.span("core.blocking:compute_blocks") as blocks:
        blocks["block_triples"] = len(pipeline.compute_blocks())
    adopted: set[int] = set()
    augmented = graph.copy()
    family_started = _clock()
    for problem in ("family_links", "control_pairs", "close_link_pairs"):
        with log.span(f"core.pipeline:{problem}"):
            result = getattr(pipeline, problem)()
            log.adopt_engine_runs(tracer, adopted)
        if problem == "family_links":
            family_s = _clock() - family_started
            for x, y, cls in result:
                augmented.add_edge(x, y, cls)
        else:
            for x, y in result:
                augmented.add_edge(x, y, problem.split("_pairs")[0])
    with log.span("graph.io:save_json"):
        save_json(augmented, run.work / "replay.json")
    # without persons family_links is a 9 ms no-op: no overhead ratio
    return {"total": _clock() - started,
            "family_links": family_s if classifiers else None,
            "graph": graph, "classifiers": classifiers}


def trace_augment(run: Run) -> None:
    log, sizes = run.spans, run.state["sizes"]
    _begin(run)
    with log.span("datagen:generate") as generated:
        if "persons" in sizes:
            generate_company_graph(CompanySpec(
                persons=sizes["persons"], companies=sizes["companies"],
                density=sizes["density"], seed=SIZES["structure_seed"]))
        else:
            ownership_pyramid(sizes["companies"], m=sizes["m"],
                              seed=SIZES["structure_seed"])
    run.layer["datagen.generate_s"] = generated["end"] - generated["start"]
    replay = _twice(run, _replay_augment)
    graph, classifiers = replay["graph"], replay["classifiers"]
    _graph_layer(run, graph)
    _ownership_layer(run, graph)
    if classifiers:
        persons = list(persons_of(graph).values())
        rng = random.Random(run.seed)
        pairs = [tuple(rng.sample(persons, 2)) for _ in range(2000)]
        with log.span("linkage:BayesianLinkClassifier.probability", pairs=len(pairs)) as scored:
            for i, (left, right) in enumerate(pairs):
                classifiers[i % len(classifiers)].probability(left, right)
        run.layer["linkage.pair_score_us"] = (
            (scored["end"] - scored["start"]) / len(pairs) * 1e6
        )
    else:
        # no persons: compare the two engine backends on the program
        # this workload spends its time in, over a smaller pyramid
        probe = ReasoningPipeline(
            ownership_pyramid(sizes["backend_probe_companies"], m=sizes["m"],
                              seed=SIZES["structure_seed"]),
            PipelineConfig(first_level_clusters=1, use_embeddings=False))
        program = probe.kg.program(
            ["input_mapping", "close_link", "link_creation", "output_mapping"])
        for backend, vectorize in (("vectorized", True), ("planned", False)):
            engine = Engine(program, probe.kg.extensional.copy(),
                            functions=probe.kg.functions, vectorize=vectorize)
            with log.span(f"datalog:Engine.run[{backend}]") as ran:
                engine.run()
            run.layer[f"datalog.backend.{backend}_s"] = ran["end"] - ran["start"]

    run.layer.update({
        "graph.io.read_csv_s": log.total("graph.io:read_company_csv"),
        "graph.io.save_json_s": log.total("graph.io:save_json"),
        "graph.relational.to_facts_s": log.total("graph.relational:to_facts"),
        "graph.relational.facts": log.attribute_sum("graph.relational:to_facts", "facts"),
        "linkage.train_s": log.total("linkage:train_classifiers"),
        "core.blocking.blocks_s": log.total("core.blocking:compute_blocks"),
        "core.blocking.block_triples": log.attribute_sum(
            "core.blocking:compute_blocks", "block_triples"),
        "core.pipeline.family_links_s": log.total("core.pipeline:family_links"),
        "core.pipeline.control_s": log.total("core.pipeline:control_pairs"),
        "core.pipeline.close_links_s": log.total("core.pipeline:close_link_pairs"),
    })
    for problem, key in (("family_links", "family"), ("control_pairs", "control"),
                         ("close_link_pairs", "close_link")):
        runs = [s for s in log.spans if s["name"] == "datalog:engine.run"
                and log.spans[s["parent"]]["name"] == f"core.pipeline:{problem}"]
        run.layer[f"datalog.{key}.run_s"] = sum(s["end"] - s["start"] for s in runs)
    _datalog_counters(run)


# ----------------------------------------------------------------------
# read workloads
# ----------------------------------------------------------------------

def _replay_reads(run: Run, log, tracer) -> dict:
    """Cold build, then the workload's own requests: once through
    ``ReasoningService.handle_request`` (server + cache + snapshot as one
    span) and once as cache fill -> snapshot payload, span by span."""
    extract, paths = run.state["extract"], run.state["sample_paths"]
    started = _clock()
    with log.span("graph.io:read_company_csv"):
        graph = read_company_csv(extract)
    with log.span("linkage:train_classifiers"):
        classifiers = boot_classifiers(extract, graph)
    builder = SnapshotBuilder(SnapshotConfig(), classifiers=classifiers, tracer=tracer)
    with log.span("service.snapshot:SnapshotBuilder.build", kind="cold"):
        snapshot = builder.build(graph)
        log.adopt_engine_runs(tracer, set())
    manager = SnapshotManager()
    manager.publish(snapshot)

    async def serve() -> None:
        service = ReasoningService(manager, builder=builder, base_graph=graph)
        cache = ReasoningCache(service.config.cache_capacity)
        for path in paths:
            split = urlsplit(path)
            with log.span("service.server:handle_request", endpoint=endpoint_of(path)):
                _endpoint, status, _payload = await service.handle_request(
                    "GET", split.path, dict(parse_qsl(split.query)), b"")
            run.check(status == 200, f"replayed {path} answered {status}")
        for path in paths:
            name, thunk = payload_call(snapshot, path)

            async def compute(name=name, thunk=thunk):
                with log.span(f"service.snapshot:{name}"):
                    return thunk()

            with log.span("service.cache:get_or_compute"):
                await cache.get_or_compute(path, compute)

    asyncio.run(serve())
    return {"total": _clock() - started, "graph": graph}


def trace_reads(run: Run) -> None:
    log = run.spans
    paths = run.state["paths"]
    # hot: the whole pool once; cold: every 8th request of the stream
    run.state["sample_paths"] = paths if run.state["hot"] else paths[::8]
    _begin(run)
    graph = _twice(run, _replay_reads)["graph"]
    _graph_layer(run, graph)
    _ownership_layer(run, graph)
    run.layer["graph.io.read_csv_s"] = log.total("graph.io:read_company_csv")
    run.layer["linkage.train_s"] = log.total("linkage:train_classifiers")
    run.layer["service.snapshot.build_cold_s"] = log.total(
        "service.snapshot:SnapshotBuilder.build", kind="cold")
    prefix = "service.snapshot.payload."
    run.layer[prefix + "control_ms"] = _median_ms(log, "service.snapshot:control_payload")
    run.layer[prefix + "close_links_ms"] = _median_ms(log, "service.snapshot:close_links_payload")
    run.layer[prefix + "family_ms"] = _median_ms(log, "service.snapshot:family_payload")
    run.layer[prefix + "ubo_default_us"] = 1e3 * _median_ms(
        log, "service.snapshot:ubo_payloads[default]")
    run.layer[prefix + "ubo_custom_ms"] = _median_ms(log, "service.snapshot:ubo_payloads[custom]")
    run.layer[prefix + "neighbors_us"] = 1e3 * _median_ms(
        log, "service.snapshot:neighbors_payload")
    _datalog_counters(run)


def _ownership_layer(run: Run, graph) -> None:
    log = run.spans
    with log.span("ownership:control_closure") as control:
        control_closure(graph)
    with log.span("ownership:close_link_pairs") as close:
        close_link_pairs(graph)
    with log.span("ownership:all_beneficial_owners") as ubo:
        all_beneficial_owners(graph)
    persons = sorted(node.id for node in graph.persons())
    for person in random.Random(run.seed).sample(persons, min(50, len(persons))):
        with log.span("ownership:integrated_ownership_from"):
            integrated_ownership_from(graph, person)
        with log.span("ownership:controlled_by"):
            controlled_by(graph, person)
    run.layer.update({
        "ownership.control_closure_s": control["end"] - control["start"],
        "ownership.close_link_pairs_s": close["end"] - close["start"],
        "ownership.all_ubo_s": ubo["end"] - ubo["start"],
        "ownership.integrated_from_ms": _median_ms(log, "ownership:integrated_ownership_from"),
        "ownership.controlled_by_ms": _median_ms(log, "ownership:controlled_by"),
    })


# ----------------------------------------------------------------------
# write workload
# ----------------------------------------------------------------------

def _replay_publishes(run: Run, log, tracer) -> dict:
    """What the pool parent and its workers do per batch: stage, build,
    encode into shared memory, persist, and the two attaches."""
    extract = run.state["extract"]
    kinds = run.state["kinds"]
    # the stream up to and including its first family-touching batch
    upto = kinds.index("family") + 1 if "family" in kinds else len(kinds)
    started = _clock()
    with log.span("graph.io:read_company_csv"):
        graph = read_company_csv(extract)
    with log.span("linkage:train_classifiers"):
        classifiers = boot_classifiers(extract, graph)
    builder = SnapshotBuilder(SnapshotConfig(), classifiers=classifiers, tracer=tracer)
    adopted: set[int] = set()
    with log.span("service.snapshot:SnapshotBuilder.build", kind="cold"):
        snapshot = builder.build(graph)
        log.adopt_engine_runs(tracer, adopted)
    store_dir = run.work / f"replay-store-{'traced' if tracer else 'plain'}"
    store = FrameStore.create(store_dir)
    staging = graph
    for position, (deltas, kind) in enumerate(zip(run.state["batches"][:upto], kinds)):
        with log.span("graph:CompanyGraph.copy"):
            candidate = staging.copy()
        with log.span("service.updates:apply_deltas"):
            batch = apply_deltas(candidate, deltas)
        batch.base, batch.base_generation = staging, staging.generation
        with log.span("service.snapshot:SnapshotBuilder.build", kind=kind):
            snapshot = builder.build(
                candidate, new_edges=None if batch.removed_any else batch.new_edges,
                delta=batch)
            log.adopt_engine_runs(tracer, adopted)
        staging = candidate
        with log.span("service.shm:encode_snapshot") as encoded:
            segment = encode_snapshot(
                snapshot, name=f"rkgs_bench_{os.getpid()}_{position}")
        encoded["bytes"] = segment.size
        try:
            with log.span("storage:FrameStore.persist"):
                store.persist(snapshot)
            with log.span("service.shm:attach_snapshot"):
                attached = attach_snapshot(segment.name)
            with log.span("storage:FrameStore.attach"):
                store.attach(snapshot.version)
            handle = attached.shm
            del attached
            gc.collect()  # graph <-> frame cycle holds the buffer views
            for mapping in (handle, segment):
                try:
                    mapping.close()
                except BufferError:
                    # views still referenced: hold the mapping so its
                    # __del__ does not retry during a later collection
                    run.state.setdefault("parked_mappings", []).append(mapping)
        finally:
            segment.unlink()
    return {"total": _clock() - started, "graph": graph}


def trace_publishes(run: Run) -> None:
    log = run.spans
    _begin(run)
    graph = _twice(run, _replay_publishes)["graph"]
    _graph_layer(run, graph)
    build = "service.snapshot:SnapshotBuilder.build"
    delta_builds = [d for kind in ("add", "remove", "company")
                    for d in log.durations(build, kind=kind)]
    encoded = [s["bytes"] for s in log.spans if s["name"] == "service.shm:encode_snapshot"]
    run.layer.update({
        "graph.io.read_csv_s": log.total("graph.io:read_company_csv"),
        "linkage.train_s": log.total("linkage:train_classifiers"),
        "service.snapshot.build_cold_s": log.total(build, kind="cold"),
        "service.snapshot.build_delta_ms": (
            statistics.median(delta_builds) * 1e3 if delta_builds else 0.0),
        "service.snapshot.build_family_s": log.total(build, kind="family"),
        "service.updates.apply_deltas_ms": _median_ms(log, "service.updates:apply_deltas"),
        "service.shm.encode_ms": _median_ms(log, "service.shm:encode_snapshot"),
        "service.shm.attach_ms": _median_ms(log, "service.shm:attach_snapshot"),
        "service.shm.segment_mb": statistics.fmean(encoded) / 1e6 if encoded else 0.0,
        "storage.persist_ms": _median_ms(log, "storage:FrameStore.persist"),
        "storage.attach_ms": _median_ms(log, "storage:FrameStore.attach"),
    })
    _datalog_counters(run)


def stop_resource_tracker() -> None:
    """``encode_snapshot`` makes ``multiprocessing`` start its
    resource-tracker process; stop and reap it like any other child."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None and sys.platform != "win32":
        stop()


TRACED = {
    "augment_sparse": trace_augment,
    "reason_dense": trace_augment,
    "read_hot": trace_reads,
    "read_cold": trace_reads,
    "write_publish": trace_publishes,
}
