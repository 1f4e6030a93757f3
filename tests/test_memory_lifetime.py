"""A finished run is freed by reference counting alone.

Each test runs one path with the cycle collector off and
``gc.DEBUG_SAVEALL`` on, then collects once: whatever the collector
finds was unreachable but kept alive by a reference cycle, i.e. memory
that outlived its run until a collection happened to come by.  None of
it may be an instance of a class defined in ``repro`` or a function
defined there.  (The filter matters: argparse's ``HelpFormatter`` and
numpy's ``.npy`` header parser leave small standard-library cycles that
are not ours.)
"""

import asyncio
import gc
import types
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core import PipelineConfig, ReasoningPipeline
from repro.datagen import CompanySpec, generate_company_graph
from repro.datalog import Database, Engine, FunctionRegistry, parse_program
from repro.service import (
    GraphRegistry,
    ServiceConfig,
    SnapshotBuilder,
    SnapshotConfig,
    apply_deltas,
    build_service,
)
from repro.storage import FrameStore
from tests.test_service_server import http_request


def _ours(obj) -> str | None:
    """The name of ``obj`` when ``repro`` defines it (its class or, for
    a function, the function itself); None otherwise."""
    if isinstance(obj, types.FunctionType):
        module = obj.__module__ or ""
        return f"function {obj.__qualname__}" if module.startswith("repro") else None
    if type(obj).__module__.startswith("repro"):
        return type(obj).__qualname__
    return None


@contextmanager
def collector_off():
    """The cycle collector off for the block (after one last collection),
    so only reference counting frees what the block drops."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def cyclic_garbage():
    """Yields a Counter that, after the block, holds what of ``repro``
    the cycle collector found unreachable."""
    found: Counter = Counter()
    with collector_off():
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            yield found
            gc.collect()
            found.update(filter(None, map(_ours, gc.garbage)))
        finally:
            gc.set_debug(0)
            gc.garbage.clear()


@pytest.fixture(scope="module")
def world():
    return generate_company_graph(CompanySpec(persons=40, companies=30, seed=5))


def fast_config():
    return PipelineConfig(first_level_clusters=1, use_embeddings=False)


def test_augment_leaves_no_cycle(world):
    graph, _truth = world
    with cyclic_garbage() as found:
        pipeline = ReasoningPipeline(graph.copy(), fast_config())
        augmented = pipeline.augment()
        del pipeline, augmented
    assert not found, found.most_common(10)


RECURSIVE_MSUM = """
node(X) -> ctrl(X, X).
ctrl(X, Z), own(Z, Y, W), T = msum(W, <Z>), T > 0.5 -> ctrl(X, Y).
ctrl(X, Y), X != Y -> controls(X, Y).
"""

OWNERSHIP = (
    [("node", (name,)) for name in ("p", "a", "b", "c", "d")]
    + [
        ("own", ("p", "a", 0.6)),
        ("own", ("p", "b", 0.3)),
        ("own", ("a", "b", 0.3)),
        ("own", ("b", "c", 0.51)),
        ("own", ("c", "d", 0.9)),
    ]
)


@pytest.mark.parametrize(
    "options",
    [{}, {"vectorize": False}, {"plan": False}, {"provenance": True}],
    ids=["default", "vectorize=False", "plan=False", "provenance=True"],
)
def test_engine_run_leaves_no_cycle(options):
    with cyclic_garbage() as found:
        engine = Engine(parse_program(RECURSIVE_MSUM), Database(OWNERSHIP), **options)
        engine.run()
        assert ("p", "d") in set(engine.query("controls"))
        del engine
    assert not found, found.most_common(10)


def _gap(a, b):
    return float(abs(a - b))


def test_a_lazily_compiled_chain_leaves_no_cycle():
    # $gap has no batch form: the rule batches its joins and hands the
    # surviving rows to the interpreter, a per-row tail
    functions = FunctionRegistry()
    functions.register("gap", _gap)
    program = parse_program("n(X), n(Y), D = $gap(X, Y), D > 1.0 -> far(X, Y, D).")
    with cyclic_garbage() as found:
        engine = Engine(program, Database([("n", (v,)) for v in (1, 2, 4, 7)]),
                        functions=functions)
        engine.run()
        ((_, lowered),) = engine._vector_cache.values()
        assert lowered.cut is not None and engine.query("far")
        del engine, lowered
    assert not found, found.most_common(10)


def test_a_vectorized_msum_leaves_no_cycle():
    with cyclic_garbage() as found:
        engine = Engine(parse_program(RECURSIVE_MSUM), Database(OWNERSHIP))
        engine.run()
        folds = [entry[1] for entry in engine._vector_cache.values()
                 if entry[1] is not None and entry[1]._folds is not None]
        assert folds and all(rule.cut is None for rule in folds)
        assert engine._vector_fallbacks == {}  # no pair ran per row
        assert ("p", "d") in set(engine.query("controls"))
        del engine, folds
    assert not found, found.most_common(10)


def test_snapshot_builds_leave_no_cycle(world):
    graph, _truth = world
    with cyclic_garbage() as found:
        builder = SnapshotBuilder(SnapshotConfig(first_level_clusters=1))
        cold = builder.build(graph)
        # a new person reruns the family stage of the patched build
        staged = graph.copy()
        batch = apply_deltas(
            staged,
            [
                {"op": "add_person", "id": "P_NEW", "properties": {"name": "Ada"}},
                {"op": "add_shareholding", "owner": "P_NEW",
                 "company": next(graph.companies()).id, "share": 0.6},
            ],
        )
        batch.base, batch.base_generation = graph, graph.generation
        patched = builder.build(staged, new_edges=batch.new_edges, delta=batch)
        assert patched.version == cold.version + 1
        del builder, cold, patched, staged, batch
    assert not found, found.most_common(10)


def test_publish_stream_and_attach_leave_no_cycle(world, tmp_path):
    graph, _truth = world
    companies = sorted(node.id for node in graph.companies())
    with cyclic_garbage() as found:
        store = FrameStore.create(tmp_path / "store")
        registry = GraphRegistry(
            SnapshotConfig(first_level_clusters=1),
            persist=lambda snapshot, tenant: store.persist(snapshot, tenant=tenant),
        )
        updater = registry.create("default", graph).updater
        for step in range(3):
            updater.publish(*updater.stage([
                {"op": "add_shareholding", "owner": companies[step],
                 "company": companies[step + 5], "share": 0.2},
            ]))
        attached = store.attach(tenant="default")
        assert attached.version == 4
        store.close()
        del store, registry, updater, attached
    assert not found, found.most_common(10)


def test_service_answers_leave_no_cycle(world):
    graph, _truth = world
    company = sorted(node.id for node in graph.companies())[0]
    paths = [
        "/healthz", "/control", "/control?threshold=0.4", "/close-links",
        "/close-links?threshold=0.3", f"/ubo/{company}",
        f"/ubo/{company}?threshold=0.15", "/family",
        f"/neighbors/{company}?depth=2", "/stats", "/metrics",
    ]

    async def session(service):
        await service.start()
        try:
            for path in paths:
                status, payload = await http_request(service.port, "GET", path)
                assert status == 200, (path, payload)
            status, payload = await http_request(
                service.port, "POST", "/mutations?wait=1",
                {"deltas": [{"op": "add_company", "id": "C_NEW"},
                            {"op": "add_shareholding", "owner": company,
                             "company": "C_NEW", "share": 0.7}]},
            )
            assert status == 200, payload
        finally:
            await service.stop()

    # the service itself lives on: what it answered and rebuilt must not
    with cyclic_garbage() as found:
        service = build_service(graph, config=ServiceConfig(port=0))
        asyncio.run(session(service))
    assert not found, found.most_common(10)
