"""The one tenant write path under a failed build, in both deployments.

A build that dies after the warm embedder absorbed the batch must leave
nothing behind: the reply is 500, staging and the served version do not
move, and the next batch publishes exactly what a cold build of its
graph would — single-process and in the pool parent alike.  Plus the
two pieces of state the path shares between threads, under stress.
"""

import asyncio
import json
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.service import (
    GraphRegistry,
    GraphUpdater,
    Persister,
    ReasoningService,
    ServiceConfig,
    SnapshotBuilder,
    SnapshotConfig,
    SnapshotManager,
    apply_deltas,
)
from repro.service import snapshot as snapshot_module
from repro.service.workers import ServicePool
from tests.test_service_pool import request

CLUSTERED = dict(augment=True, first_level_clusters=3, use_embeddings=True)


class SingleProcess:
    """``ReasoningService`` over ``registry`` on a background event loop."""

    def __init__(self, registry):
        self.service = ReasoningService(config=ServiceConfig(port=0), registry=registry)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.service.start(), self.loop).result(30)
        self.port = self.service.port

    def stop(self):
        asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


@pytest.fixture(params=["single-process", "pool"])
def deployment(request):
    graph, _truth = generate_company_graph(CompanySpec(persons=40, companies=30, seed=5))
    registry = GraphRegistry(snapshot_config=SnapshotConfig(**CLUSTERED))
    registry.create("default", graph)
    if request.param == "pool":
        running = ServicePool(registry, workers=2, config=ServiceConfig(port=0)).start()
    else:
        running = SingleProcess(registry)
    yield registry, running.port, graph
    running.stop()


def test_failed_build_leaves_no_trace(deployment, monkeypatch):
    registry, port, graph = deployment
    binding = registry.get("default")
    companies = sorted(node.id for node in graph.companies())
    persons = sorted(node.id for node in graph.persons())

    # dies while materialising: the embedder has already run on the batch
    def materialise_fails(*args, **kwargs):
        raise RuntimeError("disk full")

    staging = binding.updater._staging
    with monkeypatch.context() as patch:
        patch.setattr(snapshot_module, "canonical_rows", materialise_fails)
        status, payload = request(port, "POST", "/mutations?wait=1", {"deltas": [
            {"op": "add_shareholding", "owner": persons[0], "company": companies[0],
             "share": 0.07},
            {"op": "add_shareholding", "owner": persons[1], "company": companies[0],
             "share": 0.06},
        ]})
    assert status == 500 and "disk full" in payload["error"]
    assert binding.updater._staging is staging
    assert binding.version == 1
    assert request(port, "GET", "/healthz")[1]["version"] == 1

    deltas = [
        {"op": "add_shareholding", "owner": persons[2], "company": companies[1],
         "share": 0.05},
        {"op": "add_shareholding", "owner": persons[3], "company": companies[2],
         "share": 0.04},
    ]
    status, payload = request(port, "POST", "/mutations?wait=1", {"deltas": deltas})
    assert status == 200 and payload["status"] == "published"
    assert binding.updater.stats()["staging_rollbacks"] == 1

    expected_graph = graph.copy()
    apply_deltas(expected_graph, deltas)
    cold = SnapshotBuilder(SnapshotConfig(incremental=False, **CLUSTERED)).build(expected_graph)
    company = companies[0]
    for path, expected in (
        ("/control", cold.control_payload()),
        ("/close-links", cold.close_links_payload()),
        ("/family", cold.family_payload()),
        (f"/ubo/{company}", cold.ubo_payloads([company])[company]),
        (f"/neighbors/{company}?depth=2", cold.neighbors_payload(company, depth=2)),
    ):
        status, served = request(port, "GET", path)
        expected = json.loads(json.dumps(expected, default=str))
        served.pop("version"), expected.pop("version")
        if path.startswith("/neighbors"):
            # derived edges are added from Python sets: order is not part of the answer
            for side in ("out", "in"):
                served[side].sort(key=json.dumps), expected[side].sort(key=json.dumps)
        assert status == 200 and served == expected, path


class TestSharedStateUnderThreads:
    """The write path is entered from the event loop and executor threads."""

    @pytest.fixture(autouse=True)
    def eager_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

    def test_persister_counts_every_write(self):
        persister = Persister(lambda snapshot, tenant: {"tenant": tenant})
        snapshot = SimpleNamespace(version=1)

        def writer(tenant):
            for _ in range(400):
                persister(snapshot, tenant)

        threads = [threading.Thread(target=writer, args=(f"t{i}",)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert persister.persists == 8 * 400 and persister.persist_failures == 0

    def test_rollback_never_clobbers_a_newer_batch(self):
        """``stage`` (event loop) racing the rollback of a failed build
        (executor): whichever goes first, the newer batch stays staged."""
        graph, _truth = generate_company_graph(CompanySpec(persons=6, companies=5, seed=2))
        builder = SnapshotBuilder(SnapshotConfig(augment=False))

        class SlowManager(SnapshotManager):
            """Widens the rollback's check-then-set window past a ``stage``."""

            @property
            def current(self):
                time.sleep(0.002)
                return super().current

        updater = GraphUpdater(SlowManager(builder.build(graph)), builder, graph)
        for i in range(50):
            failed = updater._staging
            barrier = threading.Barrier(2)

            def rollback():
                barrier.wait(10)
                updater._resync_staging(failed)

            thread = threading.Thread(target=rollback)
            thread.start()
            barrier.wait(10)
            updater.stage([{"op": "add_company", "id": f"NEW{i}"}])
            thread.join(10)
            assert not thread.is_alive()
            assert updater._staging.has_node(f"NEW{i}")
