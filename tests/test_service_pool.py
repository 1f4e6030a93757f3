"""SO_REUSEPORT worker-pool end-to-end tests.

The acceptance-critical properties:

* both workers serve all endpoints on one port, each tagged with its
  ``worker_id`` and the snapshot version;
* a ``POST /mutations`` against any worker is forwarded to the parent
  builder and, once it returns, **every** worker serves the new version
  with payloads identical to the in-process oracle snapshot;
* publish-during-read races: readers hammering the pool while the
  builder publishes K versions only ever see responses that are
  internally consistent with exactly one version (a response claiming
  version v carries exactly version v's rows — no torn reads), and the
  retired segments end up unlinked;
* a crashed worker is restarted against the current segment and serving
  capacity recovers.
"""

import asyncio
import json
import os
import signal
import threading
import time

import pytest

from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.service import ServiceConfig
from repro.service.workers import PoolConfig, PoolError, ServicePool


@pytest.fixture(scope="module")
def graph():
    g, _truth = generate_company_graph(CompanySpec(persons=30, companies=24, seed=11))
    return g


@pytest.fixture(scope="module")
def pool(graph):
    pool = ServicePool(graph, workers=2, config=ServiceConfig(port=0))
    pool.start()
    yield pool
    pool.stop(drain=False)


async def http_request(port, method, path, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = json.dumps(body).encode() if body is not None else b""
        head = f"{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
        if payload:
            head += f"Content-Length: {len(payload)}\r\n"
        writer.write((head + "\r\n").encode() + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    header, _, body_bytes = raw.partition(b"\r\n\r\n")
    return int(header.split()[1]), json.loads(body_bytes)


def request(port, method, path, body=None):
    return asyncio.run(http_request(port, method, path, body))


def wait_until(predicate, timeout_s=20.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


def healthz_by_worker(port, attempts=40):
    """Hit /healthz until the kernel has load-balanced us to every
    worker at least once; returns {worker_id: version}."""
    seen = {}
    for _ in range(attempts):
        status, payload = request(port, "GET", "/healthz")
        assert status == 200
        seen[payload["worker_id"]] = payload["version"]
        if len(seen) >= 2:
            break
    return seen


class TestServing:
    def test_both_workers_answer_every_endpoint(self, graph, pool):
        company = next(graph.companies()).id
        seen = healthz_by_worker(pool.port)
        assert len(seen) == 2, f"kernel never balanced to both workers: {seen}"
        for path in (
            "/control",
            "/close-links",
            "/family",
            f"/ubo/{company}",
            f"/neighbors/{company}?depth=2",
            "/stats",
            "/metrics",
        ):
            status, payload = request(pool.port, "GET", path)
            assert status == 200, f"{path}: {payload}"
        status, stats = request(pool.port, "GET", "/stats")
        assert stats["snapshot_version"] == pool.version
        assert stats["worker_id"] in (0, 1)

    def test_responses_identical_to_oracle(self, graph, pool):
        oracle = pool.oracle
        companies = sorted((n.id for n in graph.companies()), key=str)[:5]
        _, control = request(pool.port, "GET", "/control")
        expected = json.loads(json.dumps(oracle.control_payload(), default=str))
        assert control == expected
        for company in companies:
            _, served = request(pool.port, "GET", f"/ubo/{company}")
            expected = json.loads(
                json.dumps(oracle.ubo_payloads([company])[company], default=str)
            )
            assert served == expected

    def test_cluster_metrics_merge_over_http(self, pool):
        # a few requests so both workers have counters to contribute
        healthz_by_worker(pool.port)
        request(pool.port, "GET", "/control")
        status, payload = request(pool.port, "GET", "/metrics?scope=cluster")
        assert status == 200
        assert payload["scope"] == "cluster"
        assert sorted(payload["workers"]) == pool.live_workers()
        merged = payload["merged"]
        per_worker = payload["per_worker"]
        total = sum(p["requests"].get("healthz", 0) for p in per_worker.values())
        assert merged["requests"]["healthz"] == total
        assert payload["snapshot_version"] == pool.version


class TestMutations:
    def test_forwarded_mutation_publishes_to_all_workers(self, graph, pool):
        owner = sorted((n.id for n in graph.persons()), key=str)[0]
        before = pool.version
        status, reply = request(
            pool.port,
            "POST",
            "/mutations?wait=1",
            {
                "deltas": [
                    {"op": "add_company", "id": "POOLCO", "properties": {"name": "P"}},
                    {
                        "op": "add_shareholding",
                        "owner": owner,
                        "company": "POOLCO",
                        "share": 0.9,
                    },
                ]
            },
        )
        assert status == 200, reply
        assert reply["version"] == before + 1
        assert reply["workers_attached"] == pool.live_workers()
        assert wait_until(
            lambda: set(healthz_by_worker(pool.port).values()) == {before + 1}
        )
        status, served = request(pool.port, "GET", "/ubo/POOLCO")
        assert status == 200
        expected = json.loads(
            json.dumps(pool.oracle.ubo_payloads(["POOLCO"])["POOLCO"], default=str)
        )
        assert served == expected

    def test_invalid_batch_rejected_through_forwarder(self, pool):
        status, reply = request(
            pool.port, "POST", "/mutations?wait=1", {"deltas": [{"op": "nope"}]}
        )
        assert status == 400
        assert "unknown op" in reply["error"]


class TestPublishDuringReadRace:
    VERSIONS = 4

    def test_no_torn_reads_and_segments_unlink(self, graph, pool):
        """Readers hammer while the builder publishes K versions: every
        response must match the oracle of the version it claims."""
        owner = sorted((n.id for n in graph.persons()), key=str)[1]
        initial_segments = pool.segment_names()
        expected = {
            pool.version: json.loads(
                json.dumps(pool.oracle.control_payload(), default=str)
            )
        }
        publish_done = threading.Event()
        publish_errors = []

        def publisher():
            try:
                for k in range(self.VERSIONS):
                    pool.mutate(
                        [
                            {
                                "op": "add_company",
                                "id": f"RACECO{k}",
                                "properties": {"name": f"R{k}"},
                            },
                            {
                                "op": "add_shareholding",
                                "owner": owner,
                                "company": f"RACECO{k}",
                                "share": 0.8,
                            },
                        ]
                    )
                    expected[pool.version] = json.loads(
                        json.dumps(pool.oracle.control_payload(), default=str)
                    )
            except Exception as exc:  # surfaces in the main thread
                publish_errors.append(exc)
            finally:
                publish_done.set()

        responses = []

        async def hammer():
            while not publish_done.is_set():
                batch = await asyncio.gather(
                    *(http_request(pool.port, "GET", "/control") for _ in range(8))
                )
                responses.extend(batch)

        thread = threading.Thread(target=publisher)
        thread.start()
        asyncio.run(hammer())
        thread.join()
        assert not publish_errors, publish_errors

        assert len(expected) == self.VERSIONS + 1
        versions_seen = set()
        for status, payload in responses:
            assert status == 200, payload
            version = payload["version"]
            # exactly one version per response: the claimed version's rows
            assert payload == expected[version], f"torn read at version {version}"
            versions_seen.add(version)
        assert versions_seen <= set(expected)

        # old versions retire: every segment but the current one unlinks
        assert wait_until(lambda: len(pool.segment_names()) == 1, timeout_s=10.0)
        for name in initial_segments:
            assert name not in pool.segment_names()
            assert not os.path.exists(f"/dev/shm/{name}")
        # all workers on the final version
        assert set(healthz_by_worker(pool.port).values()) == {pool.version}


def shm_mappings(pid):
    """The ``rkgs_`` segment mappings of process ``pid``, one per line of
    its maps (an unlinked segment's path ends in `` (deleted)``)."""
    with open(f"/proc/{pid}/maps") as maps:
        return sorted(
            line.split(None, 5)[5].strip() for line in maps if "/dev/shm/rkgs_" in line
        )


def pool_segments_on_disk():
    """``rkgs_`` segments this process's pools created that still exist."""
    return sorted(
        n for n in os.listdir("/dev/shm") if n.startswith("rkgs_") and f"_{os.getpid()}_" in n
    )


class TestRetirement:
    def test_workers_keep_no_retired_mapping(self, graph, pool):
        """A worker maps a segment only while attaching it: once 4
        publishes land, no worker maps any segment, current or retired."""
        owner = sorted((n.id for n in graph.persons()), key=str)[2]
        for k in range(4):
            pool.mutate([
                {"op": "add_company", "id": f"MAPCO{k}"},
                {"op": "add_shareholding", "owner": owner, "company": f"MAPCO{k}",
                 "share": 0.6},
            ])
        assert len(pool.segment_names()) == len(pool.tenants())
        for worker in pool.live_workers():
            assert shm_mappings(pool._procs[worker].pid) == []


class TestSupervision:
    def test_crashed_worker_restarts_on_current_version(self, pool):
        victim = pool.live_workers()[0]
        pid = pool._procs[victim].pid
        restarts_before = pool.restarts
        os.kill(pid, signal.SIGKILL)
        assert wait_until(lambda: pool.restarts == restarts_before + 1)
        assert wait_until(
            lambda: pool.worker_tenant_versions.get(victim, {}).get(pool.primary)
            == pool.version
        ), pool.worker_tenant_versions
        seen = healthz_by_worker(pool.port)
        assert set(seen.values()) == {pool.version}

    def test_start_timeout_stops_the_pool(self, graph):
        pool = ServicePool(
            graph,
            workers=2,
            config=ServiceConfig(port=0),
            pool_config=PoolConfig(start_timeout_s=0.0),
        )
        with pytest.raises(PoolError, match="workers came up within 0.0s"):
            pool.start()
        assert pool.live_workers() == []
        assert pool.segment_names() == []

    def test_stop_drains_and_unlinks_everything(self, graph):
        pool = ServicePool(graph, workers=2, config=ServiceConfig(port=0))
        pool.start()
        names = pool.segment_names()
        assert names
        status, _ = request(pool.port, "GET", "/healthz")
        assert status == 200
        pool.stop(drain=True)
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")
        assert pool.live_workers() == []


class TestAttachFailure:
    def test_attach_failed_fails_the_publish_at_once(self, graph):
        """A worker that cannot attach a segment says so; the publish
        waiting on it must not sit out ``publish_timeout_s`` (60 s)."""

        class LiveWorker:
            def is_alive(self):
                return True

        class Pipe:
            def send(self, message):
                pass

        pool = ServicePool(graph, workers=1, config=ServiceConfig(port=0))
        pool._procs[0], pool._conns[0] = LiveWorker(), Pipe()
        snapshot = pool.oracle
        pool._seal(snapshot, pool.primary)
        failures = []

        def publish():
            try:
                pool._await_fleet(pool.primary, snapshot.version)
            except PoolError as exc:
                failures.append(str(exc))

        try:
            started = time.monotonic()
            thread = threading.Thread(target=publish)
            thread.start()
            assert wait_until(lambda: pool._publish_events)  # the publish is out
            pool._on_message(0, {
                "op": "attach_failed", "worker": 0, "name": pool.segment_names()[0],
                "error": "SegmentError: truncated segment",
            })
            thread.join(10.0)
            assert not thread.is_alive()
            assert time.monotonic() - started < 5.0
            (message,) = failures
            assert "worker 0" in message and "SegmentError: truncated segment" in message
        finally:
            pool._procs.clear()
            pool._conns.clear()
            pool.stop(drain=False)
        assert pool.segment_names() == []


class TestMultiTenantPool:
    """One SO_REUSEPORT fleet, many tenants, per-tenant atomic swaps."""

    @pytest.fixture()
    def mt_pool(self, graph):
        pool = ServicePool(graph, workers=2, config=ServiceConfig(port=0))
        pool.start()
        yield pool
        pool.stop(drain=False)

    def test_tenant_lifecycle_across_the_fleet(self, mt_pool):
        pool = mt_pool
        base_version = pool.version

        status, payload = request(pool.port, "PUT", "/t/acme")
        assert status == 201
        assert payload["status"] == "created"
        assert payload["version"] == 1
        assert "acme" in pool.tenants()
        # segment names carry the tenant
        assert any("acme" in name for name in pool.segment_names())

        # both workers serve the new tenant
        seen = set()
        for _ in range(40):
            st, stats = request(pool.port, "GET", "/t/acme/stats")
            assert st == 200
            assert stats["tenant"] == "acme"
            assert stats["snapshot_version"] == 1
            seen.add(stats["worker_id"])
            if len(seen) >= 2:
                break
        assert len(seen) == 2

        # idempotent create
        status, payload = request(pool.port, "PUT", "/t/acme")
        assert status == 200
        assert payload["status"] == "exists"

        # mutating acme publishes acme v2 and leaves the primary alone
        status, payload = request(
            pool.port,
            "POST",
            "/t/acme/mutations?wait=1",
            body={"deltas": [{"op": "add_company", "id": "MCO"}]},
        )
        assert status == 200, payload
        assert payload["tenant"] == "acme"
        assert payload["version"] == 2
        assert pool.version_for("acme") == 2
        assert pool.version == base_version
        st, stats = request(pool.port, "GET", "/stats")
        assert stats["snapshot_version"] == base_version

        # delete propagates: 404s fleet-wide, segments unlinked
        status, payload = request(pool.port, "DELETE", "/t/acme")
        assert status == 200
        assert payload == {"status": "deleted", "tenant": "acme", "version": 2}
        assert wait_until(
            lambda: request(pool.port, "GET", "/t/acme/stats")[0] == 404
        )
        assert wait_until(
            lambda: not any("acme" in n for n in os.listdir("/dev/shm"))
        ), [n for n in os.listdir("/dev/shm") if "acme" in n]
        assert not any("acme" in n for n in pool.segment_names())

    def test_recreated_tenant_orphans_no_segment(self, mt_pool):
        """Create, delete, re-create: ``acme`` v1 twice, under two segment
        names — the first must be gone, not left behind for the resource
        tracker."""
        pool = mt_pool
        others = set(pool_segments_on_disk()) - set(pool.segment_names())  # other pools'

        def on_disk():
            return sorted(set(pool_segments_on_disk()) - others)

        for method, expected in (("PUT", 201), ("DELETE", 200), ("PUT", 201)):
            status, payload = request(pool.port, method, "/t/acme")
            assert status == expected, payload
        assert request(pool.port, "GET", "/t/acme/stats")[0] == 200
        assert wait_until(
            lambda: on_disk() == sorted(pool.segment_names()), timeout_s=2.0
        ), (on_disk(), pool.segment_names())
        pool.stop(drain=False)
        assert on_disk() == []

    def test_primary_tenant_is_protected_and_unknown_404s(self, mt_pool):
        pool = mt_pool
        status, payload = request(pool.port, "DELETE", f"/t/{pool.primary}")
        assert status == 400
        assert "alias" in payload["error"]
        for path in ("/t/ghost/control", "/t/ghost/stats", "/t/ghost/family"):
            status, payload = request(pool.port, "GET", path)
            assert status == 404
            assert payload == {"error": "unknown tenant: ghost"}
