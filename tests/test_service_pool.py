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
import weakref

import pytest

from repro.core import ReasoningPipeline
from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.datalog import Database
from repro.service import GraphRegistry, ServiceConfig
from repro.service.workers import RESTART_LIMIT, PoolError, ServicePool
from tests.test_memory_lifetime import collector_off


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

    def test_start_timeout_stops_the_pool(self, graph, monkeypatch):
        monkeypatch.setattr("repro.service.workers.START_TIMEOUT_S", 0.0)
        pool = ServicePool(graph, workers=2, config=ServiceConfig(port=0))
        with pytest.raises(PoolError, match="workers came up within 0.0s"):
            pool.start()
        assert pool.live_workers() == []
        assert pool.segment_names() == []

    def test_start_fails_fast_when_every_slot_is_abandoned(self, graph):
        # a worker cannot build a zero-capacity cache, so each slot dies
        # RESTART_LIMIT + 1 times within a second; start must not sit out
        # START_TIMEOUT_S
        pool = ServicePool(graph, workers=2, config=ServiceConfig(port=0, cache_capacity=0))
        started = time.monotonic()
        with pytest.raises(PoolError, match=r"worker\(s\) [01](, 1)? failed 4 times"):
            pool.start()
        assert time.monotonic() - started < 10.0
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


class TestForkInheritance:
    def test_a_worker_inherits_no_finished_run(self, graph, monkeypatch):
        """Every pipeline and fact store the v1 build made is freed by
        reference counting before the fork, so no worker starts with a
        copy of a dead run.  The collector stays off from the build until
        the workers fork: nothing may wait for it."""
        born: dict[type, list[weakref.ref]] = {ReasoningPipeline: [], Database: []}
        alive_at_fork: list[dict[str, int]] = []

        def recording(cls):
            init = cls.__init__

            def __init__(self, *args, **kwargs):
                init(self, *args, **kwargs)
                born[cls].append(weakref.ref(self))

            return __init__

        spawn = ServicePool._spawn

        def spawn_after_census(pool, worker_id):
            alive_at_fork.append({
                cls.__name__: sum(ref() is not None for ref in refs)
                for cls, refs in born.items()
            })
            spawn(pool, worker_id)

        monkeypatch.setattr(ServicePool, "_spawn", spawn_after_census)
        with collector_off():
            registry = GraphRegistry()
            with monkeypatch.context() as building:
                for cls in born:
                    building.setattr(cls, "__init__", recording(cls))
                registry.create("default", graph)
            pool = ServicePool(registry, workers=2, config=ServiceConfig(port=0)).start()
        try:
            assert born[ReasoningPipeline] and born[Database]
            assert len(alive_at_fork) >= 2  # a restarted worker forks again
            for census in alive_at_fork:
                assert census == {"ReasoningPipeline": 0, "Database": 0}
        finally:
            pool.stop(drain=False)


class FakeWorker:
    """A worker slot with no process behind it: alive until it dies."""

    def __init__(self):
        self.alive = True

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        pass


class FakePipe:
    """The parent's end of a fake worker's pipe: records each message
    sent, and counts the sends that began while another was in flight
    (``send`` takes ``delay_s``)."""

    def __init__(self, delay_s=0.0):
        self.sent = []
        self.delay_s = delay_s
        self.active = 0
        self.overlaps = 0
        self._guard = threading.Lock()

    def send(self, message):
        with self._guard:
            self.active += 1
            self.overlaps += self.active > 1
        time.sleep(self.delay_s)
        with self._guard:
            self.active -= 1
            self.sent.append(message)

    def close(self):
        pass


class InThread:
    """Run ``fn`` on a thread; ``result`` or ``error`` once it ends."""

    def __init__(self, fn):
        self.result = self.error = None
        self.started = time.monotonic()
        self.thread = threading.Thread(target=self._run, args=(fn,))
        self.thread.start()

    def _run(self, fn):
        try:
            self.result = fn()
        except Exception as exc:  # surfaces in the test's thread
            self.error = exc

    def join(self, timeout_s=10.0):
        self.thread.join(timeout_s)
        assert not self.thread.is_alive()
        return time.monotonic() - self.started


@pytest.fixture()
def fake_pool(graph):
    """A pool whose worker slots tests fill with ``FakeWorker`` /
    ``FakePipe``; no process is ever started."""
    pool = ServicePool(graph, workers=2, config=ServiceConfig(port=0))
    yield pool
    pool._procs.clear()
    pool._conns.clear()
    pool.stop(drain=False)
    assert pool.segment_names() == []


def fake_slot(pool, worker_id, pipe=None):
    pipe = pipe if pipe is not None else FakePipe()
    pool._procs[worker_id], pool._conns[worker_id] = FakeWorker(), pipe
    return pipe


def sent_request(pipe, op):
    """The first ``op`` request sent down ``pipe`` (waits for it)."""
    assert wait_until(lambda: any(m["op"] == op for m in pipe.sent), timeout_s=5.0)
    return next(m for m in pipe.sent if m["op"] == op)


def reply(pool, worker_id, request, status=200, payload=None):
    pool._on_message(worker_id, {
        "op": "reply", "id": request["id"], "status": status, "payload": payload,
    })


class TestAttachFailure:
    def test_attach_failed_fails_the_publish_at_once(self, fake_pool):
        """A worker that cannot attach a segment replies with its error;
        the publish waiting on it must not sit out ``PUBLISH_TIMEOUT_S``
        (60 s)."""
        pool = fake_pool
        pipe = fake_slot(pool, 0)
        publish = InThread(lambda: pool._handoff(pool.oracle, pool.primary))
        request = sent_request(pipe, "publish")
        assert request["name"] == pool.segment_names()[0]
        reply(pool, 0, request, 500, {"error": "SegmentError: truncated segment"})
        assert publish.join() < 5.0
        assert isinstance(publish.error, PoolError)
        message = str(publish.error)
        assert "worker 0" in message and "SegmentError: truncated segment" in message


class TestCall:
    """``ServicePool._call`` over fake worker slots."""

    def test_a_worker_that_dies_mid_call_is_dropped(self, fake_pool):
        pool = fake_pool
        pipes = [fake_slot(pool, 0), fake_slot(pool, 1)]
        pool._restarts[0] = RESTART_LIMIT  # dying abandons the slot
        call = InThread(
            lambda: pool._call({"op": "retire_tenant", "tenant": "x"}, 30.0)
        )
        reply(pool, 1, sent_request(pipes[1], "retire_tenant"))
        sent_request(pipes[0], "retire_tenant")
        pool._procs[0].alive = False
        pool._on_worker_gone(0)
        assert call.join() < 5.0
        assert call.error is None and call.result == {1: None}
        assert 0 in pool._abandoned

    def test_a_worker_respawned_after_the_send_is_not_awaited(
        self, fake_pool, monkeypatch
    ):
        pool = fake_pool
        old = fake_slot(pool, 0)
        respawned = []

        def spawn(worker_id):  # the new process never answers
            respawned.append(fake_slot(pool, worker_id))

        monkeypatch.setattr(pool, "_spawn", spawn)
        call = InThread(lambda: pool._call({"op": "metrics"}, 30.0))
        sent_request(old, "metrics")
        pool._procs[0].alive = False
        pool._on_worker_gone(0)
        assert call.join() < 5.0
        assert call.error is None and call.result == {}
        (pipe,) = respawned
        assert pool.live_workers() == [0] and pipe.sent == []

    def test_an_error_reply_fails_the_call_before_the_others_answer(
        self, fake_pool
    ):
        pool = fake_pool
        pipes = [fake_slot(pool, 0), fake_slot(pool, 1)]
        call = InThread(lambda: pool._handoff(pool.oracle, pool.primary))
        reply(pool, 1, sent_request(pipes[1], "publish"), 500, {"error": "Boom: x"})
        assert call.join() < 5.0  # worker 0 never replied
        assert "worker 1: Boom: x" in str(call.error)
        assert pool.worker_tenant_versions == {}

    def test_the_metrics_poll_returns_partial_replies_at_its_deadline(
        self, fake_pool
    ):
        pool = fake_pool
        pipes = [fake_slot(pool, 0), fake_slot(pool, 1)]
        call = InThread(lambda: pool._call({"op": "metrics"}, 0.5, partial=True))
        reply(pool, 0, sent_request(pipes[0], "metrics"), payload={"requests": {}})
        call.join()
        assert call.result == {0: {"requests": {}}}
        with pytest.raises(PoolError, match=r"metrics reached only workers \[\]"):
            pool._call({"op": "metrics"}, 0.1)

    def test_writes_to_one_pipe_never_overlap(self, fake_pool):
        """A call, a forwarded request's reply and a broadcast share one
        pipe from three threads: one ``send`` at a time."""
        pool = fake_pool
        pipe = fake_slot(pool, 0, FakePipe(delay_s=0.05))
        threads = [
            InThread(lambda: pool._call({"op": "metrics"}, 1.0, partial=True)),
            InThread(lambda: pool._answer(
                0, {"op": "mutate", "id": 7, "tenant": "ghost", "deltas": []}
            )),
            InThread(lambda: pool._broadcast({"op": "persist", "stats": {}})),
            InThread(lambda: pool._call({"op": "metrics"}, 1.0, partial=True)),
        ]
        for thread in threads:
            thread.join()
        assert len(pipe.sent) == 4
        assert pipe.overlaps == 0
        (answer,) = [m for m in pipe.sent if m["op"] == "reply"]
        assert answer["id"] == 7 and answer["status"] == 404

    def test_delete_tenant_returns_after_the_retire_reply(self, fake_pool):
        pool = fake_pool
        pipe = fake_slot(pool, 0)
        pool.registry.create("acme")
        pool._seal(pool.oracle_for("acme"), "acme")
        pool.worker_tenant_versions[0] = {"acme": 1}
        delete = InThread(lambda: pool.delete_tenant("acme"))
        request = sent_request(pipe, "retire_tenant")
        # the segment is gone before the call goes out: a worker spawned
        # now starts without the tenant
        assert not any("acme" in name for name in pool.segment_names())
        time.sleep(0.2)
        assert delete.thread.is_alive()
        reply(pool, 0, request)
        delete.join()
        assert delete.result == (
            200, {"status": "deleted", "tenant": "acme", "version": 1}
        )
        assert pool.worker_tenant_versions == {0: {}}


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
        # the reply waited for the fleet: no worker serves acme any more
        for _ in range(20):
            assert request(pool.port, "GET", "/t/acme/stats")[0] == 404
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
