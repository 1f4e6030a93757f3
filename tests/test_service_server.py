"""End-to-end tests for the asyncio HTTP reasoning API.

The acceptance-critical properties live here:

* N concurrent identical ``/control`` requests trigger exactly one
  underlying computation (single-flight);
* reads served while a ``POST /mutations`` re-augmentation runs come
  from the old snapshot version, until the new version is published
  atomically;
* admission control: saturation -> 429, deadline expiry -> 504;
* micro-batching: the ``/ubo`` lookups of one loop turn flush as one
  batch; concurrent identical ``/neighbors`` misses compute once.
"""

import asyncio
import json
import time

import pytest

from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.service import ServiceConfig, build_service


@pytest.fixture(scope="module")
def graph():
    g, _truth = generate_company_graph(CompanySpec(persons=30, companies=24, seed=11))
    return g


def make_service(graph, **overrides):
    return build_service(graph, config=ServiceConfig(port=0, **overrides))


async def http_request(port, method, path, body=None):
    """One HTTP/1.1 request over a fresh connection; returns (status, json)."""
    status, body_bytes = await http_raw(port, method, path, body)
    return status, json.loads(body_bytes)


async def http_raw(port, method, path, body=None):
    """One HTTP/1.1 request over a fresh connection; returns (status, body)."""
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
    return int(header.split()[1]), body_bytes


def slow_payload(snapshot, attr, delay_s):
    """Wrap a snapshot payload method with an artificial executor-side delay."""
    original = getattr(snapshot, attr)

    def wrapped(*args, **kwargs):
        time.sleep(delay_s)
        return original(*args, **kwargs)

    setattr(snapshot, attr, wrapped)


class TestEndpoints:
    def test_every_endpoint_over_a_socket(self, graph):
        service = make_service(graph)
        company = next(graph.companies()).id

        async def main():
            await service.start()
            port = service.port
            results = {}
            results["healthz"] = await http_request(port, "GET", "/healthz")
            results["control"] = await http_request(port, "GET", "/control")
            results["filtered"] = await http_request(
                port, "GET", "/control?threshold=0.4"
            )
            results["close"] = await http_request(port, "GET", "/close-links")
            results["ubo"] = await http_request(port, "GET", f"/ubo/{company}")
            results["family"] = await http_request(port, "GET", "/family")
            results["neighbors"] = await http_request(
                port, "GET", f"/neighbors/{company}?depth=2"
            )
            results["stats"] = await http_request(port, "GET", "/stats")
            results["metrics"] = await http_request(port, "GET", "/metrics")
            await service.stop()
            return results

        results = asyncio.run(main())
        for name, (status, payload) in results.items():
            assert status == 200, f"{name}: {payload}"
        assert results["healthz"][1]["version"] == 1
        assert results["control"][1]["count"] == len(service.manager.current.control_rows)
        assert results["filtered"][1]["threshold"] == 0.4
        assert "owners" in results["ubo"][1]
        assert "reachable" in results["neighbors"][1]
        assert results["stats"][1]["nodes"] == graph.node_count
        assert results["metrics"][1]["requests"]["control"] == 2

    def test_error_statuses(self, graph):
        service = make_service(graph)

        async def main():
            await service.start()
            port = service.port
            results = {
                "unknown_path": await http_request(port, "GET", "/nope"),
                "unknown_node": await http_request(port, "GET", "/ubo/GHOST"),
                "bad_threshold": await http_request(port, "GET", "/control?threshold=x"),
                "bad_method": await http_request(port, "POST", "/control"),
                "bad_depth": await http_request(port, "GET", "/neighbors/x?depth=99"),
                "bad_body": await http_request(port, "POST", "/mutations", body=[1]),
            }
            await service.stop()
            return results

        results = asyncio.run(main())
        assert results["unknown_path"][0] == 404
        assert results["unknown_node"][0] == 404
        assert results["bad_threshold"][0] == 400
        assert results["bad_method"][0] == 405
        assert results["bad_depth"][0] == 400
        assert results["bad_body"][0] == 400
        for _status, payload in results.values():
            assert "error" in payload

    def test_threshold_outside_the_unit_interval_is_400_and_never_cached(self, graph):
        service = make_service(graph)
        company = next(graph.companies()).id
        bad = ("nan", "NaN", "inf", "-inf", "-1", "7", "1.0001")

        async def main():
            await service.start()
            port = service.port
            rejected = [
                await http_request(port, "GET", f"{path}?threshold={value}")
                for path in ("/control", "/close-links", f"/ubo/{company}")
                for value in bad
            ]
            entries = len(service.cache.lru) + service.cache.computations
            accepted = [
                await http_request(port, "GET", f"/control?threshold={value}")
                for value in ("0", "1", "0.5", "")
            ]
            await service.stop()
            return rejected, entries, accepted

        rejected, entries, accepted = asyncio.run(main())
        for status, payload in rejected:
            assert status == 400
            assert list(payload) == ["error"] and "\n" not in payload["error"]
            assert "not in [0, 1]" in payload["error"]
        assert entries == 0
        assert [status for status, _ in accepted] == [200] * 4
        assert [payload["threshold"] for _, payload in accepted] == [0.0, 1.0, 0.5, 0.5]

    def test_keep_alive_connection_serves_multiple_requests(self, graph):
        service = make_service(graph)

        async def main():
            await service.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            statuses = []
            for path in ("/healthz", "/stats"):
                writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
                await writer.drain()
                header = await reader.readuntil(b"\r\n\r\n")
                length = int(
                    [h for h in header.split(b"\r\n") if b"Content-Length" in h][0]
                    .split(b":")[1]
                )
                await reader.readexactly(length)
                statuses.append(int(header.split()[1]))
            writer.close()
            await writer.wait_closed()
            await service.stop()
            return statuses

        assert asyncio.run(main()) == [200, 200]


class TestSingleFlight:
    def test_concurrent_identical_requests_compute_once(self, graph):
        """The acceptance proof: N identical /control requests, one computation."""
        service = make_service(graph)
        slow_payload(service.manager.current, "control_payload", 0.25)

        async def main():
            await service.start()
            port = service.port
            before = service.cache.computations
            responses = await asyncio.gather(
                *(
                    http_request(port, "GET", "/control?threshold=0.33")
                    for _ in range(12)
                )
            )
            after = service.cache.computations
            # a later identical request is a pure LRU hit, still one computation
            hits_before = service.cache.lru.hits
            late = await http_request(port, "GET", "/control?threshold=0.33")
            await service.stop()
            return before, after, responses, hits_before, late

        before, after, responses, hits_before, late = asyncio.run(main())
        assert after - before == 1, "coalescing failed: more than one computation"
        payloads = [p for _s, p in responses]
        assert all(s == 200 for s, _p in responses)
        assert all(p == payloads[0] for p in payloads)
        assert service.cache.flight.coalesced >= 1
        assert late[0] == 200
        assert service.cache.lru.hits == hits_before + 1
        assert service.cache.computations == after


class TestMutations:
    def test_old_snapshot_serves_until_atomic_publish(self, graph):
        """The acceptance proof: reads during re-augmentation see the old
        version; the new version appears atomically."""
        service = make_service(graph)
        service.updater.build_delay_s = 0.6
        owner = next(graph.companies()).id
        deltas = [
            {"op": "add_company", "id": "FRESHCO", "properties": {"name": "FreshCo"}},
            {"op": "add_shareholding", "owner": owner, "company": "FRESHCO", "share": 0.9},
        ]

        async def main():
            await service.start()
            port = service.port
            status, accepted = await http_request(
                port, "POST", "/mutations", body={"deltas": deltas}
            )
            assert status == 202, accepted
            assert accepted["status"] == "accepted"
            assert accepted["serving_version"] == 1

            during = []
            saw_rebuild_flag = False
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                # read first, then ask which version serves: versions only
                # grow, so "still 1 afterwards" dates the read before the swap
                _s, payload = await http_request(port, "GET", "/control")
                _s, health = await http_request(port, "GET", "/healthz")
                if health["rebuild_in_progress"]:
                    saw_rebuild_flag = True
                    during.append((health["version"], payload["version"]))
                if health["version"] == 2:
                    break
                await asyncio.sleep(0.02)
            assert saw_rebuild_flag, "rebuild finished before we could observe it"

            _s, after = await http_request(port, "GET", f"/control?source={owner}")
            _s, stats = await http_request(port, "GET", "/stats")
            await service.stop()
            return during, after, stats

        during, after, stats = asyncio.run(main())
        # every read that raced the rebuild was answered from version 1
        assert during and all(pair == (1, 1) for pair in during)
        assert after["version"] == 2
        assert [owner, "FRESHCO"] in after["pairs"]
        assert stats["version"] == 2
        assert service.manager.swaps == 2

    def test_rejected_batch_leaves_staging_untouched(self, graph):
        service = make_service(graph)

        async def main():
            await service.start()
            port = service.port
            status, payload = await http_request(
                port,
                "POST",
                "/mutations?wait=1",
                body={"deltas": [{"op": "warp_reality", "id": "x"}]},
            )
            assert status == 400 and "unknown op" in payload["error"]
            # a valid batch afterwards publishes version 2, not 3
            status, payload = await http_request(
                port,
                "POST",
                "/mutations?wait=1",
                body={"deltas": [{"op": "add_company", "id": "OKCO"}]},
            )
            await service.stop()
            return status, payload

        status, payload = asyncio.run(main())
        assert status == 200
        assert payload["version"] == 2
        assert service.updater.batches_rejected == 1

    def test_non_string_node_ids_are_rejected(self, graph):
        """A URL names a node by a string, and the payloads order ids as
        strings: a node op naming a number is refused whole, so no
        published version holds an id no read can serve or sort."""
        service = make_service(graph)
        person = next(graph.persons()).id
        company = next(graph.companies()).id
        batches = [
            [{"op": "add_company", "id": 7},
             {"op": "add_shareholding", "owner": person, "company": 7, "share": 0.7}],
            [{"op": "add_person", "id": 1.5}],
            [{"op": "add_shareholding", "owner": person, "company": True, "share": 0.1}],
            [{"op": "remove_shareholding", "owner": 3, "company": company}],
            [{"op": "set_property", "id": 3, "name": "name", "value": "x"}],
            [{"op": "remove_node", "id": 3}],
        ]

        async def main():
            posted = [
                await service.handle_request(
                    "POST", "/mutations", {"wait": "1"},
                    json.dumps({"deltas": deltas}).encode(),
                )
                for deltas in batches
            ]
            reads = [
                await service.handle_request("GET", "/control", query, b"")
                for query in ({}, {"threshold": "0.3"})
            ]
            return posted, reads

        posted, reads = asyncio.run(main())
        for _endpoint, status, body in posted:
            assert status == 400, body
            assert b"must be a string node id" in body
        assert [status for _endpoint, status, _body in reads] == [200, 200]
        assert service.manager.version == 1
        assert service.updater.batches_rejected == len(batches)

    def test_wait_returns_published_version(self, graph):
        service = make_service(graph)

        async def main():
            await service.start()
            status, payload = await http_request(
                service.port,
                "POST",
                "/mutations?wait=1",
                body={"deltas": [{"op": "add_person", "id": "PNEW"}]},
            )
            _s, health = await http_request(service.port, "GET", "/healthz")
            await service.stop()
            return status, payload, health

        status, payload, health = asyncio.run(main())
        assert status == 200
        assert payload["status"] == "published"
        assert payload["version"] == health["version"] == 2


class TestAdmissionControl:
    def test_saturation_returns_429_but_healthz_answers(self, graph):
        service = make_service(graph, max_concurrency=1, max_queue=0)
        slow_payload(service.manager.current, "close_links_payload", 0.4)

        async def main():
            await service.start()
            port = service.port
            slow = asyncio.create_task(
                http_request(port, "GET", "/close-links?threshold=0.31")
            )
            await asyncio.sleep(0.1)  # let the slow request occupy the slot
            status_rejected, rejected = await http_request(
                port, "GET", "/close-links?threshold=0.77"
            )
            status_health, _ = await http_request(port, "GET", "/healthz")
            status_slow, _ = await slow
            await service.stop()
            return status_rejected, rejected, status_health, status_slow

        status_rejected, rejected, status_health, status_slow = asyncio.run(main())
        assert status_rejected == 429
        assert "saturated" in rejected["error"]
        assert status_health == 200  # observability bypasses admission
        assert status_slow == 200
        assert service.metrics.rejected_429 == 1

    def test_deadline_expiry_returns_504(self, graph):
        service = make_service(graph, request_timeout_s=0.05)
        slow_payload(service.manager.current, "close_links_payload", 0.5)

        async def main():
            await service.start()
            status, payload = await http_request(
                service.port, "GET", "/close-links?threshold=0.41"
            )
            await service.stop()
            return status, payload

        status, payload = asyncio.run(main())
        assert status == 504
        assert "deadline" in payload["error"]
        assert service.metrics.timeouts_504 == 1


class TestMicroBatching:
    def test_concurrent_point_lookups_flush_as_one_batch(self, graph):
        service = make_service(graph)
        companies = [node.id for node in graph.companies()][:8]

        async def main():
            return await asyncio.gather(*(
                service.handle_request("GET", f"/ubo/{c}", {"threshold": "0.3"}, b"")
                for c in companies
            ))

        responses = asyncio.run(main())
        assert all(status == 200 for _endpoint, status, _ in responses)
        assert service._ubo_batcher.batches == 1
        assert service._ubo_batcher.batched_keys == len(companies)
        expected = service.manager.current.ubo_payloads(companies, 0.3)
        for company, (_endpoint, _status, body) in zip(companies, responses):
            assert json.loads(body) == expected[company]

    def test_concurrent_identical_neighbors_misses_compute_once(self, graph):
        service = make_service(graph)
        node = next(graph.companies()).id

        async def main():
            return await asyncio.gather(*(
                service.handle_request("GET", f"/neighbors/{node}", {"depth": "2"}, b"")
                for _ in range(5)
            ))

        responses = asyncio.run(main())
        assert [status for _endpoint, status, _ in responses] == [200] * 5
        assert service.cache.computations == 1
        assert service.cache.flight.coalesced == 4
        expected = service.manager.current.neighbors_payload(node, depth=2)
        assert all(json.loads(body) == expected for _endpoint, _status, body in responses)

    def test_only_ubo_lookups_are_batched(self, graph):
        service = make_service(graph)

        async def main():
            return await service.handle_request("GET", "/metrics", {}, b"")

        _endpoint, status, body = asyncio.run(main())
        assert status == 200
        metrics = json.loads(body)
        assert list(metrics["batchers"]) == ["ubo"]
        assert set(metrics["batchers"]["ubo"]) == {
            "requests", "batches", "batched_keys", "pending",
        }


def encoded(payload):
    """The body the server sends for ``payload``."""
    return json.dumps(payload, default=str).encode()


class TestCachedBodies:
    """The LRU holds response bodies: a miss encodes once, a hit writes
    the stored bytes, and both equal the encoding of the payload."""

    def test_miss_and_hit_bodies_equal_the_encoded_payload(self, graph):
        service = make_service(graph)
        snapshot = service.manager.current
        company = min(c for c, owners in snapshot.ubo.items() if owners)
        cases = [
            ("/control", {}, snapshot.control_payload()),
            ("/control", {"threshold": "0.4"}, snapshot.control_payload(None, 0.4)),
            ("/close-links", {}, snapshot.close_links_payload()),
            ("/close-links", {"threshold": "0.3"}, snapshot.close_links_payload(0.3)),
            ("/family", {}, snapshot.family_payload()),
            (f"/neighbors/{company}", {"depth": "2"},
             snapshot.neighbors_payload(company, depth=2)),
            (f"/ubo/{company}", {}, snapshot.ubo_payloads([company])[company]),
            # custom threshold: through the micro-batcher
            (f"/ubo/{company}", {"threshold": "0.15"},
             snapshot.ubo_payloads([company], 0.15)[company]),
        ]

        async def main():
            out = []
            for path, query, _payload in cases:
                miss = await service.handle_request("GET", path, query, b"")
                hit = await service.handle_request("GET", path, query, b"")
                out.append((miss, hit))
            return out

        hits_before = service.cache.lru.hits
        for (path, _query, payload), (miss, hit) in zip(cases, asyncio.run(main())):
            assert miss[1] == hit[1] == 200, path
            assert miss[2] == hit[2] == encoded(payload), path
        assert service.cache.lru.hits == hits_before + len(cases)

    def test_stats_body_equals_the_merged_payload(self, graph):
        service = make_service(graph)
        service.worker_id = 3
        service.builder_persist = {"persists": 2, "persist_failures": 0}
        snapshot = service.manager.current

        async def main():
            first = await service.handle_request("GET", "/stats", {}, b"")
            again = await service.handle_request("GET", "/stats", {}, b"")
            return first[2], again[2]

        first, again = asyncio.run(main())
        expected = encoded(dict(snapshot.stats_payload()) | {
            "snapshot_version": 1,
            "worker_id": 3,
            "tenant": "default",
            "persist": {"persists": 2, "persist_failures": 0},
        })
        assert first == again == expected

    def test_the_lru_holds_bytes(self, graph):
        service = make_service(graph)
        company = next(graph.companies()).id

        async def main():
            for path, query in (
                ("/control", {}), ("/close-links", {}), ("/family", {}),
                ("/stats", {}), (f"/ubo/{company}", {}),
                (f"/ubo/{company}", {"threshold": "0.2"}),
                (f"/neighbors/{company}", {}),
            ):
                await service.handle_request("GET", path, query, b"")

        asyncio.run(main())
        values = list(service.cache.lru._entries.values())
        assert len(values) == 7
        assert all(type(value) is bytes for value in values)
        assert service.cache.lru.bytes == sum(map(len, values))

    def test_a_hit_over_the_socket_encodes_nothing(self, graph, monkeypatch):
        service = make_service(graph)
        company = next(graph.companies()).id
        paths = ["/control", "/close-links?threshold=0.3", "/family",
                 f"/ubo/{company}", f"/ubo/{company}?threshold=0.15",
                 f"/neighbors/{company}?depth=2"]
        calls = []
        dumps = json.dumps

        def counting_dumps(*args, **kwargs):
            calls.append(args)
            return dumps(*args, **kwargs)

        async def main():
            await service.start()
            misses = [await http_raw(service.port, "GET", p) for p in paths]
            monkeypatch.setattr(json, "dumps", counting_dumps)
            hits = [await http_raw(service.port, "GET", p) for p in paths]
            monkeypatch.undo()
            await service.stop()
            return misses, hits

        misses, hits = asyncio.run(main())
        assert calls == []
        assert hits == misses
        assert all(status == 200 for status, _body in hits)

    def test_metrics_report_the_cached_bytes(self, graph):
        service = make_service(graph)

        async def main():
            empty = await service.handle_request("GET", "/metrics", {}, b"")
            control = await service.handle_request("GET", "/control", {}, b"")
            family = await service.handle_request("GET", "/family", {}, b"")
            after = await service.handle_request("GET", "/metrics", {}, b"")
            return empty[2], control[2], family[2], after[2]

        empty, control, family, after = asyncio.run(main())
        assert json.loads(empty)["cache"]["bytes"] == 0
        assert json.loads(after)["cache"]["bytes"] == len(control) + len(family)


class TestMetrics:
    def test_latency_histogram_and_counters(self, graph):
        service = make_service(graph)

        async def main():
            await service.start()
            port = service.port
            for _ in range(3):
                await http_request(port, "GET", "/control")
            await http_request(port, "GET", "/nope")
            _s, metrics = await http_request(port, "GET", "/metrics")
            await service.stop()
            return metrics

        metrics = asyncio.run(main())
        assert metrics["requests"]["control"] == 3
        assert metrics["requests"]["unknown"] == 1
        assert metrics["statuses"]["2xx"] >= 3
        assert metrics["statuses"]["4xx"] == 1
        histogram = metrics["latency_histogram"]["control"]
        assert sum(histogram) == 3
        assert metrics["cache"]["hits"] == 2  # 2nd and 3rd /control were LRU hits
        assert metrics["snapshot"]["version"] == 1
        assert metrics["updater"]["rebuilds"] == 0


class TestRebuildFailureRecovery:
    """Regression: a failed background rebuild used to strand staging.

    The batch was accepted, the build died, and every later batch kept
    stacking on state that would never publish — while the failure
    itself vanished into an unreferenced task.  The updater now keeps
    strong task references, records the error, and rolls staging back to
    the served snapshot.
    """

    def test_failed_rebuild_rolls_staging_back(self, graph):
        from repro.service import SnapshotBuilder, SnapshotManager
        from repro.service.updates import GraphUpdater

        async def main():
            builder = SnapshotBuilder()
            manager = SnapshotManager()
            manager.publish(builder.build(graph))
            updater = GraphUpdater(manager, builder, graph)

            original_build = builder.build
            builder.build = lambda *a, **kw: (_ for _ in ()).throw(
                RuntimeError("disk full")
            )
            await updater.apply([{"op": "add_company", "id": "DOOMEDCO"}])
            while updater._tasks:
                await asyncio.sleep(0.01)
            builder.build = original_build

            stats_after_failure = updater.stats()
            staging_after_failure = updater._staging

            # the next batch starts from the *served* graph: DOOMEDCO is
            # gone, and the batch publishes version 2 normally
            result = await updater.apply(
                [{"op": "add_company", "id": "OKCO"}], wait=True
            )
            return stats_after_failure, staging_after_failure, result

        stats, staging, result = asyncio.run(main())
        assert stats["rebuild_failures"] == 1
        assert stats["staging_rollbacks"] == 1
        assert "disk full" in stats["last_rebuild_error"]
        assert not staging.has_node("DOOMEDCO")
        assert result["version"] == 2

    def test_newer_batch_is_not_clobbered_by_old_failure(self, graph):
        from repro.service import SnapshotBuilder, SnapshotManager
        from repro.service.updates import GraphUpdater

        async def main():
            builder = SnapshotBuilder()
            manager = SnapshotManager()
            manager.publish(builder.build(graph))
            updater = GraphUpdater(manager, builder, graph)

            original_build = builder.build
            calls = {"n": 0}

            def build_once_broken(*args, **kwargs):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("transient")
                return original_build(*args, **kwargs)

            builder.build = build_once_broken
            await updater.apply([{"op": "add_company", "id": "FIRSTCO"}])
            # accepted before the first rebuild fails: staging has moved
            # on, so the failure must leave the second batch's state alone
            await updater.apply([{"op": "add_company", "id": "SECONDCO"}])
            while updater._tasks:
                await asyncio.sleep(0.01)
            return updater.stats(), updater._staging

        stats, staging = asyncio.run(main())
        assert stats["rebuild_failures"] == 1
        assert stats["staging_rollbacks"] == 0  # newer batch owns staging
        assert staging.has_node("FIRSTCO") and staging.has_node("SECONDCO")

    def test_rebuild_tasks_hold_strong_references(self, graph):
        from repro.service import SnapshotBuilder, SnapshotManager
        from repro.service.updates import GraphUpdater

        async def main():
            builder = SnapshotBuilder()
            manager = SnapshotManager()
            manager.publish(builder.build(graph))
            updater = GraphUpdater(manager, builder, graph)
            updater.build_delay_s = 0.2
            await updater.apply([{"op": "add_company", "id": "SLOWCO"}])
            held = len(updater._tasks)
            while updater._tasks:
                await asyncio.sleep(0.01)
            return held, updater.stats()

        held, stats = asyncio.run(main())
        assert held == 1  # referenced while in flight, dropped after
        assert stats["rebuilds"] == 1
        assert stats["rebuild_failures"] == 0


class TestMetricsAccounting:
    def test_bypass_endpoints_stay_out_of_latency_histograms(self, graph):
        service = make_service(graph)

        async def main():
            await service.start()
            port = service.port
            for _ in range(3):
                await http_request(port, "GET", "/healthz")
                await http_request(port, "GET", "/metrics")
            await http_request(port, "GET", "/control")
            _, payload = await http_request(port, "GET", "/metrics")
            await service.stop()
            return payload

        payload = asyncio.run(main())
        # counted as requests ...
        assert payload["requests"]["healthz"] == 3
        assert payload["requests"]["metrics"] >= 3
        assert payload["bypass_requests"] >= 6
        # ... but absent from the latency accounting they used to skew
        assert "healthz" not in payload["latency_histogram"]
        assert "metrics" not in payload["latency_histogram"]
        assert "healthz" not in payload["latency_sum_s"]
        # admitted endpoints still get full latency accounting
        assert sum(payload["latency_histogram"]["control"]) == 1
        assert payload["latency_sum_s"]["control"] > 0

    def test_identity_fields_on_stats_and_metrics(self, graph):
        service = make_service(graph)

        async def main():
            await service.start()
            port = service.port
            _, stats = await http_request(port, "GET", "/stats")
            _, stats_again = await http_request(port, "GET", "/stats")
            _, metrics = await http_request(port, "GET", "/metrics")
            _, health = await http_request(port, "GET", "/healthz")
            await service.stop()
            return stats, stats_again, metrics, health

        stats, stats_again, metrics, health = asyncio.run(main())
        assert stats["snapshot_version"] == 1
        assert stats["worker_id"] is None  # single-process serving
        assert stats_again == stats  # cache hit keeps the identity fields
        assert metrics["snapshot_version"] == 1
        assert metrics["worker_id"] is None
        assert health["worker_id"] is None

    def test_metrics_merge_folds_worker_payloads(self):
        from repro.service import Metrics

        a, b = Metrics(), Metrics()
        a.observe("control", 0.004, 200)
        a.observe("control", 0.030, 200)
        a.observe("healthz", 0.001, 200, bypass=True)
        b.observe("control", 0.004, 200)
        b.observe("ubo", 0.200, 404)
        merged = Metrics.merge([a.to_dict(), b.to_dict()])
        assert merged["requests"] == {"control": 3, "healthz": 1, "ubo": 1}
        assert merged["statuses"] == {"2xx": 4, "4xx": 1}
        assert merged["bypass_requests"] == 1
        assert sum(merged["latency_histogram"]["control"]) == 3
        assert merged["latency_sum_s"]["control"] == pytest.approx(0.038)
        assert "healthz" not in merged["latency_histogram"]


class TestPoolHooks:
    def test_drain_finishes_in_flight_then_reports_idle(self, graph):
        service = make_service(graph)

        async def main():
            await service.start()
            port = service.port
            slow_payload(service.manager.current, "family_payload", 0.2)
            request_task = asyncio.create_task(http_request(port, "GET", "/family"))
            await asyncio.sleep(0.05)  # the read is now executor-side
            drained = await service.drain(timeout_s=5.0)
            status, _ = await request_task
            return drained, status

        drained, status = asyncio.run(main())
        assert drained is True
        assert status == 200  # the in-flight request completed during drain

    def test_mutation_forwarder_replaces_local_updater(self, graph):
        from repro.service import ReasoningService, SnapshotBuilder, SnapshotManager

        manager = SnapshotManager()
        manager.publish(SnapshotBuilder().build(graph))
        service = ReasoningService(manager, config=ServiceConfig(port=0))
        assert service.updater is None
        forwarded = []

        async def forwarder(tenant, deltas):
            forwarded.append((tenant, deltas))
            return 200, {"status": "published", "version": 99}

        service.mutation_forwarder = forwarder

        async def main():
            await service.start()
            port = service.port
            result = await http_request(
                port, "POST", "/mutations?wait=1", {"deltas": [{"op": "x"}]}
            )
            await service.stop()
            return result

        status, payload = asyncio.run(main())
        assert status == 200
        assert payload["version"] == 99
        assert forwarded == [("default", [{"op": "x"}])]

    def test_cluster_metrics_provider_answers_scoped_metrics(self, graph):
        service = make_service(graph)

        async def provider():
            return {"scope": "cluster", "workers": [0, 1]}

        service.cluster_metrics_provider = provider

        async def main():
            await service.start()
            port = service.port
            scoped = await http_request(port, "GET", "/metrics?scope=cluster")
            plain = await http_request(port, "GET", "/metrics")
            await service.stop()
            return scoped, plain

        (s_status, s_payload), (p_status, p_payload) = asyncio.run(main())
        assert s_status == 200 and s_payload == {"scope": "cluster", "workers": [0, 1]}
        assert p_status == 200 and "requests" in p_payload
