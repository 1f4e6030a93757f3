"""Tenant isolation: the multi-tenant registry vs independent services.

The acceptance-critical contract: two tenants served from one process
(one cache, one micro-batcher, one single-flight table) answer **byte
for byte** what two independent single-tenant services answer — with
deliberately colliding graph shapes (same node-id keyspace, same
snapshot versions, different edges), so any cross-tenant bleed in the
cache keyspace or batch grouping shows up as a wrong payload, not a
subtle perf artifact.  Also covered: the ``/t/{tenant}`` admin
lifecycle, unknown-tenant 404s on every route, un-prefixed alias
routing, and a property test over the tenant-keyed cache.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.graph.company_graph import CompanyGraph
from repro.service import (
    DEFAULT_TENANT,
    GraphRegistry,
    LRUCache,
    ServiceConfig,
    SingleFlight,
    SnapshotManager,
    TenantError,
    UnknownTenantError,
    build_service,
    validate_tenant,
)
from repro.service.snapshot import snapshot_key


def small_graph(seed: int) -> CompanyGraph:
    """Same id keyspace (P*/C*) for every seed; different edges."""
    g, _truth = generate_company_graph(
        CompanySpec(persons=18, companies=14, seed=seed)
    )
    return g


def make_service(graph, tenant=DEFAULT_TENANT, **overrides):
    return build_service(
        graph, config=ServiceConfig(port=0, **overrides), tenant=tenant
    )


async def http_request(port, method, path, body=None):
    """One HTTP/1.1 request over a fresh connection; returns (status, json)."""
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


#: fields of /stats that legitimately differ between a multi-tenant
#: service and an isolated one: identity (tenant, worker, persist
#: health) and wall-clock timing — everything else must be byte-equal
_STATS_IDENTITY_FIELDS = (
    "tenant", "worker_id", "persist", "built_s", "created_at",
)


def canonical(endpoint: str, payload) -> str:
    if endpoint.startswith("stats"):
        payload = {
            k: v for k, v in payload.items() if k not in _STATS_IDENTITY_FIELDS
        }
    return json.dumps(payload, sort_keys=True)


# ----------------------------------------------------------------------
# registry unit surface
# ----------------------------------------------------------------------


class TestRegistry:
    def test_validate_tenant(self):
        for good in ("a", "default", "tenant-1", "A.b_c", "0x", "a" * 64):
            assert validate_tenant(good) == good
        for bad in ("", "-x", ".x", "a/b", "a b", "a" * 65, None, 7, "t\n"):
            with pytest.raises(TenantError):
                validate_tenant(bad)

    def test_first_adopt_sets_alias_and_duplicates_fail(self):
        registry = GraphRegistry()
        manager = SnapshotManager()
        registry.adopt("alpha", manager)
        assert registry.alias == "alpha"
        assert "alpha" in registry and len(registry) == 1
        with pytest.raises(TenantError):
            registry.adopt("alpha", SnapshotManager())

    def test_get_unknown_raises_with_one_line_message(self):
        registry = GraphRegistry()
        with pytest.raises(UnknownTenantError) as err:
            registry.get("ghost")
        assert str(err.value) == "unknown tenant: ghost"
        assert err.value.tenant == "ghost"

    def test_create_empty_and_drop(self):
        registry = GraphRegistry()
        binding = registry.create("acme")
        assert binding.version == 1
        assert binding.updater is not None  # mutable: grows via deltas
        assert binding.info()["nodes"] == 0
        assert registry.stats()["versions"] == {"acme": 1}
        registry.drop("acme")
        assert "acme" not in registry
        with pytest.raises(UnknownTenantError):
            registry.drop("acme")
        assert registry.stats() == {
            "tenants": 0, "alias": "acme", "created": 1, "dropped": 1,
            "versions": {},
        }

    def test_persist_target_wires_new_updaters(self):
        seen = []
        registry = GraphRegistry(
            persist=lambda snap, tenant: seen.append((tenant, snap.version))
        )
        binding = registry.create("acme")
        # create() persists v1 through the target on its own, so a
        # created-but-never-mutated tenant survives a restart
        assert seen == [("acme", 1)]
        assert registry.persist.persists == 1
        registry.persist(binding.manager.current, binding.updater.tenant)
        assert seen == [("acme", 1), ("acme", 1)]


# ----------------------------------------------------------------------
# byte-identity vs independent single-tenant services
# ----------------------------------------------------------------------


def reasoning_paths(graph):
    company = next(graph.companies()).id
    person = next(graph.persons()).id
    return [
        "/control",
        "/control?threshold=0.4",
        "/close-links",
        "/family",
        f"/ubo/{company}",
        f"/neighbors/{company}?depth=2",
        f"/neighbors/{person}?depth=1",
        "/stats",
    ]


class TestTenantIsolation:
    def test_two_tenants_byte_identical_to_independent_services(self):
        # colliding shapes: same id keyspace, same version numbers
        multi = make_service(small_graph(3), tenant="alpha")
        multi.registry.create("beta", graph=small_graph(7))
        solo_a = make_service(small_graph(3))
        solo_b = make_service(small_graph(7))
        paths = reasoning_paths(small_graph(3))

        async def main():
            await multi.start()
            await solo_a.start()
            await solo_b.start()
            try:
                for round_ in range(2):  # round 2 reads through the cache
                    for path in paths:
                        # concurrent same-path requests for both tenants:
                        # single-flight and the /ubo micro-batcher may see
                        # both at once and must not coalesce across tenants
                        (sa, pa), (sb, pb), (ssa, psa), (ssb, psb) = (
                            await asyncio.gather(
                                http_request(
                                    multi.port, "GET", f"/t/alpha{path}"
                                ),
                                http_request(
                                    multi.port, "GET", f"/t/beta{path}"
                                ),
                                http_request(solo_a.port, "GET", path),
                                http_request(solo_b.port, "GET", path),
                            )
                        )
                        endpoint = path.lstrip("/")
                        assert sa == ssa == 200, (path, pa, psa)
                        assert sb == ssb == 200, (path, pb, psb)
                        assert canonical(endpoint, pa) == canonical(
                            endpoint, psa
                        ), f"alpha diverged on {path} (round {round_})"
                        assert canonical(endpoint, pb) == canonical(
                            endpoint, psb
                        ), f"beta diverged on {path} (round {round_})"
                        # the two tenants really do differ (the collision
                        # is in shape, not content) — a symmetric bleed
                        # would otherwise pass the equality checks above
                        if path == "/control":
                            assert canonical(endpoint, pa) != canonical(
                                endpoint, pb
                            )
            finally:
                await multi.stop()
                await solo_a.stop()
                await solo_b.stop()

        asyncio.run(main())

    def test_mutation_cycle_leaves_other_tenant_untouched(self):
        multi = make_service(small_graph(3), tenant="alpha")
        multi.registry.create("beta", graph=small_graph(7))
        solo_a = make_service(small_graph(3))
        solo_b = make_service(small_graph(7))
        deltas = [
            {"op": "add_company", "id": "ZNEW"},
            {"op": "add_shareholding", "owner": "C000000", "company": "ZNEW",
             "share": 0.6},
        ]
        paths = reasoning_paths(small_graph(3))

        async def main():
            await multi.start()
            await solo_a.start()
            await solo_b.start()
            try:
                # warm beta's cache pre-mutation, then mutate only alpha
                _, beta_before = await http_request(
                    multi.port, "GET", "/t/beta/control"
                )
                status, mutated = await http_request(
                    multi.port, "POST", "/t/alpha/mutations?wait=1",
                    body={"deltas": deltas},
                )
                assert status == 200 and mutated["version"] == 2, mutated
                status, _ = await http_request(
                    solo_a.port, "POST", "/mutations?wait=1",
                    body={"deltas": deltas},
                )
                assert status == 200
                for path in paths:
                    endpoint = path.lstrip("/")
                    _, pa = await http_request(
                        multi.port, "GET", f"/t/alpha{path}"
                    )
                    _, psa = await http_request(solo_a.port, "GET", path)
                    assert canonical(endpoint, pa) == canonical(
                        endpoint, psa
                    ), f"alpha diverged on {path} after mutation"
                    _, pb = await http_request(
                        multi.port, "GET", f"/t/beta{path}"
                    )
                    _, psb = await http_request(solo_b.port, "GET", path)
                    assert canonical(endpoint, pb) == canonical(
                        endpoint, psb
                    ), f"beta diverged on {path} after alpha's mutation"
                _, beta_stats = await http_request(
                    multi.port, "GET", "/t/beta/stats"
                )
                assert beta_stats["version"] == 1  # untouched
                _, beta_after = await http_request(
                    multi.port, "GET", "/t/beta/control"
                )
                assert beta_after == beta_before
            finally:
                await multi.stop()
                await solo_a.stop()
                await solo_b.stop()

        asyncio.run(main())

    def test_unknown_tenant_is_one_line_404_on_every_route(self):
        service = make_service(small_graph(1))
        routes = [
            ("GET", "/t/ghost"),
            ("GET", "/t/ghost/control"),
            ("GET", "/t/ghost/close-links"),
            ("GET", "/t/ghost/family"),
            ("GET", "/t/ghost/ubo/C0"),
            ("GET", "/t/ghost/neighbors/C0"),
            ("GET", "/t/ghost/stats"),
            ("POST", "/t/ghost/mutations"),
            ("DELETE", "/t/ghost"),
        ]

        async def main():
            await service.start()
            try:
                results = []
                for method, path in routes:
                    body = {"deltas": []} if method == "POST" else None
                    results.append(
                        (path,)
                        + await http_request(service.port, method, path, body)
                    )
                return results
            finally:
                await service.stop()

        for path, status, payload in asyncio.run(main()):
            assert status == 404, (path, payload)
            assert payload == {"error": "unknown tenant: ghost"}, path

    def test_unprefixed_routes_alias_to_seeded_tenant(self):
        service = make_service(small_graph(5), tenant="seeded")

        async def main():
            await service.start()
            try:
                _, plain = await http_request(service.port, "GET", "/control")
                _, prefixed = await http_request(
                    service.port, "GET", "/t/seeded/control"
                )
                _, listing = await http_request(service.port, "GET", "/t")
                return plain, prefixed, listing
            finally:
                await service.stop()

        plain, prefixed, listing = asyncio.run(main())
        assert plain == prefixed
        assert listing["alias"] == "seeded"
        assert [t["tenant"] for t in listing["tenants"]] == ["seeded"]


# ----------------------------------------------------------------------
# tenant admin lifecycle
# ----------------------------------------------------------------------


class TestTenantAdmin:
    def test_create_mutate_delete_recreate(self):
        service = make_service(small_graph(2))

        async def main():
            await service.start()
            port = service.port
            try:
                out = {}
                out["put"] = await http_request(port, "PUT", "/t/acme")
                out["put_again"] = await http_request(port, "PUT", "/t/acme")
                out["info"] = await http_request(port, "GET", "/t/acme")
                out["mutate"] = await http_request(
                    port, "POST", "/t/acme/mutations?wait=1",
                    body={"deltas": [{"op": "add_company", "id": "SOLO"}]},
                )
                out["control_cached"] = await http_request(
                    port, "GET", "/t/acme/control"
                )
                out["del_alias"] = await http_request(
                    port, "DELETE", f"/t/{DEFAULT_TENANT}"
                )
                out["delete"] = await http_request(port, "DELETE", "/t/acme")
                out["gone"] = await http_request(port, "GET", "/t/acme/control")
                out["recreate"] = await http_request(port, "PUT", "/t/acme")
                # the recreated tenant must not serve the old tenant's
                # cached payloads (delete evicts its cache keyspace)
                out["fresh_stats"] = await http_request(
                    port, "GET", "/t/acme/stats"
                )
                out["bad_name"] = await http_request(port, "PUT", "/t/bad%20name")
                out["listing"] = await http_request(port, "GET", "/t")
                return out
            finally:
                await service.stop()

        out = asyncio.run(main())
        assert out["put"][0] == 201 and out["put"][1]["status"] == "created"
        assert out["put"][1]["version"] == 1
        assert out["put_again"][0] == 200
        assert out["put_again"][1]["status"] == "exists"
        assert out["info"][1]["tenant"] == "acme"
        assert out["mutate"][0] == 200 and out["mutate"][1]["version"] == 2
        assert out["control_cached"][0] == 200
        assert out["del_alias"][0] == 400
        assert "alias" in out["del_alias"][1]["error"]
        assert out["delete"][0] == 200
        assert out["delete"][1] == {
            "status": "deleted", "tenant": "acme", "version": 2,
        }
        assert out["gone"][0] == 404
        assert out["recreate"][0] == 201
        assert out["fresh_stats"][1]["nodes"] == 0
        assert out["fresh_stats"][1]["version"] == 1
        assert out["bad_name"][0] == 400
        assert {t["tenant"] for t in out["listing"][1]["tenants"]} == {
            DEFAULT_TENANT, "acme",
        }

    def test_metrics_carry_tenant_dimension(self):
        service = make_service(small_graph(2))
        service.registry.create("acme", graph=small_graph(4))

        async def main():
            await service.start()
            try:
                await http_request(service.port, "GET", "/control")
                await http_request(service.port, "GET", "/t/acme/control")
                await http_request(service.port, "GET", "/t/acme/family")
                _, metrics = await http_request(service.port, "GET", "/metrics")
                _, stats = await http_request(service.port, "GET", "/t/acme/stats")
                return metrics, stats
            finally:
                await service.stop()

        metrics, stats = asyncio.run(main())
        assert metrics["tenant_requests"][DEFAULT_TENANT] == 1
        assert metrics["tenant_requests"]["acme"] == 2
        assert set(metrics["tenants"]) == {DEFAULT_TENANT, "acme"}
        assert metrics["registry"]["tenants"] == 2
        assert stats["tenant"] == "acme"


# ----------------------------------------------------------------------
# cache keyspace property: payloads never cross tenants
# ----------------------------------------------------------------------


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["alpha", "beta", "gamma"]),
        st.integers(min_value=1, max_value=3),   # colliding versions
        st.sampled_from(["control", "ubo", "neighbors"]),
        st.integers(min_value=0, max_value=2),   # colliding params
    ),
    max_size=80,
)


class TestCacheTenantProperty:
    @given(ops=_OPS)
    @settings(deadline=None, max_examples=60)
    def test_lru_never_returns_another_tenants_payload(self, ops):
        # tiny capacity forces evictions mid-sequence; the payload
        # records its own key so any cross-tenant hit is self-evident
        lru = LRUCache(capacity=4)
        for tenant, version, endpoint, param in ops:
            key = snapshot_key(version, endpoint, (param,), tenant=tenant)
            hit = lru.get(key)
            if hit is not None:
                assert hit == (tenant, version, endpoint, param)
            lru.put(key, (tenant, version, endpoint, param))

    def test_single_flight_does_not_coalesce_across_tenants(self):
        flight = SingleFlight()
        calls = []

        def compute_for(tenant):
            async def compute():
                calls.append(tenant)
                await asyncio.sleep(0.01)
                return f"payload-of-{tenant}"
            return compute

        async def main():
            # identical (version, endpoint, params); only the tenant differs
            key_a = snapshot_key(1, "control", (), tenant="alpha")
            key_b = snapshot_key(1, "control", (), tenant="beta")
            return await asyncio.gather(
                flight.run(key_a, compute_for("alpha")),
                flight.run(key_b, compute_for("beta")),
                flight.run(key_a, compute_for("alpha")),
            )

        first, second, third = asyncio.run(main())
        assert first == third == "payload-of-alpha"
        assert second == "payload-of-beta"
        assert sorted(calls) == ["alpha", "beta"]  # coalesced within, not across
