"""Reasoning-service bench — throughput, cache economics, swap pause.

Drives a real ``repro.service`` server over real sockets (keep-alive
HTTP/1.1 clients on an asyncio loop) and reports three sections:

* **throughput** — a mixed read workload (``/control``, ``/close-links``,
  ``/ubo``, ``/neighbors``, ``/stats``) over concurrent connections:
  req/s, p50/p99 latency, and the LRU hit rate;
* **cold_vs_hot** — ``/close-links`` at never-repeated thresholds (every
  request a full computation) vs one threshold repeated (every request
  an LRU hit); the hot p50 must be >= 10x lower than the cold p50;
* **mutation** — a ``POST /mutations`` batch with readers hammering
  ``/control`` throughout the re-augmentation: reader p99 during the
  rebuild, the snapshot-swap pause, and the versions readers observed
  (only the old one, then only the new one — never a half state);
* **multitenant** — N tenants behind one registry service (routed via
  ``/t/{tenant}/...``) vs N independent single-tenant servers on the
  same workload: req/s for both deployments, every sampled response
  byte-compared between the two, and a mutation cycle on one tenant
  asserted to leave every other tenant's payloads untouched;
* **multiproc** — the same mixed read workload against a
  ``ServicePool`` (SO_REUSEPORT workers on shared-memory snapshots):
  N-worker req/s vs a 1-worker pool baseline on the same graph,
  per-response identity asserted against the in-process oracle
  snapshot, and the per-worker attach/swap pause of one
  mutation->publish cycle.

Standalone on purpose (argparse, not pytest): CI's smoke job runs
``python benchmarks/bench_service.py --smoke`` and archives
``BENCH_service.json`` as a per-PR artifact.  The full run enforces the
PR's acceptance floors: hot p50 >= 10x lower than cold p50, and —
when the host actually has >= 4 CPUs to parallelise over — multiproc
req/s >= 3x the 1-worker baseline.  On smaller hosts the measured
ratio is still recorded, with ``gate.enforced = false`` and the reason.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.workloads import realworld_like  # noqa: E402
from repro.service import ServiceConfig, build_service  # noqa: E402
from repro.service.workers import ServicePool  # noqa: E402

#: (persons, total requests, connections) per mode
SCALES = {"smoke": (150, 300, 8), "full": (500, 2000, 16)}
#: never-repeated close-link thresholds of the cold section (count per mode)
COLD_QUERIES = {"smoke": 15, "full": 40}
#: repeats of the single hot threshold
HOT_QUERIES = {"smoke": 150, "full": 400}
#: serving processes of the multiproc section
POOL_WORKERS = {"smoke": 2, "full": 4}
#: tenants of the multitenant section (one registry service vs N solos)
MT_TENANTS = {"smoke": 2, "full": 3}
#: multiproc acceptance floor: N-worker req/s vs the 1-worker baseline
POOL_SPEEDUP_TARGET = 3.0


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


async def _request(reader, writer, method: str, path: str, body: bytes = b""):
    """One request on a kept-alive connection; returns (status, payload)."""
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
    if body:
        head += f"Content-Length: {len(body)}\r\n"
    writer.write((head + "\r\n").encode() + body)
    await writer.drain()
    header = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in header.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
    payload = json.loads(await reader.readexactly(length)) if length else None
    return int(header.split()[1]), payload


async def _drive(port: int, paths: list[str], connections: int) -> list[float]:
    """Spread ``paths`` over ``connections`` keep-alive clients; latencies."""
    latencies: list[float] = []

    async def worker(chunk: list[str]) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            for path in chunk:
                started = time.perf_counter()
                status, _ = await _request(reader, writer, "GET", path)
                latencies.append(time.perf_counter() - started)
                if status != 200:
                    raise SystemExit(f"FATAL: {path} answered {status}")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    chunks = [paths[i::connections] for i in range(connections)]
    await asyncio.gather(*(worker(chunk) for chunk in chunks if chunk))
    return latencies


def _mixed_paths(graph, total: int) -> list[str]:
    companies = [node.id for node in graph.companies()][:20]
    persons = [node.id for node in graph.persons()][:10]
    rotation = (
        ["/control", "/control?threshold=0.4", "/close-links", "/stats", "/family"]
        + [f"/ubo/{c}" for c in companies[:8]]
        + [f"/neighbors/{p}?depth=2" for p in persons[:5]]
    )
    return [rotation[i % len(rotation)] for i in range(total)]


async def _bench_throughput(service, total: int, connections: int) -> dict:
    paths = _mixed_paths(service.manager.current.graph, total)
    hits_before = service.cache.lru.hits
    misses_before = service.cache.lru.misses
    started = time.perf_counter()
    latencies = await _drive(service.port, paths, connections)
    wall_s = time.perf_counter() - started
    hits = service.cache.lru.hits - hits_before
    misses = service.cache.lru.misses - misses_before
    return {
        "requests": len(latencies),
        "connections": connections,
        "wall_s": round(wall_s, 4),
        "req_per_s": round(len(latencies) / wall_s, 1),
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
        "cache_hit_rate": round(hits / max(1, hits + misses), 4),
    }


async def _bench_cold_vs_hot(service, cold_n: int, hot_n: int) -> dict:
    # cold: every threshold distinct -> every request computes; the low
    # range is where the path enumeration is genuinely expensive
    cold_paths = [
        f"/close-links?threshold={0.05 + 0.25 * i / cold_n:.6f}"
        for i in range(cold_n)
    ]
    cold = await _drive(service.port, cold_paths, 1)
    # hot: one threshold repeated -> one computation, then LRU hits
    hot_paths = ["/close-links?threshold=0.45"] * hot_n
    hot = await _drive(service.port, hot_paths, 1)
    cold_p50 = _percentile(cold, 0.50)
    hot_p50 = _percentile(hot[1:], 0.50)  # drop the one cold fill
    return {
        "cold_requests": len(cold),
        "hot_requests": len(hot),
        "cold_p50_ms": round(cold_p50 * 1000, 3),
        "hot_p50_ms": round(hot_p50 * 1000, 3),
        "hot_speedup": round(cold_p50 / hot_p50, 1) if hot_p50 else None,
    }


async def _bench_mutation(service) -> dict:
    graph = service.manager.current.graph
    owner = next(graph.companies()).id
    deltas = [
        {"op": "add_company", "id": "BENCHCO", "properties": {"name": "BenchCo"}},
        {"op": "add_shareholding", "owner": owner, "company": "BENCHCO", "share": 0.8},
    ]
    versions: list[int] = []
    reader_latencies: list[float] = []
    done = asyncio.Event()

    async def reader_loop() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        try:
            while not done.is_set():
                started = time.perf_counter()
                _status, payload = await _request(reader, writer, "GET", "/control")
                reader_latencies.append(time.perf_counter() - started)
                versions.append(payload["version"])
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    readers = [asyncio.create_task(reader_loop()) for _ in range(4)]
    await asyncio.sleep(0.05)  # readers warmed up on the old version
    body = json.dumps({"deltas": deltas}).encode()
    conn_reader, conn_writer = await asyncio.open_connection("127.0.0.1", service.port)
    started = time.perf_counter()
    status, published = await _request(
        conn_reader, conn_writer, "POST", "/mutations?wait=1", body
    )
    mutation_s = time.perf_counter() - started
    conn_writer.close()
    await conn_writer.wait_closed()
    if status != 200:
        raise SystemExit(f"FATAL: mutation answered {status}: {published}")
    await asyncio.sleep(0.05)  # readers observe the new version
    done.set()
    await asyncio.gather(*readers)

    observed = sorted(set(versions))
    old, new = published["version"] - 1, published["version"]
    if any(v not in (old, new) for v in observed):
        raise SystemExit(f"FATAL: readers observed versions {observed}")
    if versions != sorted(versions):
        raise SystemExit("FATAL: a reader regressed to an older version")
    return {
        "published_version": new,
        "mutation_wall_s": round(mutation_s, 4),
        "rebuild_s": round(service.updater.last_rebuild_s, 4),
        "swap_pause_ms": round(service.manager.last_swap_pause_s * 1000, 4),
        "reader_requests_during": len(reader_latencies),
        "reader_p99_ms": round(_percentile(reader_latencies, 0.99) * 1000, 3),
        "versions_observed": observed,
    }


#: /stats fields that identify the serving process/tenant or carry build
#: timings — legitimately different between a registry tenant and its
#: solo twin, so the identity check strips them
_STATS_IDENTITY_FIELDS = ("tenant", "worker_id", "persist", "built_s", "created_at")


def _canonical(path: str, payload) -> object:
    if path.split("?")[0].endswith("/stats"):
        return {
            k: v for k, v in payload.items() if k not in _STATS_IDENTITY_FIELDS
        }
    return payload


async def _bench_multitenant(mode: str) -> dict:
    """N tenants behind one registry service vs N single-tenant solos.

    The same per-tenant workload runs interleaved against ``/t/{tenant}``
    routes of one service and un-prefixed against N independent servers.
    Every sampled response must be byte-identical between the two
    deployments, including across a mutation cycle on one tenant that
    must leave every other tenant's payloads untouched.
    """
    persons, total, connections = SCALES[mode]
    tenants = [f"tenant{i}" for i in range(MT_TENANTS[mode])]
    graphs = {
        t: realworld_like(persons, seed=20 + i)[0]
        for i, t in enumerate(tenants)
    }
    multi = build_service(
        graphs[tenants[0]], config=ServiceConfig(port=0), tenant=tenants[0]
    )
    for t in tenants[1:]:
        multi.registry.create(t, graph=graphs[t])
    solos = {
        t: build_service(graphs[t], config=ServiceConfig(port=0)) for t in tenants
    }
    await multi.start()
    for solo in solos.values():
        await solo.start()
    try:
        share = max(1, total // len(tenants))
        per_tenant = {t: _mixed_paths(graphs[t], share) for t in tenants}
        # round-robin so every connection mixes tenants in one window
        multi_paths = [
            f"/t/{t}{per_tenant[t][i]}"
            for i in range(share)
            for t in tenants
        ]
        started = time.perf_counter()
        latencies = await _drive(multi.port, multi_paths, connections)
        multi_wall = time.perf_counter() - started
        solo_wall = 0.0
        solo_requests = 0
        for t in tenants:
            started = time.perf_counter()
            solo_requests += len(
                await _drive(solos[t].port, per_tenant[t], connections)
            )
            solo_wall += time.perf_counter() - started

        async def assert_identity(t: str, paths) -> int:
            checked = 0
            for path in dict.fromkeys(paths):
                s_multi, p_multi = await _get(multi.port, f"/t/{t}{path}")
                s_solo, p_solo = await _get(solos[t].port, path)
                if s_multi != s_solo or (
                    _canonical(path, p_multi) != _canonical(path, p_solo)
                ):
                    raise SystemExit(
                        f"FATAL: multitenant /t/{t}{path} diverged from the "
                        f"single-tenant twin"
                    )
                checked += 1
            return checked

        identity_checked = 0
        for t in tenants:
            identity_checked += await assert_identity(t, per_tenant[t])

        # mutate tenant 0 in both deployments; every other tenant must
        # answer byte-identically to its pre-mutation payloads
        target, bystanders = tenants[0], tenants[1:]
        frozen = {
            t: await _get(multi.port, f"/t/{t}/control") for t in bystanders
        }
        owner = next(graphs[target].companies()).id
        deltas = [
            {"op": "add_company", "id": "MTCO", "properties": {"name": "MtCo"}},
            {"op": "add_shareholding", "owner": owner, "company": "MTCO",
             "share": 0.7},
        ]
        body = json.dumps({"deltas": deltas}).encode()
        for port, path in (
            (multi.port, f"/t/{target}/mutations?wait=1"),
            (solos[target].port, "/mutations?wait=1"),
        ):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                status, payload = await _request(reader, writer, "POST", path, body)
            finally:
                writer.close()
                await writer.wait_closed()
            if status != 200:
                raise SystemExit(f"FATAL: multitenant mutation on {path} "
                                 f"answered {status}: {payload}")
        identity_after = await assert_identity(target, per_tenant[target])
        for t in bystanders:
            if await _get(multi.port, f"/t/{t}/control") != frozen[t]:
                raise SystemExit(
                    f"FATAL: mutating {target} changed /t/{t}/control"
                )
        return {
            "tenants": len(tenants),
            "registry_service": {
                "requests": len(latencies),
                "wall_s": round(multi_wall, 4),
                "req_per_s": round(len(latencies) / multi_wall, 1),
                "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
                "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
            },
            "solo_services": {
                "requests": solo_requests,
                "wall_s": round(solo_wall, 4),
                "req_per_s": round(solo_requests / solo_wall, 1),
            },
            "identity_checked_paths": identity_checked,
            "mutation_isolation": {
                "mutated_tenant": target,
                "published_version": multi.registry.get(target).version,
                "identity_after_mutation": identity_after,
                "bystanders_unchanged": len(bystanders),
            },
        }
    finally:
        await multi.stop()
        for solo in solos.values():
            await solo.stop()


def _norm(payload) -> object:
    """Oracle payloads as they appear on the wire (JSON round trip)."""
    return json.loads(json.dumps(payload, default=str))


async def _get(port: int, path: str):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await _request(reader, writer, "GET", path)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _pool_throughput(pool, paths: list[str], connections: int) -> dict:
    started = time.perf_counter()
    latencies = asyncio.run(_drive(pool.port, paths, connections))
    wall_s = time.perf_counter() - started
    return {
        "requests": len(latencies),
        "connections": connections,
        "wall_s": round(wall_s, 4),
        "req_per_s": round(len(latencies) / wall_s, 1),
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
    }


def _assert_pool_identity(pool, graph) -> int:
    """Every sampled response byte-equal to the in-process oracle."""
    oracle = pool.oracle
    companies = sorted((n.id for n in graph.companies()), key=str)[:6]
    expectations = [
        ("/control", _norm(oracle.control_payload())),
        ("/close-links", _norm(oracle.close_links_payload())),
        ("/family", _norm(oracle.family_payload())),
    ] + [
        (f"/ubo/{c}", _norm(oracle.ubo_payloads([c])[c])) for c in companies
    ]
    for path, expected in expectations:
        status, payload = asyncio.run(_get(pool.port, path))
        if status != 200:
            raise SystemExit(f"FATAL: multiproc {path} answered {status}")
        if payload != expected:
            raise SystemExit(f"FATAL: multiproc {path} diverged from the oracle")
    return len(expectations)


def _bench_multiproc(mode: str, smoke: bool) -> dict:
    persons, total, connections = SCALES[mode]
    workers = POOL_WORKERS[mode]
    # a fresh graph: the single-process sections mutated theirs
    graph, _truth = realworld_like(persons, seed=7)
    paths = _mixed_paths(graph, total)
    runs: dict[int, dict] = {}
    publish: dict = {}
    identity_checked = 0
    for n in (1, workers):
        pool = ServicePool(graph, workers=n, config=ServiceConfig(port=0))
        pool.start()
        try:
            asyncio.run(_drive(pool.port, paths[: total // 10], connections))  # warm
            runs[n] = {"workers": n, **_pool_throughput(pool, paths, connections)}
            if n == workers:
                identity_checked = _assert_pool_identity(pool, graph)
                owner = next(graph.companies()).id
                result = pool.mutate([
                    {
                        "op": "add_company",
                        "id": "MPROCCO",
                        "properties": {"name": "MProcCo"},
                    },
                    {
                        "op": "add_shareholding",
                        "owner": owner,
                        "company": "MPROCCO",
                        "share": 0.8,
                    },
                ])
                publish = {
                    "published_version": result["version"],
                    "workers_attached": result["workers_attached"],
                    "per_worker_swap": {
                        str(w): {
                            "attach_ms": round(s["attach_s"] * 1000, 3),
                            "swap_pause_ms": round(s["swap_pause_s"] * 1000, 4),
                        }
                        for w, s in sorted(pool.last_swap.items())
                    },
                }
        finally:
            pool.stop(drain=False)
    baseline, scaled = runs[1], runs[workers]
    speedup = round(scaled["req_per_s"] / baseline["req_per_s"], 2)
    cpus = os.cpu_count() or 1
    if smoke:
        reason = "smoke mode measures but does not gate"
    elif cpus < 4:
        reason = f"requires >= 4 CPUs to parallelise over, found {cpus}"
    else:
        reason = None
    return {
        "workers": workers,
        "cpus": cpus,
        "baseline_1w": baseline,
        f"pool_{workers}w": scaled,
        "speedup_vs_1w": speedup,
        "identity_checked_paths": identity_checked,
        "publish": publish,
        "gate": {
            "target_x": POOL_SPEEDUP_TARGET,
            "enforced": reason is None,
            **({"reason": reason} if reason else {}),
        },
    }


def run_benchmark(smoke: bool) -> dict:
    mode = "smoke" if smoke else "full"
    persons, total, connections = SCALES[mode]
    graph, _truth = realworld_like(persons, seed=7)
    service = build_service(graph, config=ServiceConfig(port=0))

    async def main() -> dict:
        await service.start()
        sections = {
            "throughput": await _bench_throughput(service, total, connections),
            "cold_vs_hot": await _bench_cold_vs_hot(
                service, COLD_QUERIES[mode], HOT_QUERIES[mode]
            ),
            "mutation": await _bench_mutation(service),
        }
        await service.stop()
        sections["multitenant"] = await _bench_multitenant(mode)
        return sections

    sections = asyncio.run(main())
    sections["multiproc"] = _bench_multiproc(mode, smoke)
    payload = {
        "mode": mode,
        "graph": {"nodes": graph.node_count, "edges": graph.edge_count},
        **sections,
    }
    t, c, m = payload["throughput"], payload["cold_vs_hot"], payload["mutation"]
    print(
        f"{'throughput':>12} {t['req_per_s']:8.1f} req/s  "
        f"p50={t['p50_ms']:.2f}ms p99={t['p99_ms']:.2f}ms "
        f"hit_rate={t['cache_hit_rate']:.2%}"
    )
    print(
        f"{'cold_vs_hot':>12} cold_p50={c['cold_p50_ms']:.2f}ms "
        f"hot_p50={c['hot_p50_ms']:.2f}ms speedup={c['hot_speedup']}x"
    )
    print(
        f"{'mutation':>12} rebuild={m['rebuild_s']:.2f}s "
        f"swap_pause={m['swap_pause_ms']:.3f}ms "
        f"reader_p99={m['reader_p99_ms']:.2f}ms versions={m['versions_observed']}"
    )
    mt = payload["multitenant"]
    print(
        f"{'multitenant':>12} {mt['registry_service']['req_per_s']:8.1f} req/s "
        f"@{mt['tenants']} tenants (solos={mt['solo_services']['req_per_s']:.1f}"
        f" req/s)  identity={mt['identity_checked_paths']}"
        f"+{mt['mutation_isolation']['identity_after_mutation']} paths"
    )
    mp = payload["multiproc"]
    scaled = mp[f"pool_{mp['workers']}w"]
    print(
        f"{'multiproc':>12} {scaled['req_per_s']:8.1f} req/s @{mp['workers']}w  "
        f"baseline={mp['baseline_1w']['req_per_s']:.1f} req/s @1w  "
        f"speedup={mp['speedup_vs_1w']}x "
        f"(gate {'on' if mp['gate']['enforced'] else 'off'}, "
        f"{mp['cpus']} cpus)"
    )
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_service.json",
        help="where to write the JSON results",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small graph and request counts (the CI smoke job)",
    )
    args = parser.parse_args(argv)
    payload = run_benchmark(args.smoke)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"# wrote {args.output}")
    if not args.smoke:
        speedup = payload["cold_vs_hot"]["hot_speedup"]
        if speedup is None or speedup < 10.0:
            raise SystemExit(
                f"FATAL: cache-hit p50 is only {speedup}x lower than the "
                f"cold p50 (< 10x target)"
            )
    multiproc = payload["multiproc"]
    if multiproc["gate"]["enforced"]:
        ratio = multiproc["speedup_vs_1w"]
        if ratio < POOL_SPEEDUP_TARGET:
            raise SystemExit(
                f"FATAL: {multiproc['workers']}-worker pool is only {ratio}x "
                f"the 1-worker baseline (< {POOL_SPEEDUP_TARGET}x target)"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
