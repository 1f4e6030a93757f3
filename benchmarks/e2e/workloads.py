"""The five workloads, driven only through what users touch: the
``repro`` CLI in fresh processes and HTTP over real sockets.

Each ``run_*`` function performs set-up, the measured phase and the
oracle checks of one workload against a :class:`Run`, which collects
the metrics, the operation counts and whatever the traced pass
(``traced.py``) needs to replay the same work in-process.
"""

from __future__ import annotations

import asyncio
import csv
import json
import os
import random
import shutil
import signal
import statistics
import time
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

from harness import (
    BenchError,
    Children,
    Connection,
    Server,
    closed_loop,
    dir_bytes,
    encode_get,
    encode_post,
    fetch_json,
    make_work_dir,
    percentile,
    run_cli,
    run_python,
    shm_segments,
    summarize,
    window_rates,
)

from repro.graph.io import read_company_csv
from repro.linkage.training import persons_of, train_classifiers
from repro.ownership.close_links import close_link_pairs, is_acyclic
from repro.ownership.control import control_closure
from repro.service import SnapshotBuilder, SnapshotConfig, apply_deltas

#: ``--seconds`` this table is sized for; other values scale the counts
RUN_SECONDS = 12

#: Fixed sizes.  ``structure_seed`` fixes the *shape* of every generated
#: graph; ``--seed`` relabels ids, reshuffles rows and draws the request
#: and mutation streams.  Shape is fixed because it, not the code under
#: test, decides the work: ``ownership_pyramid(60, m=3)`` takes 0.7 s to
#: 31 s depending on its seed, and the sparse extract's family-link time
#: moves 17 % between seeds — either would drown any bound.
SIZES = {
    "structure_seed": 1,
    "augment_sparse": {"persons": 500, "companies": 400, "density": "sparse",
                       "runs": 3, "setups": 3},
    "reason_dense": {"companies": 48, "m": 3, "runs": 5, "setups": 5,
                     # Engine(vectorize=False) needs 12 s on the full pyramid
                     "backend_probe_companies": 32},
    "serve_extract": {"persons": 300, "companies": 240, "density": "sparse",
                      "boots": 3},
    # ``window``: completions per throughput window (see Run.operations)
    "read_hot": {"requests": 40000, "pool": 256, "connections": 2, "window": 1000},
    "read_cold": {"requests": 1600, "connections": 2, "oracle_every": 16,
                  "window": 80},
    "write_publish": {"batches": 42, "family_at": [10, 30], "reader_rate": 100,
                      "reader_pool": 64, "ubo_checks": 20, "workers": 2,
                      # one turn of the add, add, remove, company cycle
                      "window": 4},
}

#: ``family_f1`` on ``augment_sparse`` lies between 0.6954 and 0.7689
#: depending on the id order the seed draws (seeds 1-40; recall is 0.9066
#: on all of them); below the lowest less the issue's 0.005 the run
#: counts a failed operation.
FAMILY_F1_FLOOR = 0.690

FAMILY_CLASSES = ("partner_of", "sibling_of", "parent_of")
SERVE_MIX_HOT = (("ubo", 0.50), ("neighbors", 0.25), ("control", 0.10),
                 ("close-links", 0.05), ("family", 0.05), ("stats", 0.05))
SERVE_MIX_COLD = (("control", 0.35), ("close-links", 0.25), ("neighbors", 0.35),
                  ("ubo", 0.05))
_STATS_KEYS = ("nodes", "edges", "companies", "persons", "augmented_edges",
               "control_pairs", "close_link_pairs", "family_links",
               "companies_with_ubo")


class Run:
    """One run of one workload: metrics, operation counts, child processes."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.scale = seconds / RUN_SECONDS
        self.rng = random.Random(seed)
        self.children = Children()
        self.work = make_work_dir(workload)
        self.segments_before = shm_segments()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        #: within-run sample summaries (n, median, tail) by metric name
        self.samples: dict[str, dict] = {}
        #: hand-over to the traced pass: graphs, request lists, batches,
        #: and ``intervals`` (name, start, end, attributes) of the
        #: end-to-end pass, which itself runs with tracing off
        self.state: dict = {}
        #: the traced pass's span log (run.py sets it once the
        #: end-to-end pass is over)
        self.spans = None

    def count(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def operations(self, latencies_ms: list[float], started: float,
                   done_at: list[float], window: int) -> None:
        """What every workload reports about its operation: the median
        latency, the throughput of the median window of ``window``
        completions, and the tail.  All three are layer metrics, without
        a bound: between identical runs on this box the medians move by
        up to 50 % on three of the five workloads and a p99 by 20-70 %
        (README.md, 'Noise')."""
        ordered = sorted(latencies_ms)
        rates = window_rates(started, done_at, window)
        self.layer["latency_p50_ms"] = statistics.median(ordered)
        self.layer["req_per_s"] = statistics.median(rates)
        self.layer["latency_p99_ms"] = percentile(ordered, 99.0)
        self.samples["latency_ms"] = summarize(ordered)
        self.samples["window_req_per_s"] = summarize(rates)

    def setups(self, walls_s: list[float], extra_s: float = 0.0) -> None:
        """Set-up is repeated within a run and its median reported."""
        self.e2e["setup_s"] = statistics.median(walls_s) + extra_s
        self.samples["setup_s"] = summarize(walls_s)

    def footprint(self) -> None:
        """Peak memory of the measured processes and what they left on
        disk; called when the measured phase and its checks are over."""
        self.children.reap_all()
        self.e2e["peak_rss_mb"] = self.children.peak_rss_mb
        self.e2e["disk_mb"] = dir_bytes(self.work) / 1e6

    def finish(self) -> None:
        """Count leaked segments once every child is gone."""
        self.children.reap_all()
        leaked = shm_segments() - self.segments_before
        self.layer["leaked_segments"] = float(len(leaked))
        for name in sorted(leaked):
            self.fail(f"leaked shared-memory segment {name}")
        self.layer["error_rate"] = self.failed / max(1, self.attempted)

    def close(self) -> None:
        self.children.reap_all()
        shutil.rmtree(self.work, ignore_errors=True)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def relabel_extract(src: Path, dst: Path, rng: random.Random) -> None:
    """Copy a CSV extract with node ids permuted and rows reshuffled.

    The multiset of names, addresses, dates and shares — and so the work
    — is unchanged; ids, sort orders and insertion orders are not.
    """
    dst.mkdir(parents=True)
    tables = {}
    for name in ("companies.csv", "persons.csv", "shareholdings.csv"):
        with open(src / name, newline="") as handle:
            reader = csv.DictReader(handle)
            tables[name] = (list(reader.fieldnames), list(reader))
    mapping: dict[str, str] = {}
    for name in ("companies.csv", "persons.csv"):
        ids = [row["id"] for row in tables[name][1]]
        permuted = ids[:]
        rng.shuffle(permuted)
        mapping.update(zip(ids, permuted))
        for row in tables[name][1]:
            row["id"] = mapping[row["id"]]
    for row in tables["shareholdings.csv"][1]:
        row["owner"] = mapping[row["owner"]]
        row["company"] = mapping[row["company"]]
    for name, (fields, rows) in tables.items():
        rng.shuffle(rows)
        with open(dst / name, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fields)
            writer.writeheader()
            writer.writerows(rows)
    truth_path = src / "ground_truth.json"
    if truth_path.exists():
        truth = json.loads(truth_path.read_text())
        relabelled = {
            "families": {f: sorted(mapping[p] for p in members)
                         for f, members in truth["families"].items()},
            "links": sorted([mapping[x], mapping[y], cls]
                            for x, y, cls in truth["links"]),
        }
        (dst / "ground_truth.json").write_text(json.dumps(relabelled))


def _relabelled_extract(run: Run, write_base) -> Path:
    """``write_base(dir)`` makes the fixed-shape extract; the run's seed
    relabels it into ``extract/``."""
    base, extract = run.work / "generated", run.work / "extract"
    shutil.rmtree(extract, ignore_errors=True)
    write_base(base)
    relabel_extract(base, extract, random.Random(run.seed))
    shutil.rmtree(base)
    return extract


def generate_sparse(run: Run, sizes: dict) -> Path:
    """``repro generate``, the CLI users run."""
    def write_base(base: Path) -> None:
        _wall, code = run_cli(run.children, [
            "generate", base.name,
            "--persons", str(sizes["persons"]), "--companies", str(sizes["companies"]),
            "--density", sizes["density"], "--seed", str(SIZES["structure_seed"]),
        ], run.work)
        if code != 0:
            raise BenchError(f"repro generate exited {code}")
    return _relabelled_extract(run, write_base)


#: what a user without ``repro generate`` for pyramids runs: a script
_DENSE_SCRIPT = """\
import sys
from repro.bench.workloads import ownership_pyramid
from repro.graph.io import write_company_csv
companies, m, seed, out = sys.argv[1:]
write_company_csv(ownership_pyramid(int(companies), m=int(m), seed=int(seed)), out)
"""


def generate_dense(run: Run, sizes: dict) -> Path:
    """The pyramid, written by a fresh process like ``repro generate``:
    in-process it is a 3 ms file write, too short to time."""
    def write_base(base: Path) -> None:
        _wall, code = run_python(run.children, [
            "-c", _DENSE_SCRIPT, str(sizes["companies"]), str(sizes["m"]),
            str(SIZES["structure_seed"]), base.name,
        ], run.work)
        if code != 0:
            raise BenchError(f"pyramid script exited {code}")
    return _relabelled_extract(run, write_base)


def load_truth(extract: Path) -> set[tuple[str, str, str]]:
    path = extract / "ground_truth.json"
    if not path.exists():
        return set()
    return {tuple(link) for link in json.loads(path.read_text())["links"]}


def boot_classifiers(extract: Path, graph):
    """The classifiers the CLI trains at boot from the extract's truth."""
    links = load_truth(extract)
    return train_classifiers(persons_of(graph), links) if links else None


def cold_oracle(graph, classifiers):
    """The independent reference: every relation recomputed cold."""
    return SnapshotBuilder(
        SnapshotConfig(incremental=False), classifiers=classifiers
    ).build(graph)


# ----------------------------------------------------------------------
# batch workloads: augment_sparse, reason_dense
# ----------------------------------------------------------------------

def _run_augment(run: Run, sizes: dict, generate) -> None:
    setups = []
    for _ in range(sizes["setups"]):
        started = time.perf_counter()
        extract = generate(run, sizes)
        setups.append(time.perf_counter() - started)
    run.setups(setups)

    walls, done_at, outputs = [], [], []
    started = time.perf_counter()
    for i in range(run.count(sizes["runs"])):
        wall, code = run_cli(
            run.children, ["augment", "extract", f"out{i}.json"], run.work
        )
        done_at.append(time.perf_counter())
        run.check(code == 0, f"repro augment exited {code}")
        walls.append(wall)
        outputs.append(run.work / f"out{i}.json")
    run.operations([w * 1000.0 for w in walls], started, done_at, window=1)
    run.layer["augment_wall_s"] = statistics.median(walls)

    graph = read_company_csv(extract)
    control = control_closure(graph)
    close = close_link_pairs(graph, max_depth=None if is_acyclic(graph) else 12)
    detected: set[tuple[str, str, str]] = set()
    for path in outputs:
        if not path.exists():
            continue  # already counted as a failed run
        by_label: dict[str, set] = {}
        for edge in json.loads(path.read_text())["edges"]:
            by_label.setdefault(edge["label"], set()).add(
                (edge["source"], edge["target"])
            )
        run.check(by_label.get("control", set()) == control,
                  f"{path.name}: control edges differ from control_closure")
        run.check(by_label.get("close_link", set()) == close,
                  f"{path.name}: close_link edges differ from close_link_pairs")
        detected = {(x, y, cls) for cls in FAMILY_CLASSES
                    for x, y in by_label.get(cls, set())}
    truth = load_truth(extract)
    if truth:
        # fast and wrong counts as failed: the planted links are the oracle
        hits = len(detected & truth)
        precision = hits / len(detected) if detected else 0.0
        recall = hits / len(truth)
        f1 = 2 * precision * recall / (precision + recall) if hits else 0.0
        run.layer["linkage.family_precision"] = precision
        run.layer["linkage.family_recall"] = recall
        run.layer["family_f1"] = f1
        run.check(bool(detected), "repro augment detected no family link")
        run.check(f1 >= FAMILY_F1_FLOOR,
                  f"family_f1 {f1:.4f} is below the floor {FAMILY_F1_FLOOR}")
    run.state.update(extract=extract, graph=graph, sizes=sizes)
    run.footprint()


def run_augment_sparse(run: Run) -> None:
    _run_augment(run, SIZES["augment_sparse"], generate_sparse)


def run_reason_dense(run: Run) -> None:
    _run_augment(run, SIZES["reason_dense"], generate_dense)


# ----------------------------------------------------------------------
# read workloads: read_hot, read_cold
# ----------------------------------------------------------------------

def _draw_kinds(rng: random.Random, mix, n: int) -> list[str]:
    """``n`` request kinds in blocks of 20 that each hold ``mix`` exactly,
    shuffled within the block: every seed, and every throughput window,
    asks for the same work.  (Drawn independently, the number of
    ``read_cold`` requests that cost 100 ms apiece — 5 % of them, two
    thirds of the wall — would vary by ±11 % from seed to seed.)"""
    block = [kind for kind, share in mix for _ in range(round(share * 20))]
    kinds: list[str] = []
    while len(kinds) < n:
        rng.shuffle(block)
        kinds.extend(block)
    return kinds[:n]


def hot_requests(rng: random.Random, graph, sizes: dict, n: int):
    """A fixed pool of ``pool`` paths that fits the LRU, drawn n times."""
    companies = sorted(node.id for node in graph.companies())
    nodes = sorted(graph.node_ids())
    singles = ["/control", "/close-links", "/family", "/stats"]
    n_ubo = sizes["pool"] // 2
    pool = {
        "ubo": [f"/ubo/{c}" for c in rng.sample(companies, n_ubo)],
        "neighbors": [
            f"/neighbors/{v}?depth=2"
            for v in rng.sample(nodes, sizes["pool"] - n_ubo - len(singles))
        ],
        "control": ["/control"], "close-links": ["/close-links"],
        "family": ["/family"], "stats": ["/stats"],
    }
    paths = [p for group in pool.values() for p in group]
    index = {path: i for i, path in enumerate(paths)}
    draws = [index[rng.choice(pool[kind])]
             for kind in _draw_kinds(rng, SERVE_MIX_HOT, n)]
    return paths, draws


def cold_requests(rng: random.Random, graph, n: int) -> list[str]:
    """``n`` paths whose cache key never repeats."""
    companies = sorted(node.id for node in graph.companies())
    point_keys = [(v, d) for v in sorted(graph.node_ids()) for d in (1, 2, 3)]
    rng.shuffle(point_keys)
    paths = []
    for kind in _draw_kinds(rng, SERVE_MIX_COLD, n):
        if kind == "control":
            paths.append(f"/control?threshold={rng.uniform(0.3, 0.7):.9f}")
        elif kind == "close-links":
            paths.append(f"/close-links?threshold={rng.uniform(0.1, 0.4):.9f}")
        elif kind == "ubo":
            paths.append(f"/ubo/{rng.choice(companies)}"
                         f"?threshold={rng.uniform(0.1, 0.4):.9f}")
        else:
            node, depth = point_keys.pop()
            paths.append(f"/neighbors/{node}?depth={depth}")
    return paths


def payload_call(snapshot, path: str):
    """(``Snapshot`` read behind ``path``, thunk performing it)."""
    split = urlsplit(path)
    query = dict(parse_qsl(split.query))
    threshold = float(query["threshold"]) if "threshold" in query else None
    head, _, rest = split.path.strip("/").partition("/")
    if head == "control":
        return "control_payload", lambda: snapshot.control_payload(
            query.get("source"), threshold)
    if head == "close-links":
        return "close_links_payload", lambda: snapshot.close_links_payload(threshold)
    if head == "family":
        return "family_payload", snapshot.family_payload
    if head == "ubo":
        kind = "default" if threshold is None else "custom"
        return f"ubo_payloads[{kind}]", lambda: snapshot.ubo_payloads(
            [rest], threshold)[rest]
    if head == "neighbors":
        depth = int(query.get("depth", 1))
        return "neighbors_payload", lambda: snapshot.neighbors_payload(rest, depth=depth)
    if head == "stats":
        return "stats_payload", snapshot.stats_payload
    raise ValueError(path)


def answer_matches(body: bytes, snapshot, path: str) -> bool:
    """Whether a response body equals what ``snapshot`` answers on
    ``path``; the snapshot version is compared by the caller (the oracle
    is always version 1)."""
    got = json.loads(body)
    expected = json.loads(json.dumps(payload_call(snapshot, path)[1](), default=str))
    if path.startswith("/stats"):
        got, expected = ({key: p.get(key) for key in _STATS_KEYS} for p in (got, expected))
    if path.startswith("/neighbors"):
        # derived edges are added from Python sets, so their order in the
        # edge lists follows the process's string-hash seed
        for payload in (got, expected):
            for side in ("out", "in"):
                payload[side] = sorted(
                    json.dumps(edge, sort_keys=True) for edge in payload.get(side, ()))
    got.pop("version", None)
    expected.pop("version", None)
    return got == expected


def endpoint_of(path: str) -> str:
    return path.split("?")[0].strip("/").split("/")[0]


def _proc_cpu_s(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _run_read(run: Run, hot: bool) -> None:
    sizes = SIZES["read_hot" if hot else "read_cold"]
    extract = generate_sparse(run, SIZES["serve_extract"])
    server, boots = cold_boots(run, ["extract"], signal.SIGINT)

    graph = read_company_csv(extract)
    n = run.count(sizes["requests"])
    if hot:
        paths, draws = hot_requests(run.rng, graph, sizes, n)
    else:
        paths, draws = cold_requests(run.rng, graph, n), list(range(n))
    encoded = [encode_get(p) for p in paths]
    warm_s = 0.0
    if hot:
        # one pass outside the measured phase fills the LRU: every
        # measured request is a hit; its time is part of set-up
        _latencies, warmed_at, warm_started = asyncio.run(
            closed_loop(server.port, encoded, 1, lambda *_: None))
        warm_s = max(warmed_at) - warm_started
    run.setups(boots, extra_s=warm_s)

    first_body: dict[int, bytes] = {}
    bad: set[int] = set()
    body_bytes = 0

    def on_response(i: int, status: int, body: bytes) -> None:
        nonlocal body_bytes
        body_bytes += len(body)
        path_index = draws[i]
        seen = first_body.setdefault(path_index, body)
        if status != 200 or (seen is not body and seen != body):
            bad.add(i)

    cpu_before = _proc_cpu_s(server.proc.pid)
    own_before = time.process_time()
    latencies, done_at, started = asyncio.run(closed_loop(
        server.port, [encoded[d] for d in draws], sizes["connections"], on_response
    ))
    wall = max(done_at) - started
    own_cpu = time.process_time() - own_before
    server_cpu = _proc_cpu_s(server.proc.pid) - cpu_before
    run.operations(latencies, started, done_at, sizes["window"])

    _status, metrics, _raw = asyncio.run(fetch_json(server.port, "/metrics"))
    healthz_started = time.perf_counter()
    run.layer["service.server.healthz_rtt_us"] = asyncio.run(_healthz_rtt_us(server.port))
    intervals = [
        ("loadgen:closed_loop", started, started + wall,
         {"requests": n, "connections": sizes["connections"]}),
        ("service.server:GET /healthz", healthz_started, time.perf_counter(), {}),
    ]
    code = server.stop(signal.SIGINT)
    run.check(code == 0, f"serve exited {code} on SIGINT")

    # oracle: hot verifies every distinct path (repeats were byte-compared
    # in the loop); cold verifies every oracle_every-th request
    oracle = cold_oracle(graph, boot_classifiers(extract, graph))
    to_verify = (sorted(first_body) if hot
                 else range(0, len(paths), sizes["oracle_every"]))
    wrong_paths = {
        index for index in to_verify
        if index not in first_body
        or not answer_matches(first_body[index], oracle, paths[index])
    }
    bad.update(i for i in range(n) if draws[i] in wrong_paths)
    run.attempted += n
    run.failed += len(bad)
    for i in sorted(bad)[:5]:
        run.failures.append(f"request #{i} {paths[draws[i]]}: non-200 or oracle mismatch")

    cache = metrics["cache"]
    lookups = cache["hits"] + cache["misses"]
    by_endpoint: dict[str, list[float]] = {}
    for i, latency in enumerate(latencies):
        by_endpoint.setdefault(endpoint_of(paths[draws[i]]), []).append(latency)
    for endpoint, values in by_endpoint.items():
        run.layer[f"service.server.{endpoint}_p50_ms"] = statistics.median(values)
        run.samples[f"service.server.{endpoint}_ms"] = summarize(values)
    ubo_batches = metrics["batchers"]["ubo"]
    run.layer.update({
        "service.cache.hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "service.cache.evictions": cache["evictions"],
        "service.cache.coalesced": cache["coalesced"],
        "service.cache.computations": cache["leaders"],
        "service.batcher.ubo_keys_per_batch": (
            ubo_batches["batched_keys"] / ubo_batches["batches"]
            if ubo_batches["batches"] else 0.0
        ),
        "service.server.busy_frac": sum(metrics["latency_sum_s"].values()) / wall,
        "service.server.cpu_per_req_us": server_cpu / n * 1e6,
        "service.server.resp_bytes_mean": body_bytes / n,
        "service.server.rejected_429": metrics["rejected_429"],
        "service.server.timeouts_504": metrics["timeouts_504"],
        "loadgen.busy_frac": own_cpu / wall,
    })
    run.state.update(extract=extract, graph=graph, paths=paths, hot=hot,
                     intervals=intervals)
    run.footprint()


def cold_boots(run: Run, args: list[str], stop_signal: int, before_boot=None):
    """Cold boot ``repro serve <args>`` to its first 200, as many times
    as ``SIZES`` says; returns the last server, left running, and every
    boot's wall time.  ``before_boot()`` clears what a boot leaves."""
    walls = []
    for boot in range(SIZES["serve_extract"]["boots"]):
        if boot:
            code = server.stop(stop_signal)
            run.check(code == 0, f"serve exited {code} after boot #{boot}")
        if before_boot:
            before_boot()
        started = time.perf_counter()
        server = Server(run.children, args, run.work)
        status, _payload, _body = asyncio.run(fetch_json(server.port, "/control"))
        walls.append(time.perf_counter() - started)
        run.check(status == 200, f"first /control answered {status}")
    return server, walls


async def _healthz_rtt_us(port: int, n: int = 300) -> float:
    """The HTTP floor: ``/healthz`` bypasses admission, cache and snapshot."""
    conn = await Connection.open(port)
    raw = encode_get("/healthz")
    samples = []
    try:
        for _ in range(n):
            sent = time.perf_counter()
            await conn.request(raw)
            samples.append((time.perf_counter() - sent) * 1e6)
    finally:
        await conn.close()
    return statistics.median(samples)


def run_read_hot(run: Run) -> None:
    _run_read(run, hot=True)


def run_read_cold(run: Run) -> None:
    _run_read(run, hot=False)


# ----------------------------------------------------------------------
# write workload: write_publish
# ----------------------------------------------------------------------

def mutation_stream(rng: random.Random, graph, n: int, family_at: list[int]):
    """``n`` delta batches, each valid against the graph as mutated by
    the ones before it; returns (batches, kinds, final graph).

    Ownership-only batches cycle through: add 1-3 small shareholdings
    between existing companies (twice), remove a previously added one,
    add a company with a controlling stake; the batches at ``family_at``
    add a person with a stake, which makes the builder re-run
    family-link detection.  Added
    shareholdings never change whether the graph is cyclic, so the
    publish cost does not flip between the DAG and bounded-path
    close-link algorithms from one seed to the next.
    """
    companies = sorted(node.id for node in graph.companies())
    persons = sorted(graph.persons(), key=lambda node: node.id)
    acyclic = is_acyclic(graph)
    local = graph
    added: list[tuple[str, str]] = []
    batches, kinds = [], []
    for position in range(n):
        # a fixed cycle of kinds: every seed publishes the same mix
        kind = ("family" if position in family_at
                else ("add", "add", "remove", "company")[position % 4])
        if kind == "remove" and not added:
            kind = "add"
        while True:
            if kind == "family":
                model = rng.choice(persons).properties
                person = f"PX{position:04d}"
                deltas = [
                    {"op": "add_person", "id": person, "properties": {
                        **model, "name": f"Bench{position}"}},
                    {"op": "add_shareholding", "owner": person,
                     "company": rng.choice(companies), "share": 0.05},
                ]
            elif kind == "company":
                company = f"CX{position:04d}"
                deltas = [
                    {"op": "add_company", "id": company, "properties": {
                        "name": f"Bench {position} SRL", "legal_form": "SRL",
                        "address": "Via Roma 1, Milano"}},
                    {"op": "add_shareholding", "owner": rng.choice(companies),
                     "company": company, "share": 0.6},
                ]
            elif kind == "remove":
                owner, company = added[rng.randrange(len(added))]
                deltas = [{"op": "remove_shareholding",
                           "owner": owner, "company": company}]
            else:
                deltas = []
                for _ in range(rng.randint(1, 3)):
                    owner, company = rng.sample(companies, 2)
                    deltas.append({"op": "add_shareholding", "owner": owner,
                                   "company": company,
                                   "share": round(rng.uniform(0.01, 0.04), 6)})
            candidate = local.copy()
            if kind == "add":
                pairs = [(d["owner"], d["company"]) for d in deltas]
                fresh = len(set(pairs)) == len(pairs) and not any(
                    candidate.share(a, b) or candidate.share(b, a) for a, b in pairs
                )
                if not fresh:
                    continue
            apply_deltas(candidate, deltas)
            if kind == "add" and is_acyclic(candidate) != acyclic:
                continue
            break
        if kind == "add":
            added.extend(pairs)
        elif kind == "remove":
            added.remove((owner, company))
        local = candidate
        batches.append(deltas)
        kinds.append(kind)
    return batches, kinds, local


async def _publish_stream(port: int, batches, reader_paths, rate: float):
    """One writer connection posting batches back to back while one
    reader connection asks ``/ubo/{id}`` on a fixed schedule (open loop:
    each read is timed from when it was due, not from when it was sent)."""
    writer = await Connection.open(port)
    reader = await Connection.open(port)
    clock = time.perf_counter
    done = asyncio.Event()
    publishes: list[tuple[float, int, dict, float]] = []
    reads: list[float] = []
    lateness: list[float] = []
    versions: list[int] = []
    read_failures = 0

    async def write() -> None:
        for deltas in batches:
            raw = encode_post("/mutations?wait=1", {"deltas": deltas})
            sent = clock()
            status, body = await writer.request(raw)
            publishes.append(((clock() - sent) * 1000.0, status, json.loads(body), sent))
        done.set()

    async def read() -> None:
        nonlocal read_failures
        encoded = [encode_get(p) for p in reader_paths]
        origin = clock()
        i = 0
        while not done.is_set():
            due = origin + i / rate
            if due > clock():
                await asyncio.sleep(due - clock())
            lateness.append((clock() - due) * 1000.0)
            status, body = await reader.request(encoded[i % len(encoded)])
            reads.append((clock() - due) * 1000.0)
            if status == 200:
                versions.append(json.loads(body)["version"])
            else:
                read_failures += 1
            i += 1

    started = clock()
    try:
        await asyncio.gather(write(), read())
    finally:
        await writer.close()
        await reader.close()
    return publishes, reads, lateness, versions, read_failures, started


async def _fetch_all(port: int, paths: list[str]) -> dict[str, tuple[int, bytes]]:
    conn = await Connection.open(port)
    try:
        return {path: await conn.request(encode_get(path)) for path in paths}
    finally:
        await conn.close()


def run_write_publish(run: Run) -> None:
    sizes = SIZES["write_publish"]
    extract = generate_sparse(run, SIZES["serve_extract"])
    store = run.work / "store"
    server, boots = cold_boots(
        run, ["extract", "--workers", str(sizes["workers"]), "--store", "store"],
        signal.SIGTERM, before_boot=lambda: shutil.rmtree(store, ignore_errors=True),
    )
    run.setups(boots)

    graph = read_company_csv(extract)
    n = run.count(sizes["batches"])
    family_at = [round(p * n / sizes["batches"]) for p in sizes["family_at"]]
    batches, kinds, final_graph = mutation_stream(run.rng, graph, n, family_at)
    companies = sorted(node.id for node in graph.companies())
    reader_paths = [f"/ubo/{c}" for c in run.rng.sample(companies, sizes["reader_pool"])]

    publishes, reads, lateness, versions, read_failures, started = asyncio.run(
        _publish_stream(server.port, batches, reader_paths, sizes["reader_rate"])
    )
    rejected = 0
    for position, (_ms, status, reply, _sent) in enumerate(publishes):
        ok = (status == 200 and reply.get("status") == "published"
              and reply.get("version") == server.version + position + 1
              and reply.get("workers_attached") == list(range(sizes["workers"])))
        rejected += status == 400
        run.check(ok, f"batch #{position} ({kinds[position]}): {status} {reply}")
    run.operations([p[0] for p in publishes], started,
                   [sent + ms / 1000.0 for ms, _status, _reply, sent in publishes],
                   sizes["window"])
    run.attempted += len(reads) + read_failures
    run.failed += read_failures
    run.check(versions == sorted(versions), "reader saw a snapshot version decrease")

    own = [p[0] for p, kind in zip(publishes, kinds) if kind != "family"]
    family = [p[0] for p, kind in zip(publishes, kinds) if kind == "family"]
    run.layer["publish_p50_ms"] = statistics.median(own)
    run.samples["publish_ms"] = summarize(own)
    run.layer["publish_family_s"] = statistics.fmean(family) / 1000.0 if family else 0.0
    run.layer["service.updates.batches_rejected"] = rejected
    run.layer["service.workers.fanout_ms"] = statistics.median(
        p[0] - p[2].get("build_s", 0.0) * 1000.0 for p in publishes
    )
    if reads:
        ordered = sorted(reads)
        run.layer["service.workers.read_p50_ms"] = statistics.median(ordered)
        run.layer["service.workers.read_p99_ms"] = percentile(ordered, 99.0)
        run.layer["service.workers.read_late_frac"] = (
            sum(1 for r in reads if r > 50.0) / len(reads)
        )
        run.layer["loadgen.late_p99_ms"] = percentile(sorted(lateness), 99.0)
        run.samples["service.workers.read_ms"] = summarize(ordered)
    intervals = [
        ("service.workers:POST /mutations", sent, sent + ms / 1000.0, {"kind": kind})
        for (ms, _status, _reply, sent), kind in zip(publishes, kinds)
    ]

    # after the stream the service must equal a cold build of the graph
    # the harness replayed locally, with the classifiers trained at boot
    oracle = cold_oracle(final_graph, boot_classifiers(extract, graph))
    final_companies = sorted(node.id for node in final_graph.companies())
    check_paths = ["/control", "/close-links", "/family"] + [
        f"/ubo/{c}" for c in run.rng.sample(final_companies, sizes["ubo_checks"])
    ]
    before = asyncio.run(_fetch_all(server.port, check_paths))
    for path, (status, body) in before.items():
        run.check(
            status == 200
            and answer_matches(body, oracle, path)
            and json.loads(body)["version"] == server.version + n,
            f"after the stream {path} differs from the cold oracle",
        )

    code = server.stop(signal.SIGTERM)
    run.check(code == 0, f"serve --workers exited {code} on SIGTERM")
    run.layer["store_mb"] = dir_bytes(store) / 1e6
    version_dirs = [d for d in (store / "versions").glob("*/v*") if d.is_dir()]
    run.layer["storage.version_kb"] = (
        statistics.fmean(dir_bytes(d) for d in version_dirs) / 1e3
    )
    run.layer["storage.catalog_kb"] = (store / "catalog.db").stat().st_size / 1e3

    # every acknowledged publish survives a restart from the store alone
    restart_started = time.perf_counter()
    restarted = Server(run.children, ["--store", "store"], run.work)
    after = asyncio.run(_fetch_all(restarted.port, check_paths[:1]))
    run.layer["restart_attach_s"] = time.perf_counter() - restart_started
    after.update(asyncio.run(_fetch_all(restarted.port, check_paths[1:])))
    for path in check_paths:
        run.check(after[path] == before[path],
                  f"restarted server differs from pre-shutdown on {path}")
    code = restarted.stop(signal.SIGINT)
    run.check(code == 0, f"restarted serve exited {code} on SIGINT")
    run.state.update(extract=extract, graph=graph, batches=batches, kinds=kinds,
                     intervals=intervals)
    run.footprint()


WORKLOADS = {
    "augment_sparse": run_augment_sparse,
    "reason_dense": run_reason_dense,
    "read_hot": run_read_hot,
    "read_cold": run_read_cold,
    "write_publish": run_write_publish,
}
