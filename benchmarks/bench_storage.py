"""Durable-store bench — mmap attach vs cold rebuild.

Measured in **subprocesses** so wall clock and peak memory belong to
exactly one boot path: a scale ladder; at each size the parent builds a
snapshot, persists it to a :class:`repro.storage.FrameStore`, and
computes the oracle payloads (control / close-link / family / UBO
rows).  A *cold* child then boots the full pipeline from the CSV
extract and an *attach* child boots by ``FrameStore.attach_latest``
(mmap, no pipeline).  Both children recompute the payloads, which
must match the oracle **row for row** — the speedup only counts if
the answers are identical.  Reported per scale: wall seconds and
``ru_maxrss`` for both paths, and the attach speedup.

Standalone on purpose (argparse, not pytest): CI's storage smoke job
runs ``python benchmarks/bench_storage.py --smoke`` and archives
``BENCH_storage.json``.  The full run enforces the acceptance floor:
attach >= 10x faster than the cold rebuild at the largest scale.  Smoke
measures the same numbers without gating, recording
``gate.enforced = false`` and the reason.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: (persons, companies) ladder per mode; the gate applies to the last
SCALES = {
    "smoke": [(300, 220)],
    "full": [(600, 450), (2000, 1500), (5000, 3800)],
}
ATTACH_SPEEDUP_TARGET = 10.0
SEED = 17


def _snapshot_config():
    from repro.service import SnapshotConfig

    return SnapshotConfig(augment=True, first_level_clusters=1, use_embeddings=False)


def _payloads(snapshot) -> dict:
    """Canonical JSON rows of every served result set — the identity oracle."""
    return json.loads(json.dumps({
        "control": sorted([str(a), str(b)] for a, b in snapshot.control_rows),
        "close": sorted([str(a), str(b)] for a, b in snapshot.close_rows),
        "family": sorted([str(a), str(b), str(c)] for a, b, c in snapshot.family_rows),
        "ubo": {
            str(company): [
                [str(o.person), repr(o.integrated_share), bool(o.controls)]
                for o in owners
            ]
            for company, owners in snapshot.ubo.items()
        },
    }))


# ----------------------------------------------------------------------
# child processes (dispatched via --child; print one JSON object)
# ----------------------------------------------------------------------

def _child_cold(extract: str) -> dict:
    import resource

    from repro.graph.io import read_company_csv
    from repro.service import SnapshotBuilder

    started = time.perf_counter()
    graph = read_company_csv(extract)
    snapshot = SnapshotBuilder(_snapshot_config()).build(graph)
    wall_s = time.perf_counter() - started
    return {
        "wall_s": wall_s,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "payloads": _payloads(snapshot),
    }


def _child_attach(store_dir: str) -> dict:
    import resource

    from repro.storage import FrameStore

    started = time.perf_counter()
    store = FrameStore.open(store_dir)
    snapshot = store.attach_latest()
    wall_s = time.perf_counter() - started
    return {
        "wall_s": wall_s,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "payloads": _payloads(snapshot),
    }


def _run_child(args: list[str]) -> dict:
    """Run this file as a child measurement process; parse its JSON."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", *args],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"FATAL: child {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# the ladder
# ----------------------------------------------------------------------

def _bench_attach_vs_cold(mode: str, workdir: Path) -> dict:
    from repro.datagen.company_generator import CompanySpec, generate_company_graph
    from repro.graph.io import write_company_csv
    from repro.service import SnapshotBuilder
    from repro.storage import FrameStore

    ladder = []
    for persons, companies in SCALES[mode]:
        label = f"{persons}p"
        extract = workdir / f"extract_{label}"
        store_dir = workdir / f"store_{label}"
        spec = CompanySpec(persons=persons, companies=companies, seed=SEED)
        graph, _ = generate_company_graph(spec)
        write_company_csv(graph, extract)
        snapshot = SnapshotBuilder(_snapshot_config()).build(graph)
        FrameStore.create(store_dir).persist(snapshot)
        oracle = _payloads(snapshot)

        cold = _run_child(["cold", str(extract)])
        attach = _run_child(["attach", str(store_dir)])
        for name, result in (("cold", cold), ("attach", attach)):
            if result["payloads"] != oracle:
                raise SystemExit(
                    f"FATAL: {name} boot at {label} diverged from the oracle"
                )
        speedup = cold["wall_s"] / attach["wall_s"] if attach["wall_s"] else None
        ladder.append({
            "persons": persons,
            "companies": companies,
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "cold_wall_s": round(cold["wall_s"], 4),
            "attach_wall_s": round(attach["wall_s"], 4),
            "cold_max_rss_kb": cold["max_rss_kb"],
            "attach_max_rss_kb": attach["max_rss_kb"],
            "attach_speedup": round(speedup, 2) if speedup else None,
            "payloads_identical": True,
        })
        print(f"  {label}: cold {cold['wall_s']:.3f}s / attach "
              f"{attach['wall_s']:.3f}s ({speedup:.1f}x), payloads identical",
              flush=True)

    reason = "smoke mode measures but does not gate" if mode == "smoke" else None
    return {
        "ladder": ladder,
        "gate": {
            "target_speedup": ATTACH_SPEEDUP_TARGET,
            "measured_speedup": ladder[-1]["attach_speedup"],
            "enforced": reason is None,
            **({"reason": reason} if reason else {}),
        },
    }


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, no acceptance gates")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).parent.parent / "BENCH_storage.json")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="scratch directory (default: a fresh temp dir)")
    parser.add_argument("--child", nargs="+", default=None,
                        help=argparse.SUPPRESS)  # internal measurement mode
    args = parser.parse_args(argv)

    if args.child:
        kind, *rest = args.child
        if kind == "cold":
            result = _child_cold(rest[0])
        elif kind == "attach":
            result = _child_attach(rest[0])
        else:
            raise SystemExit(f"FATAL: unknown child kind {kind!r}")
        print(json.dumps(result))
        return 0

    mode = "smoke" if args.smoke else "full"
    if args.workdir is None:
        import tempfile

        scratch = tempfile.TemporaryDirectory(prefix="bench_storage_")
        workdir = Path(scratch.name)
    else:
        workdir = args.workdir
        workdir.mkdir(parents=True, exist_ok=True)
        scratch = None

    print(f"[bench_storage] attach_vs_cold ({mode})", flush=True)
    attach_vs_cold = _bench_attach_vs_cold(mode, workdir)
    if scratch is not None:
        scratch.cleanup()

    report = {"mode": mode, "attach_vs_cold": attach_vs_cold}
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_storage] report -> {args.output}")

    if attach_vs_cold["gate"]["enforced"]:
        measured = attach_vs_cold["gate"]["measured_speedup"]
        if measured is None or measured < ATTACH_SPEEDUP_TARGET:
            raise SystemExit(
                f"FATAL: attach speedup {measured} below the "
                f"{ATTACH_SPEEDUP_TARGET}x floor at the largest scale"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
