"""``#GraphEmbedClust`` bench — walk sampling + warm re-embedding.

Two sections, both over the Section 2-profile synthetic company graphs:

* **walks** — the in-process walk kernel on three graph sizes;
* **rounds** — a cold ``IncrementalEmbedder`` round (what
  :func:`embed_and_cluster` computes) vs the warm round after a handful
  of new edges.

Standalone on purpose (argparse, not pytest): CI's smoke job runs
``python benchmarks/bench_embed_pipeline.py --smoke`` and archives
``BENCH_embed.json`` as a per-PR artifact.  The full run enforces one
floor at the largest benched size: >= 3x warm vs cold.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.workloads import realworld_like  # noqa: E402
from repro.embeddings import (  # noqa: E402
    IncrementalEmbedder,
    RandomWalker,
    build_adjacency,
)
from repro.embeddings.node2vec import EMBEDDING_FEATURES  # noqa: E402

#: persons per size of the walk-sampling sweep (nodes ~= 1.8x persons)
WALK_SIZES = (2000, 8000, 32000)
#: persons per size of the cold-vs-warm round sweep
ROUND_SIZES = (100, 200, 400)
#: edges added between rounds (the dirty region's cause)
ROUND_NEW_EDGES = 8


def _best_of(repeats: int, sample) -> tuple[float, object]:
    """Fastest of ``repeats`` fresh runs (sheds scheduler noise)."""
    best_s, result = None, None
    for _ in range(repeats):
        started = time.perf_counter()
        outcome = sample()
        elapsed = time.perf_counter() - started
        if best_s is None or elapsed < best_s:
            best_s, result = elapsed, outcome
    return best_s, result


def _walk_row(persons: int, repeats: int = 2) -> dict:
    graph, _truth = realworld_like(persons, seed=7)
    adjacency = build_adjacency(graph)
    nodes = list(adjacency)

    # a fresh walker per run: CSR/entropy build time is charged
    walk_s, walks = _best_of(
        repeats, lambda: RandomWalker(adjacency, seed=3).walks(nodes, 6, 15)
    )
    row = {
        "persons": persons,
        "nodes": len(nodes),
        "walks": len(walks),
        "walk_s": round(walk_s, 4),
    }
    print(f"{'walks':>8} n={row['nodes']:<6} walk={walk_s:7.3f}s")
    return row


def _round_row(persons: int) -> dict:
    graph, _truth = realworld_like(persons, seed=7)
    embedder = IncrementalEmbedder(10, feature_properties=EMBEDDING_FEATURES)

    started = time.perf_counter()
    embedder.embed(graph)
    cold_s = time.perf_counter() - started

    person_ids = [node.id for node in graph.nodes("P")]
    new_edges = [
        graph.add_edge(person_ids[2 * i], person_ids[2 * i + 1], "same_family")
        for i in range(min(ROUND_NEW_EDGES, len(person_ids) // 2))
    ]
    if not new_edges:
        raise SystemExit(f"FATAL: no person pairs to link at persons={persons}")
    started = time.perf_counter()
    embedder.embed(graph, new_edges=new_edges)
    warm_s = time.perf_counter() - started

    row = {
        "persons": persons,
        "nodes": len(list(graph.node_ids())),
        "new_edges": len(new_edges),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup_warm": round(cold_s / warm_s, 2) if warm_s else None,
    }
    print(
        f"{'rounds':>8} n={row['nodes']:<6} cold={cold_s:7.3f}s "
        f"warm={warm_s:7.3f}s speedup_warm={row['speedup_warm']:5.2f}x"
    )
    return row


def run_benchmark(smoke: bool) -> dict:
    walk_sizes = WALK_SIZES[:1] if smoke else WALK_SIZES
    round_sizes = ROUND_SIZES[:1] if smoke else ROUND_SIZES
    return {
        "mode": "smoke" if smoke else "full",
        "cpus": os.cpu_count(),
        "walks": [_walk_row(persons) for persons in walk_sizes],
        "rounds": [_round_row(persons) for persons in round_sizes],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_embed.json",
        help="where to write the JSON results",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="smallest size of each section only (the CI smoke job)",
    )
    args = parser.parse_args(argv)
    payload = run_benchmark(args.smoke)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"# wrote {args.output}")
    if not args.smoke:
        largest_round = payload["rounds"][-1]
        if largest_round["speedup_warm"] < 3.0:
            raise SystemExit(
                f"FATAL: warm-round speedup at largest size is "
                f"{largest_round['speedup_warm']}x (< 3x target)"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
