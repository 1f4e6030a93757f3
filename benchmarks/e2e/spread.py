#!/usr/bin/env python3
"""Record how far two sets of runs of the *same* code differ.

    python3 benchmarks/e2e/spread.py [--runs 10] [--out DIR]

Makes the runs the driver makes — the ``command`` of ``BENCHMARK.json``
in a fresh process per run, ``--trace 0``, another seed each time — as
two sets, A (seeds 1, 2, ...) and B (seeds 101, 102, ...).  The sets are
interleaved run by run, alternating which goes first, so that a box
that slows down for minutes slows both.  Writes ``spread.json`` beside
this file: per workload and metric — the end-to-end ones and the layer
metrics an untraced run measures — each set's median and spread
(interquartile distance ÷ median) and the drift of B's median against
A's, worse counted positive; ``run.py --compare`` reads it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run as bench  # noqa: E402


def one_run(workload: str, seed: int, out: Path) -> None:
    spec = bench.SPEC
    done = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", "0", "--out", str(out)],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
        sys.exit(f"error: {workload} seed {seed} exited {done.returncode}:\n"
                 f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    print(f"{workload} seed {seed}: {lines[-1]}", flush=True)


def pair(a: dict, b: dict, group: str, metric: dict) -> dict:
    """Both sets' median and spread of one metric, the larger spread,
    and the drift of B's median against A's (worse counted positive)."""
    ma, mb = a[group][metric["name"]], b[group][metric["name"]]
    change = (mb["median"] - ma["median"]) / ma["median"] if ma["median"] else 0.0
    return {
        "unit": metric["unit"],
        "a": {"median": ma["median"], "spread": ma["spread"]},
        "b": {"median": mb["median"], "spread": mb["spread"]},
        "spread": max(ma["spread"], mb["spread"]),
        "drift": change if metric["better"] == "lower" else -change,
    }


def one_line_per_metric(value, depth: int = 0) -> str:
    """JSON with the first three levels indented and the rest inline."""
    if not isinstance(value, dict) or depth == 3:
        return json.dumps(value, ensure_ascii=False)
    pad = " " * (depth + 1)
    items = (f"{pad}{json.dumps(key)}: {one_line_per_metric(item, depth + 1)}"
             for key, item in value.items())
    return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--out", type=Path, default=harness.WORK_ROOT / "spread",
                        help="directory that receives the sets A and B")
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("a spread needs at least four runs")
    sets = [(args.out / "A", 1), (args.out / "B", 101)]
    for directory, _seed in sets:
        shutil.rmtree(directory, ignore_errors=True)  # a set is what its directory holds
    recorded: dict = {}
    layers: dict = {}
    for workload in bench.WORKLOAD_NAMES:
        for i in range(args.runs):
            for directory, first_seed in sets if i % 2 == 0 else reversed(sets):
                one_run(workload, first_seed + i, directory)
        a, b = (bench.load_set(directory, workload) for directory, _seed in sets)
        recorded[workload] = {
            metric["name"]: {"bound": metric["bound"], **pair(a, b, "metrics", metric)}
            for metric in bench.SPEC["end_to_end"]
        }
        # the layer metrics the untraced runs measure, the unbounded
        # times among them
        layers[workload] = {
            metric["name"]: pair(a, b, "layer", metric)
            for metric in bench.SPEC["per_layer"] if metric["name"] in a["layer"]
        }
    env = json.loads(next((args.out / "A").glob("result-*.json")).read_text())["env"]
    del env["seed"]
    (HERE / "spread.json").write_text(one_line_per_metric({
        "what": __doc__.split("\n\n")[2].replace("\n", " "),
        "env": env, "runs": args.runs, "workloads": recorded, "layer": layers,
    }) + "\n")
    outside = [(w, m) for w, metrics in recorded.items() for m, r in metrics.items()
               if r["drift"] > r["bound"] or (m != "setup_s" and r["spread"] > r["bound"])]
    for workload, metric in outside:
        print(f"outside its bound: {workload} {metric} {recorded[workload][metric]}")
    return 1 if outside else 0


if __name__ == "__main__":
    raise SystemExit(main())
