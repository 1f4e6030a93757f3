#!/usr/bin/env python3
"""End-to-end benchmark of the Vada-Link reproduction.

    python3 benchmarks/e2e/run.py                          # all five workloads
    python3 benchmarks/e2e/run.py --workload read_cold     # one workload
    python3 benchmarks/e2e/run.py --workload read_cold --trace 1
    python3 benchmarks/e2e/run.py --seed 7 --out A         # one more run into set A
    python3 benchmarks/e2e/run.py --compare A B

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"error: {ROOT / 'src' / 'repro'} not found — the benchmark "
             "measures the program in this checkout and cannot run without it")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import spans  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_once(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """One run of one workload, written to its result file and returned.

    The end-to-end pass always runs with tracing off and the program
    untouched; ``trace`` adds the traced pass after it.  ``metrics`` are
    the end-to-end metrics, ``layer`` every layer metric the run
    measured — without ``trace`` the ones the end-to-end pass itself
    yields (``publish_p50_ms``, ``family_f1``, ``error_rate``, the cache
    counters, ...), with it all of ``per_layer``, a layer the workload
    leaves idle reading 0.
    """
    run = workloads.Run(workload, seed, seconds)
    env = harness.env_stamp(seed, workloads.SIZES)
    out.mkdir(parents=True, exist_ok=True)
    try:
        workloads.WORKLOADS[workload](run)
        if trace:
            run.spans = spans.SpanLog(workload)
            traced.TRACED[workload](run)
        run.finish()
        if trace:
            run.spans.write(out / f"trace-{workload}.json", env)
    finally:
        run.close()
        if trace:
            traced.stop_resource_tracker()
    unknown = sorted(set(run.layer) - set(LAYER_UNITS))
    missing = sorted(m["name"] for m in SPEC["end_to_end"] if m["name"] not in run.e2e)
    if unknown or missing:
        raise harness.BenchError(
            f"{workload}: not in BENCHMARK.json: {unknown}; not measured: {missing}")
    names = LAYER_UNITS if trace else run.layer
    result = {
        "env": env, "workload": workload, "trace": int(trace), "seed": seed,
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures,
        "metrics": {m["name"]: {"value": float(run.e2e[m["name"]]), "unit": m["unit"]}
                    for m in SPEC["end_to_end"]},
        "layer": {name: {"value": float(run.layer.get(name, 0.0)),
                         "unit": LAYER_UNITS[name]} for name in names},
        # within-run samples: n, median, and the highest percentile with
        # at least ten samples beyond it
        "samples": run.samples,
    }
    suffix = "-trace" if trace else ""
    (out / f"result-{workload}-seed{seed}{suffix}.json").write_text(
        json.dumps(result, indent=1))
    return result


def print_report(result: dict) -> None:
    print(f"== {result['workload']} (trace {result['trace']}, seed {result['seed']}): "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for group in ("metrics", "layer"):
        for name, entry in result[group].items():
            print(f"  {name:<44}{entry['value']:>16.6g} {entry['unit']}")
    for name, summary in result["samples"].items():
        tail = (f"  p{summary['tail_p']:g}={summary['tail']:.6g}"
                if "tail" in summary else "")
        print(f"  samples {name:<36}n={summary['n']}  median={summary['median']:.6g}{tail}")
    for failure in result["failures"][:10]:
        print(f"  FAILED: {failure}")


def load_set(directory: Path, workload: str) -> dict | None:
    """The untraced runs of ``workload`` found in ``directory``: per
    metric its unit, each run's value, their median and (from four runs
    up) their spread; ``None`` without a run."""
    runs = [json.loads(path.read_text())
            for path in sorted(directory.glob(f"result-{workload}-seed*.json"))
            if not path.name.endswith("-trace.json")]
    if not runs:
        return None
    summary: dict = {"runs": len(runs), "failed": sum(r["failed"] for r in runs)}
    for group in ("metrics", "layer"):
        summary[group] = {}
        for name, first in runs[0][group].items():
            values = [r[group][name]["value"] for r in runs if name in r[group]]
            entry = {"unit": first["unit"], "values": values,
                     "median": statistics.median(values)}
            if len(values) >= 4:
                entry["spread"] = harness.spread(values)
            summary[group][name] = entry
    return summary


def _row(name: str, ma: dict, mb: dict, same_commit: dict) -> tuple[float, float, bool]:
    """Prints one comparison row up to its noise; returns (change, noise,
    whether every run of B lies on one side of every run of A).

    Noise is the largest of: the spread of either set, and the spread
    and the drift two sets of the *same* commit showed when
    ``spread.json`` was recorded."""
    change = ((mb["median"] - ma["median"]) / ma["median"]
              if ma["median"] else float(mb["median"] != 0))
    noise = max(ma.get("spread", 0.0), mb.get("spread", 0.0),
                same_commit.get("spread", 0.0), abs(same_commit.get("drift", 0.0)))
    apart = min(len(ma["values"]), len(mb["values"])) >= 4 and (
        min(mb["values"]) > max(ma["values"]) or max(mb["values"]) < min(ma["values"]))
    print(f"  {name:<44}{ma['median']:>13.6g} -> {mb['median']:>13.6g} "
          f"{ma['unit']:<5}{change:>+8.1%}  noise {noise:.1%}", end="  ")
    return change, noise, apart


def compare(dir_a: Path, dir_b: Path) -> int:
    """Per-workload rows, B against A: every end-to-end metric against
    its bound, then the layer metrics the untraced runs measured (the
    unbounded times among them) with their change and noise.

    A loss beyond the bound is WORSE only when the noise is within the
    bound or every run of B reads worse than every run of A; otherwise
    it is unresolved.
    """
    recorded = json.loads((HERE / "spread.json").read_text())
    worse = 0
    for workload in WORKLOAD_NAMES:
        a, b = load_set(dir_a, workload), load_set(dir_b, workload)
        if a is None or b is None:
            print(f"== {workload}: no run in {dir_a if a is None else dir_b}")
            continue
        print(f"== {workload}: A {a['runs']} runs, {a['failed']} failed; "
              f"B {b['runs']} runs, {b['failed']} failed")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            change, noise, apart = _row(name, a["metrics"][name], b["metrics"][name],
                                        recorded["workloads"][workload][name])
            loss = change if metric["better"] == "lower" else -change
            if loss <= bound:
                print(f"bound {bound:.0%}  ok")
            elif noise > bound and not apart:
                print(f"bound {bound:.0%}  unresolved (noise > bound)")
            else:
                print(f"bound {bound:.0%}  WORSE")
                worse += 1
        for name in a["layer"]:
            if name in b["layer"]:
                _change, _noise, apart = _row(name, a["layer"][name], b["layer"][name],
                                              recorded["layer"][workload].get(name, {}))
                print("no bound" + ("  (every run of B apart from every run of A)"
                                    if apart else ""))
        if b["failed"] > a["failed"]:
            print("  WORSE: more failed operations")
            worse += 1
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1,
                        help="relabels the inputs and draws the request streams")
    parser.add_argument("--seconds", type=float, default=workloads.RUN_SECONDS,
                        help="scales the fixed operation counts "
                             f"(sized for {workloads.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: add the traced pass and report the per-layer metrics")
    parser.add_argument("--out", type=Path, default=harness.WORK_ROOT / "out",
                        help="directory for result and span files; runs with "
                             "different seeds accumulate there as one set")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare two --out directories and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # SIGTERM takes the same path as an exception: children are reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    results = []
    for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
        results.append(run_once(workload, args.seed, args.seconds, bool(args.trace), args.out))
        print_report(results[-1])
    # the contract line: one workload's metrics; with all five, the
    # totals and every metric under its workload's name
    group = "layer" if args.trace else "metrics"
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": (results[0][group] if args.workload else {
            f"{r['workload']}.{name}": entry
            for r in results for name, entry in r[group].items()}),
    }))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except harness.BenchError as exc:
        sys.exit(f"error: {exc}")
