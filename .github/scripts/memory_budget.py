"""Memory budgets: the peak resident size of three commands, each above
a bare numpy interpreter, and what a threshold sweep adds to a server.

For each of the first three budgets the peak RSS (``VmHWM`` from
``/proc``) is the median of 3 runs, minus the median of 3 runs of a bare
``python -c "import numpy"`` in the same runner.  The bare interpreter
is what the runner's Python and numpy builds cost, so the difference is
what the command itself holds.  Budgets:

* ``augment`` — ``repro augment`` on the 500/400 sparse extract (seed 1),
  ``VmHWM`` read at exit;
* ``augment at 2000 persons`` — the same on the 2 000/1 500 sparse
  extract (seed 1), where each family-link rule expands to 665 k rows;
* ``serve`` — ``repro serve`` on the 300/240 sparse extract (seed 1),
  ``VmHWM`` of the server read once its first ``/control`` answered 200;
* ``serve threshold sweep`` — the same server's ``VmHWM`` after 400
  ``/control`` and 400 ``/close-links`` requests in turn, each at a
  threshold no other request asks for, minus its ``VmHWM`` at the first
  ``/control`` (the median of 3 such differences): the bodies a sweep
  leaves in the response cache.

Run from the repository root; exits 1 naming every budget exceeded::

    PYTHONPATH=src python .github/scripts/memory_budget.py
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
import tempfile
from urllib.request import urlopen

#: MB above a bare numpy interpreter, each about 15 % above the median
#: measured on a 2-CPU box: augment 11.1 and at 2000 persons 27.7 once
#: every relation is held once, as code blocks, serve 12.5 once a
#: finished reasoning run is freed at its last reference; and
#: MB the threshold sweep adds to the server: its 15 samples read 0.15 to
#: 0.52 (median 0.3, medians of 3 up to 0.5, so the ceiling sits 15 %
#: above 0.5), and 3.4 to 3.5 while the response cache stored the first
#: fill of every key
CEILINGS = {
    "augment": 12.8,
    "augment at 2000 persons": 31.9,
    "serve": 14.5,
    "serve threshold sweep": 0.6,
}
#: distinct thresholds of the sweep, each asked of ``/control`` and of
#: ``/close-links``
SWEEP = 400

#: appended to the measured code: print VmHWM (kB) to stderr at exit
PROBE = """
import atexit, sys
def hwm():
    for line in open("/proc/self/status"):
        if line.startswith("VmHWM"):
            sys.stderr.write("hwm " + line.split()[1] + "\\n")
atexit.register(hwm)
"""
CLI = """
import runpy
sys.argv = ["repro", *sys.argv[1:]]
runpy.run_module("repro", run_name="__main__")
"""


def peak_mb(code: str, *argv: str) -> float:
    """VmHWM at exit of ``python -c code argv...``, in MB."""
    done = subprocess.run([sys.executable, "-c", PROBE + code, *argv],
                          capture_output=True, text=True, check=True)
    (kb,) = re.findall(r"^hwm (\d+)$", done.stderr, re.M)
    return int(kb) / 1024


def sweep_paths(n: int) -> list[str]:
    """``n`` ``/control`` and ``n`` ``/close-links`` reads in turn, each at
    a threshold no other read asks for (in the ranges of the
    ``read_cold`` traffic)."""
    paths = []
    for i in range(n):
        paths.append(f"/control?threshold={0.3 + 0.4 * i / n:.6f}")
        paths.append(f"/close-links?threshold={0.1 + 0.3 * i / n:.6f}")
    return paths


def serve_mb(extract: str, sweep: int = 0) -> tuple[float, float]:
    """VmHWM of ``repro serve extract`` once its first /control answered,
    and again after the reads of ``sweep_paths(sweep)``."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", extract, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )

    def hwm() -> float:
        with open(f"/proc/{proc.pid}/status") as status:
            (kb,) = re.findall(r"^VmHWM:\s+(\d+) kB$", status.read(), re.M)
        return int(kb) / 1024

    def get(path: str) -> None:
        with urlopen(f"http://127.0.0.1:{port}{path}", timeout=60) as reply:
            assert reply.status == 200
            reply.read()

    try:
        port = re.search(r"on http://[^:]+:(\d+)", proc.stdout.readline())[1]
        get("/control")
        first = hwm()
        for path in sweep_paths(sweep):
            get(path)
        return first, hwm()
    finally:
        proc.terminate()
        proc.wait(timeout=30)
        proc.stdout.close()


def sweep_mb(extract: str) -> float:
    """What the threshold sweep adds to the VmHWM of ``repro serve``."""
    first, swept = serve_mb(extract, SWEEP)
    return swept - first


def generate(directory: str, persons: int, companies: int) -> str:
    subprocess.run(
        [sys.executable, "-m", "repro", "generate", directory, "--persons", str(persons),
         "--companies", str(companies), "--density", "sparse", "--seed", "1"],
        check=True, capture_output=True,
    )
    return directory


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        small = generate(f"{tmp}/small", 500, 400)
        large = generate(f"{tmp}/large", 2000, 1500)
        served = generate(f"{tmp}/serve", 300, 240)
        out = f"{tmp}/out.json"
        bare = statistics.median(peak_mb("import numpy") for _ in range(3))
        above = f"above a bare numpy interpreter ({bare:.1f} MB)"
        # name -> (one sample, what the median is measured from)
        runs = {
            "augment": (lambda: peak_mb(CLI, "augment", small, out) - bare, above),
            "augment at 2000 persons": (
                lambda: peak_mb(CLI, "augment", large, out) - bare, above
            ),
            "serve": (lambda: serve_mb(served)[0] - bare, above),
            "serve threshold sweep": (
                lambda: sweep_mb(served), "above the server at its first /control"
            ),
        }
        exceeded = []
        for name, (run, base) in runs.items():
            samples = sorted(run() for _ in range(3))
            median = statistics.median(samples)
            print(f"repro {name}: median {median:.1f} MB {base} "
                  f"of {[round(s, 1) for s in samples]}, ceiling {CEILINGS[name]}")
            if median > CEILINGS[name]:
                exceeded.append(name)
    for name in exceeded:
        print(f"memory budget exceeded: repro {name} peak RSS", file=sys.stderr)
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
