"""Memory budgets: the peak resident size of three commands, each above
a bare numpy interpreter.

For each budget the peak RSS (``VmHWM`` from ``/proc``) is the median of
3 runs, minus the median of 3 runs of a bare ``python -c "import numpy"``
in the same runner.  The bare interpreter is what the runner's Python
and numpy builds cost, so the difference is what the command itself
holds.  Budgets:

* ``augment`` — ``repro augment`` on the 500/400 sparse extract (seed 1),
  ``VmHWM`` read at exit;
* ``augment at 2000 persons`` — the same on the 2 000/1 500 sparse
  extract (seed 1), where each family-link rule expands to 665 k rows;
* ``serve`` — ``repro serve`` on the 300/240 sparse extract (seed 1),
  ``VmHWM`` of the server read once its first ``/control`` answered 200.

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
#: measured on a 2-CPU box once a finished reasoning run is freed at its
#: last reference: augment 14.6, at 2000 persons 38.7, serve 12.5
CEILINGS = {"augment": 17, "augment at 2000 persons": 44.5, "serve": 14.5}

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


def serve_mb(extract: str) -> float:
    """VmHWM of ``repro serve extract`` once its first /control answered."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", extract, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        port = re.search(r"on http://[^:]+:(\d+)", proc.stdout.readline())[1]
        with urlopen(f"http://127.0.0.1:{port}/control", timeout=60) as reply:
            assert reply.status == 200
            reply.read()
        with open(f"/proc/{proc.pid}/status") as status:
            (kb,) = re.findall(r"^VmHWM:\s+(\d+) kB$", status.read(), re.M)
        return int(kb) / 1024
    finally:
        proc.terminate()
        proc.wait(timeout=30)
        proc.stdout.close()


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
        runs = {
            "augment": lambda: peak_mb(CLI, "augment", small, out),
            "augment at 2000 persons": lambda: peak_mb(CLI, "augment", large, out),
            "serve": lambda: serve_mb(served),
        }
        bare = statistics.median(peak_mb("import numpy") for _ in range(3))
        exceeded = []
        for name, run in runs.items():
            samples = sorted(run() for _ in range(3))
            median = statistics.median(samples) - bare
            print(f"repro {name}: median {median:.1f} MB above a bare numpy interpreter "
                  f"({bare:.1f} MB) of {[round(s, 1) for s in samples]}, "
                  f"ceiling {CEILINGS[name]}")
            if median > CEILINGS[name]:
                exceeded.append(name)
    for name in exceeded:
        print(f"memory budget exceeded: repro {name} peak RSS", file=sys.stderr)
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
