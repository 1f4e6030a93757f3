"""Process, socket and statistics plumbing of the end-to-end benchmark.

Everything here is benchmark-side: child processes are the ``repro`` CLI
started fresh, HTTP goes over real sockets, and nothing imports
``repro`` (the traced pass and the oracles do that, in ``traced.py`` and
``workloads.py``).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: scratch space inside the checkout (the benchmark writes nowhere else)
WORK_ROOT = ROOT / ".bench_work"

_SERVING = re.compile(r"serving snapshot v(\d+) .* on http://[^:\s]+:(\d+)")
_SEGMENT_PREFIXES = ("rkgs_", "psm_")
_VM_HWM = re.compile(r"^VmHWM:\s+(\d+) kB", re.MULTILINE)


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to: ran and found failures)."""


def child_env() -> dict[str, str]:
    """The children's environment: the caller's, with ``src/`` importable
    and string hashing pinned.

    Nothing else is touched — the children are the program as a user
    runs it.  ``PYTHONHASHSEED=0`` only makes an invocation repeatable:
    the program iterates Python sets of ids, so with randomised hashing
    two identical ``repro augment`` runs differ by ±8 % in rule work and
    5 % in peak RSS, which no change to the code could be told from.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list (p in (0, 100])."""
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(samples: list[float]) -> dict:
    """Sample count, median, and the highest percentile that still has
    at least ten samples beyond it (``None`` below 20 samples)."""
    ordered = sorted(samples)
    summary: dict = {"n": len(ordered), "median": statistics.median(ordered)}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(ordered) - math.ceil(p / 100.0 * len(ordered)) >= 10:
            summary["tail_p"] = p
            summary["tail"] = percentile(ordered, p)
            break
    return summary


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median — the driver's
    steadiness measure (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float(q3 != q1)


def window_rates(started: float, done_at: list[float], window: int) -> list[float]:
    """Operations per second of each run of ``window`` consecutive
    completions (a shorter last run is dropped).

    The benchmark reports the *median* window, not operations ÷ total
    wall: this box stalls for tens of milliseconds at a time, and a mean
    over the whole phase carries every stall while the median window
    carries none until half the windows are hit.
    """
    ordered = sorted(done_at)
    edges = [started, *ordered[window - 1::window]]
    return [window / (end - start) for start, end in zip(edges, edges[1:])]


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def env_stamp(seed: int, sizes: dict) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(),
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "sizes": sizes,
    }


def shm_segments() -> set[str]:
    """Names of this program's shared-memory segments in ``/dev/shm``."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return set()
    return {n for n in names if n.startswith(_SEGMENT_PREFIXES)}


def dir_bytes(path: Path) -> int:
    return sum(
        (Path(root) / name).stat().st_size
        for root, _dirs, names in os.walk(path)
        for name in names
    )


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

class Children:
    """Every process the benchmark starts, so any exit path reaps them.

    Children run in their own session: killing the group also takes down
    the pool workers a ``serve --workers N`` parent spawned.
    """

    def __init__(self) -> None:
        self._live: dict[int, subprocess.Popen] = {}
        #: largest VmHWM (MB) sampled from any child or grandchild
        self.peak_rss_mb = 0.0

    def spawn(self, argv: list[str], cwd: Path, stderr) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=stderr, start_new_session=True,
        )
        self._live[proc.pid] = proc
        return proc

    def sample_rss(self, proc: subprocess.Popen) -> None:
        """Fold in the memory high-water mark of ``proc`` and its children.

        Read from ``/proc``, not from ``wait4``: a child's ``ru_maxrss``
        starts at the resident size of the process that forked it, so it
        would report this harness (numpy, scipy and the oracles loaded)
        whenever the program itself needs less.
        """
        for pid in (proc.pid, *_child_pids(proc.pid)):
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue  # gone between listing and reading
            match = _VM_HWM.search(status)
            if match:
                self.peak_rss_mb = max(self.peak_rss_mb, int(match.group(1)) / 1024.0)

    def reap(self, proc: subprocess.Popen, timeout_s: float) -> int:
        """Wait for ``proc``, killing its group at the deadline."""
        try:
            proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            self._kill_group(proc)
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        self._live.pop(proc.pid, None)
        self._kill_group(proc)  # orphaned workers, if the parent died badly
        return proc.returncode

    @staticmethod
    def _kill_group(proc: subprocess.Popen) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def reap_all(self) -> None:
        for proc in list(self._live.values()):
            self._kill_group(proc)
            self.reap(proc, timeout_s=10.0)


def _child_pids(pid: int) -> list[int]:
    try:
        listed = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(child) for child in listed.split()]


def run_python(
    children: Children, args: list[str], cwd: Path, timeout_s: float = 150.0
) -> tuple[float, int]:
    """One fresh ``python <args>`` process: (wall s, exit code).

    End of its standard output marks the exit; until then its memory
    high-water mark is sampled every 20 ms (the peaks of interest —
    reasoning, serialising the result — last far longer).
    """
    started = time.perf_counter()
    with open(cwd / "cli.err", "ab") as err:
        proc = children.spawn([sys.executable, *args], cwd, err)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stdout], [], [], 0.02)
            if not ready:
                children.sample_rss(proc)
            elif not os.read(proc.stdout.fileno(), 65536):
                break
        code = children.reap(proc, max(0.0, deadline - time.monotonic()))
    return time.perf_counter() - started, code


def run_cli(children: Children, args: list[str], cwd: Path) -> tuple[float, int]:
    """One fresh ``python -m repro <args>`` process: (wall s, exit code)."""
    return run_python(children, ["-m", "repro", *args], cwd)


class Server:
    """One ``repro serve`` process; the port comes off its ready line."""

    def __init__(self, children: Children, args: list[str], cwd: Path):
        self._children = children
        self._err = open(cwd / "serve.err", "ab")
        self.proc = children.spawn(
            [sys.executable, "-m", "repro", "serve", *args, "--port", "0"],
            cwd, self._err,
        )
        self.port, self.version = self._await_ready(cwd, timeout_s=120.0)

    def _await_ready(self, cwd: Path, timeout_s: float) -> tuple[int, int]:
        deadline = time.monotonic() + timeout_s
        buffered = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.25)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                break
            buffered += chunk
            match = _SERVING.search(buffered.decode(errors="replace"))
            if match:
                return int(match.group(2)), int(match.group(1))
        self.stop(signal.SIGKILL)
        tail = (cwd / "serve.err").read_text(errors="replace")[-600:]
        raise BenchError(f"serve did not come up: {buffered!r} {tail}")

    def stop(self, signum: int = signal.SIGTERM, timeout_s: float = 30.0) -> int:
        if self.proc.returncode is None:
            self._children.sample_rss(self.proc)
            try:
                self.proc.send_signal(signum)
            except ProcessLookupError:
                pass
            self._children.reap(self.proc, timeout_s)
        self._err.close()
        return self.proc.returncode


# ----------------------------------------------------------------------
# HTTP over real sockets
# ----------------------------------------------------------------------

class Connection:
    """One keep-alive HTTP/1.1 connection (no pipelining)."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def request(self, raw: bytes) -> tuple[int, bytes]:
        """Send one pre-encoded request; returns (status, body)."""
        self._writer.write(raw)
        head = await self._reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        at = head.index(b"Content-Length: ") + 16
        length = int(head[at:head.index(b"\r\n", at)])
        return status, await self._reader.readexactly(length)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def encode_get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")


def encode_post(path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def fetch_json(port: int, path: str) -> tuple[int, dict, bytes]:
    """One-off GET on a fresh connection: (status, parsed, raw body)."""
    conn = await Connection.open(port)
    try:
        status, body = await conn.request(encode_get(path))
    finally:
        await conn.close()
    return status, json.loads(body), body


async def closed_loop(
    port: int, requests: list[bytes], connections: int, on_response
) -> tuple[list[float], list[float], float]:
    """Send ``requests`` over ``connections`` keep-alive connections, each
    sending its next request only when the previous answer is in.

    ``on_response(index, status, body)`` runs outside the timed interval
    of the request.  Returns (latencies in ms and completion times, both
    by request index, and the start time; ``perf_counter`` clock).
    """
    latencies = [0.0] * len(requests)
    done_at = [0.0] * len(requests)
    cursor = iter(range(len(requests)))
    clock = time.perf_counter

    async def client() -> None:
        conn = await Connection.open(port)
        try:
            for index in cursor:
                sent = clock()
                status, body = await conn.request(requests[index])
                done_at[index] = clock()
                latencies[index] = (done_at[index] - sent) * 1000.0
                on_response(index, status, body)
        finally:
            await conn.close()

    started = clock()
    await asyncio.gather(*(client() for _ in range(connections)))
    return latencies, done_at, started


# ----------------------------------------------------------------------
# working directories
# ----------------------------------------------------------------------

def make_work_dir(label: str) -> Path:
    path = WORK_ROOT / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
