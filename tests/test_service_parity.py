"""Deployment parity: ``serve`` and ``serve --workers 2`` are one write path.

The same script — valid batch, invalid batch, tenant create / mutate /
delete, SIGTERM, restart from the store alone, rollback restart and
write again — runs against both deployments (each with ``--store``) and
must produce the same statuses, version numbers, persist counters,
catalog rows, and byte-equal reasoning payloads after every step.
"""

import contextlib
import json
import os
import re
import signal
import time
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro.cli import main
from repro.storage import FrameStore
from tests.test_cli import _Served

READS = ("/control", "/close-links", "/family")


class Served(_Served):
    """``python -m repro serve <args> --port 0`` in a child process."""

    def request(self, method, path, body=None):
        """``(status, raw body)`` — error statuses included."""
        data = None if body is None else json.dumps(body).encode()
        request = Request(f"http://127.0.0.1:{self.port}{path}", data=data, method=method)
        try:
            with urlopen(request, timeout=60) as reply:
                return reply.status, reply.read()
        except HTTPError as error:
            return error.code, error.read()

    def persist_stats(self, persists):
        """``/stats`` -> ``persist`` once it shows ``persists`` writes (pool
        workers learn the parent's counters one pipe message after the
        write; never waits on a healthy single-process service)."""
        deadline = time.monotonic() + 10.0
        while True:
            persist = json.loads(self.request("GET", "/stats")[1])["persist"]
            if persist["persists"] == persists or time.monotonic() >= deadline:
                return persist
            time.sleep(0.02)

    def observe(self, step, status, reply, persists):
        """One transcript row: what a client can see after ``step``."""
        reads = {path: self.request("GET", path) for path in READS}
        persist = self.persist_stats(persists)
        return {
            "step": step,
            "status": status,
            "reply": {k: reply.get(k) for k in ("status", "version", "error")},
            "served_version": json.loads(reads["/control"][1])["version"],
            "persists": persist["persists"],
            "persist_failures": persist["persist_failures"],
            "reads": reads,
        }

    def terminate(self):
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        finally:
            self.proc.kill()
            self.proc.stdout.close()
        leaked = [
            name for name in os.listdir("/dev/shm")
            if re.match(rf"rkgs_.*_{self.proc.pid}_\d+$", name)
        ]
        assert not leaked, f"segments left behind: {leaked}"


def catalog_rows(store_dir):
    """The catalog's version rows, after the store directory's entries:
    a service that shut down cleanly left no ``catalog.db-wal`` / ``-shm``."""
    files = sorted(path.name for path in store_dir.iterdir())
    with contextlib.closing(FrameStore.open(store_dir)) as store:
        rows = [
            (row["tenant"], row["version"], row["state"], row["parent"])
            for row in store.versions()
        ]
    return {"files": files, "rows": rows}


def run_script(work, extract, workers):
    """The script against one deployment; returns its transcript."""
    fleet = ["--workers", str(workers)] if workers > 1 else []
    store = work / "store"
    transcript = []

    def step(served, name, method, path, body, persists):
        status, raw = served.request(method, path, body)
        transcript.append(served.observe(name, status, json.loads(raw), persists))

    served = Served([str(extract), "--store", str(store), *fleet], work)
    try:
        assert served.version == 1
        transcript.append(served.observe("boot", 200, {"version": served.version}, 1))
        owner, company = (
            line.split(",")[0]
            for line in (extract / "companies.csv").read_text().splitlines()[1:3]
        )
        step(served, "valid batch", "POST", "/mutations?wait=1", {"deltas": [
            {"op": "add_company", "id": "C_PARITY", "properties": {"name": "Parity SRL"}},
            {"op": "add_shareholding", "owner": owner, "company": "C_PARITY", "share": 0.7},
            {"op": "add_shareholding", "owner": "C_PARITY", "company": company, "share": 0.3},
        ]}, 2)
        step(served, "invalid batch", "POST", "/mutations?wait=1", {"deltas": [
            {"op": "add_company", "id": "C_NEVER"},
            {"op": "add_shareholding", "owner": "C_NEVER", "company": "C_MISSING", "share": 0.5},
        ]}, 2)
        step(served, "create tenant", "PUT", "/t/x", None, 3)
        step(served, "mutate tenant", "POST", "/t/x/mutations?wait=1", {"deltas": [
            {"op": "add_company", "id": "X1"},
            {"op": "add_company", "id": "X2"},
            {"op": "add_shareholding", "owner": "X1", "company": "X2", "share": 0.9},
        ]}, 4)
        status, raw = served.request("GET", "/t/x/control")
        transcript.append({"step": "tenant read", "status": status, "body": raw})
        step(served, "delete tenant", "DELETE", "/t/x", None, 4)
        status, raw = served.request("GET", "/t/x/control")
        transcript.append({"step": "deleted tenant read", "status": status, "body": raw})
    finally:
        served.terminate()
    transcript.append({"step": "catalog after SIGTERM", **catalog_rows(store)})

    served = Served(["--store", str(store), *fleet], work)
    try:
        assert "attached from" in served.banner
        transcript.append(served.observe("restart", 200, {"version": served.version}, 0))
        status, raw = served.request("GET", "/t/x/control")  # the store still holds x
        transcript.append({"step": "restarted tenant read", "status": status, "body": raw})
    finally:
        served.terminate()

    served = Served(["--store", str(store), "--version", "1", *fleet], work)
    try:
        transcript.append(served.observe("rollback", 200, {"version": served.version}, 0))
        step(served, "write after rollback", "POST", "/mutations?wait=1", {"deltas": [
            {"op": "add_company", "id": "C_AFTER"},
        ]}, 1)
    finally:
        served.terminate()
    transcript.append({"step": "final catalog", **catalog_rows(store)})
    return transcript


@pytest.fixture(scope="module")
def extract(tmp_path_factory):
    directory = tmp_path_factory.mktemp("parity") / "extract"
    assert main(["generate", str(directory), "--persons", "40", "--companies", "30",
                 "--seed", "9"]) == 0
    return directory


def test_serve_and_serve_workers_are_one_write_path(extract, tmp_path):
    transcripts = {}
    for workers in (1, 2):
        work = tmp_path / f"workers{workers}"
        work.mkdir()
        transcripts[workers] = run_script(work, extract, workers)
    single, pooled = transcripts[1], transcripts[2]
    assert [row["step"] for row in single] == [row["step"] for row in pooled]
    for one, two in zip(single, pooled):
        assert one == two, f"deployments diverge at step {one['step']!r}"

    by_step = {row["step"]: row for row in single}
    # the script did what it says — in both deployments, by the equality above
    assert [by_step[s]["status"] for s in (
        "valid batch", "invalid batch", "create tenant", "mutate tenant",
        "tenant read", "delete tenant", "deleted tenant read", "restarted tenant read",
        "write after rollback",
    )] == [200, 400, 201, 200, 200, 200, 404, 200, 200]
    assert by_step["valid batch"]["reply"]["version"] == 2
    # a rejected batch publishes and persists nothing
    assert by_step["invalid batch"]["served_version"] == 2
    assert by_step["invalid batch"]["persists"] == by_step["valid batch"]["persists"] == 2
    assert by_step["invalid batch"]["reads"] == by_step["valid batch"]["reads"]
    assert by_step["mutate tenant"]["reply"] == {
        "status": "published", "version": 2, "error": None,
    }
    assert all(row.get("persist_failures", 0) == 0 for row in single)
    # SIGTERM closed the store: its WAL is checkpointed into catalog.db
    assert by_step["catalog after SIGTERM"]["files"] == ["catalog.db", "versions"]
    assert by_step["final catalog"]["files"] == ["catalog.db", "versions"]
    # every acknowledged version is in the catalog, and only those
    assert by_step["catalog after SIGTERM"]["rows"] == [
        ("default", 1, "published", None),
        ("default", 2, "published", 1),
        ("x", 1, "published", None),
        ("x", 2, "published", 1),
    ]
    # the restart serves what was served before the shutdown
    assert by_step["restart"]["served_version"] == 2
    assert by_step["restart"]["reads"] == by_step["delete tenant"]["reads"]
    # the rollback serves v1 again and writes after the store's newest
    assert by_step["rollback"]["reads"] == by_step["boot"]["reads"]
    assert by_step["write after rollback"]["reply"]["version"] == 3
    # (the catalog's parent is the version the persist was diffed against)
    assert by_step["final catalog"]["rows"] == sorted(
        by_step["catalog after SIGTERM"]["rows"]
        + [("default", 3, "published", 2)]
    )
