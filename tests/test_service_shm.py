"""Shared-memory snapshot codec: encode/attach round trips.

The acceptance-critical property is **per-row identity**: a snapshot
attached from a segment must answer every endpoint payload byte-equal
to the in-process snapshot it was encoded from — including the
custom-threshold paths that recompute over the columnar frame the
attacher rebuilt from the decoded graph.
"""

import gc
import os
import re
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.graph.columnar import _CACHE_ATTR
from repro.service import shm as shm_codec
from repro.service.snapshot import SnapshotBuilder, SnapshotConfig
from repro.storage.layout import ROW_DTYPES


@pytest.fixture(scope="module")
def graph():
    g, _truth = generate_company_graph(CompanySpec(persons=30, companies=24, seed=11))
    return g


@pytest.fixture(scope="module")
def snapshot(graph):
    return SnapshotBuilder(SnapshotConfig()).build(graph)


@pytest.fixture()
def segment(snapshot):
    seg = shm_codec.encode_snapshot(snapshot)
    try:
        yield seg
    finally:
        try:
            seg.unlink()
        except FileNotFoundError:
            pass
        seg.close()


def mapped(name):
    """Whether this process maps segment ``name``."""
    with open("/proc/self/maps") as maps:
        return any(f"/dev/shm/{name}" in line for line in maps)


class TestRoundTrip:
    def test_every_payload_is_identical(self, graph, snapshot, segment):
        attached = shm_codec.attach_snapshot(segment.name)
        companies = sorted((n.id for n in graph.companies()), key=str)
        persons = sorted((n.id for n in graph.persons()), key=str)
        assert attached.version == snapshot.version
        assert attached.created_at == snapshot.created_at
        assert attached.control_payload() == snapshot.control_payload()
        assert attached.close_links_payload() == snapshot.close_links_payload()
        assert attached.family_payload() == snapshot.family_payload()
        assert attached.ubo_payloads(companies) == snapshot.ubo_payloads(companies)
        assert attached.stats_payload() == snapshot.stats_payload()
        for node in persons[:5] + companies[:5]:
            assert attached.neighbors_payload(node, 2, None) == (
                snapshot.neighbors_payload(node, 2, None)
            )

    def test_custom_threshold_paths_recompute_identically(
        self, graph, snapshot, segment
    ):
        """Non-default thresholds bypass precomputed rows and build the
        attached graph's frame on demand — still identical."""
        attached = shm_codec.attach_snapshot(segment.name)
        companies = sorted((n.id for n in graph.companies()), key=str)[:10]
        assert _CACHE_ATTR not in attached.graph.__dict__  # an attach builds no frame
        assert attached.control_payload(threshold=0.4) == (
            snapshot.control_payload(threshold=0.4)
        )
        assert attached.close_links_payload(0.35) == (
            snapshot.close_links_payload(0.35)
        )
        assert attached.ubo_payloads(companies, 0.15) == (
            snapshot.ubo_payloads(companies, 0.15)
        )

    def test_segment_carries_what_the_store_carries(self, snapshot, segment):
        """The row-state columns, the base graph and the snapshot
        metadata — no frame buffer, no frame."""
        payload = shm_codec._payload(segment.buf, segment.name)
        assert set(payload["rows"]) == set(ROW_DTYPES)
        assert set(payload) == {
            "graph", "rows", "config", "version", "built_s", "created_at",
            "warm", "incremental", "family_classes",
        }
        _cls, state = payload["graph"]
        assert _CACHE_ATTR not in state


class TestLifecycle:
    def test_attach_leaves_no_mapping(self, graph, snapshot, segment):
        """A worker maps a segment only while attaching it: right after
        ``attach_snapshot`` no line of this process's maps names the
        segment, yet the custom-threshold paths answer byte-equal."""
        segment.close()  # only an attachment could map it now
        attached = shm_codec.attach_snapshot(segment.name)
        assert not mapped(segment.name)
        assert attached.shm.closed
        companies = sorted((n.id for n in graph.companies()), key=str)[:10]
        assert attached.control_payload(threshold=0.4) == (
            snapshot.control_payload(threshold=0.4)
        )
        assert attached.close_links_payload(0.35) == snapshot.close_links_payload(0.35)
        assert attached.ubo_payloads(companies, 0.15) == (
            snapshot.ubo_payloads(companies, 0.15)
        )
        assert not mapped(segment.name)

    def test_unlinked_segment_serves_until_the_last_reference_drops(
        self, graph, snapshot, monkeypatch
    ):
        """Retiring is unlinking: an attachment keeps serving byte-equal
        payloads after its creator unlinked the segment, and dropping it
        needs no ``close()``, no collector pass and raises no unraisable
        exception."""
        companies = sorted((n.id for n in graph.companies()), key=str)[:10]

        def payloads(snap):
            return (
                snap.control_payload(threshold=0.4),
                snap.close_links_payload(0.35),
                snap.ubo_payloads(companies, 0.15),
                snap.neighbors_payload(companies[0], 2, None),
            )

        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        segment = shm_codec.encode_snapshot(snapshot)
        segment.close()  # from here on only the attachment maps it
        attached = shm_codec.attach_snapshot(segment.name)
        segment.unlink()
        collecting = gc.isenabled()
        gc.disable()
        try:
            assert payloads(attached) == payloads(snapshot)
            del attached
        finally:
            if collecting:
                gc.enable()
        assert unraisable == []

    def test_unlink_segment(self, snapshot):
        """Once its creator unlinks a segment, nothing can attach it."""
        seg = shm_codec.encode_snapshot(snapshot)
        seg.close()
        seg.unlink()
        with pytest.raises(shm_codec.SegmentError, match="no such segment"):
            shm_codec.attach_snapshot(seg.name)

    def test_foreign_segment_is_rejected(self):
        from multiprocessing import shared_memory

        foreign = shared_memory.SharedMemory(create=True, size=4096)
        try:
            with pytest.raises(shm_codec.SegmentError, match="magic"):
                shm_codec.attach_snapshot(foreign.name)
        finally:
            foreign.unlink()
            foreign.close()

    def test_format_version_skew_is_rejected(self, segment):
        import struct

        header = bytearray(segment.buf[: shm_codec._HEADER.size])
        struct.pack_into("<H", header, 4, shm_codec.FORMAT_VERSION + 1)
        segment.buf[: len(header)] = header
        with pytest.raises(shm_codec.SegmentError, match="format"):
            shm_codec.attach_snapshot(segment.name)


#: a creator that dies without unlinking: encode, report, ``os._exit``
CRASHING_CREATOR = """
import os, sys
from repro.graph import figure2_graph
from repro.service import encode_snapshot
from repro.service.snapshot import SnapshotBuilder, SnapshotConfig
snapshot = SnapshotBuilder(SnapshotConfig(augment=False)).build(figure2_graph())
segment = encode_snapshot(snapshot, name=sys.argv[1])
print(os.path.exists("/dev/shm/" + segment.name), flush=True)
os._exit(0)
"""


class TestCreation:
    def test_an_unnamed_segment_is_psm_and_round_trips(self, snapshot, segment):
        # the e2e leak check counts psm_* segments: the default name keeps
        # that prefix, and only the creator may open it
        assert re.fullmatch(r"psm_[0-9a-f]{8}", segment.name)
        assert stat.S_IMODE(os.stat(f"/dev/shm/{segment.name}").st_mode) == 0o600
        assert segment.size == len(segment.buf)
        attached = shm_codec.attach_snapshot(segment.name)
        assert attached.segment_name == segment.name
        assert attached.control_payload() == snapshot.control_payload()
        assert attached.ubo == snapshot.ubo

    def test_a_taken_name_is_never_reused(self, snapshot, segment):
        with pytest.raises(FileExistsError):
            shm_codec.encode_snapshot(snapshot, name=segment.name)
        assert shm_codec.attach_snapshot(segment.name).version == snapshot.version

    def test_a_crashed_creator_leaves_no_segment(self):
        # the resource tracker reaps what a dead process tree registered
        name = f"rkgs_crash_{os.getpid()}"
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", CRASHING_CREATOR, name],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == "True"
        deadline = time.monotonic() + 10.0
        while os.path.exists(f"/dev/shm/{name}") and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not os.path.exists(f"/dev/shm/{name}")
