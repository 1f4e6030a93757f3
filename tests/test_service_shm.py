"""Shared-memory snapshot codec: encode/attach round trips.

The acceptance-critical property is **per-row identity**: a snapshot
attached from a segment must answer every endpoint payload byte-equal
to the in-process snapshot it was encoded from — including the
custom-threshold paths that recompute over the (attached, zero-copy)
columnar frame.
"""

import gc
import sys

import numpy as np
import pytest

from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.graph.columnar import GraphFrame
from repro.service import shm as shm_codec
from repro.service.snapshot import SnapshotBuilder, SnapshotConfig


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
        """Non-default thresholds bypass precomputed rows and reach the
        attached frame through ``GraphFrame.of`` — still identical."""
        attached = shm_codec.attach_snapshot(segment.name)
        companies = sorted((n.id for n in graph.companies()), key=str)[:10]
        assert GraphFrame.of(attached.graph) is attached.frame
        assert attached.control_payload(threshold=0.4) == (
            snapshot.control_payload(threshold=0.4)
        )
        assert attached.close_links_payload(0.35) == (
            snapshot.close_links_payload(0.35)
        )
        assert attached.ubo_payloads(companies, 0.15) == (
            snapshot.ubo_payloads(companies, 0.15)
        )

    def test_buffers_are_zero_copy_readonly_views(self, segment):
        attached = shm_codec.attach_snapshot(segment.name)
        indptr, targets, positions = attached.frame.csr()
        for view in (indptr, targets, positions):
            assert not view.flags.owndata  # a view over the mapping
            assert not view.flags.writeable
        with pytest.raises(ValueError):
            targets[0] = 7

    def test_two_attachments_share_physical_buffers(self, segment):
        a = shm_codec.attach_snapshot(segment.name)
        b = shm_codec.attach_snapshot(segment.name)
        src_a = a.frame.edge_src
        src_b = b.frame.edge_src
        assert np.shares_memory(src_a, src_a)  # sanity
        assert src_a.tolist() == src_b.tolist()
        # same segment offset: both are views at identical addresses
        # within their own mmaps of one shared object
        assert a.segment_name == b.segment_name

    def test_attached_views_are_aligned(self, segment):
        frame = shm_codec.attach_snapshot(segment.name).frame
        columns = (frame.edge_src, frame.edge_dst, frame.walk_weights, frame.insertion_codes)
        for view in (*columns, *frame.csr(), *frame.csc()):
            assert not view.flags.owndata
            assert view.ctypes.data % shm_codec.ALIGNMENT == 0


class TestLifecycle:
    def test_close_refuses_while_views_are_alive(self, segment):
        """An explicit ``shm.close()`` (the traced benchmark pass makes
        one) cannot pull the mapping from under a live view."""
        attached = shm_codec.attach_snapshot(segment.name)
        view = attached.frame.edge_src
        with pytest.raises(BufferError):
            attached.shm.close()
        assert view.tolist() == attached.frame.edge_src.tolist()

    def test_close_succeeds_once_references_drop(self, segment):
        """Once the snapshot is dropped, its views go with it — no
        collector pass — and the held mapping closes."""
        attached = shm_codec.attach_snapshot(segment.name)
        handle = attached.shm
        with pytest.raises(BufferError):
            handle.close()
        collecting = gc.isenabled()
        gc.disable()
        try:
            attached = None  # noqa: F841 - drop the one strong reference
            handle.close()  # must not raise now
        finally:
            if collecting:
                gc.enable()
        assert handle.closed

    def test_unlinked_segment_serves_until_the_last_reference_drops(
        self, graph, snapshot, monkeypatch
    ):
        """Retiring is unlinking: an attachment keeps serving byte-equal
        payloads after its creator unlinked the segment, and dropping the
        last reference unmaps it — no ``close()``, no collector pass, no
        unraisable exception."""
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
            assert mapped(segment.name)
            del attached
            assert not mapped(segment.name)
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
