"""The one buffer layout shared by every snapshot serialisation path.

Two codecs carry a :class:`~repro.service.snapshot.Snapshot`: the
shared-memory segment codec (:mod:`repro.service.shm`, process fan-out)
and the durable frame store (:mod:`repro.storage.store`, disk
persistence).  Both carry the same thing — the base graph plus what
reasoning derived — and must agree, bit for bit, on how the snapshot's
precomputed row state becomes numeric columns, or a snapshot persisted by
one path would decode differently through the other.  This module is that
agreement: the row-state column names, the width rule and the
encode/decode pair both codecs import.

Row-state layout (all arrays parallel within their group).  A node is
coded by its position in ``graph.node_ids()`` — the graph's own order,
which the durable store keeps as ``seq`` order and the segment pickle
keeps as dict order — so a node added at the end changes no code.
A code is stored in the narrowest unsigned dtype that holds every code
(:func:`code_dtype`: uint8 up to 256 nodes, uint16 up to 65 536, uint32
beyond), so the width is a function of the node count alone, and a
publish whose count crosses 256 or 65 536 rewrites every code column
once.  Both codecs carry each array in its own dtype (the store's
manifest records it), and :func:`decode_rows` reads any width:

* ``control_x`` / ``control_y`` — control pairs as node codes, in the
  snapshot's canonical row order (``(str(x), str(y))``, ties broken by
  :func:`~repro.graph.columnar.intern_sort_key` —
  :func:`repro.service.snapshot.canonical_rows` sorts them once per
  build and both codecs reuse the lists);
* ``close_x`` / ``close_y`` — close-link pairs, same ordering;
* ``family_x`` / ``family_y`` / ``family_class`` — family links in the
  same order, with the link class interned against a sorted side table
  (returned by :func:`encode_rows`, carried in the codec's metadata;
  ``family_class`` takes the width rule over that table);
* ``ubo_company`` / ``ubo_person`` / ``ubo_share`` / ``ubo_controls`` —
  the beneficial-owner index flattened company-major in
  ``intern_sort_key`` order, preserving each company's owner ranking
  (``ubo_share`` float64, ``ubo_controls`` uint8).
"""

from __future__ import annotations

import numpy as np

from ..graph.columnar import intern_sort_key
from ..graph.property_graph import NodeId
from ..ownership.ubo import BeneficialOwner

#: The row-state columns, in manifest order.
ROW_COLUMNS = (
    "control_x", "control_y", "close_x", "close_y",
    "family_x", "family_y", "family_class",
    "ubo_company", "ubo_person", "ubo_share", "ubo_controls",
)

#: The columns holding node codes (the others hold classes, shares, flags).
CODE_COLUMNS = (
    "control_x", "control_y", "close_x", "close_y",
    "family_x", "family_y", "ubo_company", "ubo_person",
)


def code_dtype(count: int) -> np.dtype:
    """The width rule: the narrowest unsigned dtype holding every code
    below ``count`` — uint8 up to 256 codes, uint16 up to 65 536, uint32
    up to 2**32.  Node columns take it over ``graph.node_count``,
    ``family_class`` over the class table; ``ubo_share`` is always
    float64 and ``ubo_controls`` uint8."""
    return np.min_scalar_type(max(count - 1, 0))


def codes(index: dict[NodeId, int], ids: list[NodeId], dtype: np.dtype) -> np.ndarray:
    """The codes of ``ids`` under ``index``, as ``dtype``."""
    return np.fromiter((index[i] for i in ids), dtype=dtype, count=len(ids))


def encode_rows(snapshot) -> tuple[dict[str, np.ndarray], list[str]]:
    """The snapshot's row state as code arrays, a node coded by its
    position in ``snapshot.graph.node_ids()``.

    Returns ``(buffers, family_classes)``: one array per
    :data:`ROW_COLUMNS` name, each code column at the width
    :func:`code_dtype` gives the graph's node count, plus the sorted
    family-class side table the ``family_class`` column indexes into (the
    codec stores it in its object metadata and hands it back to
    :func:`decode_rows`).
    """
    index = {node: i for i, node in enumerate(snapshot.graph.node_ids())}
    width = code_dtype(len(index))
    buffers: dict[str, np.ndarray] = {}
    control = snapshot.control_rows
    buffers["control_x"] = codes(index, [x for x, _ in control], width)
    buffers["control_y"] = codes(index, [y for _, y in control], width)
    close = snapshot.close_rows
    buffers["close_x"] = codes(index, [x for x, _ in close], width)
    buffers["close_y"] = codes(index, [y for _, y in close], width)
    family = snapshot.family_rows
    classes = sorted({cls for _, _, cls in family})
    class_code = {cls: i for i, cls in enumerate(classes)}
    buffers["family_x"] = codes(index, [x for x, _, _ in family], width)
    buffers["family_y"] = codes(index, [y for _, y, _ in family], width)
    buffers["family_class"] = codes(
        class_code, [cls for _, _, cls in family], code_dtype(len(classes))
    )
    flat: list[tuple[int, int, float, int]] = []
    for company in sorted(snapshot.ubo, key=intern_sort_key):
        for owner in snapshot.ubo[company]:
            flat.append(
                (
                    index[company],
                    index[owner.person],
                    owner.integrated_share,
                    1 if owner.controls else 0,
                )
            )
    buffers["ubo_company"] = np.asarray([f[0] for f in flat], dtype=width)
    buffers["ubo_person"] = np.asarray([f[1] for f in flat], dtype=width)
    buffers["ubo_share"] = np.asarray([f[2] for f in flat], dtype=np.float64)
    buffers["ubo_controls"] = np.asarray([f[3] for f in flat], dtype=np.uint8)
    return buffers, classes


def decode_rows(
    buffers: dict[str, np.ndarray],
    nodes: list[NodeId],
    family_classes: list[str],
) -> tuple[
    list[tuple[NodeId, NodeId]],
    list[tuple[NodeId, NodeId]],
    list[tuple[NodeId, NodeId, str]],
    dict[NodeId, list[BeneficialOwner]],
]:
    """Inverse of :func:`encode_rows`.

    ``nodes`` is ``list(graph.node_ids())`` of the decoded graph;
    ``buffers`` may hold any array-likes (disk memmaps, plain
    arrays).  Returns
    ``(control_rows, close_rows, family_rows, ubo)``: the three relations
    as lists in stored — canonical — order, which
    :meth:`Snapshot.from_columns <repro.service.snapshot.Snapshot.from_columns>`
    hands to the snapshot as its rows.
    """
    control = [
        (nodes[x], nodes[y])
        for x, y in zip(buffers["control_x"].tolist(), buffers["control_y"].tolist())
    ]
    close = [
        (nodes[x], nodes[y])
        for x, y in zip(buffers["close_x"].tolist(), buffers["close_y"].tolist())
    ]
    family = [
        (nodes[x], nodes[y], family_classes[c])
        for x, y, c in zip(
            buffers["family_x"].tolist(),
            buffers["family_y"].tolist(),
            buffers["family_class"].tolist(),
        )
    ]
    ubo: dict[NodeId, list[BeneficialOwner]] = {}
    for company_code, person_code, share, controls in zip(
        buffers["ubo_company"].tolist(),
        buffers["ubo_person"].tolist(),
        buffers["ubo_share"].tolist(),
        buffers["ubo_controls"].tolist(),
    ):
        company = nodes[company_code]
        ubo.setdefault(company, []).append(
            BeneficialOwner(nodes[person_code], company, share, bool(controls))
        )
    return control, close, family, ubo
