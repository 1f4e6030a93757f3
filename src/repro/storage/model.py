"""The interval property model: read one version, write one version's delta.

The catalog's four model tables (:mod:`repro.storage.catalog`) hold each
node, edge and property row once per *lifetime* — ``born`` / ``died``
version numbers — instead of once per version.  This module is the only
code that knows how a tenant's rows are produced and read back:

* :func:`read_model` rebuilds the graph of version *v* from the rows
  visible at *v*, in ``seq`` order;
* :func:`write_delta` compares a graph against a :class:`Baseline` (the
  model of the tenant's previous version), closes (``died = v``) the rows
  that left or changed and inserts the rows that are new.  A first
  version is the same code against an empty baseline, and so is a graph
  whose surviving nodes or edges are no longer in the baseline's relative
  order — stored order *is* ``seq`` order, so such a graph keeps nothing:
  every live row is closed and the graph is written whole;
* :func:`migrate_legacy` folds the per-version copies of a format-1 or
  format-2 catalog into interval rows by replaying each tenant's
  versions through :func:`write_delta`.

Identity is decided on *encoded* values (:func:`key_of`), the same
``(kind, blob)`` pairs ``vals`` is unique on, so ``1``, ``1.0``, ``True``
and ``"1"`` never alias each other the way they do as dict keys.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable

from ..graph.property_graph import PropertyGraph
from . import catalog as cat

#: ``(seq, head, items)``: ``head`` is ``(label,)`` for a node and
#: ``(src_seq, dst_seq, label)`` for an edge — the non-key columns of its
#: row; ``items`` the ``(name, value)`` keys of its properties in order.
Entry = tuple[int, tuple, tuple]


def key_of(value: Any) -> Hashable:
    """The catalog identity of ``value``: a plain ``str`` stands for
    itself, anything else for its encoded ``(kind, blob)`` pair."""
    return value if type(value) is str else cat.encode_value(value)


def _label(label: Any) -> Hashable:
    return None if label is None else key_of(label)


def _items(properties: dict[Any, Any]) -> tuple:
    return tuple((key_of(name), key_of(value)) for name, value in properties.items())


@dataclass
class Baseline:
    """The model of one persisted version, as the diff sees it.

    Holds keys only (strings shared with the graph they came from, small
    tuples otherwise) — never the graph, which its owner may mutate.
    """

    #: the version this is the model of; ``None`` for the empty baseline
    version: int | None = None
    nodes: dict[Hashable, Entry] = field(default_factory=dict)
    edges: dict[Hashable, Entry] = field(default_factory=dict)

    @classmethod
    def of(
        cls,
        version: int,
        graph: PropertyGraph,
        node_seqs: Iterable[int],
        edge_seqs: Iterable[int],
    ) -> "Baseline":
        seq_of: dict[Any, int] = {}
        nodes: dict[Hashable, Entry] = {}
        for seq, node in zip(node_seqs, graph.nodes()):
            seq_of[node.id] = seq
            nodes[key_of(node.id)] = (
                seq, (_label(node.label),), _items(node.properties)
            )
        edges: dict[Hashable, Entry] = {
            key_of(edge.id): (
                seq,
                (seq_of[edge.source], seq_of[edge.target], _label(edge.label)),
                _items(edge.properties),
            )
            for seq, edge in zip(edge_seqs, graph.edges())
        }
        return cls(version, nodes, edges)


def _continue(entries: dict[Hashable, Entry], idents: Iterable[Any]) -> list[int] | None:
    """Seq numbers for ``idents`` (graph order) that keep every
    survivor's seq and number newcomers after everything in ``entries``;
    ``None`` when the result would not be strictly increasing, i.e. when
    seq order could not reproduce the graph's order."""
    fresh = max((entry[0] for entry in entries.values()), default=-1) + 1
    seqs: list[int] = []
    last = -1
    for ident in idents:
        entry = entries.get(key_of(ident))
        if entry is None:
            seq = fresh
            fresh += 1
        else:
            seq = entry[0]
        if seq <= last:
            return None
        seqs.append(seq)
        last = seq
    return seqs


def _seqs(base: Baseline, graph: PropertyGraph) -> tuple[list[int], list[int]] | None:
    """Node and edge seq numbers continuing ``base``, or ``None`` when
    either order broke."""
    node_seqs = _continue(base.nodes, graph.node_ids())
    edge_seqs = _continue(base.edges, (edge.id for edge in graph.edges()))
    if node_seqs is None or edge_seqs is None:
        return None
    return node_seqs, edge_seqs


def _diff(old: dict[Hashable, Entry], new: dict[Hashable, Entry]):
    """``(closed, inserted, closed_props, inserted_props)`` turning the
    rows of ``old`` into the rows of ``new``: identities for the first
    two, ``(owner, ordinal)`` and ``(owner, ordinal, name, value)`` for
    the properties.  A surviving identity keeps its seq, so only its
    ``head`` and its properties, ordinal by ordinal, can differ."""
    closed: list[Hashable] = []
    inserted: list[Hashable] = []
    closed_props: list[tuple[int, int]] = []
    inserted_props: list[tuple[int, int, Hashable, Hashable]] = []
    for ident, was in old.items():
        now = new.get(ident)
        seq, head, items = was
        if now is None:
            closed.append(ident)
            closed_props.extend((seq, ordinal) for ordinal in range(len(items)))
        elif now != was:
            if now[1] != head:
                closed.append(ident)
                inserted.append(ident)
            fresh = now[2]
            for ordinal in range(max(len(items), len(fresh))):
                before = items[ordinal] if ordinal < len(items) else None
                after = fresh[ordinal] if ordinal < len(fresh) else None
                if before != after:
                    if before is not None:
                        closed_props.append((seq, ordinal))
                    if after is not None:
                        inserted_props.append((seq, ordinal, *after))
    for ident, (seq, _head, items) in new.items():
        if ident not in old:
            inserted.append(ident)
            inserted_props.extend(
                (seq, ordinal, name, value)
                for ordinal, (name, value) in enumerate(items)
            )
    return closed, inserted, closed_props, inserted_props


#: per element table: its identity column, its property table, and the
#: INSERT of one row (``head`` fills the columns after ``seq``)
_ELEMENTS = (
    (
        "nodes", "id_ref", "node_props",
        "INSERT INTO nodes (tenant, id_ref, born, seq, label_ref)"
        " VALUES (?, ?, ?, ?, ?)",
    ),
    (
        "edges", "edge_id_ref", "edge_props",
        "INSERT INTO edges (tenant, edge_id_ref, born, seq, src_seq, dst_seq,"
        " label_ref) VALUES (?, ?, ?, ?, ?, ?, ?)",
    ),
)


def write_delta(
    conn: sqlite3.Connection,
    tenant: str,
    version: int,
    graph: PropertyGraph,
    base: Baseline,
) -> tuple[Baseline, int, int]:
    """Make ``graph`` the model of ``version`` of ``tenant``.

    ``base`` must be the model of the tenant's newest persisted version
    (empty for a first version).  Runs inside the caller's transaction;
    returns ``(baseline of this version, rows inserted, rows closed)``.
    """
    rows_closed = 0
    seqs = _seqs(base, graph)
    if seqs is None:
        for table in cat.MODEL_TABLES:
            rows_closed += conn.execute(
                f"UPDATE {table} SET died = ? WHERE tenant = ? AND died IS NULL",
                (version, tenant),
            ).rowcount
        base = Baseline()
        seqs = _seqs(base, graph)
    new = Baseline.of(version, graph, *seqs)

    interner = cat.ValueInterner(conn)

    def ref(key: Hashable) -> int:
        if type(key) is str:
            key = ("s", key.encode("utf-8"))
        return interner.ref_encoded(key)

    rows_inserted = 0
    for (table, id_col, prop_table, insert_row), old, now in (
        (_ELEMENTS[0], base.nodes, new.nodes),
        (_ELEMENTS[1], base.edges, new.edges),
    ):
        closed, inserted, closed_props, inserted_props = _diff(old, now)
        # every close lands before any insert: a closed row and its
        # replacement differ only in ``born``, and both match
        # ``died IS NULL`` until the close has run
        rows_closed += conn.executemany(
            f"UPDATE {table} SET died = ?"
            f" WHERE tenant = ? AND {id_col} = ? AND died IS NULL",
            [(version, tenant, ref(ident)) for ident in closed],
        ).rowcount
        rows_closed += conn.executemany(
            f"UPDATE {prop_table} SET died = ? WHERE tenant = ?"
            " AND owner = ? AND ordinal = ? AND died IS NULL",
            [(version, tenant, owner, ordinal) for owner, ordinal in closed_props],
        ).rowcount
        rows = []
        for ident in inserted:
            seq, (*ends, label), _ = now[ident]
            rows.append(
                (tenant, ref(ident), version, seq, *ends,
                 None if label is None else ref(label))
            )
        conn.executemany(insert_row, rows)
        conn.executemany(
            f"INSERT INTO {prop_table} (tenant, owner, ordinal, born, name_ref,"
            " value_ref) VALUES (?, ?, ?, ?, ?, ?)",
            [
                (tenant, owner, ordinal, version, ref(name), ref(value))
                for owner, ordinal, name, value in inserted_props
            ],
        )
        rows_inserted += len(rows) + len(inserted_props)
    return new, rows_inserted, rows_closed


def _build(
    conn: sqlite3.Connection,
    graph_class: type[PropertyGraph],
    node_rows: list[tuple],
    prop_rows: list[tuple],
    edge_rows: list[tuple],
    eprop_rows: list[tuple],
) -> PropertyGraph:
    """A graph from model rows already in stored order.

    ``node_rows`` are ``(key, id_ref, label_ref)``, ``edge_rows``
    ``(key, edge_id_ref, src_key, dst_key, label_ref)`` and the property
    rows ``(owner_key, name_ref, value_ref)`` — the key is ``seq`` in the
    interval tables and ``pos`` in a legacy catalog.
    """
    loader = cat.ValueLoader(conn)
    loader.prefetch(r for row in node_rows for r in row[1:])
    loader.prefetch(r for row in prop_rows for r in row[1:])
    loader.prefetch(r for row in edge_rows for r in (row[1], row[4]))
    loader.prefetch(r for row in eprop_rows for r in row[1:])
    graph = graph_class()
    node_at = {
        key: graph.add_node(loader.get(id_ref), loader.get(label_ref))
        for key, id_ref, label_ref in node_rows
    }
    for owner, name_ref, value_ref in prop_rows:
        node_at[owner].properties[loader.get(name_ref)] = loader.get(value_ref)
    edge_at = {
        key: graph.add_edge(
            node_at[src].id,
            node_at[dst].id,
            loader.get(label_ref),
            edge_id=loader.get(edge_id_ref),
        )
        for key, edge_id_ref, src, dst, label_ref in edge_rows
    }
    for owner, name_ref, value_ref in eprop_rows:
        edge_at[owner].properties[loader.get(name_ref)] = loader.get(value_ref)
    return graph


def read_model(
    conn: sqlite3.Connection,
    tenant: str,
    version: int,
    graph_class: type[PropertyGraph] = PropertyGraph,
) -> tuple[PropertyGraph, list[int], list[int]]:
    """The graph of ``version`` of ``tenant`` with the seq
    numbers of its nodes and of its edges (the arguments of
    :meth:`Baseline.of`)."""
    live = f"WHERE tenant = ? AND {cat.LIVE_AT}"
    at = (tenant, version, version)
    node_rows = conn.execute(
        f"SELECT seq, id_ref, label_ref FROM nodes {live} ORDER BY seq", at
    ).fetchall()
    prop_rows = conn.execute(
        f"SELECT owner, name_ref, value_ref FROM node_props {live}"
        " ORDER BY owner, ordinal",
        at,
    ).fetchall()
    edge_rows = conn.execute(
        f"SELECT seq, edge_id_ref, src_seq, dst_seq, label_ref FROM edges {live}"
        " ORDER BY seq",
        at,
    ).fetchall()
    eprop_rows = conn.execute(
        f"SELECT owner, name_ref, value_ref FROM edge_props {live}"
        " ORDER BY owner, ordinal",
        at,
    ).fetchall()
    graph = _build(conn, graph_class, node_rows, prop_rows, edge_rows, eprop_rows)
    return graph, [row[0] for row in node_rows], [row[0] for row in edge_rows]


# -- migration --------------------------------------------------------

def migrate_legacy(conn: sqlite3.Connection, snapshot_columns: Iterable[str]) -> None:
    """Rewrite a format-1 or format-2 catalog in place as format 5.

    Both legacy formats store one full copy of the property model per
    version, keyed by ``pos``.  Every table is renamed aside (a format-1
    table first gains the ``tenant`` column format 2 added — its single
    stream becomes the ``default`` tenant's) and the current schema is
    created; the ``versions`` rows of snapshots are copied across (the
    ``kind = 'graph'`` versions those formats also held are dropped,
    as :func:`repro.storage.catalog.migrate_v4` drops them), the
    ``columns`` manifest is adopted
    (:func:`repro.storage.catalog.adopt_legacy_columns`), and each
    tenant's versions are replayed oldest to newest through
    :func:`write_delta`, which keeps only what changed.  The stored
    derived-edge rows (``layer = 1``) are dropped: attach recomputes
    them from the row-state columns.

    One transaction: a crash mid-migration rolls back to the intact
    legacy catalog.
    """
    add_tenant = cat.catalog_format(conn) == 1
    legacy = ("versions", *cat.MODEL_TABLES)
    conn.execute("BEGIN IMMEDIATE")
    try:
        for table in (*legacy, "columns"):
            conn.execute(f"ALTER TABLE {table} RENAME TO {table}_legacy")
            if add_tenant:
                conn.execute(
                    f"ALTER TABLE {table}_legacy"
                    " ADD COLUMN tenant TEXT NOT NULL DEFAULT 'default'"
                )
        cat.create_tables(conn)
        kept = cat.table_columns(conn, "versions")
        conn.execute(
            f"INSERT INTO versions ({kept}) SELECT {kept} FROM versions_legacy"
            " WHERE kind = 'snapshot'"
        )
        cat.adopt_legacy_columns(conn, snapshot_columns)

        # replay each tenant's per-version copies through the diff
        base = Baseline()
        previous = None
        for tenant, version in conn.execute(
            "SELECT tenant, version FROM versions"
            " WHERE state != 'staging' ORDER BY tenant, version"
        ).fetchall():
            if tenant != previous:
                base, previous = Baseline(), tenant
            at = "WHERE tenant = ? AND version = ?"
            graph = _build(
                conn,
                PropertyGraph,
                *(
                    conn.execute(query, (tenant, version)).fetchall()
                    for query in (
                        f"SELECT pos, id_ref, label_ref FROM nodes_legacy {at}"
                        " ORDER BY pos",
                        f"SELECT pos, name_ref, value_ref FROM node_props_legacy {at}"
                        " ORDER BY pos, ordinal",
                        "SELECT pos, edge_id_ref, src_pos, dst_pos, label_ref"
                        f" FROM edges_legacy {at} AND layer = 0 ORDER BY pos",
                        f"SELECT pos, name_ref, value_ref FROM edge_props_legacy {at}"
                        " AND layer = 0 ORDER BY pos, ordinal",
                    )
                ),
            )
            base, _inserted, _closed = write_delta(conn, tenant, version, graph, base)

        for table in legacy:
            conn.execute(f"DROP TABLE {table}_legacy")
        cat.set_format(conn, 5)
        conn.execute("COMMIT")
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    cat.compact(conn)
