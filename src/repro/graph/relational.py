"""Relational representation of property graphs (Section 3 of the paper).

Labels operate at schema level and map to predicate names; identifiers and
properties are instance-level and become positional terms of facts.  A
:class:`RelationalSchema` fixes, per label, the predicate name and the
total ordering of property names (the paper's "total ordering of property
names, so we can map them into positional atom terms").

Node relation layout:  ``pred(id, prop_1, ..., prop_m)``.
Edge relation layout:  ``pred(source_id, target_id, prop_1, ..., prop_m)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datalog.database import Database
from .columnar import GraphFrame
from .company_graph import COMPANY, PERSON, SHAREHOLDING, CompanyGraph
from .property_graph import PropertyGraph


@dataclass(frozen=True)
class NodeRelation:
    """How one node label maps to a relation."""

    label: str
    predicate: str
    properties: tuple[str, ...] = ()


@dataclass(frozen=True)
class EdgeRelation:
    """How one edge label maps to a relation.

    ``sum_property``: relational set semantics collapses identical rows,
    so two parallel edges with equal properties would silently become
    one.  Naming a numeric property here makes the export *merge*
    parallel edges between the same endpoints (equal on every other
    property) by summing it — for shareholdings this is exactly the
    total-fraction semantics of :meth:`CompanyGraph.share`.
    """

    label: str
    predicate: str
    properties: tuple[str, ...] = ()
    sum_property: str | None = None


@dataclass(frozen=True)
class RelationalSchema:
    """A full PG <-> relational mapping specification."""

    node_relations: tuple[NodeRelation, ...]
    edge_relations: tuple[EdgeRelation, ...]

    def node_relation(self, label: str) -> NodeRelation | None:
        for relation in self.node_relations:
            if relation.label == label:
                return relation
        return None

    def edge_relation(self, label: str) -> EdgeRelation | None:
        for relation in self.edge_relations:
            if relation.label == label:
                return relation
        return None


#: The company-graph schema used throughout the paper: Company, Person, Own.
COMPANY_SCHEMA = RelationalSchema(
    node_relations=(
        NodeRelation(COMPANY, "company", ("name", "address", "incorporation_date", "legal_form")),
        NodeRelation(
            PERSON,
            "person",
            ("name", "surname", "birth_date", "birth_place", "sex", "address", "father_name"),
        ),
    ),
    edge_relations=(
        EdgeRelation(SHAREHOLDING, "own", ("w", "right"), sum_property="w"),
    ),
)


def to_facts(
    graph: PropertyGraph,
    schema: RelationalSchema = COMPANY_SCHEMA,
) -> Database:
    """Export ``graph`` to its relational representation.

    Elements whose label is not covered by the schema are skipped (they
    are outside the mapped sub-signature). Missing properties map to None.

    Each relation enters the database as columns
    (:meth:`~repro.datalog.database.Database.load`), taken from the
    graph's columnar frame — label partitions and per-property columns
    cached on the :class:`~repro.graph.columnar.GraphFrame` — so no fact
    is ever a tuple on the way in: node ids are interned once and every
    id column is a gather of their codes.  Fact content and
    per-predicate ordering are those of a per-object walk: nodes and
    edges in insertion order, parallel shareholdings summed left to
    right (a merged edge sits where its first part did and carries its
    last part's other properties).
    """
    frame = GraphFrame.of(graph)
    database = Database()
    interner = database.column_store().interner
    node_codes = interner.intern_column(frame.nodes)
    seen_node_labels: set[str] = set()
    for relation in schema.node_relations:
        if relation.label in seen_node_labels:
            continue  # first relation per label wins, as in the object walk
        seen_node_labels.add(relation.label)
        members = frame.label_members(relation.label)
        columns = [node_codes[members]] + [
            interner.intern_column(frame.node_property_column(p)[members].tolist())
            for p in relation.properties
        ]
        database.append(relation.predicate, len(columns), columns, len(members))
    seen_edge_labels: set[str] = set()
    for relation in schema.edge_relations:
        if relation.label in seen_edge_labels:
            continue
        seen_edge_labels.add(relation.label)
        positions = frame.edge_positions(relation.label)
        properties = [frame.edge_property_column(p)[positions].tolist()
                      for p in relation.properties]
        columns = [node_codes[frame.edge_src[positions]],
                   node_codes[frame.edge_dst[positions]]]
        if relation.sum_property is not None:
            at = relation.properties.index(relation.sum_property)
            shares = properties.pop(at)
            columns += [interner.intern_column(values) for values in properties]
            columns, shares = _merge_parallel(interner, columns, shares)
            columns.insert(2 + at, shares)
        else:
            columns += [interner.intern_column(values) for values in properties]
        database.append(relation.predicate, len(columns), columns, len(columns[0]))
    return database


def _merge_parallel(interner, columns: list, shares: list) -> tuple[list, np.ndarray]:
    """Rows equal on the code ``columns`` merged, in order of first
    occurrence: the other columns from each group's last row, and the
    codes of the group's ``shares`` summed left to right from 0.0 (a
    missing share counts 0.0)."""
    classes = [interner.classes(column) for column in columns]
    keys = classes[0]
    for column in classes[1:]:  # dense ids keep each packed pair in 64 bits
        keys = (np.unique(keys, return_inverse=True)[1].reshape(-1) << 32) | column
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    last = len(keys) - 1 - np.unique(keys[::-1], return_index=True)[1]
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    totals = np.bincount(
        rank[inverse.reshape(-1)],
        weights=np.asarray([share or 0.0 for share in shares], dtype=np.float64),
        minlength=len(order),
    )
    last = last[order]
    return [column[last] for column in columns], interner.intern_column(totals.tolist())


def company_graph_from_facts(
    database: Database, schema: RelationalSchema = COMPANY_SCHEMA
) -> CompanyGraph:
    """Rebuild a :class:`CompanyGraph` from its relational representation.

    Inverse of :func:`to_facts` for the company schema; property values
    equal to None are dropped.
    """
    graph = CompanyGraph()
    for relation in schema.node_relations:
        for values in database.iter_facts(relation.predicate):
            node_id = values[0]
            properties = {
                name: value
                for name, value in zip(relation.properties, values[1:])
                if value is not None
            }
            if relation.label == COMPANY:
                graph.add_company(node_id, **properties)
            elif relation.label == PERSON:
                graph.add_person(node_id, **properties)
            else:
                graph.add_node(node_id, relation.label, **properties)
    for relation in schema.edge_relations:
        for values in database.iter_facts(relation.predicate):
            source, target = values[0], values[1]
            properties = {
                name: value
                for name, value in zip(relation.properties, values[2:])
                if value is not None
            }
            if relation.label == SHAREHOLDING:
                share = properties.pop("w", None)
                if share is None:
                    raise ValueError(
                        f"own fact {values!r} is missing the share amount 'w'"
                    )
                graph.add_shareholding(source, target, share, **properties)
            else:
                graph.add_edge(source, target, relation.label, **properties)
    return graph


def roundtrip(graph: CompanyGraph, schema: RelationalSchema = COMPANY_SCHEMA) -> CompanyGraph:
    """Export and re-import (used by tests to check the mapping is lossless
    over the schema-covered signature)."""
    return company_graph_from_facts(to_facts(graph, schema), schema)
