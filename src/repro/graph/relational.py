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
    prime_columns: bool = True,
) -> Database:
    """Export ``graph`` to its relational representation.

    Elements whose label is not covered by the schema are skipped (they
    are outside the mapped sub-signature). Missing properties map to None.

    Facts are emitted from the graph's columnar frame — label partitions
    and per-property columns cached on the
    :class:`~repro.graph.columnar.GraphFrame` — instead of per-object
    iteration, so repeated exports of the same graph version (pipeline
    rounds, KG rebuilds) share the column buffers.  Fact content and
    per-predicate ordering are identical to the historical per-object
    walk: nodes and edges in insertion order, parallel shareholdings
    summed left to right.

    ``prime_columns`` additionally builds the database's columnar code
    blocks (:mod:`repro.datalog.columns`) for every exported predicate in
    one pass, while the fresh row tuples are still cache-hot — the
    vectorized engine backend then starts from synced blocks instead of
    interning whole relations in the middle of its first join.  A no-op
    without numpy.
    """
    frame = GraphFrame.of(graph)
    database = Database()
    nodes = frame.nodes
    seen_node_labels: set[str] = set()
    for relation in schema.node_relations:
        if relation.label in seen_node_labels:
            continue  # first relation per label wins, as in the object walk
        seen_node_labels.add(relation.label)
        codes = frame.label_members(relation.label)
        columns = [frame.node_property_column(p) for p in relation.properties]
        for code in codes.tolist():
            values = (nodes[code],) + tuple(column[code] for column in columns)
            database.add(relation.predicate, values)
    merged: dict[tuple, float] = {}
    merged_template: dict[tuple, tuple] = {}
    src, dst = frame.edge_src, frame.edge_dst
    seen_edge_labels: set[str] = set()
    for relation in schema.edge_relations:
        if relation.label in seen_edge_labels:
            continue
        seen_edge_labels.add(relation.label)
        positions = frame.edge_positions(relation.label)
        columns = [frame.edge_property_column(p) for p in relation.properties]
        sum_index = (
            None if relation.sum_property is None
            else 2 + relation.properties.index(relation.sum_property)
        )
        for pos in positions.tolist():
            values = (nodes[src[pos]], nodes[dst[pos]]) + tuple(
                column[pos] for column in columns
            )
            if sum_index is None:
                database.add(relation.predicate, values)
                continue
            key = (relation.predicate,) + values[:sum_index] + values[sum_index + 1:]
            merged[key] = merged.get(key, 0.0) + (values[sum_index] or 0.0)
            merged_template[key] = (relation.predicate, values, sum_index)
    for key, total in merged.items():
        predicate, values, sum_index = merged_template[key]
        row = values[:sum_index] + (total,) + values[sum_index + 1:]
        database.add(predicate, row)
    if prime_columns:
        store = database.column_store()
        for predicate in database.predicates():
            store.preload(predicate)
    return database


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
