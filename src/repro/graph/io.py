"""Import/export of company graphs (CSV and JSON).

The paper's pipeline ingests relational enterprise data via ETL jobs; this
module provides the file-level half of that: companies, persons and
shareholdings as three CSV files (mirroring the Chambers-of-Commerce
extract layout), plus a single-file JSON format for whole property graphs
(:func:`to_json`'s document), which :func:`save_json` writes and
:func:`load_json` reads one array element at a time.
"""

from __future__ import annotations

import csv
import json
from itertools import islice
from pathlib import Path
from typing import Any

from .company_graph import SHAREHOLDING, CompanyGraph
from .property_graph import PropertyGraph

COMPANY_FIELDS = ("id", "name", "address", "incorporation_date", "legal_form")
PERSON_FIELDS = ("id", "name", "surname", "birth_date", "birth_place", "sex", "address", "father_name")
SHAREHOLDING_FIELDS = ("owner", "company", "w", "right")


def write_company_csv(graph: CompanyGraph, directory: str | Path) -> None:
    """Write ``companies.csv``, ``persons.csv`` and ``shareholdings.csv``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with open(directory / "companies.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(COMPANY_FIELDS)
        for node in graph.companies():
            writer.writerow([node.id] + [node.get(f, "") for f in COMPANY_FIELDS[1:]])

    with open(directory / "persons.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(PERSON_FIELDS)
        for node in graph.persons():
            writer.writerow([node.id] + [node.get(f, "") for f in PERSON_FIELDS[1:]])

    with open(directory / "shareholdings.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SHAREHOLDING_FIELDS)
        for edge in graph.shareholdings():
            writer.writerow(
                [edge.source, edge.target, edge.get("w", ""), edge.get("right", "")]
            )


def read_company_csv(directory: str | Path) -> CompanyGraph:
    """Load a company graph written by :func:`write_company_csv`."""
    directory = Path(directory)
    graph = CompanyGraph()

    with open(directory / "companies.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            properties = {k: v for k, v in row.items() if k != "id" and v}
            graph.add_company(row["id"], **properties)

    with open(directory / "persons.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            properties = {k: v for k, v in row.items() if k != "id" and v}
            graph.add_person(row["id"], **properties)

    with open(directory / "shareholdings.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            extra: dict[str, Any] = {}
            if row.get("right"):
                extra["right"] = row["right"]
            graph.add_shareholding(row["owner"], row["company"], float(row["w"]), **extra)

    return graph


def _json_arrays(graph: PropertyGraph):
    """``(key, element iterator)`` of the two arrays of a :func:`to_json`
    document, in document order, each element built when it is drawn."""
    yield "nodes", (
        {"id": node.id, "label": node.label, "properties": node.properties}
        for node in graph.nodes()
    )
    yield "edges", (
        {
            "id": edge.id,
            "source": edge.source,
            "target": edge.target,
            "label": edge.label,
            "properties": edge.properties,
        }
        for edge in graph.edges()
    )


def to_json(graph: PropertyGraph) -> dict[str, Any]:
    """Serialise any property graph to a JSON-compatible dict."""
    return {key: list(elements) for key, elements in _json_arrays(graph)}


# Properties go in after the element is made: a property key may be any
# string, "label" or "source" too, which add_node / add_edge take as
# arguments of their own.

def _add_json_node(graph: PropertyGraph, node: dict[str, Any]) -> None:
    graph.add_node(node["id"], node.get("label")).properties.update(
        node.get("properties", {})
    )


def _add_json_edge(graph: PropertyGraph, edge: dict[str, Any], company_graph: bool) -> None:
    properties = dict(edge.get("properties", {}))
    if company_graph and edge.get("label") == SHAREHOLDING:
        share = properties.pop("w")
        added = graph.add_shareholding(  # type: ignore[union-attr]
            edge["source"], edge["target"], share, edge_id=edge.get("id"),
        )
    else:
        added = graph.add_edge(
            edge["source"], edge["target"], edge.get("label"), edge_id=edge.get("id"),
        )
    added.properties.update(properties)


def from_json(payload: dict[str, Any], company_graph: bool = True) -> PropertyGraph:
    """Rebuild a graph serialised by :func:`to_json`.

    With ``company_graph=True`` (the default) the result is a
    :class:`CompanyGraph`; shareholding edges go through the validating
    constructor so malformed share amounts are rejected on load.
    """
    graph: PropertyGraph = CompanyGraph() if company_graph else PropertyGraph()
    for node in payload.get("nodes", ()):
        _add_json_node(graph, node)
    for edge in payload.get("edges", ()):
        _add_json_edge(graph, edge, company_graph)
    return graph


#: Array elements encoded by one C-encoder call and written at once.  A
#: batch's text stays far below malloc's 128 KiB mmap threshold, so its
#: transient strings reuse freed heap instead of mapping fresh pages.
_SAVE_BATCH = 128


def save_json(graph: PropertyGraph, path: str | Path) -> None:
    """Write ``graph`` as its :func:`to_json` document, without spaces.

    The bytes are ``json.dumps(to_json(graph), separators=(",", ":"))``,
    but no document tree is built: elements are drawn
    :data:`_SAVE_BATCH` at a time, each batch encoded as one list by the
    C encoder (``json.dump`` would take the pure-Python one) and written
    with its brackets cut off.
    """
    encode = json.JSONEncoder(separators=(",", ":")).encode
    with open(path, "w") as handle:
        opener = "{"
        for key, elements in _json_arrays(graph):
            handle.write(f"{opener}{encode(key)}:[")
            opener = ","
            separator = ""
            while batch := list(islice(elements, _SAVE_BATCH)):
                handle.write(separator + encode(batch)[1:-1])
                separator = ","
            handle.write("]")
        handle.write("}")


def iter_graph_json(path: str | Path, chunk_size: int = 1 << 16):
    """Incrementally parse a :func:`to_json` document.

    Yields ``(key, element)`` pairs — ``("nodes", {...})`` then
    ``("edges", {...})`` in document order — holding one array element
    plus one read chunk in memory, never the whole file.  Top-level keys
    whose value is not an array are decoded and skipped.
    """
    decoder = json.JSONDecoder()
    with open(path) as handle:
        buf = ""
        pos = 0

        def skip_ws() -> str:
            """Advance past whitespace; returns the next character."""
            nonlocal buf, pos
            while True:
                while pos < len(buf):
                    if buf[pos] not in " \t\r\n":
                        return buf[pos]
                    pos += 1
                buf = handle.read(chunk_size)  # everything before pos consumed
                pos = 0
                if not buf:
                    raise ValueError(f"malformed graph JSON: truncated {path}")

        def decode_value() -> Any:
            """One JSON value at the cursor, pulling chunks as needed."""
            nonlocal buf, pos
            skip_ws()
            buf = buf[pos:]  # bound memory: drop the consumed prefix
            pos = 0
            while True:
                try:
                    value, end = decoder.raw_decode(buf)
                except ValueError:
                    chunk = handle.read(chunk_size)
                    if not chunk:  # not a truncation — genuinely malformed
                        raise
                    buf += chunk
                else:
                    pos = end
                    return value

        def expect(char: str) -> None:
            nonlocal pos
            if skip_ws() != char:
                raise ValueError(
                    f"malformed graph JSON: expected {char!r}, got {buf[pos]!r}"
                )
            pos += 1

        expect("{")
        if skip_ws() == "}":
            return
        while True:
            key = decode_value()
            if not isinstance(key, str):
                raise ValueError(f"malformed graph JSON: non-string key {key!r}")
            expect(":")
            if skip_ws() == "[":
                pos += 1
                if skip_ws() == "]":
                    pos += 1
                else:
                    while True:
                        yield key, decode_value()
                        if skip_ws() == "]":
                            pos += 1
                            break
                        expect(",")
            else:
                decode_value()  # non-array value: decode and drop
            if skip_ws() == "}":
                return
            expect(",")


def load_json(path: str | Path, company_graph: bool = True) -> PropertyGraph:
    """Load a graph JSON file, streaming one element at a time."""
    graph: PropertyGraph = CompanyGraph() if company_graph else PropertyGraph()
    for key, element in iter_graph_json(path):
        if key == "nodes":
            _add_json_node(graph, element)
        elif key == "edges":
            _add_json_edge(graph, element, company_graph)
    return graph
