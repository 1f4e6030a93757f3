"""Tests for CSV and JSON import/export."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    CompanyGraph,
    figure1_graph,
    from_json,
    load_json,
    read_company_csv,
    save_json,
    to_json,
    write_company_csv,
)
from repro.graph.io import iter_graph_json
from repro.graph.property_graph import PropertyGraph


@pytest.fixture
def graph():
    g = CompanyGraph()
    g.add_person("p1", name="Anna", surname="Rossi", birth_date="1980-02-03",
                 birth_place="Roma", sex="F", address="Via Roma 1, Roma")
    g.add_company("c1", name="Acme SRL", address="Via Milano 2, Milano",
                  incorporation_date="1999-01-01", legal_form="SRL")
    g.add_shareholding("p1", "c1", 0.75, right="ownership")
    return g


class TestCsv:
    def test_roundtrip(self, graph, tmp_path):
        write_company_csv(graph, tmp_path)
        back = read_company_csv(tmp_path)
        assert back.node_count == 2
        assert back.share("p1", "c1") == pytest.approx(0.75)
        assert back.node("p1").get("surname") == "Rossi"
        assert next(back.shareholdings()).get("right") == "ownership"

    def test_files_created(self, graph, tmp_path):
        write_company_csv(graph, tmp_path)
        for name in ("companies.csv", "persons.csv", "shareholdings.csv"):
            assert (tmp_path / name).exists()

    def test_empty_graph(self, tmp_path):
        write_company_csv(CompanyGraph(), tmp_path)
        back = read_company_csv(tmp_path)
        assert back.node_count == 0


class TestJson:
    def test_roundtrip_preserves_everything(self, graph):
        back = from_json(to_json(graph))
        assert back.node_count == graph.node_count
        assert back.edge_count == graph.edge_count
        assert back.share("p1", "c1") == pytest.approx(0.75)

    def test_roundtrip_preserves_edge_ids(self, graph):
        original_ids = {edge.id for edge in graph.edges()}
        back = from_json(to_json(graph))
        assert {edge.id for edge in back.edges()} == original_ids

    def test_share_validation_applies_on_load(self, graph):
        payload = to_json(graph)
        payload["edges"][0]["properties"]["w"] = 7.5
        with pytest.raises(Exception):
            from_json(payload)

    def test_plain_property_graph_mode(self, graph):
        back = from_json(to_json(graph), company_graph=False)
        assert back.node_count == graph.node_count

    def test_file_roundtrip(self, tmp_path):
        graph = figure1_graph()
        path = tmp_path / "fig1.json"
        save_json(graph, path)
        back = load_json(path)
        assert back.node_count == 10
        assert back.share("P1", "C") == pytest.approx(0.8)


class TestStreamingLoaders:
    def test_iter_graph_json_streams_elements(self, tmp_path):
        from repro.graph.io import iter_graph_json

        graph = figure1_graph()
        path = tmp_path / "fig1.json"
        save_json(graph, path)
        # a 7-byte chunk forces refills inside keys, strings, and numbers
        elems = list(iter_graph_json(path, chunk_size=7))
        assert [k for k, _ in elems].count("nodes") == graph.node_count
        assert [k for k, _ in elems].count("edges") == graph.edge_count

    def test_streamed_load_matches_in_memory(self, tmp_path):
        import json as jsonlib

        graph = figure1_graph()
        path = tmp_path / "fig1.json"
        save_json(graph, path)
        streamed = load_json(path)
        in_memory = from_json(jsonlib.loads(path.read_text()))

        def model(g):
            return (
                [(n.id, n.label, n.properties) for n in g.nodes()],
                [(e.id, e.source, e.target, e.label, e.properties) for e in g.edges()],
            )

        assert model(streamed) == model(in_memory)

    def test_extra_top_level_keys_skipped(self, tmp_path):
        import json as jsonlib

        path = tmp_path / "extra.json"
        path.write_text(jsonlib.dumps({
            "meta": {"exported": "today", "count": 1},
            "nodes": [{"id": "P1", "label": "P"}],
            "edges": [],
        }))
        back = load_json(path)
        assert back.node_count == 1
        assert back.edge_count == 0

    def test_truncated_json_raises(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"nodes": [{"id": "P1"')
        with pytest.raises(ValueError):
            load_json(path)


_TEXT = st.text(max_size=6)  # any code point: non-ASCII and escapes included
_SCALARS = st.one_of(
    st.sampled_from([1, 1.0, True, False, None, 1e-07, -0.0, 0.1, 1e300, 10**20]),
    st.integers(-(2**63), 2**63),
    st.floats(allow_nan=False),
    _TEXT,
)
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
_PROPERTIES = st.dictionaries(_TEXT, _VALUES, max_size=3)  # often empty


@st.composite
def _graphs(draw):
    graph = PropertyGraph()
    ids = draw(st.lists(_TEXT, unique=True, max_size=5))
    # properties go in after the element is made: a key may be any text,
    # "label" or "source" too, which add_node / add_edge take as arguments
    for node_id in ids:
        node = graph.add_node(node_id, draw(st.none() | _TEXT))
        node.properties.update(draw(_PROPERTIES))
    if ids:
        for _ in range(draw(st.integers(0, 5))):
            edge = graph.add_edge(
                draw(st.sampled_from(ids)), draw(st.sampled_from(ids)),
                draw(st.none() | _TEXT),
            )
            edge.properties.update(draw(_PROPERTIES))
    return graph


def _model(graph):
    """Everything a graph holds, with the types of its values."""
    return repr((
        [(n.id, n.label, n.properties) for n in graph.nodes()],
        [(e.id, e.source, e.target, e.label, e.properties) for e in graph.edges()],
    ))


class TestStreamingWriter:
    """``save_json`` streams element by element through the C encoder:
    its bytes must be the compact ``json.dumps`` of ``to_json``, and both
    readers must give the graph back, types included."""

    @given(drawn=_graphs())
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_the_compact_dump(self, drawn, tmp_path_factory):
        path = tmp_path_factory.mktemp("writer") / "graph.json"
        save_json(drawn, path)
        expected = json.dumps(to_json(drawn), separators=(",", ":"))
        assert path.read_bytes() == expected.encode()
        assert _model(load_json(path, company_graph=False)) == _model(drawn)
        document = to_json(drawn)
        streamed = list(iter_graph_json(path, chunk_size=7))
        assert repr(streamed) == repr(
            [("nodes", n) for n in document["nodes"]] + [("edges", e) for e in document["edges"]]
        )

    def test_batches_join_without_a_gap(self, tmp_path, monkeypatch):
        from repro.graph import io

        monkeypatch.setattr(io, "_SAVE_BATCH", 2)
        graph = figure1_graph()
        path = tmp_path / "fig1.json"
        save_json(graph, path)
        assert path.read_text() == json.dumps(to_json(graph), separators=(",", ":"))

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "empty.json"
        save_json(PropertyGraph(), path)
        assert path.read_text() == '{"nodes":[],"edges":[]}'
        assert load_json(path).node_count == 0
