"""Oracle tests for the columnar graph core (:mod:`repro.graph.columnar`).

Two kinds of evidence that the shared :class:`GraphFrame` views are safe
to substitute for the historical per-consumer builds:

* **property-based oracles** — random company graphs (parallel edges,
  self-loops, varied insertion orders) checked against naive
  ``PropertyGraph`` iteration and against inline reimplementations of
  the *legacy* code (the dict-of-dicts ``build_adjacency``, the
  ``lil_matrix``-plus-``spsolve`` ownership path), demanding exact —
  bit-identical, not approximate — equality of the frame's views, and
  agreement within 1e-12 of integrated ownership, which is now solved
  per strongly connected component instead of globally;
* **golden cross-refactor hashes** — sha256 digests of walk sets,
  ownership sweeps, UBO indexes and pipeline outputs captured from the
  pre-frame implementation on a fixed synthetic graph.  Any refactor
  that perturbs a float or an ordering anywhere in the stack trips
  these.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import realworld_like
from repro.embeddings.walks import RandomWalker, build_adjacency, generate_walks
from repro.graph import CompanyGraph, GraphFrame, PropertyGraph, figure2_graph
from repro.graph.columnar import intern_sort_key
from repro.ownership.matrix import integrated_ownership_from
from repro.ownership.ubo import all_beneficial_owners


def _hash(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# legacy reimplementations (the oracles)
# ---------------------------------------------------------------------------


def legacy_build_adjacency(graph, weight_property="w"):
    """The pre-frame ``build_adjacency``, verbatim."""
    adjacency = {n: {} for n in graph.node_ids()}
    for edge in graph.edges():
        weight = float(edge.get(weight_property, 1.0) or 1.0)
        if edge.source == edge.target:
            continue
        adjacency[edge.source][edge.target] = (
            adjacency[edge.source].get(edge.target, 0.0) + weight
        )
        adjacency[edge.target][edge.source] = (
            adjacency[edge.target].get(edge.source, 0.0) + weight
        )
    return {
        node: sorted(neighbors.items(), key=lambda item: str(item[0]))
        for node, neighbors in adjacency.items()
    }


def legacy_ownership_matrix(graph):
    """The pre-frame ``ownership_matrix``: str-sorted nodes, lil accumulation."""
    from scipy.sparse import lil_matrix

    nodes = sorted(graph.node_ids(), key=str)
    index = {node: i for i, node in enumerate(nodes)}
    matrix = lil_matrix((len(nodes), len(nodes)))
    for edge in graph.edges("S"):
        matrix[index[edge.source], index[edge.target]] += edge.get("w", 0.0)
    return nodes, matrix


def legacy_integrated_from(graph, source):
    """The pre-frame ``integrated_ownership_from``: fresh spsolve per call."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import spsolve

    nodes, w = legacy_ownership_matrix(graph)
    index = {node: i for i, node in enumerate(nodes)}
    if source not in index:
        return {}
    transpose = w.tocsc().T.tocsc()
    unit = np.zeros(len(nodes))
    unit[index[source]] = 1.0
    rhs = transpose @ unit
    system = identity(len(nodes), format="csc") - transpose
    solution = spsolve(system, rhs)
    return {
        node: float(solution[i])
        for node, i in index.items()
        if node != source and abs(solution[i]) > 1e-12
    }


# ---------------------------------------------------------------------------
# random company graphs
# ---------------------------------------------------------------------------

SHARES = (0.05, 0.1, 0.123, 0.2, 0.25, 1 / 3, 0.3)


@st.composite
def company_graphs(draw):
    """Small random ownership graphs with parallel edges and self-loops.

    Incoming shares per company are budgeted below 1, so ``I - W`` is
    strictly column-diagonally dominant and never singular — the legacy
    spsolve oracle and the per-SCC solves both solve cleanly.
    """
    n_persons = draw(st.integers(min_value=0, max_value=4))
    n_companies = draw(st.integers(min_value=1, max_value=5))
    inserts = draw(
        st.permutations(
            [f"p{i}" for i in range(n_persons)] + [f"c{i}" for i in range(n_companies)]
        )
    )
    graph = CompanyGraph()
    for node in inserts:
        if node.startswith("p"):
            graph.add_person(node, surname=f"s{node[-1]}")
        else:
            graph.add_company(node, name=node.upper())
    owners = list(inserts)
    n_edges = draw(st.integers(min_value=0, max_value=10))
    budget = {f"c{i}": 0.95 for i in range(n_companies)}
    for _ in range(n_edges):
        owner = draw(st.sampled_from(owners))
        company = draw(st.sampled_from([f"c{i}" for i in range(n_companies)]))
        share = draw(st.sampled_from(SHARES))
        if owner == company:
            graph.add_shareholding(owner, company, share)  # self-loop: W diag
            continue
        if budget[company] - share < 0:
            continue
        budget[company] -= share
        graph.add_shareholding(owner, company, share)
    return graph


# ---------------------------------------------------------------------------
# property oracles
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(company_graphs())
def test_undirected_adjacency_matches_legacy_exactly(graph):
    frame = GraphFrame.of(graph)
    legacy = legacy_build_adjacency(graph)
    view = frame.undirected_adjacency()
    # same keys in the same (insertion) order, same neighbour lists, and
    # the accumulated floats are equal bit for bit (== on floats)
    assert list(view) == list(legacy)
    assert view == legacy
    # the public shim hands out an equal (copied) mapping
    assert build_adjacency(graph) == legacy


@settings(max_examples=120, deadline=None)
@given(company_graphs())
def test_directed_views_match_naive_iteration(graph):
    """The edge columns are the directed view: position ``i`` is the
    ``i``-th edge of ``graph.edges()``, endpoints as intern codes."""
    frame = GraphFrame.of(graph)
    naive = [(edge.source, edge.target, edge.label) for edge in graph.edges()]
    assert [
        (frame.nodes[i], frame.nodes[j], label)
        for i, j, label in zip(
            frame.edge_src.tolist(), frame.edge_dst.tolist(), frame.edge_labels.tolist()
        )
    ] == naive


@settings(max_examples=120, deadline=None)
@given(company_graphs())
def test_ownership_w_matches_legacy_lil_bitwise(graph):
    frame = GraphFrame.of(graph)
    nodes, legacy = legacy_ownership_matrix(graph)
    assert list(frame.nodes) == nodes
    assert np.array_equal(frame.ownership_w().toarray(), legacy.toarray())


@settings(max_examples=60, deadline=None)
@given(company_graphs())
def test_integrated_ownership_matches_legacy_spsolve(graph):
    # one small solve per SCC against one global solve: the same entries,
    # equal to 1e-12
    for source in sorted(graph.node_ids(), key=str)[:4]:
        got = integrated_ownership_from(graph, source)
        expected = legacy_integrated_from(graph, source)
        assert set(got) == set(expected)
        for target, value in expected.items():
            assert abs(got[target] - value) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(company_graphs())
def test_frame_cache_and_invalidation(graph):
    frame = GraphFrame.of(graph)
    # same generation: of() returns the same object and the same views
    assert GraphFrame.of(graph) is frame
    assert GraphFrame.of(graph).undirected_adjacency() is frame.undirected_adjacency()
    graph.add_company("zz_fresh")
    assert not frame.is_current(graph)
    rebuilt = GraphFrame.of(graph)
    assert rebuilt is not frame
    assert rebuilt.is_current(graph)
    # cached-after-mutation equals a cold frame built from scratch
    cold = GraphFrame(graph)
    assert list(rebuilt.nodes) == list(cold.nodes)
    assert rebuilt.undirected_adjacency() == cold.undirected_adjacency()
    assert np.array_equal(rebuilt.ownership_w().toarray(), cold.ownership_w().toarray())


def test_every_write_surface_bumps_generation():
    graph = CompanyGraph()
    seen = {graph.generation}

    def bumped():
        generation = graph.generation
        assert generation not in seen, "write did not bump the generation"
        seen.add(generation)

    graph.add_company("c0")
    bumped()
    graph.add_person("p0")
    bumped()
    edge = graph.add_shareholding("p0", "c0", 0.4)
    bumped()
    graph.set_property("c0", "name", "C0")
    bumped()
    graph.remove_edge(edge.id)
    bumped()
    graph.remove_node("p0")
    bumped()


_WRITE_NODE_IDS = st.sampled_from(("n0", "n1", "n2", "n3", "n4"))
_WRITES = st.one_of(
    st.tuples(st.just("create"), _WRITE_NODE_IDS, st.sampled_from((None, "P", "C"))),
    st.tuples(st.just("set"), _WRITE_NODE_IDS, st.sampled_from((None, 0, 1, "v"))),
    st.tuples(st.just("delete"), _WRITE_NODE_IDS),
    st.tuples(st.just("edge"), _WRITE_NODE_IDS, _WRITE_NODE_IDS),
    st.tuples(st.just("unedge"), _WRITE_NODE_IDS, _WRITE_NODE_IDS),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_WRITES, max_size=40))
def test_frame_matches_graph_under_random_interleavings(ops):
    """Whatever the order of node/edge creates, removals and property
    writes, a frame taken afterwards agrees with a plain-list model of
    the graph: every write went through the generation-bumping surface,
    so frame caching can never serve a stale view."""
    graph = PropertyGraph()
    nodes: set = set()
    edges: list = []  # (source, target) pairs, insertion order
    for kind, node_id, *rest in ops:
        if kind == "create":
            if node_id not in nodes:
                graph.add_node(node_id, rest[0])
                nodes.add(node_id)
        elif node_id not in nodes:
            continue
        elif kind == "set":
            graph.set_property(node_id, "p", rest[0])
        elif kind == "delete":
            graph.remove_node(node_id)
            nodes.discard(node_id)
            edges = [(s, t) for s, t in edges if node_id not in (s, t)]
        elif kind == "edge":
            if rest[0] in nodes:
                graph.add_edge(node_id, rest[0], "E")
                edges.append((node_id, rest[0]))
        elif (node_id, rest[0]) in edges:
            edge = next(e for e in graph.out_edges(node_id) if e.target == rest[0])
            graph.remove_edge(edge.id)
            edges.remove((node_id, rest[0]))
        GraphFrame.of(graph)  # a cached frame every later write must invalidate

    assert sorted((e.source, e.target) for e in graph.edges()) == sorted(edges)
    frame = GraphFrame.of(graph)
    assert frame.is_current(graph)
    assert sorted(frame.nodes) == sorted(nodes)
    assert frame.edge_count == len(edges)
    assert sorted(
        (frame.nodes[i], frame.nodes[j])
        for i, j in zip(frame.edge_src.tolist(), frame.edge_dst.tolist())
    ) == sorted(edges)


def test_intern_order_is_collision_free_and_str_compatible():
    graph = CompanyGraph()
    graph.add_company(1)
    graph.add_company("1")
    graph.add_company("0")
    frame = GraphFrame.of(graph)
    assert len(frame.index) == 3  # 1 and "1" stay distinct codes
    assert frame.nodes[0] == "0"  # primary key is still str(id)
    assert sorted(map(str, frame.nodes)) == [str(n) for n in frame.nodes]
    # deterministic regardless of insertion order
    other = CompanyGraph()
    other.add_company("0")
    other.add_company("1")
    other.add_company(1)
    assert [intern_sort_key(n) for n in GraphFrame.of(other).nodes] == [
        intern_sort_key(n) for n in frame.nodes
    ]


# ---------------------------------------------------------------------------
# walker bit-identity: frame CSR vs legacy dict adjacency
# ---------------------------------------------------------------------------


# the return parameter p picks the kernel: 1 the lockstep one (p == q == 1),
# 2 the biased per-walk one
@pytest.mark.parametrize("p", [1, 2])
def test_walks_identical_through_frame_and_legacy_dict(p):
    graph = figure2_graph()
    legacy_walker = RandomWalker(legacy_build_adjacency(graph), p=p, seed=7)
    frame_walker = RandomWalker(GraphFrame.of(graph), p=p, seed=7)
    starts = list(legacy_walker.adjacency)
    assert starts == list(frame_walker.adjacency)
    assert legacy_walker.walks(starts, 4, 10) == frame_walker.walks(starts, 4, 10)


# ---------------------------------------------------------------------------
# golden cross-refactor hashes (captured from the pre-frame implementation)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_graph():
    graph, _ = realworld_like(60, seed=11)
    return graph


def test_golden_walks(golden_graph):
    walks = generate_walks(golden_graph, num_walks=3, walk_length=8, seed=4)
    assert _hash(walks) == "92557588aeccbd0b"


def test_golden_ownership_sweep(golden_graph):
    persons = sorted((p.id for p in golden_graph.persons()), key=str)[:5]
    own = {
        p: sorted(integrated_ownership_from(golden_graph, p).items(),
                  key=lambda kv: str(kv[0]))
        for p in persons
    }
    assert _hash(own) == "cf41bc7ed2fc6dc6"


def test_golden_ubo_index(golden_graph):
    ubo = all_beneficial_owners(golden_graph)
    digest = _hash({
        c: [(o.person, o.integrated_share, o.controls) for o in owners]
        for c, owners in sorted(ubo.items(), key=lambda kv: str(kv[0]))
    })
    assert digest == "74421cb2d552168d"


def test_golden_pipeline_and_clustering(golden_graph):
    from repro.core.pipeline import PipelineConfig, ReasoningPipeline
    from repro.embeddings.node2vec import Node2VecConfig, embed_and_cluster

    # digests of the walk kernel, as it already ran in-process before it
    # became the only sampler
    config = Node2VecConfig(
        dimensions=12, walk_length=8, num_walks=3, epochs=1, window=3, seed=0
    )
    links = ReasoningPipeline(
        golden_graph,
        PipelineConfig(first_level_clusters=4, node2vec=config),
    ).family_links()
    assert len(links) == 47
    assert _hash(sorted(links)) == "308291980248fdee"
    assign = embed_and_cluster(
        golden_graph, 4, config, feature_properties={"surname": 1.0, "address": 3.0}
    )
    assert _hash(sorted(assign.items(), key=lambda kv: str(kv[0]))) == "dbedbf6e6f3508fb"
