"""One definition, every entry point.

Control (Definition 2.3) and close links (Definition 2.6) are answered
by two stacks: the Datalog programs behind ``ReasoningPipeline``
(``repro augment``) and the per-source rows behind ``SnapshotBuilder``
(the service, cold and patched).  They must agree on every graph.  The
random graphs carry what used to tell them apart: chains longer than 12
hops, cycles (self-loops, two-company cross-holdings, a back edge over a
long chain), parallel edges, persons, and exact ties — control at
exactly 0.5 and accumulated ownership at exactly the close-link
threshold, each reached only by summing edges.  Weights are multiples of
1/64, so sums are exact and the definition, not float order, decides a
tie.  The integrated-ownership rows behind the UBO index are checked
against the dense global solve, and patched against cold.
"""

import asyncio

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import FAMILY_LINK_CLASSES, PipelineConfig, ReasoningPipeline
from repro.datagen import CompanySpec, generate_company_graph
from repro.graph import CompanyGraph, GraphFrame
from repro.graph.io import write_company_csv
from repro.ownership import (
    close_link_pairs,
    integrated_ownership_from,
    integrated_ownership_matrix,
    is_acyclic,
)
from repro.service import ServiceConfig, SnapshotBuilder, SnapshotConfig, build_service
from repro.service.updates import apply_deltas

from .test_service_server import http_request

SIXTY_FOURTHS = st.integers(min_value=1, max_value=64).map(lambda k: k / 64)


def twenty_hop_chain(back_edge: bool = False, last_hop: bool = True) -> CompanyGraph:
    """``c0 -> c1 -> ... -> c19`` at 95 % per hop.

    ``Phi(c0, c19) = 0.95 ** 19 ≈ 0.38``, so every ordered pair of the 20
    companies is closely linked: 380 pairs, 56 of them joined only by a
    path longer than 12 hops.  ``back_edge`` adds a 1 % stake of c19 in
    c0, which makes the whole chain one cycle.
    """
    graph = CompanyGraph()
    for i in range(20):
        graph.add_company(f"c{i}")
    for i in range(19 if last_hop else 18):
        graph.add_shareholding(f"c{i}", f"c{i + 1}", 0.95)
    if back_edge:
        graph.add_shareholding("c19", "c0", 0.01)
    return graph


def add_ties(graph: CompanyGraph) -> None:
    """An island whose answers sit exactly on the default thresholds:
    g0 holds 0.25 + 0.25 of g1 (parallel edges) and, with the g2 it
    controls, 0.25 + 0.25 of g3 — 0.5, which is not control; and
    ``Phi(g0, g4) = 0.1 + 0.5 * 0.2``, ``Phi(g5, g6) = 0.1 + 0.1`` —
    exactly 0.2, which is a close link."""
    for i in range(7):
        graph.add_company(f"g{i}")
    for owner, company, share in (
        ("g0", "g1", 0.25), ("g0", "g1", 0.25),
        ("g0", "g2", 0.75), ("g2", "g3", 0.25), ("g0", "g3", 0.25),
        ("g0", "g4", 0.1), ("g0", "g5", 0.5), ("g5", "g4", 0.2),
        ("g5", "g6", 0.1), ("g5", "g6", 0.1),
    ):
        graph.add_shareholding(owner, company, share)


@st.composite
def ownership_world(draw):
    """A random graph plus one random mutation batch over it."""
    graph = CompanyGraph()
    companies = [f"c{i}" for i in range(draw(st.integers(1, 6)))]
    persons = [f"p{i}" for i in range(draw(st.integers(0, 2)))]
    for company in companies:
        graph.add_company(company)
    for person in persons:
        graph.add_person(person)
    if draw(st.booleans()):
        hops = draw(st.integers(13, 16))
        chain = [f"k{i}" for i in range(hops + 1)]
        for company in chain:
            graph.add_company(company)
        for owner, company in zip(chain, chain[1:]):
            share = draw(st.sampled_from([60 / 64, 62 / 64, 63 / 64, 1.0]))
            graph.add_shareholding(owner, company, share)
        if draw(st.booleans()):
            graph.add_shareholding(chain[-1], chain[0], draw(SIXTY_FOURTHS))
        companies += chain
    owners = companies + persons
    for _ in range(draw(st.integers(0, 12))):
        owner = draw(st.sampled_from(owners))
        company = draw(st.sampled_from(companies))
        if owner in companies and draw(st.integers(0, 9)) == 0:
            company = owner  # a buy-back
        share = draw(SIXTY_FOURTHS)
        graph.add_shareholding(owner, company, share)
        if draw(st.integers(0, 4)) == 0:  # a parallel package
            graph.add_shareholding(owner, company, draw(SIXTY_FOURTHS))
        if draw(st.integers(0, 4)) == 0 and owner in companies:  # cross-holding
            graph.add_shareholding(company, owner, draw(SIXTY_FOURTHS))
    if draw(st.booleans()):
        add_ties(graph)

    deltas = []
    removable = [edge.id for edge in graph.shareholdings() if edge.source in owners]
    for n in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["add", "remove", "company", "person", "drop"]))
        if kind == "add":
            deltas.append({"op": "add_shareholding", "owner": draw(st.sampled_from(owners)),
                           "company": draw(st.sampled_from(companies)),
                           "share": draw(SIXTY_FOURTHS)})
        elif kind == "remove" and removable:
            edge = draw(st.sampled_from(removable))
            removable.remove(edge)
            deltas.append({"op": "remove_edge", "id": edge})
        elif kind in ("company", "person"):
            node = f"new{n}"
            deltas.append({"op": f"add_{kind}", "id": node})
            deltas.append({"op": "add_shareholding", "owner": node if kind == "person"
                           else draw(st.sampled_from(owners)),
                           "company": draw(st.sampled_from(companies)) if kind == "person"
                           else node,
                           "share": draw(SIXTY_FOURTHS)})
        elif kind == "drop" and len(companies) > 1:
            node = draw(st.sampled_from(companies))
            companies.remove(node)
            owners.remove(node)
            removable = [e for e in removable if graph.edge(e).source != node
                         and graph.edge(e).target != node]
            deltas.append({"op": "remove_node", "id": node})
    threshold = draw(st.sampled_from([0.2, 0.25]))
    return graph, deltas, threshold


def assert_rows_match_oracle(graph, rows):
    """Integrated-ownership rows within 1e-12 of the dense global solve,
    relative to the value once it exceeds 1 (walk sums reach 10^2-10^3,
    where the two solves differ in the last bits), on graphs where
    ``I - W`` is far from singular (elsewhere the oracle has no answer to
    compare with)."""
    w = GraphFrame.of(graph).ownership_w().toarray()
    if np.linalg.cond(np.eye(len(w)) - w) > 1e6:
        return
    nodes, matrix = integrated_ownership_matrix(graph)
    index = {node: i for i, node in enumerate(nodes)}
    for source, row in rows.items():
        for target in nodes:
            if target != source:
                expected = matrix[index[source], index[target]]
                error = abs(row.get(target, 0.0) - expected)
                assert error <= 1e-12 * max(1.0, abs(expected)), (source, target)


def pipeline_relations(graph, threshold):
    pipeline = ReasoningPipeline(
        graph,
        PipelineConfig(
            first_level_clusters=1, use_embeddings=False, close_link_threshold=threshold
        ),
    )
    return pipeline.control_pairs(), pipeline.close_link_pairs()


def assert_relations_match_pipeline(snapshot, graph, threshold):
    """The snapshot's control pairs, and its close links at the drawn
    ``threshold`` (its rows at the default, the graph elsewhere), equal
    the Vadalog pipeline's."""
    control, close = pipeline_relations(graph, threshold)
    assert snapshot.control == control
    assert snapshot.close_links_payload(threshold)["pairs"] == sorted(
        [x, y] for x, y in close if str(x) <= str(y)
    )


@settings(max_examples=40, deadline=None)
@given(ownership_world())
def test_pipeline_equals_cold_and_patched_snapshot_rows(world):
    graph, deltas, threshold = world
    config = SnapshotConfig(augment=False)
    builder = SnapshotBuilder(config)
    cold = builder.build(graph)
    assert_relations_match_pipeline(cold, graph, threshold)
    assert_rows_match_oracle(graph, builder._state.integrated)

    candidate = graph.copy()
    batch = apply_deltas(candidate, deltas)
    batch.base = graph
    batch.base_generation = graph.generation
    patched = builder.build(candidate, delta=batch)
    assert patched.incremental
    assert_relations_match_pipeline(patched, candidate, threshold)
    # a row depends only on the SCCs its source reaches: carried-over UBO
    # rows are the floats a cold build derives
    assert patched.ubo == SnapshotBuilder(config).build(candidate).ubo
    rows = {node: integrated_ownership_from(candidate, node) for node in candidate.node_ids()}
    assert_rows_match_oracle(candidate, rows)


#: each pipeline problem's rule sets and the relations it queries
PROBLEMS = {
    "control": (["input_mapping", "control", "link_creation", "output_mapping"],
                ("control",)),
    "close_link": (["input_mapping", "close_link", "link_creation", "output_mapping"],
                   ("close_link",)),
    "family_links": (["input_mapping", "family_links", "link_creation", "output_mapping"],
                     FAMILY_LINK_CLASSES),
    "family_control": (["input_mapping", "control", "family_control", "link_creation",
                        "output_mapping"], ("control",)),
}


@st.composite
def company_world(draw):
    """A generated extract (persons who link, optionally family nodes) or
    one of the ownership worlds above (cycles, ties, buy-backs)."""
    if draw(st.booleans()):
        return draw(ownership_world())[0]
    spec = CompanySpec(
        persons=draw(st.integers(0, 40)),
        companies=draw(st.integers(1, 30)),
        density=draw(st.sampled_from(["sparse", "dense"])),
        add_family_nodes=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )
    return generate_company_graph(spec)[0]


@settings(max_examples=25, deadline=None)
@given(company_world())
def test_each_sliced_run_answers_as_the_whole_program(graph):
    """A run that names its outputs derives only what they depend on; its
    outputs equal those of the unsliced run of the same rule sets."""
    pipeline = ReasoningPipeline(
        graph, PipelineConfig(first_level_clusters=1, use_embeddings=False)
    )
    pipeline._inject_block_facts()
    for problem, (names, outputs) in PROBLEMS.items():
        if problem == "close_link" and not is_acyclic(graph):
            continue  # the walk-sum program diverges on a cycle
        whole = pipeline.kg.reason(names)
        sliced = pipeline.kg.reason(names, outputs=outputs)
        assert len(sliced.program) < len(whole.program)
        for output in outputs:
            assert set(sliced.query(output)) == set(whole.query(output)), (problem, output)


class TestTwentyHopChain:
    """The chain the depth-12 bound used to cut to 324 pairs."""

    def test_the_chain_is_what_it_claims(self):
        assert is_acyclic(twenty_hop_chain())
        assert not is_acyclic(twenty_hop_chain(back_edge=True))

    def test_pipeline_and_procedural_route(self):
        for back_edge in (False, True):
            graph = twenty_hop_chain(back_edge)
            assert len(close_link_pairs(graph)) == 380
            assert len(pipeline_relations(graph, 0.2)[1]) == 380

    def test_builder_cold_patched_and_attached(self, tmp_path):
        from repro.service import attach_snapshot, encode_snapshot
        from repro.storage import FrameStore

        for back_edge in (False, True):
            graph = twenty_hop_chain(back_edge)
            cold = SnapshotBuilder().build(graph)
            assert len(cold.close_links) == 380

            builder = SnapshotBuilder()
            base = twenty_hop_chain(back_edge, last_hop=False)
            builder.build(base)
            candidate = base.copy()
            batch = apply_deltas(candidate, [
                {"op": "add_shareholding", "owner": "c18", "company": "c19", "share": 0.95}
            ])
            batch.base = base
            batch.base_generation = base.generation
            patched = builder.build(candidate, delta=batch)
            assert patched.incremental
            assert patched.close_links == cold.close_links

            segment = encode_snapshot(cold)
            try:
                assert attach_snapshot(segment.name).close_links == cold.close_links
            finally:
                segment.unlink()
                segment.close()

            store = FrameStore.create(tmp_path / f"store-{back_edge}")
            store.persist(cold)
            assert store.attach(cold.version).close_links == cold.close_links

    def test_cli_close_links(self, tmp_path, capsys):
        for back_edge in (False, True):
            extract = tmp_path / f"chain-{back_edge}"
            write_company_csv(twenty_hop_chain(back_edge), extract)
            assert main(["close-links", str(extract)]) == 0
            assert len(capsys.readouterr().out.splitlines()) == 190

    def test_close_links_endpoint(self):
        for back_edge in (False, True):
            graph = twenty_hop_chain(back_edge)
            service = build_service(graph, config=ServiceConfig(port=0))

            async def main():
                await service.start()
                try:
                    return [
                        await http_request(service.port, "GET", path)
                        for path in ("/close-links", "/close-links?threshold=0.3")
                    ]
                finally:
                    await service.stop()

            (status, default), (custom_status, custom) = asyncio.run(main())
            assert status == custom_status == 200
            assert default["count"] == 190
            assert custom["count"] * 2 == len(close_link_pairs(graph, 0.3))
