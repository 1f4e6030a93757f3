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
tie.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import PipelineConfig, ReasoningPipeline
from repro.graph import CompanyGraph
from repro.graph.io import write_company_csv
from repro.ownership import close_link_pairs, is_acyclic
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


def pipeline_relations(graph, threshold):
    pipeline = ReasoningPipeline(
        graph,
        PipelineConfig(
            first_level_clusters=1, use_embeddings=False, close_link_threshold=threshold
        ),
    )
    return pipeline.control_pairs(), pipeline.close_link_pairs()


@settings(max_examples=40, deadline=None)
@given(ownership_world())
def test_pipeline_equals_cold_and_patched_snapshot_rows(world):
    graph, deltas, threshold = world
    config = SnapshotConfig(augment=False, close_link_threshold=threshold)
    builder = SnapshotBuilder(config)
    cold = builder.build(graph)
    assert (cold.control, cold.close_links) == pipeline_relations(graph, threshold)

    candidate = graph.copy()
    batch = apply_deltas(candidate, deltas)
    batch.base = graph
    batch.base_generation = graph.generation
    patched = builder.build(candidate, delta=batch)
    assert patched.incremental
    assert (patched.control, patched.close_links) == pipeline_relations(candidate, threshold)


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
