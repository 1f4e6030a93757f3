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
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import FAMILY_LINK_CLASSES, PipelineConfig, ReasoningPipeline
from repro.datagen import CompanySpec, generate_company_graph
from repro.graph import FAMILY, CompanyGraph, GraphFrame
from repro.graph.io import write_company_csv
from repro.ownership import (
    close_link_pairs,
    integrated_ownership_from,
    integrated_ownership_matrix,
    is_acyclic,
)
from repro.service import ServiceConfig, SnapshotBuilder, SnapshotConfig, build_service
from repro.service import snapshot as snapshot_module
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
    assert set(snapshot.control_rows) == control
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


#: small pools, so persons collide on the surname (Soundex) and the
#: household blocks and the classifiers find links among them
PERSON_POOLS = {
    "name": ["Anna", "Marco", "Luca", "Giulia"],
    "surname": ["Rossi", "Russo", "Bianchi"],
    "birth_date": ["1948-03-01", "1950-07-15", "1976-06-12", "1979-01-30", "2004-11-02"],
    "address": ["Via Roma 1, Roma", "Via Po 2, Torino", "Via Dante 3, Roma"],
    "father_name": ["Marco", "Luca", "Paolo"],
}
#: what ``set_property`` may edit: the blocking keys and one feature
EDITED = ("surname", "address", "birth_date")


@st.composite
def person_properties(draw):
    return {name: draw(st.sampled_from(pool)) for name, pool in PERSON_POOLS.items()}


@st.composite
def person_stream(draw):
    """Persons from small pools (some in a family node), one company
    they hold, and up to three batches of person deltas."""
    graph = CompanyGraph()
    graph.add_company("c0")
    graph.add_node("fam0", "F")
    persons = [f"p{i}" for i in range(draw(st.integers(2, 9)))]
    for person in persons:
        graph.add_person(person, **draw(person_properties()))
        if draw(st.booleans()):
            graph.add_edge(person, "fam0", FAMILY)
        if draw(st.integers(0, 3)) == 0:
            graph.add_shareholding(person, "c0", draw(SIXTY_FOURTHS))
    family_edges = [edge.id for edge in graph.edges(FAMILY)]
    batches = []
    for b in range(draw(st.integers(1, 3))):
        deltas = []
        for n in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["add", "remove", "set", "unlink"]))
            if kind == "add":
                person = f"new{b}_{n}"
                persons.append(person)
                deltas.append({"op": "add_person", "id": person,
                               "properties": draw(person_properties())})
            elif kind == "remove" and persons:
                person = draw(st.sampled_from(persons))
                persons.remove(person)
                family_edges = [e for e in family_edges if graph.edge(e).source != person]
                deltas.append({"op": "remove_node", "id": person})
            elif kind == "set" and persons:
                name = draw(st.sampled_from(EDITED))
                deltas.append({"op": "set_property", "id": draw(st.sampled_from(persons)),
                               "name": name,
                               "value": draw(st.sampled_from(PERSON_POOLS[name]))})
            elif kind == "unlink" and family_edges:
                edge = draw(st.sampled_from(family_edges))
                family_edges.remove(edge)
                deltas.append({"op": "remove_edge", "id": edge})
        batches.append(deltas)
    return graph, batches


def publish(builder, staging, deltas):
    """Apply ``deltas`` to a copy of ``staging`` and build it chained."""
    candidate = staging.copy()
    batch = apply_deltas(candidate, deltas)
    batch.base = staging
    batch.base_generation = staging.generation
    return candidate, builder.build(candidate, delta=batch)


@settings(max_examples=40, deadline=None)
@given(person_stream(), st.sampled_from([0, 1, 2, snapshot_module.PAIR_KEYS_BELOW]))
def test_patched_family_links_equal_a_cold_build_and_the_pipeline(world, pair_keys_below):
    """A person delta re-scores only the pairs of the persons it touches;
    the links it keeps and finds are the links of a cold build and of
    the Vadalog pipeline on the whole graph.  ``pair_keys_below`` moves
    the point where a block is re-scored whole instead of pair by pair
    (0: never), so these small blocks take both plans."""
    graph, batches = world
    config = SnapshotConfig(augment=True)
    builder = SnapshotBuilder(config)
    builder.build(graph)
    staging = graph
    for deltas in batches:
        with mock.patch.object(snapshot_module, "PAIR_KEYS_BELOW", pair_keys_below):
            staging, patched = publish(builder, staging, deltas)
        assert patched.incremental
        pipeline = ReasoningPipeline(
            staging, PipelineConfig(first_level_clusters=1, use_embeddings=False)
        )
        assert set(patched.family_rows) == pipeline.family_links()
        assert patched.family_rows == SnapshotBuilder(config).build(staging).family_rows


def test_warm_clustering_patches_the_persons_whose_cluster_moved():
    """With node2vec clusters, a build re-embeds; every person whose
    cluster moved is touched, and the patched links equal a cold
    pipeline run on the builder's assignment."""
    graph, _truth = generate_company_graph(CompanySpec(persons=60, companies=48, seed=5))
    builder = SnapshotBuilder(
        SnapshotConfig(augment=True, first_level_clusters=3, use_embeddings=True)
    )
    builder.build(graph)
    companies = sorted(node.id for node in graph.companies())
    persons = sorted(node.id for node in graph.persons())
    batches = [
        [{"op": "add_shareholding", "owner": persons[i], "company": companies[i],
          "share": 0.3}]
        for i in range(3)
    ]
    batches.append([
        {"op": "add_person", "id": "newcomer",
         "properties": dict(graph.node(persons[0]).properties)},
        {"op": "set_property", "id": persons[1], "name": "surname", "value": "Rossi"},
    ])
    staging = graph
    moved = 0
    for deltas in batches:
        before = builder._state.assignment
        staging, patched = publish(builder, staging, deltas)
        after = builder._state.assignment
        moved += sum(before.get(p, 0) != after.get(p, 0) for p in persons)
        pipeline = ReasoningPipeline(
            staging,
            PipelineConfig(first_level_clusters=3, use_embeddings=True),
            cluster_assignment=after,
        )
        assert patched.incremental
        assert set(patched.family_rows) == pipeline.family_links()
    assert moved  # the re-embeddings moved persons between clusters


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
            assert len(cold.close_rows) == 380

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
            assert patched.close_rows == cold.close_rows

            segment = encode_snapshot(cold)
            try:
                assert attach_snapshot(segment.name).close_rows == cold.close_rows
            finally:
                segment.unlink()
                segment.close()

            store = FrameStore.create(tmp_path / f"store-{back_edge}")
            store.persist(cold)
            assert store.attach(cold.version).close_rows == cold.close_rows

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
