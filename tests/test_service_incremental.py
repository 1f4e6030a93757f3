"""Oracle tests for delta-driven snapshot maintenance.

The incremental build path must be indistinguishable from a cold build:
for any accepted mutation batch, a builder that patches its previous row
state produces the same control closure, close-link pairs, family links
and (up to payload rounding) UBO index as a builder that recomputes the
world from scratch.  The cold oracle here is a builder with
``SnapshotConfig(incremental=False)``: it keeps no row state, so every
build patches the empty state with every source affected.  The oracle
independent of the builder is the Vadalog pipeline
(``tests/test_definitions_differential.py``).
"""

import asyncio
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.ownership.close_links import _PhiRows
from repro.ownership.control import controlled_by
from repro.service import SnapshotBuilder, SnapshotConfig, SnapshotManager
from repro.service.incremental import affected_sources, shareholding_ancestors
from repro.service.updates import GraphUpdater, apply_deltas


def make_graph(persons=30, companies=24, seed=11):
    graph, _truth = generate_company_graph(
        CompanySpec(persons=persons, companies=companies, seed=seed)
    )
    return graph


def assert_snapshots_equivalent(actual, expected):
    assert actual.control_rows == expected.control_rows
    assert actual.close_rows == expected.close_rows
    assert actual.family_rows == expected.family_rows
    assert set(actual.ubo) == set(expected.ubo)
    for company, expected_owners in expected.ubo.items():
        actual_owners = actual.ubo[company]
        assert [
            (o.person, round(o.integrated_share, 6), o.controls)
            for o in actual_owners
        ] == [
            (o.person, round(o.integrated_share, 6), o.controls)
            for o in expected_owners
        ], company


def build_pair(graph, deltas_seq):
    """Run the same delta batches through an incremental and a cold
    builder; return the final (incremental, cold) snapshots.  Every delta
    build must take the patch path and equal the cold build row for row."""
    warm = SnapshotBuilder()
    cold = SnapshotBuilder(SnapshotConfig(incremental=False))
    staging = graph
    warm_snap = warm.build(staging)
    cold_snap = cold.build(staging)
    for deltas in deltas_seq:
        candidate = staging.copy()
        batch = apply_deltas(candidate, deltas)
        batch.base = staging
        batch.base_generation = staging.generation
        warm_snap = warm.build(candidate, delta=batch)
        cold_snap = cold.build(candidate)
        assert warm_snap.incremental and not cold_snap.incremental
        assert_snapshots_equivalent(warm_snap, cold_snap)
        staging = candidate
    return warm_snap, cold_snap


SOME_SHARE = {"op": "add_shareholding", "share": 0.4}


class TestIncrementalBuild:
    def test_first_delta_build_is_incremental(self):
        graph = make_graph()
        owner = next(iter(graph.companies())).id
        target = [c.id for c in graph.companies() if c.id != owner][0]
        warm, cold = build_pair(
            graph,
            [[{**SOME_SHARE, "owner": owner, "company": target}]],
        )
        assert warm.incremental
        assert not cold.incremental
        assert_snapshots_equivalent(warm, cold)

    def test_edge_removal_batch(self):
        graph = make_graph()
        edge = next(iter(graph.edges("S")))
        warm, cold = build_pair(
            graph, [[{"op": "remove_edge", "id": edge.id}]]
        )
        assert warm.incremental
        assert_snapshots_equivalent(warm, cold)

    def test_node_removal_batch(self):
        graph = make_graph()
        company = next(iter(graph.companies())).id
        warm, cold = build_pair(
            graph, [[{"op": "remove_node", "id": company}]]
        )
        assert warm.incremental
        assert_snapshots_equivalent(warm, cold)

    def test_chained_batches_stay_incremental(self):
        graph = make_graph()
        companies = [c.id for c in graph.companies()]
        warm, cold = build_pair(
            graph,
            [
                [{**SOME_SHARE, "owner": companies[0], "company": companies[3]}],
                [{**SOME_SHARE, "owner": companies[3], "company": companies[5]}],
                [{"op": "remove_shareholding", "owner": companies[0],
                  "company": companies[3]}],
            ],
        )
        assert warm.incremental
        assert_snapshots_equivalent(warm, cold)

    def test_person_property_change_invalidates_family_links(self):
        graph = make_graph()
        person = next(iter(graph.persons())).id
        warm, cold = build_pair(
            graph,
            [[{"op": "set_property", "id": person, "name": "name",
               "value": "Zaphod Beeblebrox"}]],
        )
        assert warm.incremental
        assert_snapshots_equivalent(warm, cold)

    def test_stale_base_falls_back_to_cold(self):
        graph = make_graph()
        builder = SnapshotBuilder()
        builder.build(graph)
        candidate = graph.copy()
        batch = apply_deltas(
            candidate,
            [{**SOME_SHARE,
              "owner": next(iter(graph.companies())).id,
              "company": [c.id for c in graph.companies()][1]}],
        )
        batch.base = candidate  # wrong object: not the built graph
        batch.base_generation = candidate.generation
        snapshot = builder.build(candidate, delta=batch)
        assert not snapshot.incremental

    def test_out_of_band_mutation_breaks_the_chain(self):
        graph = make_graph()
        builder = SnapshotBuilder()
        builder.build(graph)
        companies = [c.id for c in graph.companies()]
        graph.add_shareholding(companies[0], companies[7], 0.1)  # sneaky
        candidate = graph.copy()
        batch = apply_deltas(
            candidate,
            [{**SOME_SHARE, "owner": companies[0], "company": companies[3]}],
        )
        batch.base = graph
        # the updater reads the generation at apply time, i.e. *after*
        # the out-of-band mutation bumped it past the built generation
        batch.base_generation = graph.generation
        assert not builder.build(candidate, delta=batch).incremental

    def test_escape_hatch_never_keeps_state(self):
        graph = make_graph()
        builder = SnapshotBuilder(SnapshotConfig(incremental=False))
        cold = builder.build(graph)
        assert builder._state is None
        # keeping no state is the only difference: a first build derives
        # the same rows, in the same order, under either setting
        first = SnapshotBuilder().build(graph)
        assert first.control_rows == cold.control_rows
        assert first.close_rows == cold.close_rows
        assert first.family_rows == cold.family_rows
        assert list(first.ubo) == list(cold.ubo)
        companies = [node.id for node in graph.companies()]
        assert first.ubo_payloads(companies) == cold.ubo_payloads(companies)

    def test_reset_incremental_forces_cold_build(self):
        graph = make_graph()
        builder = SnapshotBuilder()
        builder.build(graph)
        builder.reset_incremental()
        candidate = graph.copy()
        batch = apply_deltas(
            candidate,
            [{**SOME_SHARE,
              "owner": next(iter(graph.companies())).id,
              "company": [c.id for c in graph.companies()][2]}],
        )
        batch.base = graph
        batch.base_generation = graph.generation
        assert not builder.build(candidate, delta=batch).incremental


@pytest.fixture
def derivations(monkeypatch):
    """Counts ``controlled_by`` calls (wherever a module bound the name)
    and ``_PhiRows`` constructions."""
    counts = {"controlled_by": 0, "phi_rows": 0}
    original = controlled_by

    def counting_controlled_by(*args, **kwargs):
        counts["controlled_by"] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "controlled_by", None) is original:
            monkeypatch.setattr(module, "controlled_by", counting_controlled_by)
    init = _PhiRows.__init__

    def counting_init(self, graph):
        counts["phi_rows"] += 1
        init(self, graph)

    monkeypatch.setattr(_PhiRows, "__init__", counting_init)
    return counts


class TestOneDerivation:
    """Each relation is derived once per build: a cold build is the patch
    of the empty state, and the UBO index reads the control rows."""

    def test_cold_build_derives_each_row_once(self, derivations):
        graph = make_graph()
        SnapshotBuilder(SnapshotConfig(augment=False)).build(graph)
        assert derivations == {"controlled_by": graph.node_count, "phi_rows": 1}

    def test_patch_shares_one_phi_rows(self, derivations):
        graph = make_graph()
        builder = SnapshotBuilder(SnapshotConfig(augment=False))
        builder.build(graph)
        companies = [c.id for c in graph.companies()]
        candidate = graph.copy()
        batch = apply_deltas(candidate, [
            {**SOME_SHARE, "owner": companies[0], "company": companies[1]},
            {**SOME_SHARE, "owner": companies[2], "company": companies[3]},
        ])
        batch.base = graph
        batch.base_generation = graph.generation
        affected = affected_sources(batch, graph, candidate)
        assert len(affected) > 2
        derivations.update(controlled_by=0, phi_rows=0)
        assert builder.build(candidate, delta=batch).incremental
        assert derivations == {"controlled_by": len(affected), "phi_rows": 1}


class TestAffectedSources:
    def test_ancestors_include_seed(self):
        graph = make_graph()
        node = next(iter(graph.companies())).id
        assert node in shareholding_ancestors(graph, [node])

    def test_untouched_islands_are_not_affected(self):
        graph = make_graph()
        graph.add_company("island-x")
        graph.add_company("island-y")
        candidate = graph.copy()
        batch = apply_deltas(
            candidate,
            [{**SOME_SHARE, "owner": "island-x", "company": "island-y"}],
        )
        affected = affected_sources(batch, graph, candidate)
        assert "island-x" in affected
        # nothing reaches the islands, so no pre-existing source is dirty
        assert affected <= {"island-x", "island-y"}

    def test_removed_edge_affects_old_graph_ancestors(self):
        graph = make_graph()
        edge = next(iter(graph.edges("S")))
        candidate = graph.copy()
        batch = apply_deltas(candidate, [{"op": "remove_edge", "id": edge.id}])
        affected = affected_sources(batch, graph, candidate)
        # ancestors via the *old* graph still see the removed edge's source
        assert shareholding_ancestors(graph, [edge.source]) <= affected


class TestUpdaterIntegration:
    def test_updater_publishes_incremental_versions(self):
        async def main():
            graph = make_graph()
            builder = SnapshotBuilder()
            manager = SnapshotManager()
            manager.publish(builder.build(graph))
            updater = GraphUpdater(manager, builder, graph)
            companies = [c.id for c in graph.companies()]
            await updater.apply(
                [{**SOME_SHARE, "owner": companies[0], "company": companies[4]}],
                wait=True,
            )
            first = manager.current
            await updater.apply(
                [{"op": "remove_shareholding", "owner": companies[0],
                  "company": companies[4]}],
                wait=True,
            )
            return first, manager.current

        first, second = asyncio.run(main())
        assert first.incremental and second.incremental
        assert second.version == first.version + 1

    def test_updater_result_matches_cold_oracle(self):
        async def main():
            graph = make_graph()
            builder = SnapshotBuilder()
            manager = SnapshotManager()
            manager.publish(builder.build(graph))
            updater = GraphUpdater(manager, builder, graph)
            companies = [c.id for c in graph.companies()]
            deltas = [
                {**SOME_SHARE, "owner": companies[1], "company": companies[6]},
                {"op": "add_company", "id": "newco"},
                {**SOME_SHARE, "owner": companies[6], "company": "newco"},
            ]
            await updater.apply(deltas, wait=True)
            return manager.current, updater._staging

        snapshot, staging = asyncio.run(main())
        assert snapshot.incremental
        cold = SnapshotBuilder(SnapshotConfig(incremental=False)).build(staging)
        assert_snapshots_equivalent(snapshot, cold)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_random_batches_match_cold_oracle(data):
    """Random mutation batches (adds, removals, node ops, property
    edits) keep the incremental snapshot equal to the cold oracle."""
    graph = make_graph(persons=16, companies=14, seed=7)
    companies = sorted(c.id for c in graph.companies())
    persons = sorted(p.id for p in graph.persons())
    removable = sorted(e.id for e in graph.edges("S"))
    n_batches = data.draw(st.integers(1, 3), label="batches")
    deltas_seq = []
    for _ in range(n_batches):
        batch = []
        for _ in range(data.draw(st.integers(1, 3), label="ops")):
            kind = data.draw(
                st.sampled_from(
                    ["add_edge", "remove_edge", "add_company", "set_prop"]
                ),
                label="kind",
            )
            if kind == "add_edge":
                owner = data.draw(st.sampled_from(companies + persons))
                target = data.draw(st.sampled_from(companies))
                batch.append(
                    {"op": "add_shareholding", "owner": owner,
                     "company": target,
                     "share": data.draw(st.floats(0.05, 0.95))}
                )
            elif kind == "remove_edge" and removable:
                edge_id = data.draw(st.sampled_from(removable))
                removable.remove(edge_id)
                batch.append({"op": "remove_edge", "id": edge_id})
            elif kind == "add_company":
                new_id = f"rc-{len(companies)}"
                companies.append(new_id)
                batch.append({"op": "add_company", "id": new_id})
            elif kind == "set_prop":
                batch.append(
                    {"op": "set_property",
                     "id": data.draw(st.sampled_from(companies[:14])),
                     "name": "flag", "value": data.draw(st.integers(0, 3))}
                )
        if batch:
            deltas_seq.append(batch)
    if not deltas_seq:
        deltas_seq = [[{"op": "add_company", "id": "rc-fallback"}]]
    warm, cold = build_pair(graph, deltas_seq)
    assert warm.incremental
    assert_snapshots_equivalent(warm, cold)
