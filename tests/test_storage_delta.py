"""The delta store equals the full store, always.

``FrameStore.persist`` writes only what changed since the tenant's
newest persisted version: model rows into the catalog, row-state columns
onto disk, and no frame buffer at all.  Whatever the history, attaching
version *k* of a store that received every version must equal attaching
a fresh store that received version *k* alone — node order, edge order,
properties (type-exact), ``_next_edge_id``, row state, the bytes of all
six endpoint payloads and the bytes of the recomputed frame —
and gc, reopen, corruption and crashes must leave files and manifest in
step.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.graph import CompanyGraph
from repro.service import SnapshotBuilder, SnapshotConfig
from repro.storage import FrameStore, InjectedCrash, StoreError
from repro.storage import catalog as cat
from repro.storage.layout import ROW_DTYPES

from .test_storage import assert_files_match_manifest, column_path
from .test_storage_migration import fingerprint, frame_bytes

CONFIG = SnapshotConfig(augment=False)

COMPANIES = tuple(f"C{i}" for i in range(6))
PERSONS = ("P0", "P1")
EXTRAS = ("X0", "X1")  # isolated, free to change label
VALUES = ("v", "w", 1, 1.0, True, None, [1, 2], {"a": 1})
SHARES = (0.1, 0.2, 0.6)


def seed_graph():
    graph = CompanyGraph()
    for company in COMPANIES[:4]:
        graph.add_company(company, name=f"{company} SRL", tag="v")
    for person in PERSONS:
        graph.add_person(person, name=person, surname="Rossi")
    graph.add_node("X0", "Trust", tag=1)
    graph.add_shareholding("P0", "C0", 0.6)
    graph.add_shareholding("C0", "C1", 0.6)
    graph.add_shareholding("C1", "C2", 0.2)
    return graph


def apply_op(graph, op, a, b, c):
    """One mutation of ``graph`` chosen by ``op``; the integers pick the
    operands among whatever the graph holds, so every op is applicable
    (or a no-op) on every graph."""
    nodes = [n.id for n in graph.nodes()]
    edges = [e.id for e in graph.edges()]
    pick = lambda seq, i: seq[i % len(seq)]
    if op == "add_node":
        candidate = pick(COMPANIES + EXTRAS, a)
        if not graph.has_node(candidate):
            if candidate in EXTRAS:
                graph.add_node(candidate, "Trust", tag=pick(VALUES, b))
            else:
                graph.add_company(candidate, name=f"{candidate} SpA")
    elif op == "remove_node" and len(nodes) > 2:
        graph.remove_node(pick(nodes, a))
    elif op == "add_edge":
        companies = [n.id for n in graph.companies()]
        owners = companies + [n.id for n in graph.persons()]
        if companies and owners:
            owner, company = pick(owners, a), pick(companies, b)
            held = sum(e.properties["w"] for e in graph.in_edges(company))
            share = pick(SHARES, c)
            if owner != company and not graph.share(owner, company) and held + share <= 1:
                graph.add_shareholding(owner, company, share, note=pick(VALUES, c))
    elif op == "remove_edge" and edges:
        graph.remove_edge(pick(edges, a))
    elif op == "set_value" and nodes:
        graph.set_property(pick(nodes, a), pick(("tag", "score"), b), pick(VALUES, c))
    elif op == "del_key" and nodes:
        properties = graph.node(pick(nodes, a)).properties
        for key in ("tag", "score"):
            if key in properties:
                del properties[key]
                break
    elif op == "set_edge_value" and edges:
        graph.edge(pick(edges, a)).properties["note"] = pick(VALUES, c)
    elif op == "relabel":
        for extra in EXTRAS:
            if graph.has_node(extra):
                node = graph.node(extra)
                node.label = "Fund" if node.label == "Trust" else "Trust"
                break
    elif op == "readd" and nodes:
        node = graph.node(pick(nodes, a))
        graph.remove_node(node.id)
        graph.add_node(node.id, node.label, **node.properties)
    # "same": an update that leaves the graph equal


OPS = ("add_node", "remove_node", "add_edge", "remove_edge", "set_value", "del_key",
       "set_edge_value", "relabel", "readd", "same")
steps = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 50), st.integers(0, 50),
              st.integers(0, 50)),
    min_size=1, max_size=6,
)


@settings(max_examples=20, deadline=None)
@given(steps)
def test_every_version_equals_a_fresh_full_store(ops):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        delta_store = FrameStore.create(tmp / "delta")
        builder = SnapshotBuilder(CONFIG)
        graph = seed_graph()
        snapshots = [builder.build(graph)]
        for op in ops:
            graph = graph.copy()
            apply_op(graph, *op)
            snapshots.append(builder.build(graph))
        for snapshot in snapshots:
            delta_store.persist(snapshot)
        for snapshot in snapshots:
            fresh = FrameStore.create(tmp / f"fresh-{snapshot.version}")
            fresh.persist(snapshot)
            expected = fingerprint(fresh.attach(snapshot.version))
            assert expected == fingerprint(snapshot)
            attached = delta_store.attach(snapshot.version)
            assert fingerprint(attached) == expected
            # the frame is not stored: rebuilt from the attached graph it
            # must be the builder's, buffer for buffer, byte for byte
            assert frame_bytes(attached.graph) == frame_bytes(snapshot.graph)
        assert_files_match_manifest(delta_store)


AUGMENTING = SnapshotConfig(augment=True, first_level_clusters=1, use_embeddings=False)


def apply_batch(graph, kind, a, b):
    """One mutation batch of the kinds the service sees: ``ownership``
    (stakes only), ``node`` (a new company or person with a stake) and
    ``family`` (a person sharing surname and address with another)."""
    companies = [n.id for n in graph.companies()]
    persons = [n.id for n in graph.persons()]
    owner, company = companies[a % len(companies)], companies[b % len(companies)]
    fresh = f"{graph.node_count:03d}"
    if kind == "ownership":
        held = [e.id for e in graph.out_edges(owner) if e.target == company]
        if held:
            graph.remove_edge(held[0])
        elif owner != company:
            graph.add_shareholding(owner, company, 0.01 + (a % 7) / 100)
    elif kind == "node":
        if a % 2:
            graph.add_company(f"CN{fresh}", name=f"New {fresh} SRL")
            graph.add_shareholding(owner, f"CN{fresh}", 0.6)
        else:
            graph.add_person(f"PN{fresh}", name="Nuovo", surname=f"Unico{fresh}")
            graph.add_shareholding(f"PN{fresh}", company, 0.05)
    else:
        model = dict(graph.node(persons[a % len(persons)]).properties)
        graph.add_person(f"PF{fresh}", **{**model, "name": f"Parente{fresh}"})
        graph.add_shareholding(f"PF{fresh}", company, 0.05)


@settings(max_examples=8, deadline=None)
@given(
    st.integers(0, 5),
    st.lists(
        st.tuples(st.sampled_from(("ownership", "node", "family")),
                  st.integers(0, 50), st.integers(0, 50)),
        min_size=1, max_size=4,
    ),
)
def test_attached_frames_and_rows_equal_the_builders(seed, batches):
    with tempfile.TemporaryDirectory() as tmp:
        store = FrameStore.create(Path(tmp) / "store")
        graph, _ = generate_company_graph(
            CompanySpec(persons=12, companies=10, seed=seed)
        )
        builder = SnapshotBuilder(AUGMENTING)
        snapshots = [builder.build(graph)]
        for batch in batches:
            graph = graph.copy()
            apply_batch(graph, *batch)
            snapshots.append(builder.build(graph))
        for snapshot in snapshots:
            store.persist(snapshot)
        for snapshot in snapshots:
            attached = FrameStore.open(store.root).attach(snapshot.version)
            assert frame_bytes(attached.graph) == frame_bytes(snapshot.graph)
            assert fingerprint(attached) == fingerprint(snapshot)
        assert_files_match_manifest(store)


CRASH_POINTS = ("before_files", "mid_files", "after_files", "before_publish")
store_steps = st.lists(
    st.one_of(
        st.tuples(st.just("persist"), st.sampled_from(OPS), st.integers(0, 50),
                  st.integers(0, 50), st.integers(0, 50)),
        st.tuples(st.just("crash"), st.sampled_from(CRASH_POINTS),
                  st.sampled_from(OPS), st.integers(0, 50)),
        st.tuples(st.just("gc"), st.integers(1, 3)),
        st.tuples(st.just("corrupt"), st.integers(0, 50)),
        st.tuples(st.just("reopen")),
    ),
    min_size=2, max_size=8,
)


@settings(max_examples=25, deadline=None)
@given(store_steps)
def test_files_and_manifest_stay_in_step_and_the_newest_intact_version_serves(steps):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        store = FrameStore.create(root)
        builder = SnapshotBuilder(CONFIG)
        graph = seed_graph()
        built = {1: builder.build(graph)}  # version -> snapshot, minus pruned
        store.persist(built[1])
        torn: set[Path] = set()

        def check():
            assert_files_match_manifest(store)
            with store._connect() as conn:
                reads = {}
                for version, origin, name in conn.execute(
                    "SELECT version, origin, name FROM columns"
                ):
                    reads.setdefault(version, set()).add(
                        store.version_dir(origin) / f"{name}.npy"
                    )
            assert set(reads) == set(built)
            intact = [v for v, paths in reads.items() if not paths & torn]
            if not intact:
                with pytest.raises(StoreError):
                    store.attach_latest()
                return
            attached = store.attach_latest()
            assert attached.version == max(intact)
            assert fingerprint(attached) == fingerprint(built[max(intact)])

        for step in steps:
            if step[0] in ("persist", "crash"):
                graph = graph.copy()
                apply_op(graph, *(step[1:] if step[0] == "persist"
                                  else (step[2], step[3], step[3], step[3])))
                snapshot = builder.build(graph)
                if step[0] == "crash":
                    store.crash_point = step[1]
                    with pytest.raises(InjectedCrash):
                        store.persist(snapshot)
                    store = FrameStore.open(root)  # the process died
                    assert_files_match_manifest(store)
                store.persist(snapshot)
                built[snapshot.version] = snapshot
            elif step[0] == "gc":
                for pruned in store.gc(keep=step[1]):
                    del built[pruned["version"]]
            elif step[0] == "corrupt":
                # prefer a file several versions read
                with store._connect() as conn:
                    files = conn.execute(
                        "SELECT origin, name FROM columns GROUP BY origin, name"
                        " ORDER BY COUNT(*) DESC, origin, name"
                    ).fetchall()
                origin, name = files[step[1] % min(len(files), 4)]
                victim = store.version_dir(origin) / f"{name}.npy"
                victim.write_bytes(b"torn")
                torn.add(victim)
            else:
                store = FrameStore.open(root)
            check()


def model_row_count(store, where="1"):
    with store._connect() as conn:
        return sum(
            conn.execute(f"SELECT COUNT(*) FROM {table} WHERE {where}").fetchone()[0]
            for table in cat.MODEL_TABLES
        )


def vals_count(store):
    with store._connect() as conn:
        return conn.execute("SELECT COUNT(*) FROM vals").fetchone()[0]


def history(versions, seed=3):
    """Snapshots over a graph that gains a company and a stake, renames a
    node and loses an edge as it goes — every kind of row dies."""
    graph, _ = generate_company_graph(CompanySpec(persons=14, companies=12, seed=seed))
    builder = SnapshotBuilder(CONFIG)
    out = [builder.build(graph)]
    for i in range(versions - 1):
        graph = graph.copy()
        companies = [n.id for n in graph.companies()]
        graph.add_company(f"C_NEW{i}", name=f"New {i}")
        graph.add_shareholding(companies[i % len(companies)], f"C_NEW{i}", 0.4)
        graph.set_property(companies[0], "name", f"Renamed {i}")
        if i % 3 == 2:
            graph.remove_edge(next(iter(graph.edges())).id)
        out.append(builder.build(graph))
    return out


class TestWhatAPersistWrites:
    def test_ownership_only_publish_writes_a_few_rows_and_interns_only_new_values(
        self, tmp_path
    ):
        graph, _ = generate_company_graph(CompanySpec(persons=60, companies=45, seed=2))
        builder = SnapshotBuilder(CONFIG)
        store = FrameStore.create(tmp_path / "store")
        store.persist(builder.build(graph))
        first = store.last_persist
        assert set(first) >= {"rows_inserted", "rows_closed", "columns_written",
                              "columns_shared", "column_bytes", "seconds"}
        assert first["rows_inserted"] == model_row_count(store) > 400
        assert first["rows_closed"] == 0
        assert first["column_bytes"] > 0 and first["seconds"] > 0

        companies = [n.id for n in graph.companies()]
        graph = graph.copy()
        graph.add_shareholding(companies[3], companies[7], 0.031)
        graph.add_shareholding(companies[5], companies[9], 0.017)
        vals_before = vals_count(store)
        store.persist(builder.build(graph))
        wrote = store.last_persist
        assert (wrote["tenant"], wrote["version"]) == ("default", 2)
        # two edge rows and their ``w`` properties; nothing else moved
        assert wrote["rows_inserted"] == 4 and wrote["rows_closed"] == 0
        # two edge ids and two share values are the only unseen values
        assert vals_count(store) - vals_before == 4

        graph = graph.copy()
        graph.remove_edge(next(iter(graph.edges())).id)
        graph.set_property(companies[0], "name", "Renamed SpA")
        store.persist(builder.build(graph))
        wrote = store.last_persist
        assert wrote["rows_closed"] == 3  # the edge, its ``w``, the old name
        assert wrote["rows_inserted"] == 1  # the new name

    def test_isolated_company_that_sorts_first_writes_no_column(self, tmp_path):
        """Rows code a node by its place in the graph's order, where a new
        node goes last: a node no derived row names changes no column,
        wherever its id sorts."""
        graph, _ = generate_company_graph(CompanySpec(persons=30, companies=24, seed=4))
        builder = SnapshotBuilder(SnapshotConfig(augment=True))
        store = FrameStore.create(tmp_path / "store")
        store.persist(builder.build(graph))
        graph = graph.copy()
        assert "0" < min(map(str, graph.node_ids()))
        graph.add_company("0", name="First SpA")
        snapshot = builder.build(graph)
        assert snapshot.control_rows and snapshot.family_rows
        store.persist(snapshot)
        assert store.last_persist["columns_written"] == 0
        assert store.last_persist["columns_shared"] == len(ROW_DTYPES)
        assert fingerprint(store.attach(2)) == fingerprint(snapshot)

    def test_unchanged_graph_writes_no_model_rows(self, tmp_path):
        snap1, = history(1)
        store = FrameStore.create(tmp_path / "store")
        store.persist(snap1)
        again = SnapshotBuilder(CONFIG, start_version=1).build(snap1.graph.copy())
        store.persist(again)
        assert store.last_persist["rows_inserted"] == 0
        assert store.last_persist["rows_closed"] == 0
        assert fingerprint(store.attach(2)) == fingerprint(again)

    def test_older_version_is_refused(self, tmp_path):
        snap1, snap2 = history(2)
        store = FrameStore.create(tmp_path / "store")
        store.persist(snap2)
        with pytest.raises(StoreError, match="older than the newest persisted"):
            store.persist(snap1)
        assert [v["version"] for v in store.versions()] == [2]


class TestCrashLeavesNoModelRows:
    @pytest.mark.parametrize(
        "stage", ["before_files", "mid_files", "after_files", "before_publish"]
    )
    def test_crash_at_version_k_touches_nothing_below_k(self, tmp_path, stage):
        snap1, snap2, snap3 = history(3)
        root = tmp_path / "store"
        store = FrameStore.create(root)
        store.persist(snap1)
        store.persist(snap2)
        before = [fingerprint(store.attach(v)) for v in (1, 2)]
        rows_before = model_row_count(store)
        store.crash_point = stage
        with pytest.raises(InjectedCrash):
            store.persist(snap3)

        reopened = FrameStore.open(root)
        assert model_row_count(reopened) == rows_before
        assert model_row_count(reopened, "born = 3 OR died = 3") == 0
        assert [fingerprint(reopened.attach(v)) for v in (1, 2)] == before
        assert reopened.persist(snap3) == 3
        assert fingerprint(reopened.attach(3)) == fingerprint(snap3)
        # the store that crashed kept a baseline of version 2, not 3
        store.crash_point = None
        assert fingerprint(store.attach(3)) == fingerprint(snap3)


class TestGcOnIntervals:
    def test_gc_keeps_kept_versions_identical_with_fewer_rows(self, tmp_path):
        snapshots = history(10)
        store = FrameStore.create(tmp_path / "store")
        for snapshot in snapshots:
            store.persist(snapshot)
        before = [fingerprint(store.attach(v)) for v in (9, 10)]
        rows_before = model_row_count(store)

        pruned = store.gc(keep=2)
        assert [p["version"] for p in pruned] == list(range(1, 9))
        assert store.published_versions() == [9, 10]
        assert [fingerprint(store.attach(v)) for v in (9, 10)] == before
        assert model_row_count(store) < rows_before
        assert model_row_count(store, "died <= 9") == 0
        # the pruned stream keeps growing from its newest version
        graph = snapshots[-1].graph.copy()
        graph.add_company("C_AFTER_GC")
        snap = SnapshotBuilder(CONFIG, start_version=10).build(graph)
        store.persist(snap)
        assert store.last_persist["rows_inserted"] < 5
        assert fingerprint(store.attach(11)) == fingerprint(snap)


class TestStreamsDoNotMix:
    def test_tenants_keep_separate_baselines(self, tmp_path):
        (snap_a,), (snap_b,) = history(1, seed=3), history(1, seed=7)
        store = FrameStore.create(tmp_path / "store")
        store.persist(snap_a, tenant="alpha")
        store.persist(snap_b, tenant="beta")
        assert store.last_persist["rows_closed"] == 0
        assert fingerprint(store.attach(1, tenant="alpha")) == fingerprint(snap_a)
        assert fingerprint(store.attach(1, tenant="beta")) == fingerprint(snap_b)


class TestBaselineIsVerified:
    def test_baseline_made_stale_by_a_second_store_is_reread(self, tmp_path):
        snap1, snap2, snap3 = history(3)
        root = tmp_path / "store"
        first = FrameStore.create(root)
        first.persist(snap1)
        second = FrameStore.open(root)
        second.persist(snap2)  # ``first`` still remembers version 1
        first.persist(snap3)
        # a diff against the stale version-1 baseline would re-insert
        # what version 2 already added
        assert first.last_persist["rows_inserted"] < 10
        for snapshot in (snap1, snap2, snap3):
            assert fingerprint(first.attach(snapshot.version)) == fingerprint(snapshot)

    def test_corrupt_newest_version_is_still_the_baseline(self, tmp_path):
        snap1, snap2, snap3 = history(3)
        store = FrameStore.create(tmp_path / "store")
        store.persist(snap1)
        store.persist(snap2)
        victim = column_path(store, 2, "ubo_company")
        assert victim.parent == store.version_dir(2)  # not a file v1 reads too
        victim.write_bytes(b"torn")
        fresh = FrameStore.open(tmp_path / "store")
        assert fresh.attach_latest().version == 1  # demotes 2, remembers 1
        fresh.persist(snap3)  # its model rows still continue version 2's
        assert fingerprint(fresh.attach(3)) == fingerprint(snap3)
        assert fingerprint(fresh.attach(1)) == fingerprint(snap1)

    def test_hand_reordered_graph_is_rewritten_whole(self, tmp_path):
        snap1, = history(1)
        store = FrameStore.create(tmp_path / "store")
        store.persist(snap1)
        rows_v1 = model_row_count(store)

        reordered = CompanyGraph()
        for node in reversed(list(snap1.graph.nodes())):
            reordered.add_node(node.id, node.label, **node.properties)
        for edge in snap1.graph.edges():
            reordered.add_edge(edge.source, edge.target, edge.label,
                               edge_id=edge.id, **edge.properties)
        reordered._next_edge_id = snap1.graph._next_edge_id
        snap2 = SnapshotBuilder(CONFIG, start_version=1).build(reordered)
        store.persist(snap2)
        assert store.last_persist["rows_closed"] == rows_v1
        assert store.last_persist["rows_inserted"] == rows_v1
        attached = store.attach(2)
        assert [n.id for n in attached.graph.nodes()] == [
            n.id for n in reordered.nodes()
        ]
        assert fingerprint(attached) == fingerprint(snap2)
        assert fingerprint(store.attach(1)) == fingerprint(snap1)
