"""Tests for the end-to-end reasoning pipeline (Section 5 architecture)."""

import weakref

import pytest

from repro.bench import naive_comparison_count, naive_family_detection, traced_comparisons
from repro.core import FAMILY_LINK_CLASSES, BlockingScheme, PipelineConfig, ReasoningPipeline
from repro.datagen import CompanySpec, generate_company_graph
from repro.graph import FAMILY, CompanyGraph, figure1_graph
from repro.linkage import persons_of, train_classifiers
from repro.ownership import close_link_pairs, control_closure
from repro.telemetry import Tracer
from tests.test_memory_lifetime import collector_off


def fast_config(**overrides):
    defaults = dict(first_level_clusters=1, use_embeddings=False)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def world():
    return generate_company_graph(
        CompanySpec(persons=80, companies=50, seed=31, feature_noise=0.0)
    )


class TestDeterministicProblems:
    def test_control_matches_reference(self):
        graph = figure1_graph()
        pipeline = ReasoningPipeline(graph, fast_config())
        assert pipeline.control_pairs() == control_closure(graph)

    def test_close_links_match_reference(self):
        graph = figure1_graph()
        pipeline = ReasoningPipeline(graph, fast_config())
        assert pipeline.close_link_pairs() == close_link_pairs(graph)

    def test_cyclic_graph_uses_procedural_fallback(self):
        graph = CompanyGraph()
        for company in ("a", "b", "c"):
            graph.add_company(company)
        graph.add_shareholding("a", "b", 0.5)
        graph.add_shareholding("b", "a", 0.5)
        graph.add_shareholding("a", "c", 0.25)
        pipeline = ReasoningPipeline(graph, fast_config())
        pairs = pipeline.close_link_pairs()  # must not diverge
        assert ("a", "c") in pairs

    def test_cyclic_graph_matches_the_reference(self):
        graph = figure1_graph()
        graph.add_shareholding("L", "D", 0.3)  # closes D -> F -> L -> D
        graph.add_shareholding("F", "F", 0.1)  # a buy-back
        pipeline = ReasoningPipeline(graph, fast_config())
        pairs = pipeline.close_link_pairs()
        assert pairs == close_link_pairs(graph)
        assert ("L", "D") in pairs


class TestFamilyDetection:
    def test_family_links_found(self, world):
        graph, truth = world
        classifiers = train_classifiers(persons_of(graph), truth.links, seed=2)
        pipeline = ReasoningPipeline(graph, fast_config(), classifiers=classifiers)
        links = pipeline.family_links()
        assert links
        recall = len(links & truth.links) / len(truth.links)
        assert recall > 0.5

    def test_detected_links_are_person_pairs(self, world):
        graph, truth = world
        pipeline = ReasoningPipeline(graph, fast_config())
        for x, y, _ in pipeline.family_links():
            assert graph.is_person(x) and graph.is_person(y)


class TestBlockingOnlyRemovesPairs:
    """The served pair decision against the naive all-pairs oracle:
    blocking decides which pairs are scored, never how a pair is decided."""

    @pytest.fixture(scope="class")
    def trained(self, world):
        graph, truth = world
        return graph, train_classifiers(persons_of(graph), truth.links, seed=2)

    @staticmethod
    def family_links(graph, classifiers, **overrides):
        tracer = Tracer()
        pipeline = ReasoningPipeline(
            graph, fast_config(**overrides), classifiers=classifiers, tracer=tracer
        )
        return pipeline.family_links(), traced_comparisons(tracer)

    def test_exhaustive_run_equals_the_naive_baseline(self, trained):
        graph, classifiers = trained
        links, comparisons = self.family_links(
            graph, classifiers, blocking=BlockingScheme.exhaustive()
        )
        naive_links, naive_comparisons = naive_family_detection(graph, classifiers)
        assert links and links == naive_links
        assert {link_class for _, _, link_class in links} <= set(FAMILY_LINK_CLASSES)
        persons = sum(1 for _ in graph.persons())
        assert comparisons == naive_comparisons == naive_comparison_count(persons)

    def test_blocked_links_are_a_subset_of_the_exhaustive_ones(self, trained):
        graph, classifiers = trained
        exhaustive, _ = self.family_links(
            graph, classifiers, blocking=BlockingScheme.exhaustive()
        )
        blocked, comparisons = self.family_links(graph, classifiers)
        assert blocked and blocked <= exhaustive
        persons = sum(1 for _ in graph.persons())
        assert comparisons < naive_comparison_count(persons)


class TestLinkProbabilityForms:
    def test_scalar_and_batch_forms_agree_on_unknowns(self, world):
        import numpy as np

        from repro.datalog.terms import skolem

        graph, _ = world
        pipeline = ReasoningPipeline(graph, fast_config())
        scalar = pipeline.kg.functions.get("link_probability")
        batch = pipeline.kg.functions.batch("link_probability")
        person, other = [skolem("sk_p", (n.id,)) for n in list(graph.persons())[:2]]
        values = [person, other, "not-a-person", 42]
        xs = np.asarray([0, 0, 2, 1, 3], dtype=np.int64)
        ys = np.asarray([1, 2, 1, 0, 3], dtype=np.int64)
        for link_class in ("partner_of", "sibling_of", "parent_of", "cousin_of"):
            expected = [
                scalar(link_class, values[x], values[y])
                for x, y in zip(xs.tolist(), ys.tolist())
            ]
            assert batch(values, (link_class, xs, ys)).tolist() == expected
        assert expected == [0.0] * 5  # unknown class

    def test_overriding_the_scalar_drops_the_batch_form(self, world):
        """A re-registered ``$link_probability`` must win on every
        backend — a stale batch form would keep answering instead."""
        graph, _ = world
        pipeline = ReasoningPipeline(graph, fast_config())
        assert pipeline.family_links()
        pipeline.kg.register_function("link_probability", lambda *_: 0.0)
        assert pipeline.family_links() == set()


class TestFamilyMaterialisation:
    def test_links_become_family_nodes(self, world):
        graph, truth = world
        pipeline = ReasoningPipeline(graph.copy(), fast_config())
        links = {("P1", "P2", "partner_of")}
        # use two real persons from the graph
        persons = [n.id for n in graph.persons()][:3]
        links = {
            (persons[0], persons[1], "partner_of"),
            (persons[1], persons[2], "sibling_of"),
        }
        families = pipeline.materialise_families(links)
        assert len(families) == 1
        members = next(iter(families.values()))
        assert members == set(persons[:3])
        assert sum(1 for _ in pipeline.graph.edges(FAMILY)) == 3

    def test_family_control_after_materialisation(self):
        graph = CompanyGraph()
        graph.add_person("mom", name="m")
        graph.add_person("dad", name="d")
        graph.add_company("firm", name="f")
        graph.add_shareholding("mom", "firm", 0.3)
        graph.add_shareholding("dad", "firm", 0.3)
        pipeline = ReasoningPipeline(graph, fast_config())
        pipeline.materialise_families({("mom", "dad", "partner_of")})
        pairs = pipeline.family_control_pairs()
        assert any(company == "firm" for _, company in pairs)


class TestExitRulesSeedNoRound:
    """The input mapping's facts are complete before the ownership rules'
    first round, so no semi-naive round is seeded with them: the
    ``edge_type`` seed of ``ctrl_step`` / ``fam_step`` used to cross every
    shareholding with every unconnected candidate (≈ 600 k rows here)."""

    def test_control_joins_stay_linear_in_the_shareholdings(self):
        from repro.telemetry import Tracer

        graph, _ = generate_company_graph(CompanySpec(persons=500, companies=400, seed=7))
        bound = 2 * sum(1 for _ in graph.shareholdings())
        pipeline = ReasoningPipeline(graph, fast_config())
        assert pipeline.materialise_families(pipeline.family_links())
        tracer = Tracer()
        pipeline.tracer = tracer
        assert pipeline.control_pairs()
        assert pipeline.family_control_pairs()

        plans = [
            span for span in tracer.root.walk()
            if span.name.startswith(("plan:ctrl_step", "plan:fam_step"))
        ]
        assert {span.name.split()[0] for span in plans} == {
            "plan:ctrl_step", "plan:fam_step"
        }
        for span in plans:
            assert max(span.attributes["actual_rows"]) <= bound, span.name


class TestAugment:
    def test_augment_adds_typed_edges(self, world):
        graph, truth = world
        classifiers = train_classifiers(persons_of(graph), truth.links, seed=2)
        pipeline = ReasoningPipeline(graph, fast_config(), classifiers=classifiers)
        augmented = pipeline.augment()
        labels = {edge.label for edge in augmented.edges()}
        assert "control" in labels or "close_link" in labels
        assert augmented.edge_count > graph.edge_count

    def test_augment_leaves_original_untouched(self, world):
        graph, _ = world
        before = graph.edge_count
        ReasoningPipeline(graph, fast_config()).augment()
        assert graph.edge_count == before


class TestProvenance:
    def test_control_explanation_available(self):
        graph = figure1_graph()
        pipeline = ReasoningPipeline(graph, fast_config())
        pipeline.control_pairs(provenance=True)
        engine = pipeline.last_engine
        lines = engine.explain("control", ("P1", "C"))
        assert any("ctrl" in line or "extensional" in line for line in lines)

    def test_the_sliced_run_explains_through_its_rules(self):
        pipeline = ReasoningPipeline(figure1_graph(), fast_config())
        assert pipeline.last_engine is None
        pipeline.control_pairs(provenance=True)
        lines = pipeline.last_engine.explain("control", ("P1", "F"))
        assert "[by rule: out_control]" in lines[0]
        assert any("[by rule: ctrl_step]" in line for line in lines)
        assert any("[by rule: map_own_person]" in line for line in lines)


class TestDemandDrivenRuns:
    """Each problem derives only what its query reads, copies only the
    relations that derivation reads, and holds nothing past its answer."""

    @pytest.fixture(scope="class")
    def extract(self):
        return generate_company_graph(CompanySpec(persons=120, companies=90, seed=5))[0]

    def test_the_family_run_reads_no_shareholding(self, extract, monkeypatch):
        from repro.core.kg import KnowledgeGraph

        runs = []
        reason = KnowledgeGraph.reason

        def recorded(self, names=None, **options):
            engine = reason(self, names, **options)
            runs.append((engine, options["outputs"]))
            return engine

        monkeypatch.setattr(KnowledgeGraph, "reason", recorded)
        assert ReasoningPipeline(extract, fast_config()).family_links()
        ((engine, outputs),) = runs
        assert set(outputs) == {"partner_of", "sibling_of", "parent_of"}
        database = engine.database
        assert database.count("feature") == 0
        assert database.count("own") == 0 and database.count("company") > 0
        assert {len(values) for values in database.iter_facts("link")} == {3}

    def test_augment_holds_no_engine_past_its_answer(self, extract, monkeypatch):
        import weakref

        from repro.core.kg import KnowledgeGraph

        alive_at_each_run = []
        refs = []
        reason = KnowledgeGraph.reason

        def recorded(self, names=None, **options):
            alive_at_each_run.append(sum(ref() is not None for ref in refs))
            engine = reason(self, names, **options)
            refs.append(weakref.ref(engine))
            return engine

        monkeypatch.setattr(KnowledgeGraph, "reason", recorded)
        pipeline = ReasoningPipeline(extract, fast_config())
        pipeline.augment()
        assert len(refs) >= 2  # family links, control (close links if acyclic)
        assert alive_at_each_run == [0] * len(refs)
        assert [ref() for ref in refs] == [None] * len(refs)
        assert pipeline.last_engine is None


    def test_columnar_rules_build_no_hash_index(self, extract, monkeypatch):
        from repro.core.kg import KnowledgeGraph

        engines = []
        reason = KnowledgeGraph.reason

        def recorded(self, names=None, **options):
            engines.append(reason(self, names, **options))
            return engines[-1]

        monkeypatch.setattr(KnowledgeGraph, "reason", recorded)
        ReasoningPipeline(extract, fast_config()).augment()
        assert len(engines) >= 2
        for engine in engines:
            per_row = set()
            for rule in engine.program.rules:
                keys = [key for key in engine._plans if key[0] == id(rule)]
                lowered = [engine._vector_cache.get(key, (None, None))[1] for key in keys]
                if any(
                    key in engine._compiled_cache or rule is None or rule.cut is not None
                    for key, rule in zip(keys, lowered)
                ):
                    per_row |= rule.body_predicates()
            indexed = {
                predicate for predicate, indexes in engine.database._indexes.items()
                if indexes
            }
            assert indexed <= per_row, (indexed, per_row)
            # every rule of the paper's program stays columnar: no chain
            # was compiled, so not one index was built
            assert engine._compiled_cache == {} and not indexed

    @pytest.mark.parametrize("extract_of", ["vec-extract", "vec-pyramid"])
    def test_a_columnar_augment_decodes_no_rows(self, extract_of, monkeypatch):
        # CI's vec-extract and vec-pyramid: every relation stays code
        # blocks from load to answer, so no run builds a decoded view —
        # no tuple row list, no dedup set, no index dict
        from repro.bench.workloads import ownership_pyramid
        from repro.core.kg import KnowledgeGraph

        if extract_of == "vec-extract":
            graph = generate_company_graph(CompanySpec(persons=40, companies=30, seed=5))[0]
        else:
            graph = ownership_pyramid(24, m=3)
        engines = []
        reason = KnowledgeGraph.reason

        def recorded(self, names=None, **options):
            engines.append(reason(self, names, **options))
            return engines[-1]

        monkeypatch.setattr(KnowledgeGraph, "reason", recorded)
        pipeline = ReasoningPipeline(graph, fast_config())
        pipeline.augment()
        assert len(engines) >= 2
        for database in [engine.database for engine in engines] + [pipeline.kg.extensional]:
            assert (database._rows, database._sets, database._indexes) == ({}, {}, {})
        for engine in engines:
            assert engine._compiled_cache == {} and engine._vector_disabled == set()

    def test_a_run_interns_nothing_into_the_extensional_store(self, extract):
        pipeline = ReasoningPipeline(extract, fast_config())
        pipeline._inject_block_facts()
        interner = pipeline.kg.extensional.column_store().interner
        before = len(interner)
        assert pipeline.family_links()
        assert len(interner) == before
        pipeline.augment()
        assert len(interner) == before


class TestLifetime:
    """The ``$link_probability`` closures capture the classifiers, not
    the pipeline: with the cycle collector off, a pipeline and its KG
    still die on their last reference."""

    def test_a_pipeline_dies_after_family_links(self, world):
        graph, _ = world
        with collector_off():
            pipeline = ReasoningPipeline(graph, fast_config())
            pipeline.family_links()
            dead = weakref.ref(pipeline)
            del pipeline
            assert dead() is None

    def test_the_kg_dies_with_its_pipeline(self, world):
        graph, _ = world
        with collector_off():
            pipeline = ReasoningPipeline(graph, fast_config())
            assert pipeline.kg.functions.batch("link_probability") is not None
            dead = weakref.ref(pipeline.kg)
            del pipeline
            assert dead() is None
