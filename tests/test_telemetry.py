"""Tests for the telemetry subsystem and its engine/pipeline wiring."""

import json
import os

import pytest

from repro.datalog import Database, Engine, parse_program
from repro.telemetry import NULL_TRACER, NullTracer, Span, Tracer

TC_PROGRAM = """
edge(X, Y) -> path(X, Y).
path(X, Z), edge(Z, Y) -> path(X, Y).
"""

CHAIN = [("edge", (i, i + 1)) for i in range(6)]


class TestSpan:
    def test_duration_is_monotonic(self):
        span = Span("work")
        first = span.duration
        second = span.duration
        assert second >= first >= 0.0
        span.finish()
        frozen = span.duration
        assert span.duration == frozen

    def test_explicit_duration_override(self):
        span = Span("synthetic")
        span.finish(duration=1.5)
        assert span.duration == 1.5

    def test_counters(self):
        span = Span("s")
        span.set("k", 1)
        span.add("hits")
        span.add("hits", 2)
        span.append("deltas", 10)
        span.append("deltas", 0)
        assert span.attributes == {"k": 1, "hits": 3, "deltas": [10, 0]}

    def test_walk_and_find(self):
        root = Span("root")
        a = root.child("a")
        b = a.child("b")
        root.child("a")  # second span with a reused name
        assert [s.name for s in root.walk()] == ["root", "a", "b", "a"]
        assert root.find("b") is b
        assert root.find("missing") is None
        assert len(root.find_all("a")) == 2


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer("run")
        with tracer.span("outer"):
            with tracer.span("inner", depth=2) as inner:
                inner.add("count")
            with tracer.span("sibling"):
                pass
        tracer.finish()
        outer = tracer.find("outer")
        assert [child.name for child in outer.children] == ["inner", "sibling"]
        assert tracer.find("inner").attributes == {"depth": 2, "count": 1}

    def test_stack_unwinds_on_exception(self):
        tracer = Tracer()
        try:
            with tracer.span("failing"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert tracer.current is tracer.root
        assert tracer.find("failing").ended is not None

    def test_to_json_round_trips(self):
        tracer = Tracer("t")
        with tracer.span("child", facts=3):
            tracer.append("deltas", 5)
        tracer.finish()
        payload = json.loads(tracer.to_json())
        assert payload["name"] == "t"
        child = payload["children"][0]
        assert child["name"] == "child"
        assert child["attributes"] == {"facts": 3, "deltas": [5]}
        assert child["duration_s"] >= 0.0

    def test_render_shows_tree_and_counters(self):
        tracer = Tracer("root")
        with tracer.span("engine.run", rules=4):
            pass
        tracer.finish()
        rendered = tracer.render()
        lines = rendered.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  engine.run")
        assert "rules=4" in rendered


class TestNullTracer:
    def test_span_is_reusable_noop(self):
        with NULL_TRACER.span("anything", k=1) as span:
            span.add("c")
            span.set("k", 2)
            span.append("list", 1)
            span.record_memory()
            with NULL_TRACER.span("nested") as nested:
                assert nested is span  # the shared singleton
        assert span.attributes == {}
        assert NULL_TRACER.to_dict() == {}
        assert json.loads(NULL_TRACER.to_json() or "{}") == {}

    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert NullTracer().enabled is False
        assert Tracer().enabled is True


class TestEngineInstrumentation:
    def _traced_run(self, seminaive=True):
        tracer = Tracer("test")
        engine = Engine(
            parse_program(TC_PROGRAM),
            Database(list(CHAIN)),
            seminaive=seminaive,
            tracer=tracer,
        )
        engine.run()
        tracer.finish()
        return engine, tracer

    def test_engine_run_span_carries_totals(self):
        engine, tracer = self._traced_run()
        run = tracer.find("engine.run")
        assert run is not None
        assert run.attributes["rules"] == 2
        assert run.attributes["facts_derived"] == engine.stats.facts_derived
        assert run.attributes["rule_firings"] == engine.stats.rule_firings
        assert run.attributes["iterations"] == engine.stats.iterations

    def test_stratum_spans_record_delta_sizes(self):
        _, tracer = self._traced_run()
        strata = [s for s in tracer.root.walk() if s.name.startswith("stratum[")]
        assert strata
        deltas = strata[-1].attributes["delta_sizes"]
        assert deltas[-1] == 0  # the fixpoint round derives nothing
        assert all(isinstance(d, int) for d in deltas)

    def test_per_rule_spans_account_for_all_derivations(self):
        engine, tracer = self._traced_run()
        rule_spans = [s for s in tracer.root.walk() if s.name.startswith("rule:")]
        assert len(rule_spans) == 2
        assert (
            sum(s.attributes["derived"] for s in rule_spans)
            == engine.stats.facts_derived
        )
        assert (
            sum(s.attributes["firings"] for s in rule_spans)
            == engine.stats.rule_firings
        )
        assert all(s.duration >= 0.0 for s in rule_spans)

    def test_naive_mode_is_also_instrumented(self):
        engine, tracer = self._traced_run(seminaive=False)
        rule_spans = [s for s in tracer.root.walk() if s.name.startswith("rule:")]
        assert (
            sum(s.attributes["derived"] for s in rule_spans)
            == engine.stats.facts_derived
        )

    def test_aggregate_state_sizes_reported(self):
        tracer = Tracer()
        engine = Engine(
            parse_program("obs(G, Z, W), T = msum(W, <Z>) -> total(G, T)."),
            Database([("obs", ("g", "z1", 1.0)), ("obs", ("g", "z2", 2.0))]),
            tracer=tracer,
        )
        engine.run()
        strata = [s for s in tracer.root.walk() if s.name.startswith("stratum[")]
        sized = [s for s in strata if "aggregate_groups" in s.attributes]
        assert sized
        assert sized[-1].attributes["aggregate_groups"] == 1
        assert sized[-1].attributes["aggregate_contributions"] == 2

    def test_untraced_engine_uses_null_tracer(self):
        engine = Engine(parse_program(TC_PROGRAM), Database(list(CHAIN)))
        assert engine.tracer is NULL_TRACER
        engine.run()  # no spans, no errors

    def test_traced_and_untraced_runs_agree(self):
        plain = Engine(parse_program(TC_PROGRAM), Database(list(CHAIN)))
        plain.run()
        traced, _ = self._traced_run()
        assert set(plain.query("path")) == set(traced.query("path"))


class TestPipelineInstrumentation:
    def test_pipeline_spans_nest_engine_spans(self):
        from repro.core.pipeline import PipelineConfig, ReasoningPipeline
        from repro.datagen.company_generator import CompanySpec, generate_company_graph

        graph, _ = generate_company_graph(
            CompanySpec(persons=12, companies=10, seed=7)
        )
        tracer = Tracer("pipeline")
        config = PipelineConfig(first_level_clusters=1, use_embeddings=False)
        pipeline = ReasoningPipeline(graph, config, tracer=tracer)
        pairs = pipeline.control_pairs()
        tracer.finish()

        problem = tracer.find("problem.control")
        assert problem is not None
        assert problem.attributes["pairs"] == len(pairs)
        # the engine spans hang below the reasoning span
        assert problem.find("engine.run") is not None
        assert any(
            s.name.startswith("rule:") for s in problem.walk()
        ), "per-rule engine spans must nest under the problem span"

    def test_family_link_spans_say_how_far_the_batch_backend_went(self):
        from repro.core.pipeline import PipelineConfig, ReasoningPipeline
        from repro.datagen.company_generator import CompanySpec, generate_company_graph

        graph, _ = generate_company_graph(
            CompanySpec(persons=30, companies=10, seed=7)
        )
        tracer = Tracer()
        config = PipelineConfig(first_level_clusters=1, use_embeddings=False)
        ReasoningPipeline(graph, config, tracer=tracer).family_links()
        spans = {s.name: s for s in tracer.root.walk()}

        # batch external: vectorized to the head, rows and distinct tuples counted
        for name in ("rule:fl_partner_of", "plan:fl_partner_of"):
            attributes = spans[name].attributes
            assert attributes["cut"] == "none", name
            assert attributes["external_rows"] >= attributes["external_distinct"] > 0
        rule, plans = spans["rule:fl_partner_of"], [
            s for name, s in spans.items() if name.startswith("plan:fl_partner_of")
        ]
        assert rule.attributes["external_rows"] == sum(
            s.attributes["external_rows"] for s in plans
        )
        # node_type comes from the input mapping's exit rules, so it seeds
        # no round after the first: each family rule runs once
        family_rules = [s for name, s in spans.items() if name.startswith("rule:fl_")]
        assert len(family_rules) == 3
        for span in family_rules:
            assert span.attributes["applications"] == 1, span.name
        # a Skolem assignment is per-row territory: the cut names its step
        assert spans["plan:map_person"].attributes["cut"] == 1
        assert spans["rule:map_person"].attributes["cut"] == 1
        assert "external_rows" not in spans["rule:map_person"].attributes
        # existential head: every body step batched, only the head per row
        assert spans["plan:mk_link"].attributes["cut"] == 2

    def test_family_link_spans_show_the_rules_streaming(self):
        from repro.core.pipeline import PipelineConfig, ReasoningPipeline
        from repro.datagen.company_generator import CompanySpec, generate_company_graph
        from repro.datalog.vectorized import MORSEL

        # the extract `repro generate --persons 500 --companies 400` writes:
        # its blocked person pairs outgrow one morsel several times over
        graph, _ = generate_company_graph(
            CompanySpec(persons=500, companies=400, density="sparse", seed=1)
        )
        tracer = Tracer()
        config = PipelineConfig(first_level_clusters=1, use_embeddings=False)
        ReasoningPipeline(graph, config, tracer=tracer).family_links()
        for name in ("rule:fl_partner_of", "plan:fl_partner_of"):
            attributes = tracer.find(name).attributes
            assert attributes["cut"] == "none", name
            assert attributes["morsels"] > 1, name
            assert 0 < attributes["max_rows"] <= MORSEL, name
            assert attributes["external_rows"] > MORSEL, name

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/statm"), reason="resident sizes come from /proc"
    )
    def test_problem_spans_say_where_the_memory_went(self):
        from repro.core.pipeline import PipelineConfig, ReasoningPipeline
        from repro.datagen.company_generator import CompanySpec, generate_company_graph

        # the extract `repro generate --persons 500 --companies 400` writes
        graph, _ = generate_company_graph(
            CompanySpec(persons=500, companies=400, density="sparse", seed=1)
        )
        tracer = Tracer()
        config = PipelineConfig(first_level_clusters=1, use_embeddings=False)
        ReasoningPipeline(graph, config, tracer=tracer).close_link_pairs()
        for name in ("problem.close_link", "engine.run"):
            attributes = tracer.find(name).attributes
            assert attributes["hwm_mb"] >= attributes["rss_mb"] > 0, name
        # only the run and problem spans sample it
        for span in tracer.root.walk():
            if span.name.startswith(("stratum[", "rule:", "plan:")):
                assert "rss_mb" not in span.attributes, span.name

    def test_compiled_rules_carry_no_cut(self):
        tracer = Tracer()
        Engine(
            parse_program(TC_PROGRAM), Database(list(CHAIN)), tracer=tracer,
            vectorize=False,
        ).run()
        for span in tracer.root.walk():
            assert "cut" not in span.attributes

    def test_blocking_span_counts_triples(self):
        from repro.core.pipeline import PipelineConfig, ReasoningPipeline
        from repro.datagen.company_generator import CompanySpec, generate_company_graph

        graph, _ = generate_company_graph(
            CompanySpec(persons=10, companies=8, seed=11)
        )
        tracer = Tracer()
        config = PipelineConfig(first_level_clusters=1, use_embeddings=False)
        pipeline = ReasoningPipeline(graph, config, tracer=tracer)
        triples = pipeline.compute_blocks()
        blocking = tracer.find("pipeline.blocking")
        assert blocking is not None
        assert blocking.attributes["block_triples"] == len(triples)


class TestBenchIntegration:
    def test_timed_traced_returns_span_tree(self):
        from repro.bench import Experiment, timed_traced

        def workload(tracer):
            engine = Engine(
                parse_program(TC_PROGRAM), Database(list(CHAIN)), tracer=tracer
            )
            engine.run()
            return engine.stats.facts_derived

        derived, elapsed, spans = timed_traced(workload)
        assert derived > 0
        assert elapsed > 0
        assert spans["children"][0]["name"] == "engine.run"

        experiment = Experiment("trace-demo", "n")
        experiment.record(6, spans=spans, seconds=elapsed)
        assert experiment.span_trees() == [(6, spans)]
        # plain records remain span-free and the table still renders
        experiment.record(7, seconds=elapsed)
        assert len(experiment.span_trees()) == 1
        assert "trace-demo" in experiment.render()
