"""Ablation: three ways to compute accumulated/integrated ownership.

The close-link problem reduces to all-pairs accumulated ownership, which
the repository computes three ways:

* ``condensation DP`` — the one production route: a DP over the SCC
  condensation, exact on any graph (``all_accumulated_ownership``);
* ``matrix``          — sparse linear solve of the walk-sum (cycle-safe,
  but it counts walks, not simple paths);
* ``datalog``         — the declarative Algorithm 6 on the chase engine.

Definition 2.5 verbatim — one simple-path enumeration per (source,
target) pair, ``accumulated_ownership`` — is timed on the same graph as
the reference the other three are checked against.
"""

import pytest

from repro.bench import Experiment, ownership_pyramid, timed
from repro.core import (
    KnowledgeGraph,
    close_link_program,
    input_mapping,
    link_creation,
    output_mapping,
)
from repro.ownership import (
    accumulated_ownership,
    all_accumulated_ownership,
    close_link_pairs,
    integrated_ownership_from,
)

COMPANIES = 120


def datalog_close_links(graph):
    kg = KnowledgeGraph(graph)
    kg.add_rules("m", input_mapping(False))
    kg.add_rules("c", close_link_program(0.2))
    kg.add_rules("l", link_creation(("close_link",)))
    kg.add_rules("o", output_mapping(("close_link",)))
    engine = kg.reason()
    return set(engine.query("close_link"))


def test_ablation_close_link_methods(run_once, benchmark):
    graph = ownership_pyramid(COMPANIES, m=2, seed=9)
    sources = sorted(graph.node_ids(), key=str)

    def by_definition():
        return {
            s: {t: accumulated_ownership(graph, s, t) for t in sources if t != s}
            for s in sources
        }

    def by_condensation_dp():
        return all_accumulated_ownership(graph, sources)

    def by_matrix():
        return {s: integrated_ownership_from(graph, s) for s in sources}

    experiment = Experiment("Ablation — accumulated-ownership methods", "method")
    enumerated, enumeration_s = timed(by_definition)
    dp, dp_s = timed(by_condensation_dp)
    matrix, matrix_s = timed(by_matrix)
    links, datalog_s = timed(lambda: datalog_close_links(graph))
    experiment.record("definition (per-pair enumeration)", seconds=enumeration_s)
    experiment.record("condensation DP", seconds=dp_s)
    experiment.record("matrix", seconds=matrix_s)
    experiment.record("datalog (close links)", seconds=datalog_s)
    print()
    experiment.print()

    # exactness: on an acyclic pyramid all three numeric methods agree
    for source in sources:
        for target, value in enumerated[source].items():
            assert dp[source].get(target, 0.0) == pytest.approx(value)
            assert matrix[source].get(target, 0.0) == pytest.approx(value, abs=1e-9)
    # and the declarative close links equal the procedural ones
    assert links == close_link_pairs(graph)

    run_once(benchmark, by_matrix)
