"""Detecting personal links on a synthetic population with planted truth.

Generates an Italian-company-database surrogate, trains the Bayesian
classifiers on the planted family links, detects links on the full
population with the family-link program ``serve`` runs
(``ReasoningPipeline.family_links``), and scores precision/recall per
link class — the paper's third use case at evaluation scale.

    python examples/family_detection.py
"""

from collections import Counter

from repro.bench import naive_comparison_count, timed, traced_comparisons
from repro.core import PipelineConfig, ReasoningPipeline
from repro.datagen import CompanySpec, generate_company_graph
from repro.linkage import persons_of, train_classifiers
from repro.telemetry import Tracer

SPEC = CompanySpec(persons=400, companies=250, seed=42)


def main() -> None:
    graph, truth = generate_company_graph(SPEC)
    persons = persons_of(graph)
    print(f"population: {len(persons)} persons, {len(truth.families)} families, "
          f"{len(truth.links)} planted links")

    classifiers = train_classifiers(persons, truth.links, seed=1)
    for classifier in classifiers:
        print(f"  {classifier.link_class:12s} trained m/u:",
              {name: f"{est.m:.2f}/{est.u:.2f}"
               for name, est in classifier.estimates.items()})

    tracer = Tracer()
    pipeline = ReasoningPipeline(
        graph, PipelineConfig(first_level_clusters=6), classifiers, tracer=tracer
    )
    predicted, elapsed = timed(pipeline.family_links)
    print(f"\npredicted {len(predicted)} links with "
          f"{traced_comparisons(tracer):,} comparisons ({elapsed:.1f}s)")
    naive_pairs = naive_comparison_count(len(persons), len(classifiers))
    print(f"(naive all-pairs would need {naive_pairs:,} comparisons)")

    print(f"\n{'class':14s}{'predicted':>10s}{'true':>8s}{'prec':>8s}{'recall':>8s}")
    for link_class in ("partner_of", "sibling_of", "parent_of"):
        predicted_class = {(x, y) for x, y, c in predicted if c == link_class}
        true_class = truth.pairs(link_class)
        hits = len(predicted_class & true_class)
        precision = hits / len(predicted_class) if predicted_class else 0.0
        recall = hits / len(true_class) if true_class else 0.0
        print(f"{link_class:14s}{len(predicted_class):>10d}{len(true_class):>8d}"
              f"{precision:>8.2f}{recall:>8.2f}")

    confusions = Counter(
        c for x, y, c in predicted
        if (x, y, c) not in truth.links
        and any((x, y, other) in truth.links for other in
                ("partner_of", "sibling_of", "parent_of"))
    )
    print(f"\nrelated-but-misclassified pairs by predicted class: {dict(confusions)}")


if __name__ == "__main__":
    main()
