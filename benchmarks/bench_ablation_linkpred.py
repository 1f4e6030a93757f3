"""Ablation: KG augmentation vs plain topological link prediction.

The paper's central positioning claim: family links "cannot be deduced"
from topology alone — they need extensional features plus domain
knowledge.  The classic link-prediction scores (common neighbours,
Adamic-Adar, ...) rank pairs by graph neighbourhood, but persons in an
ownership graph connect only through the companies they co-own; family
members typically hold *different* assets (often in different weakly
connected components), so neighbourhood scores carry almost no signal.

This driver quantifies that: Vada-Link's feature-based Bayesian detection
(the served ``ReasoningPipeline.family_links``) against every topological
baseline on the same candidate pairs.
"""

from repro.bench import Experiment, precision_recall, realworld_like
from repro.core import BlockingScheme, PipelineConfig, ReasoningPipeline
from repro.linkage import persons_of, train_classifiers
from repro.linkage.topological import SCORERS, recall_against

PERSONS = 250


def test_ablation_topological_baselines(run_once, benchmark):
    graph, truth = realworld_like(PERSONS, seed=37)
    true_pairs = truth.pairs()

    # candidates: all person pairs within the default second-level blocks
    # (same comparison budget the Bayesian detection gets)
    persons = [n for n in graph.persons()]
    blocks = BlockingScheme.default().partition(persons)
    candidates = []
    seen = set()
    for block in blocks.values():
        for i, left in enumerate(block):
            for right in block[i + 1:]:
                pair = (left.id, right.id)
                if pair not in seen:
                    seen.add(pair)
                    candidates.append(pair)

    experiment = Experiment("Ablation — feature-based vs topological", "method")

    # Vada-Link (Bayesian, feature-based): the served family-link program
    classifiers = train_classifiers(persons_of(graph), truth.links, seed=1)
    config = PipelineConfig(first_level_clusters=1, use_embeddings=False)
    links = ReasoningPipeline(graph, config, classifiers).family_links()
    predicted = {(x, y) for x, y, _ in links}
    bayes_precision, bayes_recall = precision_recall(predicted, true_pairs)
    experiment.record("vada-link (features)", recall=bayes_recall, precision=bayes_precision)

    # topological baselines on the same candidates
    baseline_recalls = {}
    for method in SCORERS:
        recall = recall_against(graph, true_pairs, candidates, method)
        baseline_recalls[method] = recall
        experiment.record(method, recall=recall)
    print()
    experiment.print()

    # the paper's claim, quantified: every topological predictor is far
    # below the knowledge-based detection
    assert bayes_recall > 0.5
    for method, recall in baseline_recalls.items():
        assert recall < bayes_recall / 2, (
            f"{method} unexpectedly competitive ({recall:.2f} vs {bayes_recall:.2f})"
        )

    run_once(
        benchmark,
        lambda: recall_against(graph, true_pairs, candidates, "adamic_adar"),
    )
