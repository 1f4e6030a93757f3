"""Business-facing explanations of derived links.

The paper sells Vada-Link on explainability: "decisions are explainable
and unambiguous, as the semantics of Vadalog is based on that of
Datalog".  The engine's provenance gives rule-level derivation trees;
this module turns them — together with the domain algorithms — into the
narratives an analyst reads:

* why does x control y? (the absorption chain with running vote tallies);
* why are x and y closely linked? (the paths behind the accumulated
  ownership, or the common third party);
* why were these two people linked? (the per-feature Bayesian evidence).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graph.company_graph import CompanyGraph
from ..graph.property_graph import NodeId
from ..linkage.bayes import BayesianLinkClassifier
from ..ownership.close_links import CLOSE_LINK_THRESHOLD, all_accumulated_ownership
from ..ownership.control import CONTROL_THRESHOLD, control_chain
from ..ownership.paths import simple_paths


@dataclass
class Explanation:
    """A structured justification: verdict + human-readable steps."""

    question: str
    verdict: bool
    steps: list[str] = field(default_factory=list)

    def render(self) -> str:
        answer = "YES" if self.verdict else "NO"
        lines = [f"{self.question}  ->  {answer}"]
        lines.extend(f"  - {step}" for step in self.steps)
        return "\n".join(lines)


def explain_control(
    graph: CompanyGraph,
    controller: NodeId,
    company: NodeId,
    threshold: float = CONTROL_THRESHOLD,
) -> Explanation:
    """Why (not) does ``controller`` control ``company``? (Definition 2.3)."""
    question = f"does {controller} control {company}?"
    chain = control_chain(graph, controller, company, threshold)
    if chain is None:
        direct = graph.share(controller, company)
        steps = [
            f"{controller} directly holds {direct:.1%} of {company}"
            if direct else f"{controller} holds no direct stake in {company}",
            f"no set of companies controlled by {controller} accumulates "
            f"more than {threshold:.0%} of {company}'s shares",
        ]
        return Explanation(question, False, steps)
    steps = []
    for absorbed, tally in chain:
        if absorbed == company:
            steps.append(
                f"the controlled set's combined stake in {company} reaches "
                f"{tally:.1%} > {threshold:.0%} — control established"
            )
        else:
            steps.append(
                f"{controller}'s controlled set absorbs {absorbed} "
                f"(tallied {tally:.1%} of its votes)"
            )
    return Explanation(question, True, steps)


def explain_close_link(
    graph: CompanyGraph,
    x: NodeId,
    y: NodeId,
    threshold: float = CLOSE_LINK_THRESHOLD,
) -> Explanation:
    """Why (not) are ``x`` and ``y`` closely linked? (Definition 2.6)."""
    question = f"are {x} and {y} closely linked (t = {threshold:.0%})?"
    steps: list[str] = []
    verdict = False
    phi_all = all_accumulated_ownership(graph)

    for source, target, tag in ((x, y, "i"), (y, x, "ii")):
        total = phi_all.get(source, {}).get(target)
        if total is None:  # target is not reachable from source
            continue
        if total >= threshold:
            verdict = True
            example = next(simple_paths(graph, source, target))
            steps.append(
                f"condition ({tag}): Phi({source}, {target}) = {total:.1%} "
                f">= {threshold:.0%}, e.g. via " + " -> ".join(str(n) for n in example)
            )
        else:
            steps.append(
                f"Phi({source}, {target}) = {total:.1%} < {threshold:.0%}"
            )

    # condition (iii): common third party
    witnesses = []
    for node, phi in phi_all.items():
        if node in (x, y):
            continue
        phi_x, phi_y = phi.get(x, 0.0), phi.get(y, 0.0)
        if phi_x >= threshold and phi_y >= threshold:
            witnesses.append((node, phi_x, phi_y))
    if witnesses:
        verdict = True
        witness, phi_x, phi_y = max(witnesses, key=lambda w: min(w[1], w[2]))
        steps.append(
            f"condition (iii): {witness} holds Phi = {phi_x:.1%} of {x} and "
            f"{phi_y:.1%} of {y} (common third party)"
        )
    elif not verdict:
        steps.append("no third party holds the threshold share of both")
    return Explanation(question, verdict, steps)


def explain_family_link(
    classifier: BayesianLinkClassifier,
    left: dict,
    right: dict,
    threshold: float = 0.5,
) -> Explanation:
    """Why (not) did the Bayesian classifier link these two persons?"""
    question = f"is this pair a {classifier.link_class} link?"
    steps: list[str] = []
    if classifier.direction is not None and not classifier.direction(left, right):
        steps.append("direction constraint failed (e.g. parent must be older)")
        return Explanation(question, False, steps)
    for spec in classifier.features:
        matched = spec.matches(left, right)
        estimate = classifier.estimates[spec.name]
        if matched is None:
            steps.append(f"{spec.name}: missing value — no evidence")
            continue
        posterior = estimate.posterior(matched, 0.5)
        direction = "for" if posterior > 0.5 else "against"
        steps.append(
            f"{spec.name}: {'match' if matched else 'no match'} "
            f"(m={estimate.m:.2f}, u={estimate.u:.2f}) — evidence {direction} "
            f"({posterior:.2f})"
        )
    probability = classifier.probability(left, right)
    verdict = probability > threshold
    steps.append(
        f"combined probability {probability:.3f} "
        f"{'>' if verdict else '<='} threshold {threshold}"
    )
    return Explanation(question, verdict, steps)
