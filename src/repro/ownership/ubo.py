"""Ultimate beneficial owners (UBO) — an anti-money-laundering extension.

The paper motivates its graph with AML among the central-bank use cases.
EU AML directives define a company's *ultimate beneficial owners* as the
natural persons whose (direct plus indirect) ownership meets a threshold
— canonically 25%.  With integrated ownership in hand (the walk-sum of
:mod:`repro.ownership.matrix`, cycle-safe), UBO detection is a filter:

    UBO(c) = { p person : Y[p, c] >= threshold }

plus the *controller of last resort*: the person controlling the company
through the vote-majority relation (Definition 2.3) even when below the
ownership threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..graph.company_graph import CompanyGraph
from ..graph.property_graph import NodeId
from .close_links import _PhiRows
from .control import CONTROL_THRESHOLD, controlled_by

#: EU AMLD beneficial-ownership threshold.
UBO_THRESHOLD = 0.25


@dataclass(frozen=True)
class BeneficialOwner:
    """One detected beneficial owner of a company."""

    person: NodeId
    company: NodeId
    integrated_share: float
    controls: bool

    @property
    def basis(self) -> str:
        if self.integrated_share >= UBO_THRESHOLD and self.controls:
            return "ownership+control"
        if self.integrated_share >= UBO_THRESHOLD:
            return "ownership"
        return "control"


def beneficial_owners(
    graph: CompanyGraph,
    company: NodeId,
    threshold: float = UBO_THRESHOLD,
    control_threshold: float = CONTROL_THRESHOLD,
) -> list[BeneficialOwner]:
    """The beneficial owners of one company, sorted by integrated share.

    A person qualifies through integrated ownership >= ``threshold`` or
    through vote-majority control (Definition 2.3): the filter of
    :func:`assemble_beneficial_owners` over the per-person rows of
    :func:`beneficial_owner_rows`.
    """
    integrated, controlled = beneficial_owner_rows(graph, control_threshold)
    return assemble_beneficial_owners(graph, integrated, controlled, threshold).get(
        company, []
    )


def beneficial_owner_rows(
    graph: CompanyGraph,
    control_threshold: float = CONTROL_THRESHOLD,
    persons: "Iterable[NodeId] | None" = None,
) -> tuple[dict[NodeId, dict[NodeId, float]], dict[NodeId, set[NodeId]]]:
    """Per-person ``(integrated ownership, controlled set)`` rows.

    One integrated-ownership row and one control fixpoint per person; the
    rows share one :class:`~repro.ownership.close_links._PhiRows`, so an
    SCC's solve is factored once per sweep and a row costs what its
    person reaches.  ``persons`` restricts the sweep (a custom-threshold
    ``/ubo`` computes only the persons that reach its companies); the
    default sweeps every person in the graph.
    """
    if persons is None:
        persons = [node.id for node in graph.persons()]
    rows = _PhiRows(graph)
    integrated: dict[NodeId, dict[NodeId, float]] = {}
    controlled: dict[NodeId, set[NodeId]] = {}
    for person in persons:
        integrated[person] = rows.integrated(person)
        controlled[person] = controlled_by(graph, person, control_threshold)
    return integrated, controlled


def assemble_beneficial_owners(
    graph: CompanyGraph,
    integrated: dict[NodeId, dict[NodeId, float]],
    controlled: dict[NodeId, set[NodeId]],
    threshold: float = UBO_THRESHOLD,
) -> dict[NodeId, list[BeneficialOwner]]:
    """Assemble the company -> owners index from per-person rows.

    Iterates each person's own (sparse) row instead of the full
    person x company cross product; the final per-company sort is total
    (share descending, then person id), so the result is independent of
    row iteration order and bit-identical to the historical dense loop.
    """
    company_ids = {node.id for node in graph.companies()}
    owners_by_company: dict[NodeId, list[BeneficialOwner]] = {}
    for person, shares in integrated.items():
        controls = controlled.get(person, set())
        for company in set(shares) | controls:
            if company not in company_ids:
                continue
            share = shares.get(company, 0.0)
            is_controller = company in controls
            if share >= threshold or is_controller:
                owners_by_company.setdefault(company, []).append(
                    BeneficialOwner(person, company, share, is_controller)
                )
    result: dict[NodeId, list[BeneficialOwner]] = {}
    for company_node in graph.companies():  # preserve historical key order
        company = company_node.id
        owners = owners_by_company.get(company)
        if owners:
            result[company] = sorted(
                owners, key=lambda o: (-o.integrated_share, str(o.person))
            )
    return result


def all_beneficial_owners(
    graph: CompanyGraph,
    threshold: float = UBO_THRESHOLD,
    control_threshold: float = CONTROL_THRESHOLD,
) -> dict[NodeId, list[BeneficialOwner]]:
    """company -> beneficial owners, computed with one row per person."""
    integrated, controlled = beneficial_owner_rows(graph, control_threshold)
    return assemble_beneficial_owners(graph, integrated, controlled, threshold)


def opaque_companies(
    graph: CompanyGraph,
    threshold: float = UBO_THRESHOLD,
) -> list[NodeId]:
    """Companies with NO detectable beneficial owner — the AML red flags.

    Ownership so dispersed (or circular) that no natural person crosses
    the threshold and nobody holds vote-majority control.
    """
    with_owners = all_beneficial_owners(graph, threshold)
    return sorted(
        (node.id for node in graph.companies() if node.id not in with_owners),
        key=str,
    )
