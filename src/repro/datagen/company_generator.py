"""Synthetic surrogate for the Italian company database (Section 2).

The paper's dataset — 4M nodes, scale-free, avg degree ~1, highly
fragmented, with hubs and ~3K self-loops — is confidential.  This
generator produces graphs with the same statistical character at
laptop scale, plus *planted ground truth* for the link classes the
paper predicts (partner/sibling/parent links and family businesses),
which the accuracy experiments (Figure 4(e)) rely on.

Family model (following Italian civil records):

* two partners — each keeps their own surname (Italian custom), shared
  address, close birth years, opposite sex, usually different birth
  places;
* children — the father's surname and recorded father name (paternity
  is part of the civil record), birth place mostly the family's city,
  birth year one generation later, family address with probability 0.6.

Ground-truth links are: ``partner_of`` between the two partners,
``sibling_of`` between children, ``parent_of`` from each parent to each
child.  Some families additionally receive a *family business*: a
company whose shares are mostly spread across the members.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..graph.company_graph import FAMILY, CompanyGraph
from ..linkage.features import PARENT_OF, PARTNER_OF, SIBLING_OF
from .barabasi import barabasi_albert_edges
from .distributions import clipped_normal, random_shares, zipf_sampler
from .names import (
    CITIES,
    COMPANY_STEMS,
    FEMALE_FIRST_NAMES,
    LEGAL_FORMS,
    MALE_FIRST_NAMES,
    STREETS,
    SURNAMES,
)

#: Edge-volume multipliers per density preset (Figure 4(d) scenarios):
#: (company->company edges per company, person->company edges per person).
DENSITY_PRESETS: dict[str, tuple[float, float]] = {
    "sparse": (0.4, 0.6),
    "normal": (1.0, 1.0),
    "dense": (3.0, 2.0),
    "superdense": (8.0, 4.0),
}


@dataclass
class CompanySpec:
    """Parameters of a synthetic company graph."""

    persons: int = 500
    companies: int = 400
    density: str = "sparse"
    family_fraction: float = 0.6     # fraction of persons living in families
    family_business_rate: float = 0.5  # fraction of families owning a business
    self_loop_rate: float = 0.002    # buy-back frequency among companies
    feature_noise: float = 0.02      # typo/missing-value rate in person features
    add_family_nodes: bool = False   # materialise family nodes + membership edges
    seed: int = 0

    def __post_init__(self) -> None:
        if self.density not in DENSITY_PRESETS:
            raise ValueError(
                f"unknown density {self.density!r}; choose from {sorted(DENSITY_PRESETS)}"
            )


@dataclass
class GroundTruth:
    """What the generator planted (the answer key for accuracy experiments)."""

    families: dict[str, set[str]] = field(default_factory=dict)
    links: set[tuple[str, str, str]] = field(default_factory=set)  # (x, y, class)
    family_businesses: dict[str, set[str]] = field(default_factory=dict)  # family -> companies

    def pairs(self, link_class: str | None = None) -> set[tuple[str, str]]:
        """(x, y) pairs, optionally restricted to one link class."""
        return {
            (x, y) for x, y, c in self.links if link_class is None or c == link_class
        }

    def add_symmetric(self, x: str, y: str, link_class: str) -> None:
        self.links.add((x, y, link_class))
        self.links.add((y, x, link_class))


def generate_company_graph(spec: CompanySpec) -> tuple[CompanyGraph, GroundTruth]:
    """Generate a synthetic company graph and its planted ground truth."""
    graph = CompanyGraph()
    rng = random.Random(spec.seed)
    truth = GroundTruth()

    surname_sampler = zipf_sampler(rng, SURNAMES, exponent=1.1)
    city_sampler = zipf_sampler(rng, CITIES, exponent=1.0)

    person_ids = [f"P{i:06d}" for i in range(spec.persons)]
    _generate_persons(graph, truth, person_ids, spec, rng, surname_sampler, city_sampler)
    company_ids = [f"C{i:06d}" for i in range(spec.companies)]
    _generate_companies(graph, company_ids, rng, city_sampler)
    _generate_shareholdings(graph, truth, person_ids, company_ids, spec, rng)
    if spec.add_family_nodes:
        _materialise_family_nodes(graph, truth)
    return graph, truth


# ----------------------------------------------------------------------
# persons and families
# ----------------------------------------------------------------------

def _new_address(rng: random.Random, city: str) -> str:
    street = rng.choice(STREETS)
    return f"{street} {rng.randint(1, 200)}, {city}"


def _person_features(
    rng: random.Random,
    surname: str,
    sex: str,
    birth_year: int,
    birth_place: str,
    address: str,
    father_name: str | None = None,
) -> dict:
    pool = MALE_FIRST_NAMES if sex == "M" else FEMALE_FIRST_NAMES
    return {
        "name": rng.choice(pool),
        "surname": surname,
        "sex": sex,
        "birth_date": f"{birth_year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
        "birth_place": birth_place,
        "address": address,
        # Italian civil records carry paternity; unknown fathers get a
        # random name so the feature is never a giveaway by absence
        "father_name": father_name or rng.choice(MALE_FIRST_NAMES),
    }


def _corrupt(rng: random.Random, features: dict, noise: float) -> dict:
    """Introduce record-linkage-realistic noise: typos and missing values."""
    if noise <= 0:
        return features
    corrupted = dict(features)
    if rng.random() < noise:  # surname typo (single substitution)
        surname = corrupted["surname"]
        if len(surname) > 2:
            position = rng.randrange(len(surname))
            corrupted["surname"] = (
                surname[:position] + rng.choice("aeiou") + surname[position + 1:]
            )
    if rng.random() < noise:  # missing birth place
        corrupted["birth_place"] = None
    return corrupted


def _generate_persons(
    graph: CompanyGraph,
    truth: GroundTruth,
    person_ids: list[str],
    spec: CompanySpec,
    rng: random.Random,
    surname_sampler,
    city_sampler,
) -> None:
    remaining = list(person_ids)
    family_population = int(len(remaining) * spec.family_fraction)
    family_index = 0

    while family_population >= 2 and len(remaining) >= 2:
        size = min(rng.choices((2, 3, 4, 5, 6), weights=(25, 25, 30, 15, 5))[0],
                   family_population, len(remaining))
        if size < 2:
            break
        members = [remaining.pop() for _ in range(size)]
        family_population -= size
        family_id = f"F{family_index:05d}"
        family_index += 1
        truth.families[family_id] = set(members)

        father_surname = surname_sampler()
        mother_surname = surname_sampler()  # spouses keep their surnames
        city = city_sampler()
        address = _new_address(rng, city)
        base_year = int(clipped_normal(rng, 1958, 12, 1930, 1985))

        father, mother = members[0], members[1]
        father_features = _person_features(
            rng, father_surname, "M", base_year,
            city_sampler() if rng.random() < 0.6 else city, address,
        )
        mother_features = _person_features(
            rng, mother_surname, "F", base_year + rng.randint(-8, 8),
            city_sampler() if rng.random() < 0.6 else city, address,
        )
        graph.add_person(father, **_corrupt(rng, father_features, spec.feature_noise))
        graph.add_person(mother, **_corrupt(rng, mother_features, spec.feature_noise))
        truth.add_symmetric(father, mother, PARTNER_OF)

        children = members[2:]
        child_year_base = base_year + rng.randint(24, 34)
        for offset, child in enumerate(children):
            child_features = _person_features(
                rng, father_surname,
                rng.choice("MF"),
                child_year_base + offset * rng.randint(1, 4),
                city if rng.random() < 0.8 else city_sampler(),
                address if rng.random() < 0.6 else _new_address(rng, city_sampler()),
                father_name=father_features["name"],
            )
            graph.add_person(child, **_corrupt(rng, child_features, spec.feature_noise))
            truth.links.add((father, child, PARENT_OF))
            truth.links.add((mother, child, PARENT_OF))
        for i, left in enumerate(children):
            for right in children[i + 1:]:
                truth.add_symmetric(left, right, SIBLING_OF)

    # singles
    for person in remaining:
        features = _person_features(
            rng,
            surname_sampler(),
            rng.choice("MF"),
            int(clipped_normal(rng, 1965, 15, 1930, 1998)),
            city_sampler(),
            _new_address(rng, city_sampler()),
        )
        graph.add_person(person, **_corrupt(rng, features, spec.feature_noise))


# ----------------------------------------------------------------------
# companies and shareholdings
# ----------------------------------------------------------------------

def _generate_companies(
    graph: CompanyGraph,
    company_ids: list[str],
    rng: random.Random,
    city_sampler,
) -> None:
    for index, company in enumerate(company_ids):
        stem = rng.choice(COMPANY_STEMS)
        legal_form = rng.choice(LEGAL_FORMS)
        city = city_sampler()
        graph.add_company(
            company,
            name=f"{stem} {city} {legal_form}",
            address=_new_address(rng, city),
            incorporation_date=f"{rng.randint(1960, 2018)}-{rng.randint(1, 12):02d}-01",
            legal_form=legal_form,
        )


def _generate_shareholdings(
    graph: CompanyGraph,
    truth: GroundTruth,
    person_ids: list[str],
    company_ids: list[str],
    spec: CompanySpec,
    rng: random.Random,
) -> None:
    if not company_ids:
        return
    company_rate, person_rate = DENSITY_PRESETS[spec.density]

    # budget of each company's equity still assignable (keeps totals <= 1)
    available: dict[str, float] = {company: 1.0 for company in company_ids}

    def grant(owner: str, company: str, requested: float) -> None:
        if owner == company and spec.self_loop_rate <= 0:
            return
        share = round(min(requested, available.get(company, 0.0)), 6)
        if share <= 0.001:
            return
        graph.add_shareholding(owner, company, share)
        available[company] -= share

    # 1) family businesses: members split a controlling stake
    for family_id, members in truth.families.items():
        if rng.random() > spec.family_business_rate:
            continue
        business = rng.choice(company_ids)
        members_list = sorted(members)
        stake = 0.5 + 0.4 * rng.random()
        shares = random_shares(rng, len(members_list), stake)
        for member, share in zip(members_list, shares):
            grant(member, business, share)
        truth.family_businesses.setdefault(family_id, set()).add(business)

    # denser presets must slice the (fixed) equity of each company into
    # proportionally smaller stakes, or the 100% budget caps the density
    person_slice = 1.0 / max(1.0, person_rate)
    company_slice = 1.0 / max(1.0, company_rate)

    # 2) person -> company ownership (scale-free-ish: few persons own many)
    person_edges = int(len(person_ids) * person_rate)
    if person_ids:
        hub_persons = rng.sample(person_ids, max(1, len(person_ids) // 20))
        for _ in range(person_edges):
            if rng.random() < 0.3:
                owner = rng.choice(hub_persons)
            else:
                owner = rng.choice(person_ids)
            company = rng.choice(company_ids)
            grant(owner, company, (0.05 + 0.6 * rng.random()) * person_slice)

    # 3) company -> company pyramid via preferential attachment
    m = max(1, round(company_rate))
    ba_edges = barabasi_albert_edges(len(company_ids), m, rng)
    target_edges = int(len(company_ids) * company_rate)
    rng.shuffle(ba_edges)
    for new_node, old_node in ba_edges[:target_edges]:
        owner = company_ids[old_node]   # older hub owns the newer company
        owned = company_ids[new_node]
        if owner == owned:
            continue
        grant(owner, owned, (0.1 + 0.7 * rng.random()) * company_slice)

    # 4) buy-backs: self-loops, a documented artefact of the real data
    for company in company_ids:
        if rng.random() < spec.self_loop_rate:
            grant(company, company, 0.01 + 0.05 * rng.random())


def _materialise_family_nodes(graph: CompanyGraph, truth: GroundTruth) -> None:
    """Add a node per family and ``family``-labelled membership edges,
    the input shape expected by Algorithm 8 (family control)."""
    for family_id, members in truth.families.items():
        graph.add_node(family_id, "F")
        for member in sorted(members):
            graph.add_edge(member, family_id, FAMILY)
