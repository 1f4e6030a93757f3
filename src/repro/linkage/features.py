"""Feature specifications for personal-link detection.

A :class:`FeatureSpec` pairs a person feature with a distance function
and a threshold ``T_f``: the binary comparison "d(f_x, f_y) < T_f" is the
evidence the Bayesian classifier consumes (Section 2 of the paper).  The
default specs per link class reflect the usual demographic signals:
partners share an address and have close ages; siblings share surname and
birth place; parent/child pairs share surname and an address with a
generation-sized age gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .similarity import absolute_difference, equality_distance, levenshtein, year_of

#: Link classes handled by the family detector.
PARTNER_OF = "partner_of"
SIBLING_OF = "sibling_of"
PARENT_OF = "parent_of"

LINK_CLASSES = (PARTNER_OF, SIBLING_OF, PARENT_OF)


@dataclass(frozen=True)
class FeatureSpec:
    """One comparison: feature name, distance and match threshold ``T_f``.

    ``m_default`` / ``u_default`` are the untrained estimates of
    ``P(d < T | link)`` and ``P(d < T | no link)``; training replaces
    them.  A feature whose *match* is evidence against the link (e.g.
    equal sex for partners) sets ``m_default < u_default``.
    """

    name: str
    distance: Callable[[Any, Any], float]
    threshold: float
    m_default: float = 0.95
    u_default: float = 0.05
    #: compare left's ``name`` against a *different* feature of the right
    #: person (e.g. parent's first name vs child's recorded father name)
    right_feature: str | None = None
    #: full custom comparison over both feature dicts (for composite
    #: evidence like paternity); overrides name/distance when set
    pair_compare: Callable[[dict[str, Any], dict[str, Any]], bool | None] | None = None

    def matches(self, left: dict[str, Any], right: dict[str, Any]) -> bool | None:
        """Evaluate ``d(f_x, f_y) < T_f``; None when either value is missing."""
        if self.pair_compare is not None:
            return self.pair_compare(left, right)
        value_left = left.get(self.name)
        value_right = right.get(self.right_feature or self.name)
        if value_left is None or value_right is None:
            return None
        return self.distance(value_left, value_right) < self.threshold


def _surname_distance(a: str, b: str) -> float:
    return float(levenshtein(str(a).lower(), str(b).lower()))


def _age_gap(a: Any, b: Any) -> float:
    return absolute_difference(year_of(a), year_of(b))


#: Years between a parent's and a child's birth the parent_of evidence
#: centres on.
GENERATION_YEARS = 30.0


def _generation_gap(a: Any, b: Any) -> float:
    """How far the age gap is from one generation."""
    return abs(_age_gap(a, b) - GENERATION_YEARS)


def partner_features() -> tuple[FeatureSpec, ...]:
    """Evidence for a PartnerOf link: cohabitation and close ages.

    The sex comparison *matches when the sexes are equal*, which for
    partners is evidence against — hence the inverted m/u defaults.
    """
    return (
        FeatureSpec("address", equality_distance, 0.5),
        FeatureSpec("birth_date", _age_gap, 12.0),
        FeatureSpec("sex", equality_distance, 0.5, m_default=0.05, u_default=0.5),
    )


def sibling_features() -> tuple[FeatureSpec, ...]:
    """Evidence for a SiblingOf link: shared surname, origin, household, ages.

    Birth place and address are individually weak (siblings move out, may
    be born in different cities); the Bayesian combination weighs each by
    its trained m/u probabilities so either can carry the decision.
    """
    return (
        # siblings share the family surname almost surely: a mismatch is
        # near-conclusive evidence against (distinguishes cohabiting
        # partners with different surnames from siblings)
        FeatureSpec("surname", _surname_distance, 2.0, m_default=0.98, u_default=0.05),
        FeatureSpec("birth_place", equality_distance, 0.5, m_default=0.8, u_default=0.1),
        FeatureSpec("address", equality_distance, 0.5, m_default=0.6, u_default=0.02),
        FeatureSpec("birth_date", _age_gap, 16.0),
        # Italian civil records include paternity: siblings share the
        # recorded father's first name — the discriminator that separates
        # true siblings from unrelated same-surname same-city pairs
        FeatureSpec("father_name", equality_distance, 0.5, m_default=0.9, u_default=0.02),
    )


def parent_features() -> tuple[FeatureSpec, ...]:
    """Evidence for a ParentOf link: shared surname/household, generation gap."""
    return (
        FeatureSpec("surname", _surname_distance, 2.0),
        FeatureSpec("address", equality_distance, 0.5, m_default=0.7, u_default=0.02),
        FeatureSpec("birth_place", equality_distance, 0.5, m_default=0.4, u_default=0.1),
        FeatureSpec("birth_date", _generation_gap, 14.0),
        # paternity check: the candidate parent's own first name AND surname
        # match the child's recorded father name and inherited surname
        # (matches for fathers, not mothers — hence the moderate m; the
        # composite keeps a stray shared first name from faking paternity)
        FeatureSpec("paternity", equality_distance, 0.5,
                    m_default=0.45, u_default=0.004, pair_compare=_paternity_match),
    )


def _paternity_match(left: dict[str, Any], right: dict[str, Any]) -> bool | None:
    """Does ``left`` look like ``right``'s recorded father?

    Requires the father's first name *and* the inherited surname to agree
    — a shared first name alone is far too common to imply paternity.
    """
    name = left.get("name")
    father_name = right.get("father_name")
    left_surname = left.get("surname")
    right_surname = right.get("surname")
    if None in (name, father_name, left_surname, right_surname):
        return None
    return (
        str(name).lower() == str(father_name).lower()
        and str(left_surname).lower() == str(right_surname).lower()
    )


#: Fewest years a parent is older than a child.
PARENT_MIN_AGE_GAP = 15


def parent_direction(left: dict[str, Any], right: dict[str, Any]) -> bool:
    """ParentOf is directional: the parent is at least 15 years older."""
    left_birth = left.get("birth_date")
    right_birth = right.get("birth_date")
    if left_birth is None or right_birth is None:
        return False
    return year_of(left_birth) + PARENT_MIN_AGE_GAP <= year_of(right_birth)


def default_feature_specs() -> dict[str, tuple[FeatureSpec, ...]]:
    """Link class -> feature specs, the detector's default configuration."""
    return {
        PARTNER_OF: partner_features(),
        SIBLING_OF: sibling_features(),
        PARENT_OF: parent_features(),
    }
