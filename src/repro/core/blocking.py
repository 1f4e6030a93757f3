"""Second-level clustering (`#GenerateBlocks`, Section 4.2).

Blocking reduces the candidate search space by mapping each node to a
block identifier computed *only from its own features* (by construction
insensitive to graph density — a property the paper leans on in the
Figure 4(d) discussion).  The function is polymorphic on node type:
persons block on demographic features, companies on registry features.

The deterministic mapping is a hash of the selected feature values,
optionally folded modulo ``k`` — exactly the device used in the Figure
4(c)/4(e) experiments, where the number of clusters is swept from 1 to
500 by controlling the size of the feature-value domain.
"""

from __future__ import annotations

# hashlib.blake2b is _blake2.blake2b; importing hashlib would also load OpenSSL
from _blake2 import blake2b
from dataclasses import dataclass, field
from typing import Callable, Hashable

from ..graph.company_graph import COMPANY, PERSON
from ..graph.property_graph import Node

BlockKey = Hashable
#: A blocker maps a node to one block key, or to a list of keys for
#: multi-pass blocking (the node joins every listed block, so a pair is
#: compared when it shares at least one key — standard record-linkage
#: practice for keys that are individually incomplete).
Blocker = Callable[[Node], "BlockKey | list[BlockKey]"]


def stable_hash(*values: object) -> int:
    """A process-stable hash of a feature tuple (``hash()`` is salted per run)."""
    hasher = blake2b(digest_size=8)
    for value in values:
        hasher.update(repr(value).encode("utf-8"))
        hasher.update(b"\x1f")
    return int.from_bytes(hasher.digest(), "big")


def feature_blocker(features: tuple[str, ...], k: int | None = None) -> Blocker:
    """Block on the exact values of ``features``; fold into ``k`` blocks if given."""

    def blocker(node: Node) -> BlockKey:
        values = tuple(node.properties.get(f) for f in features)
        digest = stable_hash(*values)
        return digest % k if k else values

    return blocker


def person_blocker(k: int | None = None) -> Blocker:
    """Default person blocking: lowercased surname.

    Family members share the family surname, so one block holds each
    candidate family.  Common surnames produce large blocks — exactly the
    selectivity phenomenon Section 6.1 discusses ("certain last names are
    notably more common than others"); use :func:`narrow_person_blocker`
    when finer keys are appropriate.
    """

    def blocker(node: Node) -> BlockKey:
        surname = str(node.properties.get("surname") or node.id).lower()
        return stable_hash(surname) % k if k else surname

    return blocker


def narrow_person_blocker(k: int | None = None) -> Blocker:
    """Highly selective person blocking: surname prefix + birth decade + city.

    Faster (smaller blocks) but splits some true pairs across blocks —
    the recall-vs-speed trade-off of Figures 4(c)/4(e).
    """

    def blocker(node: Node) -> BlockKey:
        surname = str(node.properties.get("surname") or "")[:3].lower()
        birth = str(node.properties.get("birth_date") or "")
        decade = birth[:3] if len(birth) >= 4 else ""
        city = node.properties.get("birth_place") or ""
        key = (surname, decade, city)
        return stable_hash(*key) % k if k else key

    return blocker


def age_banded_person_blocker(k: int) -> Blocker:
    """Two-pass person blocking with age bands shrinking in ``k``.

    This is the Section 6.1 protocol: the feature-vector domain cardinality
    is expanded to hijack the mapping into more, smaller clusters —
    "searching for siblingOf among people of the same last name and age
    range".  Pass one keys on (surname, age band) — catching siblings and
    father-child pairs — and pass two on (address, age band) — catching
    cohabiting partners who keep different surnames.  With few clusters
    the year bands are decades wide and every related pair lands together;
    as ``k`` grows the bands tighten below the age gaps inside families
    (parent-child ~30 years, partners and siblings a few), so true pairs
    start splitting — the recall/speed trade-off of Figures 4(c)/4(e).
    """
    if k <= 1:
        return single_block()
    band_width = max(1, 6000 // k)

    def band_of(node: Node) -> int:
        birth = str(node.properties.get("birth_date") or "")
        year = int(birth[:4]) if len(birth) >= 4 and birth[:4].isdigit() else 0
        return year // band_width

    def blocker(node: Node) -> list[BlockKey]:
        surname = str(node.properties.get("surname") or node.id).lower()
        address = str(node.properties.get("address") or node.id)
        band = band_of(node)
        return [("surname", surname, band), ("household", address, band)]

    return blocker


def household_blocker(k: int | None = None) -> Blocker:
    """Person blocking by address — the right key for PartnerOf links."""

    def blocker(node: Node) -> BlockKey:
        address = node.properties.get("address") or node.id
        return stable_hash(address) % k if k else address

    return blocker


def phonetic_person_blocker(k: int | None = None) -> Blocker:
    """Person blocking on the Soundex code of the surname.

    Typo-robust: a vowel substitution (the dominant noise in the data)
    keeps the code unchanged, so corrupted records still co-block with
    their family — lifting the recall ceiling plain surname blocking
    hits on noisy data.
    """
    from ..linkage.similarity import soundex

    def blocker(node: Node) -> BlockKey:
        surname = str(node.properties.get("surname") or node.id)
        code = soundex(surname)
        return stable_hash(code) % k if k else code

    return blocker


def multi_blocker(*blockers: Blocker) -> Blocker:
    """Multi-pass blocking: the union of several blockers' keys.

    Each inner blocker's keys are namespaced by its position so passes
    never collide (pass 0's "Rossi" is a different block than pass 1's).
    """

    def blocker(node: Node) -> list[BlockKey]:
        keys: list[BlockKey] = []
        for index, inner in enumerate(blockers):
            result = inner(node)
            if isinstance(result, list):
                keys.extend((index, key) for key in result)
            else:
                keys.append((index, result))
        return keys

    return blocker


def default_person_blocker(k: int | None = None) -> Blocker:
    """The default person blocking: phonetic-surname pass + household pass.

    The surname pass catches siblings and parent/child (who share it,
    Soundex-coded so typos do not split them); the household pass catches
    cohabiting partners with different surnames.
    """
    return multi_blocker(phonetic_person_blocker(k), household_blocker(k))


def company_blocker(k: int | None = None) -> Blocker:
    """Default company blocking: legal form + registered city."""

    def blocker(node: Node) -> BlockKey:
        legal_form = node.properties.get("legal_form") or ""
        address = str(node.properties.get("address") or "")
        city = address.rsplit(",", 1)[-1].strip() if address else ""
        key = (legal_form, city)
        return stable_hash(*key) % k if k else key

    return blocker


def single_block() -> Blocker:
    """The paper's "no cluster mode": every node in one block (exhaustive)."""
    return lambda node: 0


@dataclass
class BlockingScheme:
    """Polymorphic `#GenerateBlocks`: one blocker per node label.

    Nodes whose label has no registered blocker fall into a per-label
    catch-all block (they are still compared among themselves).  An
    ``exhaustive`` scheme puts *every* node — across labels — into one
    block: the paper's "no cluster mode" where cross-type candidates
    (e.g. person-controls-company) are all evaluated.
    """

    blockers: dict[str, Blocker] = field(default_factory=dict)
    exhaustive_mode: bool = False

    @classmethod
    def default(cls, k: int | None = None) -> "BlockingScheme":
        return cls({PERSON: default_person_blocker(k), COMPANY: company_blocker(k)})

    @classmethod
    def exhaustive(cls) -> "BlockingScheme":
        return cls({}, exhaustive_mode=True)

    def blocks_of(self, node: Node) -> list[BlockKey]:
        """All block keys of a node (several under multi-pass blocking)."""
        if self.exhaustive_mode:
            return [0]
        blocker = self.blockers.get(node.label or "")
        if blocker is None:
            return [("__label__", node.label)]
        keys = blocker(node)
        if isinstance(keys, list):
            return [(node.label, key) for key in keys]
        return [(node.label, keys)]

    def block_of(self, node: Node) -> BlockKey:
        """The node's first (or only) block key."""
        return self.blocks_of(node)[0]

    def partition(self, nodes: list[Node]) -> dict[BlockKey, list[Node]]:
        """Group ``nodes`` into blocks; a node joins every block it keys to."""
        blocks: dict[BlockKey, list[Node]] = {}
        for node in nodes:
            for key in self.blocks_of(node):
                blocks.setdefault(key, []).append(node)
        return blocks
