"""Existential rules (tuple-generating dependencies) and safety analysis.

A rule is a first-order sentence ``body -> head`` where the body is a
conjunction of literals and the head a conjunction of atoms.  Head
variables that do not occur in the body are *existential*: the chase
invents a labelled null for them, one per binding of the frontier
variables (skolemized chase).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .atoms import (
    AGGREGATE_FUNCS,
    Aggregate,
    Assignment,
    Atom,
    BodyLiteral,
    Comparison,
    Negation,
)
from .errors import UnsafeRuleError
from .terms import Variable


@dataclass(frozen=True)
class Rule:
    """An existential rule with optional label (used in provenance)."""

    body: tuple[BodyLiteral, ...]
    head: tuple[Atom, ...]
    label: str = ""
    #: the rule a program slice cut this one from by dropping head atoms
    #: (see :mod:`.slicing`), else None
    origin: "Rule | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.head:
            raise UnsafeRuleError("a rule must have at least one head atom")
        self._check_safety()

    # ------------------------------------------------------------------
    # variable classification
    # ------------------------------------------------------------------

    def positive_atoms(self) -> Iterator[Atom]:
        for literal in self.body:
            if isinstance(literal, Atom):
                yield literal

    def positive_positions(self) -> tuple[int, ...]:
        """Body indexes of the positive atoms.

        Cached on the instance: the semi-naive engine consults this for
        every rule on every round to map delta predicates onto seed
        occurrences.
        """
        cached = self.__dict__.get("_positive_positions")
        if cached is None:
            cached = tuple(
                index
                for index, literal in enumerate(self.body)
                if isinstance(literal, Atom)
            )
            object.__setattr__(self, "_positive_positions", cached)
        return cached

    def negated_atoms(self) -> Iterator[Negation]:
        for literal in self.body:
            if isinstance(literal, Negation):
                yield literal

    def aggregates(self) -> Iterator[Aggregate]:
        for literal in self.body:
            if isinstance(literal, Aggregate):
                yield literal

    def body_variables(self) -> set[Variable]:
        """Variables bound by the body: positive atoms + assignments + aggregates."""
        bound: set[Variable] = set()
        for literal in self.body:
            if isinstance(literal, Atom):
                bound.update(literal.variables())
            elif isinstance(literal, (Assignment, Aggregate)):
                bound.add(literal.variable)
        return bound

    def head_variables(self) -> set[Variable]:
        head_vars: set[Variable] = set()
        for atom in self.head:
            head_vars.update(atom.variables())
        return head_vars

    def full_head_variables(self) -> set[Variable]:
        """Head variables of the rule as written: its origin's when a slice
        cut head atoms away.  Aggregate groups and the frontier are taken
        over these, so a cut rule derives exactly its origin's facts of
        the atoms it kept, labelled nulls included."""
        return (self.origin or self).head_variables()

    def frontier_variables(self) -> set[Variable]:
        """Variables shared between body and (full) head: the rule's
        frontier, which keys the nulls it invents."""
        return self.body_variables() & self.full_head_variables()

    def existential_variables(self) -> set[Variable]:
        """Head variables not bound anywhere in the body."""
        return self.head_variables() - self.body_variables()

    def is_existential(self) -> bool:
        return bool(self.existential_variables())

    def head_predicates(self) -> set[str]:
        return {atom.predicate for atom in self.head}

    def body_predicates(self) -> set[str]:
        predicates: set[str] = set()
        for literal in self.body:
            if isinstance(literal, Atom):
                predicates.add(literal.predicate)
            elif isinstance(literal, Negation):
                predicates.add(literal.atom.predicate)
        return predicates

    # ------------------------------------------------------------------
    # safety
    # ------------------------------------------------------------------

    def _check_safety(self) -> None:
        """Verify the rule is range-restricted.

        Walking the body left to right, every variable consumed by a
        comparison, negation, assignment expression or aggregate must have
        been bound by an earlier positive atom, assignment or aggregate.
        """
        bound: set[Variable] = set()
        for literal in self.body:
            if isinstance(literal, Atom):
                bound.update(literal.variables())
            elif isinstance(literal, Negation):
                unbound = set(literal.variables()) - bound
                if unbound:
                    names = ", ".join(sorted(v.name for v in unbound))
                    raise UnsafeRuleError(
                        f"negated atom {literal} uses unbound variable(s) {names}"
                    )
            elif isinstance(literal, Comparison):
                unbound = set(literal.variables()) - bound
                if unbound:
                    names = ", ".join(sorted(v.name for v in unbound))
                    raise UnsafeRuleError(
                        f"comparison {literal} uses unbound variable(s) {names}"
                    )
            elif isinstance(literal, Assignment):
                unbound = set(literal.variables()) - bound
                if unbound:
                    names = ", ".join(sorted(v.name for v in unbound))
                    raise UnsafeRuleError(
                        f"assignment {literal} uses unbound variable(s) {names}"
                    )
                bound.add(literal.variable)
            elif isinstance(literal, Aggregate):
                if literal.func not in AGGREGATE_FUNCS:
                    raise UnsafeRuleError(f"unknown aggregate function {literal.func!r}")
                unbound = set(literal.variables()) - bound
                if unbound:
                    names = ", ".join(sorted(v.name for v in unbound))
                    raise UnsafeRuleError(
                        f"aggregate {literal} uses unbound variable(s) {names}"
                    )
                bound.add(literal.variable)

    def __str__(self) -> str:
        body = ", ".join(str(literal) for literal in self.body)
        head = ", ".join(str(atom) for atom in self.head)
        return f"{body} -> {head}."


@dataclass
class Program:
    """An ordered collection of rules plus facts declared in the source text."""

    rules: list[Rule] = field(default_factory=list)
    facts: list[tuple[str, tuple]] = field(default_factory=list)

    def add_rule(self, rule: Rule) -> None:
        self.rules.append(rule)

    def add_fact(self, predicate: str, values: tuple) -> None:
        self.facts.append((predicate, values))

    def extend(self, other: "Program") -> None:
        """Append all rules and facts of ``other`` to this program."""
        self.rules.extend(other.rules)
        self.facts.extend(other.facts)

    def idb_predicates(self) -> set[str]:
        """Predicates that appear in some rule head (intensional)."""
        idb: set[str] = set()
        for rule in self.rules:
            idb.update(rule.head_predicates())
        return idb

    def edb_predicates(self) -> set[str]:
        """Predicates only ever used in bodies or fact declarations (extensional)."""
        idb = self.idb_predicates()
        edb: set[str] = set()
        for rule in self.rules:
            edb.update(rule.body_predicates() - idb)
        for predicate, _ in self.facts:
            if predicate not in idb:
                edb.add(predicate)
        return edb

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __str__(self) -> str:
        lines = [str(rule) for rule in self.rules]
        for predicate, values in self.facts:
            rendered = ", ".join(repr(v) for v in values)
            lines.append(f"{predicate}({rendered}).")
        return "\n".join(lines)
