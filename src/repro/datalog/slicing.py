"""Demand-driven program slicing: keep what a query's outputs depend on.

A reasoning run that knows which relations it will read afterwards need
not derive anything else.  :func:`slice_program` keeps the backward
closure of those *outputs* over a program's rules, at the granularity of
head atoms:

* a head atom is *relevant* when it unifies with an output or with a
  body atom (positive or negated) of a kept rule — same predicate, same
  arity, and no position where both sides hold constants that differ.
  So ``link/3`` stays apart from ``link/4``, and a head
  ``node_type(Z, "company")`` does not feed a body ``node_type(X,
  "person")``;
* a rule is kept when one of its head atoms is relevant; its irrelevant
  head atoms are dropped, and a rule without a relevant head atom is
  dropped whole.  A cut rule names its original as
  :attr:`~repro.datalog.rules.Rule.origin`, so it groups aggregates and
  invents nulls exactly as the original does;
* a fact declared in the program survives when it unifies with a
  relevant atom.

Every derivation of an output fact only uses facts that unify with a body
atom of the rule that derived it, so the slice derives every output fact
the whole program derives, and nothing the slice drops can be read by
what it keeps: the outputs are unchanged.  An output named without an
arity demands every arity of that predicate.
"""

from __future__ import annotations

from typing import Iterable

from .atoms import Atom, Negation
from .rules import Program, Rule
from .terms import Constant

#: a position of a demand pattern that any value fills
_ANY = object()

#: (predicate, arity or None for any, per-position constant or _ANY)
_Pattern = tuple[str, "int | None", tuple]


def slice_program(program: Program, outputs: Iterable[str]) -> Program:
    """The rules and facts of ``program`` that the ``outputs`` depend on."""
    heads: dict[str, list[tuple[int, int, Atom]]] = {}
    for rule_index, rule in enumerate(program.rules):
        for atom_index, atom in enumerate(rule.head):
            heads.setdefault(atom.predicate, []).append((rule_index, atom_index, atom))
    demanded: set[_Pattern] = set()
    kept: dict[int, set[int]] = {}
    pending: list[_Pattern] = [(name, None, ()) for name in outputs]
    while pending:
        pattern = pending.pop()
        if pattern in demanded:
            continue
        demanded.add(pattern)
        for rule_index, atom_index, atom in heads.get(pattern[0], ()):
            if not _unifies(_pattern_of(atom), pattern):
                continue
            atoms = kept.setdefault(rule_index, set())
            if not atoms:
                pending.extend(_body_patterns(program.rules[rule_index]))
            atoms.add(atom_index)
    sliced = Program()
    for rule_index, rule in enumerate(program.rules):
        atoms = kept.get(rule_index)
        if atoms is None:
            continue
        if len(atoms) < len(rule.head):
            head = tuple(a for i, a in enumerate(rule.head) if i in atoms)
            rule = Rule(rule.body, head, rule.label, origin=rule.origin or rule)
        sliced.add_rule(rule)
    for predicate, values in program.facts:
        fact = (predicate, len(values), values)
        if any(_unifies(fact, pattern) for pattern in demanded):
            sliced.add_fact(predicate, values)
    return sliced


def read_predicates(program: Program) -> set[str]:
    """Predicates a program's rule bodies read (positively or negated)."""
    read: set[str] = set()
    for rule in program.rules:
        read.update(rule.body_predicates())
    return read


def _pattern_of(atom: Atom) -> _Pattern:
    constants = tuple(
        term.value if isinstance(term, Constant) else _ANY for term in atom.terms
    )
    return (atom.predicate, len(atom.terms), constants)


def _body_patterns(rule: Rule) -> Iterable[_Pattern]:
    for literal in rule.body:
        if isinstance(literal, Atom):
            yield _pattern_of(literal)
        elif isinstance(literal, Negation):
            yield _pattern_of(literal.atom)


def _unifies(left: _Pattern, right: _Pattern) -> bool:
    """Same predicate and arity, and no position with two unequal constants."""
    if left[0] != right[0]:
        return False
    if left[1] is None or right[1] is None:
        return True
    if left[1] != right[1]:
        return False
    return not any(
        a is not _ANY and b is not _ANY and a is not b and a != b
        for a, b in zip(left[2], right[2])
    )
