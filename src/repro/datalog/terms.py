"""Terms of the Datalog± language: constants, variables, nulls and expressions.

Inside *facts* the engine stores plain Python values (strings, numbers,
booleans, tuples and :class:`Null` instances) for speed.  The classes here are
used inside *rules*: a rule body/head mentions :class:`Variable`,
:class:`Constant`, arithmetic :class:`Expr` trees, Skolem-function
applications (:class:`SkolemTerm`) and external-function calls
(:class:`FunctionTerm`).
"""

from __future__ import annotations

# hashlib.blake2b is _blake2.blake2b; importing hashlib would also load OpenSSL
from _blake2 import blake2b
from dataclasses import dataclass
from typing import Any, Iterator

#: Python types a fact column may hold (besides Null).
Value = Any


class Null:
    """A labelled null, invented by the chase for existential variables.

    Nulls compare equal iff their labels are equal, which makes the
    skolemized chase deterministic: re-deriving the same existential head
    for the same frontier binding yields the *same* null, so set semantics
    deduplicates the fact and the chase terminates.
    """

    __slots__ = ("label", "_hash")

    def __init__(self, label: str):
        self.label = label
        self._hash = hash(("__null__", label))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Null) and other.label == self.label

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Null({self.label})"

    def __str__(self) -> str:
        return f"⊥{self.label}"


def is_null(value: object) -> bool:
    """Return True when ``value`` is a labelled null."""
    return isinstance(value, Null)


@dataclass(frozen=True, slots=True)
class Variable:
    """A rule variable. By convention names start with an uppercase letter."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Constant:
    """A constant term wrapping a plain Python value."""

    value: Value

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Expr:
    """An arithmetic/comparison expression tree over terms.

    ``op`` is one of ``+ - * / %`` (binary) or ``neg`` (unary).
    """

    op: str
    args: tuple["Term", ...]

    def __str__(self) -> str:
        if self.op == "neg":
            return f"-({self.args[0]})"
        return f"({self.args[0]} {self.op} {self.args[1]})"


@dataclass(frozen=True, slots=True)
class SkolemTerm:
    """Application of a Skolem function, written ``#name(arg, ...)``.

    Skolem functions are deterministic, injective and have pairwise
    disjoint ranges — see Section 4 of the paper.  We realise them by
    hashing the function name together with the argument values, so two
    different functions (or two different argument tuples) can never
    produce the same identifier.
    """

    name: str
    args: tuple["Term", ...]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"#{self.name}({inner})"


@dataclass(frozen=True, slots=True)
class FunctionTerm:
    """Application of a registered external function, written ``$name(arg, ...)``.

    External functions are how the paper plugs clustering, embeddings and
    probabilistic models into the logic (``#GraphEmbedClust``,
    ``#GenerateBlocks``, ``#LinkProbability``).
    """

    name: str
    args: tuple["Term", ...]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"${self.name}({inner})"


Term = Variable | Constant | Expr | SkolemTerm | FunctionTerm


def skolem(name: str, values: tuple[Value, ...]) -> str:
    """Compute the value of Skolem function ``name`` on ``values``.

    Returns an opaque string identifier. Determinism comes from hashing;
    injectivity and disjoint ranges come from including the function name
    and an unambiguous serialisation of the arguments in the digest.
    """
    hasher = blake2b(digest_size=12)
    hasher.update(name.encode("utf-8"))
    for value in values:
        hasher.update(b"\x00")
        hasher.update(_serialise(value))
    return f"sk:{name}:{hasher.hexdigest()}"


def _serialise(value: Value) -> bytes:
    """Serialise a fact value unambiguously for Skolem hashing."""
    if isinstance(value, Null):
        return b"N" + value.label.encode("utf-8")
    if isinstance(value, bool):
        return b"B1" if value else b"B0"
    if isinstance(value, int):
        return b"I" + str(value).encode("ascii")
    if isinstance(value, float):
        return b"F" + repr(value).encode("ascii")
    if isinstance(value, str):
        return b"S" + value.encode("utf-8")
    if isinstance(value, tuple):
        return b"T(" + b",".join(_serialise(v) for v in value) + b")"
    return b"O" + repr(value).encode("utf-8")


def variables_of(term: Term) -> Iterator[Variable]:
    """Yield every variable occurring in ``term`` (depth-first)."""
    if isinstance(term, Variable):
        yield term
    elif isinstance(term, (Expr, SkolemTerm, FunctionTerm)):
        for arg in term.args:
            yield from variables_of(arg)
