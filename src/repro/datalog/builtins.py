"""Expression evaluation and the external-function registry.

Expressions inside rules (arithmetic, comparisons, Skolem applications and
``$function`` calls) are evaluated against a *binding* — a dict from
variable name to value.  External functions are plain Python callables
registered under a name; this is the hook the paper uses to plug
``#GraphEmbedClust``, ``#GenerateBlocks`` and ``#LinkProbability`` into
the logic.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from .errors import EvaluationError, UnknownFunctionError
from .terms import (
    Constant,
    Expr,
    FunctionTerm,
    Null,
    SkolemTerm,
    Term,
    Variable,
    skolem,
)

Binding = dict[str, Any]

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}


class FunctionRegistry:
    """Named external functions callable from rules as ``$name(args)``.

    A function may additionally carry a **batch form**, which the
    vectorized backend calls once per rule application instead of the
    scalar form once per binding::

        batch(values, args) -> float64 array of length m

    ``args`` has one entry per call argument: an int64 numpy array of
    value *codes* (``values[code]`` is the Python value), a float64
    numpy array of computed numbers, or — anything that is not an array
    — a constant shared by all ``m`` rows.  The result must equal the
    scalar form elementwise (``out[i] == function(*row_i)``, with the
    scalar returning a Python float), and both forms must be pure: the
    engine de-duplicates argument tuples and picks the form by backend.
    A batch form that cannot handle its arguments raises
    :class:`~repro.datalog.vectorized.VectorRuntimeFallback`; the rule
    then runs on the scalar form.
    """

    def __init__(self) -> None:
        self._functions: dict[str, Callable[..., Any]] = {}
        self._batch: dict[str, Callable[..., Any]] = {}

    def register(
        self,
        name: str,
        function: Callable[..., Any],
        batch: Callable[..., Any] | None = None,
    ) -> None:
        """Register (or replace) ``$name``; a batch form registered
        earlier under the same name never outlives its scalar."""
        self._functions[name] = function
        if batch is None:
            self._batch.pop(name, None)
        else:
            self._batch[name] = batch

    def unregister(self, name: str) -> None:
        self._functions.pop(name, None)
        self._batch.pop(name, None)

    def get(self, name: str) -> Callable[..., Any]:
        try:
            return self._functions[name]
        except KeyError:
            raise UnknownFunctionError(
                f"external function ${name} is not registered"
            ) from None

    def batch(self, name: str) -> Callable[..., Any] | None:
        """The batch form of ``$name``, or None when it has only a scalar."""
        return self._batch.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def copy(self) -> "FunctionRegistry":
        clone = FunctionRegistry()
        clone._functions = dict(self._functions)
        clone._batch = dict(self._batch)
        return clone


def evaluate(term: Term, binding: Binding, functions: FunctionRegistry | None = None) -> Any:
    """Evaluate ``term`` under ``binding``; raises on unbound variables."""
    if isinstance(term, Constant):
        return term.value
    if isinstance(term, Variable):
        try:
            return binding[term.name]
        except KeyError:
            raise EvaluationError(f"variable {term.name} is unbound") from None
    if isinstance(term, Expr):
        if term.op == "neg":
            return -evaluate(term.args[0], binding, functions)
        lhs = evaluate(term.args[0], binding, functions)
        rhs = evaluate(term.args[1], binding, functions)
        try:
            return _ARITHMETIC[term.op](lhs, rhs)
        except ZeroDivisionError:
            raise EvaluationError(f"division by zero in {term}") from None
        except TypeError as exc:
            raise EvaluationError(f"type error in {term}: {exc}") from None
    if isinstance(term, SkolemTerm):
        values = tuple(evaluate(arg, binding, functions) for arg in term.args)
        return skolem(term.name, values)
    if isinstance(term, FunctionTerm):
        if functions is None:
            raise UnknownFunctionError(
                f"external function ${term.name} called but no registry supplied"
            )
        function = functions.get(term.name)
        values = [evaluate(arg, binding, functions) for arg in term.args]
        return function(*values)
    raise EvaluationError(f"cannot evaluate term of type {type(term).__name__}")


def compare(op: str, lhs: Any, rhs: Any) -> bool:
    """Apply comparison ``op``; nulls only support (in)equality."""
    if op not in _COMPARATORS:
        raise EvaluationError(f"unknown comparison operator {op!r}")
    if isinstance(lhs, Null) or isinstance(rhs, Null):
        if op == "==":
            return lhs == rhs
        if op == "!=":
            return lhs != rhs
        raise EvaluationError("labelled nulls only support == and != comparisons")
    try:
        return bool(_COMPARATORS[op](lhs, rhs))
    except TypeError:
        # mixed-type ordering (e.g. str vs int) is defined as "not comparable"
        if op in ("==",):
            return False
        if op in ("!=",):
            return True
        raise EvaluationError(
            f"cannot compare {type(lhs).__name__} with {type(rhs).__name__} using {op}"
        ) from None
