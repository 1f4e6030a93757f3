"""A Datalog± engine covering the Vadalog fragment used by the paper.

Public surface:

* :func:`parse_program` / :func:`parse_rule` — Vadalog-like syntax.
* :class:`Engine` / :func:`solve` — stratified semi-naive chase with
  existentials, Skolem functions, monotonic aggregation, negation and
  external Python functions.
* :class:`Database` — indexed fact store.
* Term/rule constructors for programmatic rule building.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "atoms": (
        "Aggregate", "AGGREGATE_FUNCS", "Assignment", "Atom", "Comparison", "make_atom", "Negation",
    ),
    "builtins": ("compare", "evaluate", "FunctionRegistry"),
    "database": ("Database",),
    "engine": ("Derivation", "Engine", "EngineStats", "solve"),
    "errors": (
        "DatalogError", "EvaluationError", "ParseError", "StratificationError",
        "UnknownFunctionError", "UnsafeRuleError",
    ),
    "parser": ("parse_program", "parse_rule"),
    "rules": ("Program", "Rule"),
    "stratify": ("stratify", "Stratum"),
    "terms": (
        "Constant", "Expr", "FunctionTerm", "is_null", "Null", "skolem", "SkolemTerm", "Variable",
    ),
    "warded": (
        "affected_positions", "check_wardedness", "dangerous_variables", "harmful_variables",
        "WardednessReport",
    ),
})
