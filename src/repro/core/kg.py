"""The Knowledge Graph object: extensional component + intensional rules.

Per the paper, a KG combines an *extensional component* (the data — here
the relational representation of a property graph) with an *intensional
component* (domain knowledge as Vadalog rules).  :class:`KnowledgeGraph`
packages the two together with the external-function registry and runs
reasoning tasks on demand, keeping the architecture principles of
Section 5: ground data in the extensional component, business rules
declarative, application logic outside.
"""

from __future__ import annotations

from typing import Any, Callable

from ..datalog.builtins import FunctionRegistry
from ..datalog.database import Database, Fact
from ..datalog.engine import Engine
from ..datalog.parser import parse_program
from ..datalog.rules import Program
from ..graph.property_graph import PropertyGraph
from ..graph.relational import COMPANY_SCHEMA, RelationalSchema, to_facts


class KnowledgeGraph:
    """Extensional facts + named rule sets + external functions."""

    def __init__(
        self,
        extensional: Database | PropertyGraph | list[Fact] | None = None,
        schema: RelationalSchema = COMPANY_SCHEMA,
    ):
        if extensional is None:
            self.extensional = Database()
        elif isinstance(extensional, Database):
            self.extensional = extensional
        elif isinstance(extensional, PropertyGraph):
            self.extensional = to_facts(extensional, schema)
        else:
            self.extensional = Database(extensional)
        self.schema = schema
        self.functions = FunctionRegistry()
        self._rule_sets: dict[str, Program] = {}

    # ------------------------------------------------------------------
    # intensional component
    # ------------------------------------------------------------------

    def add_rules(self, name: str, rules: str | Program) -> None:
        """Register (or replace) a named rule set."""
        if isinstance(rules, str):
            rules = parse_program(rules)
        self._rule_sets[name] = rules

    def remove_rules(self, name: str) -> None:
        self._rule_sets.pop(name, None)

    def rule_sets(self) -> list[str]:
        return list(self._rule_sets)

    def program(self, names: list[str] | None = None) -> Program:
        """The concatenation of the selected (or all) rule sets."""
        combined = Program()
        for name, rules in self._rule_sets.items():
            if names is None or name in names:
                combined.extend(rules)
        return combined

    # ------------------------------------------------------------------
    # external functions
    # ------------------------------------------------------------------

    def register_function(
        self,
        name: str,
        function: Callable[..., Any],
        batch: Callable[..., Any] | None = None,
    ) -> None:
        """Register ``$name``; ``batch`` is its optional batch form (see
        :class:`~repro.datalog.builtins.FunctionRegistry`)."""
        self.functions.register(name, function, batch=batch)

    # ------------------------------------------------------------------
    # facts
    # ------------------------------------------------------------------

    def add_fact(self, predicate: str, values: tuple) -> None:
        self.extensional.add(predicate, values)

    def add_facts(self, facts: list[Fact]) -> None:
        self.extensional.add_all(facts)

    # ------------------------------------------------------------------
    # reasoning
    # ------------------------------------------------------------------

    def reason(
        self,
        names: list[str] | None = None,
        provenance: bool = False,
        max_iterations: int = 1_000_000,
        tracer=None,
    ) -> Engine:
        """Run the selected rule sets over a *copy* of the extensional data.

        The extensional component is never mutated by reasoning — derived
        facts live in the returned engine's database (the paper's "do not
        let business logic drift into the KG extensional component").
        ``tracer`` (a :class:`repro.telemetry.Tracer`) collects the
        engine's per-stratum / per-rule spans when given.
        """
        engine = Engine(
            self.program(names),
            self.extensional.copy(),
            functions=self.functions,
            provenance=provenance,
            max_iterations=max_iterations,
            tracer=tracer,
        )
        engine.run()
        return engine
