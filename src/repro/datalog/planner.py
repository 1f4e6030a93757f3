"""Cost-based join planning for rule bodies.

The engine historically joined body literals in textual order.  The
planner replaces that with a per-(rule, seed-occurrence) plan:

* **filters are hoisted** — comparisons, negations and assignments move
  to the earliest point at which all the variables they consume are
  bound, so unproductive bindings are cut before the next join expands
  them;
* **positive atoms are reordered by estimated selectivity** — greedy
  cheapest-next using current predicate cardinalities and a per-bound-
  position selectivity discount (an already-built index contributes its
  real distinct-key count) — but an atom joining on an already-bound
  variable always goes before one that does not: a cross product is
  only taken when nothing connected is left, whatever the estimates
  (which are default selectivities until an index exists) say;
* **external calls sink** — a comparison or assignment that calls a
  ``$function`` is the one filter that is *not* hoisted to its earliest
  point: it waits until no remaining atom joins on a bound variable, so
  the external scores the joined rows, not the pre-join expansion;
* **aggregates are barriers** — a monotonic aggregate folds its
  contributions *in enumeration order* and every intermediate total
  becomes a fact under set semantics, so any atom reordering before (or
  between) aggregates would change the derived database.  Literals never
  cross an aggregate, and atoms are only reordered in the segment after
  the last aggregate; in earlier segments the plan still hoists filters
  (a filter drops bindings but never permutes the surviving stream, so
  aggregate totals are bit-for-bit unchanged).  Reordering additionally
  requires that the rule's *emission order* is unobservable — no head
  predicate may transitively feed an aggregate-bearing rule (see
  :func:`order_sensitive_predicates`), since delta order steers the
  contribution sequence of later rounds.

Plans record the cardinality snapshot they were derived from.  Facts are
append-only, so a relation only grows; :meth:`JoinPlan.stale` reports
when one has grown far enough (ratio past :data:`REPLAN_RATIO`) that the
engine should re-plan — the usual case being IDB predicates that were
empty at round 0 and dominate the join a few semi-naive rounds later.

Ordering only ever changes *when* a pure literal is evaluated, never the
set of satisfying bindings, so planned evaluation is equivalent for the
pure programs the language targets (external ``$functions`` are assumed
side-effect free; pass ``plan=False`` to the engine otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .atoms import Aggregate, Assignment, Atom, Comparison, Negation
from .database import Database
from .terms import Constant, Expr, FunctionTerm, SkolemTerm, Variable, variables_of

#: Fraction of a relation assumed to survive each bound probe position
#: when no index statistics exist yet (a classic Selinger-style default).
DEFAULT_SELECTIVITY = 0.1

#: Estimated cost of a fully-bound existence probe (cheaper than any scan).
MEMBERSHIP_COST = 0.5

#: Re-plan when a body predicate's cardinality grew by this factor
#: relative to the plan-time snapshot (small counts are exempt — see
#: :meth:`JoinPlan.stale`).
REPLAN_RATIO = 4.0

#: Cardinalities below this never trigger a re-plan on their own: the
#: difference between 3 rows and 11 rows does not change a join order.
REPLAN_MIN_ROWS = 32


@dataclass
class PlanStep:
    """One literal of the planned evaluation order."""

    literal_index: int          # position in rule.body
    kind: str                   # atom | negation | comparison | assignment | aggregate
    #: for atoms/negations: fact positions probed through the index
    #: (constants, already-bound variables, evaluable complex terms)
    probe_positions: tuple[int, ...] = ()
    #: for atoms: estimated rows surviving this step's probe
    estimated_rows: float = 0.0
    #: human-readable literal (EXPLAIN output)
    rendered: str = ""


@dataclass
class JoinPlan:
    """A planned evaluation order for one rule body.

    ``order`` lists body-literal indexes in execution order, excluding
    the seed occurrence (which, when present, always runs first over the
    semi-naive delta exactly as the unplanned engine does).
    """

    seed_index: int | None
    order: tuple[int, ...]
    steps: tuple[PlanStep, ...]
    cardinalities: dict[str, int] = field(default_factory=dict)
    #: True when every literal could be placed with its variables bound;
    #: False means the plan fell back to textual order for a suffix.
    feasible: bool = True

    def signature(self) -> tuple:
        """The plan's execution shape: literal order + probe positions.

        Two plans with equal signatures lower to identical evaluators
        (cardinality snapshots may differ) — the engine uses this to
        decide when a cached vectorized lowering is still valid.
        """
        return (self.order, tuple(step.probe_positions for step in self.steps))

    def stale(self, database: Database) -> bool:
        """Has the database grown enough to make this plan suspect?"""
        for predicate, then in self.cardinalities.items():
            now = database.cardinality(predicate)
            if now >= REPLAN_MIN_ROWS and then * REPLAN_RATIO <= now:
                return True
        return False

    def describe(self) -> list[str]:
        """One ``literal [~est rows]`` line per step, in plan order."""
        lines = []
        for step in self.steps:
            if step.kind == "atom":
                lines.append(f"{step.rendered} [~{step.estimated_rows:.0f}]")
            else:
                lines.append(step.rendered)
        return lines


def _atom_bound_positions(
    atom: Atom, bound: set[str]
) -> tuple[tuple[int, ...], set[str], bool, bool]:
    """Classify an atom's positions against the currently bound variables.

    Returns (probe positions, variable names newly bound by matching this
    atom, placeable?, connected?).  An atom is placeable once every
    variable inside its complex terms is bound — the engine folds complex
    terms into the index pattern, which requires evaluating them.  It is
    connected when it joins on a bound variable (a constant probe alone
    selects rows but joins nothing).
    """
    probe: list[int] = []
    fresh: set[str] = set()
    placeable = True
    connected = False
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            if term.name in bound:
                probe.append(position)
                connected = True
            else:
                # fresh (or an intra-atom repeat of a fresh) variable:
                # bound by matching, checked — not probed — on repeats
                fresh.add(term.name)
        elif isinstance(term, Constant):
            probe.append(position)
        else:
            names = {v.name for v in variables_of(term)}
            if names <= bound:
                probe.append(position)
                connected = connected or bool(names)
            else:
                placeable = False
    return tuple(probe), fresh, placeable, connected


def _estimate_atom(
    atom: Atom, probe: tuple[int, ...], database: Database
) -> float:
    """Estimated rows produced by matching ``atom`` with ``probe`` bound."""
    cardinality = database.cardinality(atom.predicate)
    if cardinality == 0:
        return 0.0
    if len(probe) >= atom.arity:
        return MEMBERSHIP_COST
    if not probe:
        return float(cardinality)
    distinct = database.distinct_count(atom.predicate, probe)
    if distinct:
        return max(1.0, cardinality / distinct)
    return max(1.0, cardinality * DEFAULT_SELECTIVITY ** len(probe))


def _literal_uses(literal) -> set[str]:
    """Variable names a literal needs bound before it can run."""
    return {v.name for v in literal.variables()}


def _calls_external(literal) -> bool:
    """Does a comparison/assignment evaluate a ``$function``?"""
    if isinstance(literal, Comparison):
        pending = [literal.lhs, literal.rhs]
    elif isinstance(literal, Assignment):
        pending = [literal.expression]
    else:
        return False
    while pending:
        term = pending.pop()
        if isinstance(term, FunctionTerm):
            return True
        if isinstance(term, (Expr, SkolemTerm)):
            pending.extend(term.args)
    return False


def order_sensitive_predicates(program) -> set[str]:
    """Predicates whose *fact order* can influence an aggregate total.

    A monotone aggregate folds contributions in enumeration order and
    every intermediate total becomes a fact, so the row order of any
    relation scanned by an aggregate-bearing rule is semantically
    observable (``mcount`` excepted: its totals are 1..n per group in
    any arrival order).  The set is closed transitively — a rule whose
    head feeds an order-sensitive predicate emits in an order determined
    by its own body relations.  Rules deriving only predicates outside
    this set may have their atoms freely reordered.
    """
    sensitive: set[str] = set()
    for rule in program.rules:
        if any(
            isinstance(literal, Aggregate) and literal.func != "mcount"
            for literal in rule.body
        ):
            sensitive |= rule.body_predicates()
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            if rule.head_predicates() & sensitive:
                body = rule.body_predicates()
                if not body <= sensitive:
                    sensitive |= body
                    changed = True
    return sensitive


def plan_rule(
    rule, seed_index: int | None, database: Database, reorder: bool = True
) -> JoinPlan:
    """Plan the evaluation order of ``rule``'s body.

    ``seed_index`` is the body position of the semi-naive seed atom (or
    None for a full application); the seed is excluded from ``order`` —
    its variables are simply treated as bound from the start.

    ``reorder=False`` keeps every atom in textual order (filters are
    still hoisted, which never changes the surviving binding sequence) —
    the engine passes it for rules whose emission order feeds an
    aggregate, see :func:`order_sensitive_predicates`.
    """
    literals = rule.body
    bound: set[str] = set()
    if seed_index is not None:
        seed = literals[seed_index]
        bound.update(
            term.name for term in seed.terms if isinstance(term, Variable)
        )

    if not _negations_fully_bound(literals, seed_index, bound):
        # A negation some of whose variables are only bound *after* it
        # textually runs under the engine's partial-pattern semantics
        # ("no extension exists"); a planned full-tuple check would mean
        # something else.  Keep such rules on the interpreted path.
        return _textual_fallback(rule, seed_index, literals, database)

    # Split the body at aggregate boundaries.  Literals never migrate
    # across a boundary; atoms are cost-reordered only in the last segment.
    segments: list[list[int]] = [[]]
    for index, literal in enumerate(literals):
        if index == seed_index:
            continue
        segments[-1].append(index)
        if isinstance(literal, Aggregate):
            segments.append([])

    order: list[int] = []
    steps: list[PlanStep] = []
    feasible = True
    for segment_number, segment in enumerate(segments):
        reorder_atoms = reorder and segment_number == len(segments) - 1
        feasible &= _plan_segment(
            literals, segment, bound, database, reorder_atoms, order, steps
        )

    cardinalities = {
        predicate: database.cardinality(predicate)
        for predicate in rule.body_predicates()
    }
    return JoinPlan(
        seed_index=seed_index,
        order=tuple(order),
        steps=tuple(steps),
        cardinalities=cardinalities,
        feasible=feasible,
    )


def _negations_fully_bound(literals, seed_index: int | None, seed_bound: set[str]) -> bool:
    """Is every negation's variable set bound by its textual position?

    Only an atom's direct variable terms bind (complex terms are read,
    not unified); assignments and aggregates bind their result variable.
    """
    bound = set(seed_bound)
    for index, literal in enumerate(literals):
        if index == seed_index:
            continue
        if isinstance(literal, Negation):
            if not _literal_uses(literal) <= bound:
                return False
        elif isinstance(literal, Atom):
            bound.update(
                term.name for term in literal.terms if isinstance(term, Variable)
            )
        elif isinstance(literal, (Assignment, Aggregate)):
            bound.add(literal.variable.name)
    return True


def _textual_fallback(rule, seed_index: int | None, literals, database: Database) -> JoinPlan:
    """An infeasible plan preserving the textual evaluation order."""
    order = tuple(i for i in range(len(literals)) if i != seed_index)
    steps = tuple(
        PlanStep(literal_index=i, kind=_kind_of(literals[i]), rendered=str(literals[i]))
        for i in order
    )
    cardinalities = {
        predicate: database.cardinality(predicate)
        for predicate in rule.body_predicates()
    }
    return JoinPlan(
        seed_index=seed_index,
        order=order,
        steps=steps,
        cardinalities=cardinalities,
        feasible=False,
    )


def _plan_segment(
    literals,
    segment: list[int],
    bound: set[str],
    database: Database,
    reorder_atoms: bool,
    order: list[int],
    steps: list[PlanStep],
) -> bool:
    """Place one aggregate-delimited segment; returns False on fallback."""
    atoms = [i for i in segment if isinstance(literals[i], Atom)]
    others = [i for i in segment if not isinstance(literals[i], Atom)]

    def emit(index: int, kind: str, probe: tuple[int, ...] = (), est: float = 0.0):
        order.append(index)
        steps.append(
            PlanStep(
                literal_index=index,
                kind=kind,
                probe_positions=probe,
                estimated_rows=est,
                rendered=str(literals[index]),
            )
        )

    def candidates():
        """Placeable atoms as (connected?, index, probe, fresh)."""
        for queue_position, index in enumerate(atom_queue):
            if not reorder_atoms and queue_position > 0:
                return  # keep textual atom order before the last aggregate
            probe, fresh, placeable, connected = _atom_bound_positions(
                literals[index], bound
            )
            if placeable:
                yield connected, index, probe, fresh

    def drain_ready_filters() -> None:
        """Emit non-atom literals (textual order) as they become ready;
        external calls wait while an atom still joins on a bound variable."""
        progressed = True
        while progressed:
            progressed = False
            for index in list(others):
                literal = literals[index]
                if isinstance(literal, Aggregate):
                    continue  # pinned to the end of the segment
                if not _literal_uses(literal) <= bound:
                    continue
                if _calls_external(literal) and any(
                    connected for connected, *_ in candidates()
                ):
                    continue
                others.remove(index)
                if isinstance(literal, Negation):
                    probe = tuple(range(literal.atom.arity))
                    emit(index, "negation", probe)
                elif isinstance(literal, Comparison):
                    emit(index, "comparison")
                else:  # Assignment
                    emit(index, "assignment")
                    bound.add(literal.variable.name)
                progressed = True

    atom_queue = list(atoms)
    drain_ready_filters()
    while atom_queue:
        best = None
        best_key = None
        for connected, index, probe, fresh in candidates():
            est = _estimate_atom(literals[index], probe, database)
            key = (not connected, est, index)
            if best_key is None or key < best_key:
                best, best_key = (index, probe, fresh, est), key
        if best is None:
            # No placeable atom (a complex term over never-yet-bound
            # variables): finish in textual order; the engine falls back
            # to the unplanned path for this rule.
            for index in atom_queue + others:
                emit(index, _kind_of(literals[index]))
            return False
        index, probe, fresh, est = best
        atom_queue.remove(index)
        emit(index, "atom", probe, est)
        bound.update(fresh)
        drain_ready_filters()

    # Whatever is left is the segment's trailing aggregate (and, for
    # unsafe-but-parsed bodies, nothing else: safety guarantees filters
    # become ready once every atom has been placed).
    for index in list(others):
        literal = literals[index]
        if isinstance(literal, Aggregate):
            others.remove(index)
            emit(index, "aggregate")
            bound.add(literal.variable.name)
    if others:
        for index in others:
            emit(index, _kind_of(literals[index]))
        return False
    return True


def _kind_of(literal) -> str:
    if isinstance(literal, Atom):
        return "atom"
    if isinstance(literal, Negation):
        return "negation"
    if isinstance(literal, Comparison):
        return "comparison"
    if isinstance(literal, Assignment):
        return "assignment"
    return "aggregate"
