"""Compiled, index-backed evaluation of denial constraints.

Positive atoms are joined by backtracking search, probing hash indexes
on the bound positions.  The join order is greedy: expand next the atom
with the most bound positions, ties towards the smaller relation, then
towards syntactic order.  Every expansion binds all of its atom's
variables, so which positions are bound at each step — and therefore
the whole order — depends only on the order itself and on how the
body's relation sizes rank against each other.  A query is therefore
*compiled* into one plan per dense ranking of its relation sizes, a
list of steps each carrying:

* the relation, the bound positions and where each key value comes
  from (a constant or an earlier variable);
* the unify program: which positions bind new variables, and which
  pairs must agree because a new variable repeats inside the atom;
* the comparisons and negated atoms that become fully bound at that
  step, checked right after it.

Variable-free comparisons and negated atoms are checked once, before
the search.  The search keeps values in a flat register list (variables in binding
order, then the query's constants) instead of a dict, and trusts the
index probe for the bound positions.

Compiled forms live in side tables, never on the query, so pickled
queries carry none: a weak table keyed by the query object, in front of
a bounded table keyed by the query text, which equal query objects (a
constraint re-parsed on every register, or unpickled in a worker)
share.

Works against any fact view (a
:class:`~repro.relational.checking.FactView`), so the same evaluator
serves the plain current state and the overlay possible-world views of
the DCSat engine.  ``tests/query/reference_evaluator.py`` keeps the
dynamic-planning search this replaced as the differential oracle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from operator import itemgetter
from typing import Callable, Iterator, Union
from weakref import WeakKeyDictionary

from repro.errors import QueryError
from repro.query.ast import (
    AggregateQuery,
    Comparison,
    ConjunctiveQuery,
    Constant,
    Term,
)
from repro.relational.checking import FactView, as_fact_view
from repro.relational.database import Database

#: A satisfying assignment: variable name -> ground value.
Assignment = dict[str, object]

#: The facts matched by the positive atoms, aligned with
#: ``query.positive_atoms``: a list of ``(relation, tuple)`` pairs.
Match = list[tuple[str, tuple]]

#: Search registers: one per body variable, in the plan's binding order,
#: then one per constant occurrence in the query.
Registers = list

#: Where a term's value comes from: the register of a constant, or the
#: name of a variable (each plan maps names to registers).
Source = Union[int, str]


def _tuple_getter(slots: tuple[int, ...]) -> Callable[[Registers], tuple]:
    """``regs -> tuple(regs[s] for s in slots)``, without a generator."""
    if len(slots) == 1:
        slot = slots[0]
        return lambda regs: (regs[slot],)
    if not slots:
        return lambda regs: ()
    return itemgetter(*slots)


def _register(source: Source, slot_of: dict[str, int]) -> int:
    return source if type(source) is int else slot_of[source]


class _Step:
    """One positive atom of a plan: its probe key, its unify program and
    the filters it completes."""

    __slots__ = (
        "relation",
        "positions",
        "key",
        "static_key",
        "bind_start",
        "bind_positions",
        "bind",
        "repeats",
        "comparisons",
        "negated",
    )

    def __init__(self, compiled: "_Compiled", index: int, slot_of: dict[str, int]):
        """Compile positive atom *index* after the variables in *slot_of*
        are bound; gives its new variables the next registers."""
        self.relation = compiled.atoms[index].relation
        before = set(slot_of)
        positions: list[int] = []
        key: list[Source] = []
        bind_positions: list[int] = []
        first_at: dict[str, int] = {}
        repeats: list[tuple[int, int]] = []
        for position, source in enumerate(compiled.atom_sources[index]):
            if type(source) is int or source in before:
                positions.append(position)
                key.append(source)
            elif source in first_at:
                repeats.append((first_at[source], position))
            else:
                first_at[source] = position
                bind_positions.append(position)
        self.positions = tuple(positions)
        if all(type(source) is int for source in key):
            self.key = None
            self.static_key = tuple(compiled.registers[s] for s in key)
        else:
            self.key = _tuple_getter(tuple(_register(s, slot_of) for s in key))
            self.static_key = None
        # New variables take consecutive registers, in term order.
        self.bind_start = len(slot_of)
        for name in first_at:
            slot_of[name] = len(slot_of)
        self.bind_positions = tuple(bind_positions)
        self.bind = itemgetter(*bind_positions) if len(bind_positions) > 1 else None
        self.repeats = tuple(repeats)
        self.comparisons = tuple(
            (holds, _register(left, slot_of), _register(right, slot_of))
            for holds, (left, right), names in compiled.comparisons
            if names <= slot_of.keys() and not names <= before
        )
        self.negated = tuple(
            (
                relation,
                _tuple_getter(tuple(_register(s, slot_of) for s in sources)),
            )
            for relation, sources, names in compiled.negated
            if names <= slot_of.keys() and not names <= before
        )

    def filters_pass(self, regs: Registers, view: FactView) -> bool:
        """The comparisons and negated atoms this step completes hold."""
        for holds, left, right in self.comparisons:
            if not holds(regs[left], regs[right]):
                return False
        for relation, ground in self.negated:
            if view.has_fact(relation, ground(regs)):
                return False
        return True


class _Plan:
    """The static greedy order for one ranking of the relation sizes:
    most bound positions first, then the lower size rank, then
    syntactic order."""

    __slots__ = ("steps", "names", "relations", "row", "registers")

    def __init__(self, compiled: "_Compiled", rank: dict[str, int]):
        atom_ranks = [rank[atom.relation] for atom in compiled.atoms]
        slot_of: dict[str, int] = {}
        remaining = list(range(len(compiled.atoms)))
        steps: list[_Step] = []
        while remaining:
            best = None
            for at, index in enumerate(remaining):
                score = (
                    sum(
                        1
                        for source in compiled.atom_sources[index]
                        if type(source) is int or source in slot_of
                    ),
                    -atom_ranks[index],
                )
                if best is None or score > best[0]:
                    best = (score, at)
            steps.append(_Step(compiled, remaining.pop(best[1]), slot_of))
        self.steps = tuple(steps)
        self.names = tuple(slot_of)
        self.relations = tuple(step.relation for step in steps)
        self.row = _tuple_getter(
            tuple(_register(s, slot_of) for s in compiled.agg_sources)
        )
        self.registers = compiled.registers

    def start(self, view: FactView) -> tuple[Registers, list, Iterator[None]]:
        regs = list(self.registers)
        matched: list = [None] * len(self.steps)
        return regs, matched, _expand(self.steps, 0, regs, matched, view)


def _expand(
    steps: tuple[_Step, ...],
    depth: int,
    regs: Registers,
    matched: list,
    view: FactView,
) -> Iterator[None]:
    """Yield once per satisfying extension of steps ``depth..``, with
    *regs* holding its values and *matched* the tuple each step took."""
    step = steps[depth]
    if step.positions:
        key = step.static_key if step.key is None else step.key(regs)
        candidates = view.lookup(step.relation, step.positions, key)
    else:
        candidates = view.iter_tuples(step.relation)
    deeper = depth + 1
    leaf = deeper == len(steps)
    start = step.bind_start
    positions = step.bind_positions
    bind = step.bind
    repeats = step.repeats
    filtered = bool(step.comparisons or step.negated)
    for values in candidates:
        if repeats and any(values[a] != values[b] for a, b in repeats):
            continue
        if bind is not None:
            regs[start : start + len(positions)] = bind(values)
        elif positions:
            regs[start] = values[positions[0]]
        if filtered and not step.filters_pass(regs, view):
            continue
        matched[depth] = values
        if leaf:
            yield
        else:
            yield from _expand(steps, deeper, regs, matched, view)


class _Compiled:
    """What a query object compiles to, whatever the relation sizes:
    term sources, constant registers, the variable-free checks, and a
    plan per dense ranking of the relation sizes."""

    __slots__ = (
        "atoms",
        "atom_sources",
        "relations",
        "registers",
        "comparisons",
        "negated",
        "agg_sources",
        "ground_comparisons",
        "ground_negated",
        "plans",
        "last",
    )

    def __init__(self, query: ConjunctiveQuery | AggregateQuery):
        body = query.body if isinstance(query, AggregateQuery) else query
        self.atoms = body.positive_atoms
        self.relations = tuple(dict.fromkeys(a.relation for a in self.atoms))
        variables = {v.name for atom in self.atoms for v in atom.variables}
        registers: Registers = [None] * len(variables)

        def source(term: Term) -> Source:
            if isinstance(term, Constant):
                registers.append(term.value)
                return len(registers) - 1
            return term.name

        def sources_and_names(terms) -> tuple[tuple[Source, ...], frozenset[str]]:
            sources = tuple(source(t) for t in terms)
            return sources, frozenset(s for s in sources if type(s) is str)

        self.atom_sources = tuple(
            tuple(source(t) for t in atom.terms) for atom in self.atoms
        )
        self.comparisons = tuple(
            (c.holds, *sources_and_names((c.left, c.right)))
            for c in body.comparisons
            if c.variables
        )
        self.negated = tuple(
            (a.relation, *sources_and_names(a.terms))
            for a in body.negated_atoms
            if a.variables
        )
        agg_terms = query.agg_terms if isinstance(query, AggregateQuery) else ()
        self.agg_sources = tuple(source(t) for t in agg_terms)
        self.registers = registers
        self.ground_comparisons = tuple(
            c for c in body.comparisons if not c.variables
        )
        self.ground_negated = tuple(
            (a.relation, tuple(t.value for t in a.terms))
            for a in body.negated_atoms
            if not a.variables
        )
        self.plans: dict[tuple[int, ...], _Plan] = {}
        #: ``(relation sizes, plan)`` of the latest multi-relation lookup.
        self.last: tuple[tuple[int, ...] | None, _Plan | None] = (None, None)

    def initial_checks(self, view: FactView) -> bool:
        """Variable-free comparisons and negated atoms, once per run."""
        for comparison in self.ground_comparisons:
            if not comparison.holds(comparison.left.value, comparison.right.value):
                return False
        for relation, values in self.ground_negated:
            if view.has_fact(relation, values):
                return False
        return True

    def plan_for(self, view: FactView) -> _Plan:
        """The plan for *view*'s relation sizes.  Only their dense rank
        steers the greedy order, so the rank is the cache key: raw
        counts would mint a plan per write."""
        if len(self.relations) == 1:
            return self._plan((0,))
        counts = tuple([view.count_tuples(r) for r in self.relations])
        last_counts, last_plan = self.last
        if counts == last_counts:  # sizes rarely move within one sweep
            return last_plan
        dense = {c: i for i, c in enumerate(sorted(set(counts)))}
        plan = self._plan(tuple([dense[c] for c in counts]))
        self.last = (counts, plan)
        return plan

    def _plan(self, rank_key: tuple[int, ...]) -> _Plan:
        plan = self.plans.get(rank_key)
        if plan is None:
            plan = self.plans.setdefault(
                rank_key, _Plan(self, dict(zip(self.relations, rank_key)))
            )
        return plan


#: query object -> its compiled form.  A side table, not an attribute,
#: so plans never ride along when a query is pickled to a worker.
_COMPILED: "WeakKeyDictionary[object, _Compiled]" = WeakKeyDictionary()

#: (query class, query text) -> compiled form, shared by equal query
#: objects.  The text spells every relation, term (constants by
#: ``repr``) and comparison in order, so equal text means equal plans.
#: Least recently used first; bounded by :data:`SHARED_LIMIT`.
_SHARED: OrderedDict[tuple[type, str], _Compiled] = OrderedDict()
_SHARED_LOCK = threading.Lock()

#: How many query texts keep their compiled forms for reuse.
SHARED_LIMIT = 256


def _compiled(query: ConjunctiveQuery | AggregateQuery) -> _Compiled:
    compiled = _COMPILED.get(query)
    if compiled is None:
        text = (type(query), str(query))
        with _SHARED_LOCK:
            compiled = _SHARED.get(text)
            if compiled is None:
                compiled = _SHARED[text] = _Compiled(query)
                if len(_SHARED) > SHARED_LIMIT:
                    _SHARED.popitem(last=False)
            else:
                _SHARED.move_to_end(text)
        _COMPILED[query] = compiled
    return compiled


def _start(
    query: ConjunctiveQuery | AggregateQuery, view: FactView
) -> tuple[_Plan, Registers, list, Iterator[None]]:
    """The plan for *view* and a search over it (empty when a
    variable-free check already fails)."""
    compiled = _compiled(query)
    passed = compiled.initial_checks(view)
    plan = compiled.plan_for(view)
    regs, matched, leaves = plan.start(view)
    return plan, regs, matched, leaves if passed else iter(())


def iter_matches(
    query: ConjunctiveQuery | AggregateQuery, state: Database | FactView
) -> Iterator[tuple[Assignment, Match]]:
    """Yield every satisfying assignment of the query body with the facts
    matched by its positive atoms.

    The match list is aligned with the order atoms were *expanded*, which
    may differ from their syntactic order; it always contains one
    ``(relation, tuple)`` entry per positive atom.
    """
    plan, regs, matched, leaves = _start(query, as_fact_view(state))
    for _ in leaves:
        yield dict(zip(plan.names, regs)), list(zip(plan.relations, matched))


def iter_assignments(
    query: ConjunctiveQuery | AggregateQuery, state: Database | FactView
) -> Iterator[Assignment]:
    """Yield every satisfying assignment of the query body."""
    for assignment, _ in iter_matches(query, state):
        yield assignment


def find_assignment(
    query: ConjunctiveQuery | AggregateQuery, state: Database | FactView
) -> Assignment | None:
    """Return one satisfying assignment of the body, or None."""
    for assignment in iter_assignments(query, state):
        return assignment
    return None


def _aggregate_value(func: str, values: list[tuple]) -> object:
    if func == "count":
        return len(values)
    if func == "cntd":
        return len(set(values))
    scalars = [v[0] for v in values]
    if func == "sum":
        return sum(scalars)
    if func == "max":
        return max(scalars)
    if func == "min":
        return min(scalars)
    raise QueryError(f"unknown aggregate function {func!r}")


def evaluate(
    query: ConjunctiveQuery | AggregateQuery, state: Database | FactView
) -> bool:
    """Evaluate a Boolean denial-constraint query over a state.

    Conjunctive queries return True iff a satisfying assignment exists.
    Aggregate queries collect the bag ``B = {{h(x̄)}}`` over all
    satisfying assignments and return ``α(B) θ c`` (False for empty
    ``B``, the paper's SQL-style choice).
    """
    plan, regs, _, leaves = _start(query, as_fact_view(state))
    if isinstance(query, ConjunctiveQuery):
        for _ in leaves:
            return True
        return False

    values: list[tuple] = []
    distinct: set[tuple] = set()
    for _ in leaves:
        row = plan.row(regs)
        values.append(row)
        distinct.add(row)
        # Early termination: count/cntd only ever grow, one per assignment,
        # so threshold crossings are definitive for every operator.
        if query.func == "count" and len(values) > _as_number(query.threshold):
            return query.op in (">", ">=", "!=")
        if query.func == "cntd" and len(distinct) > _as_number(query.threshold):
            return query.op in (">", ">=", "!=")
    if not values:
        return False
    result = _aggregate_value(query.func, values)
    final = Comparison(Constant(result), query.op, Constant(query.threshold))
    return final.holds(result, query.threshold)


def _as_number(value: object) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    return float("inf")
