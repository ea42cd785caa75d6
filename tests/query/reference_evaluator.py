"""Reference evaluator: the dynamic-planning search, kept as a test oracle.

This is the evaluator the compiled plans of :mod:`repro.query.evaluator`
replaced.  It re-plans at every backtracking node — greedy
most-bound-first, ties towards smaller relations, then syntactic order —
and checks comparisons and negated atoms as soon as their variables are
bound.  The differential suite (``test_compiled_evaluator.py``) requires
the compiled evaluator to yield the same ``(assignment, match)``
sequence, in the same order, and the same ``evaluate`` verdicts.  It is
not a runtime option.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import QueryError
from repro.query.ast import (
    AggregateQuery,
    Atom,
    Comparison,
    ConjunctiveQuery,
    Constant,
)
from repro.relational.checking import FactView, as_fact_view
from repro.relational.database import Database

#: A satisfying assignment: variable name -> ground value.
Assignment = dict[str, object]

#: The facts matched by the positive atoms, aligned with
#: ``query.positive_atoms``: a list of ``(relation, tuple)`` pairs.
Match = list[tuple[str, tuple]]


def _term_value(term, binding: Assignment):
    """Ground value of a term under *binding*; None marker via sentinel."""
    if isinstance(term, Constant):
        return term.value
    return binding.get(term.name, _UNBOUND)


class _Unbound:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unbound>"


_UNBOUND = _Unbound()


def _comparison_ready(comparison: Comparison, binding: Assignment) -> bool:
    return all(v.name in binding for v in comparison.variables)


def _comparison_holds(comparison: Comparison, binding: Assignment) -> bool:
    left = _term_value(comparison.left, binding)
    right = _term_value(comparison.right, binding)
    return comparison.holds(left, right)


def _atom_ready(atom: Atom, binding: Assignment) -> bool:
    return all(v.name in binding for v in atom.variables)


def _ground_atom(atom: Atom, binding: Assignment) -> tuple:
    return tuple(_term_value(t, binding) for t in atom.terms)


def _bound_positions(atom: Atom, binding: Assignment) -> tuple[tuple[int, ...], tuple]:
    """Positions of *atom* already determined by constants or bindings."""
    positions: list[int] = []
    key: list[object] = []
    for i, term in enumerate(atom.terms):
        value = _term_value(term, binding)
        if value is not _UNBOUND:
            positions.append(i)
            key.append(value)
    return tuple(positions), tuple(key)


def _match_atom(atom: Atom, values: tuple, binding: Assignment) -> Assignment | None:
    """Try to unify *atom* with ground tuple *values* under *binding*.

    Returns the dict of *new* bindings on success (possibly empty), or
    None when a constant or an already-bound/repeated variable clashes.
    """
    new: Assignment = {}
    for term, value in zip(atom.terms, values):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            bound = binding.get(term.name, _UNBOUND)
            if bound is _UNBOUND:
                prior = new.get(term.name, _UNBOUND)
                if prior is _UNBOUND:
                    new[term.name] = value
                elif prior != value:
                    return None
            elif bound != value:
                return None
    return new


def _checks_pass(
    body: ConjunctiveQuery,
    binding: Assignment,
    view: FactView,
    newly_bound: Iterable[str],
) -> bool:
    """Verify every comparison/negated atom that just became fully bound."""
    fresh = set(newly_bound)
    for comparison in body.comparisons:
        names = {v.name for v in comparison.variables}
        if (names & fresh or not names) and _comparison_ready(comparison, binding):
            if not _comparison_holds(comparison, binding):
                return False
    for atom in body.negated_atoms:
        names = {v.name for v in atom.variables}
        if (names & fresh or not names) and _atom_ready(atom, binding):
            if view.has_fact(atom.relation, _ground_atom(atom, binding)):
                return False
    return True


def _choose_atom(
    remaining: list[Atom], binding: Assignment, view: FactView
) -> tuple[int, tuple[int, ...], tuple]:
    """Pick the next positive atom to expand.

    Greedy heuristic: maximize the number of bound positions (more bound
    positions means a tighter index probe); break ties towards smaller
    relations.  Returns (index into remaining, bound positions, key).
    """
    best = None
    for i, atom in enumerate(remaining):
        positions, key = _bound_positions(atom, binding)
        score = (len(positions), -view.count_tuples(atom.relation))
        if best is None or score > best[0]:
            best = (score, i, positions, key)
    assert best is not None
    return best[1], best[2], best[3]


def _search(
    body: ConjunctiveQuery,
    remaining: list[Atom],
    binding: Assignment,
    matched: Match,
    view: FactView,
) -> Iterator[tuple[Assignment, Match]]:
    if not remaining:
        yield dict(binding), list(matched)
        return
    index, positions, key = _choose_atom(remaining, binding, view)
    atom = remaining[index]
    rest = remaining[:index] + remaining[index + 1 :]
    candidates = (
        view.lookup(atom.relation, positions, key)
        if positions
        else view.iter_tuples(atom.relation)
    )
    for values in candidates:
        new = _match_atom(atom, values, binding)
        if new is None:
            continue
        binding.update(new)
        matched.append((atom.relation, values))
        if _checks_pass(body, binding, view, new):
            yield from _search(body, rest, binding, matched, view)
        matched.pop()
        for name in new:
            del binding[name]


def _initial_checks(body: ConjunctiveQuery, view: FactView) -> bool:
    """Handle variable-free comparisons and negated atoms up front."""
    binding: Assignment = {}
    for comparison in body.comparisons:
        if not comparison.variables and not _comparison_holds(comparison, binding):
            return False
    for atom in body.negated_atoms:
        if not atom.variables and view.has_fact(
            atom.relation, _ground_atom(atom, binding)
        ):
            return False
    return True


def iter_matches(
    query: ConjunctiveQuery | AggregateQuery, state: Database | FactView
) -> Iterator[tuple[Assignment, Match]]:
    """Yield every satisfying assignment of the query body with the facts
    matched by its positive atoms.

    The match list is aligned with the order atoms were *expanded*, which
    may differ from their syntactic order; it always contains one
    ``(relation, tuple)`` entry per positive atom.
    """
    view = as_fact_view(state)
    body = query.body if isinstance(query, AggregateQuery) else query
    if not _initial_checks(body, view):
        return
    yield from _search(body, list(body.positive_atoms), {}, [], view)


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
    if isinstance(query, ConjunctiveQuery):
        for _ in iter_matches(query, state):
            return True
        return False

    values: list[tuple] = []
    distinct: set[tuple] = set()
    for assignment, _ in iter_matches(query, state):
        row = tuple(
            term.value if isinstance(term, Constant) else assignment[term.name]
            for term in query.agg_terms
        )
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
