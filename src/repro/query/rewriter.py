"""Query normalization: cheap rewrites before the solvers run.

Denial constraints are often machine-generated (templates instantiated
per address), so they accumulate redundancy.  The rewriter applies
semantics-preserving simplifications:

* drop duplicate atoms and duplicate comparisons;
* fold comparisons between constants (``3 < 5`` disappears; ``3 > 5``
  makes the query **unsatisfiable**);
* fold reflexive comparisons (``x = x`` disappears; ``x != x``, ``x < x``
  make the query unsatisfiable);
* substitute variables equated to constants (``x = 5`` binds ``x``),
  which both shrinks the query and exposes constants to OptDCSat's
  ``Covers`` pruning.

:func:`normalize` returns ``(query, verdict)`` where verdict
``UNSATISFIABLE`` means the query can never hold — its denial constraint
is satisfied over *any* database, no data access needed.
"""

from __future__ import annotations

import enum

from repro.errors import QueryError
from repro.query.ast import (
    AggregateQuery,
    Atom,
    Comparison,
    ConjunctiveQuery,
    Constant,
    Term,
    Variable,
)


class Verdict(enum.Enum):
    """Outcome of normalization."""

    NORMAL = "normal"
    UNSATISFIABLE = "unsatisfiable"


def _substitution_from_equalities(
    comparisons: tuple[Comparison, ...]
) -> tuple[dict[str, Constant] | None, list[Comparison]]:
    """Extract var = const bindings; detect contradictions.

    Returns ``(bindings, remaining comparisons)``; ``bindings`` is None
    when two different constants are forced onto one variable.
    """
    bindings: dict[str, Constant] = {}
    rest: list[Comparison] = []
    for comparison in comparisons:
        if comparison.op != "=":
            rest.append(comparison)
            continue
        left, right = comparison.left, comparison.right
        if isinstance(left, Variable) and isinstance(right, Constant):
            var, const = left, right
        elif isinstance(right, Variable) and isinstance(left, Constant):
            var, const = right, left
        else:
            rest.append(comparison)
            continue
        bound = bindings.get(var.name)
        if bound is not None and bound.value != const.value:
            return None, []
        bindings[var.name] = const
    return bindings, rest


def _apply_bindings(term: Term, bindings: dict[str, Constant]) -> Term:
    if isinstance(term, Variable) and term.name in bindings:
        return bindings[term.name]
    return term


def normalize(
    query: ConjunctiveQuery | AggregateQuery,
) -> tuple[ConjunctiveQuery | AggregateQuery, Verdict]:
    """Simplify *query*; report unsatisfiability when provable.

    The returned query is equivalent to the input on every database
    (unless the verdict is UNSATISFIABLE, in which case the input never
    holds and the returned query is the input, untouched).
    """
    body = query.body if isinstance(query, AggregateQuery) else query

    bindings, comparisons = _substitution_from_equalities(body.comparisons)
    if bindings is None:
        return query, Verdict.UNSATISFIABLE

    # Substitute bindings into atoms and comparisons.
    if bindings:
        atoms = [
            Atom(
                atom.relation,
                tuple(_apply_bindings(t, bindings) for t in atom.terms),
                negated=atom.negated,
            )
            for atom in body.atoms
        ]
        comparisons = [
            Comparison(
                _apply_bindings(c.left, bindings),
                c.op,
                _apply_bindings(c.right, bindings),
            )
            for c in comparisons
        ]
    else:
        atoms = list(body.atoms)

    kept_comparisons: list[Comparison] = []
    for comparison in comparisons:
        left, right = comparison.left, comparison.right
        if isinstance(left, Constant) and isinstance(right, Constant):
            if comparison.holds(left.value, right.value):
                continue  # trivially true: drop
            return query, Verdict.UNSATISFIABLE
        if left == right:
            # x op x: '=', '<=', '>=' hold; '<', '>', '!=' never do.
            if comparison.op in ("=", "<=", ">="):
                continue
            return query, Verdict.UNSATISFIABLE
        kept_comparisons.append(comparison)

    # A positive and a negated copy of the same atom: unsatisfiable.
    positive = {a.relation: set() for a in atoms}
    for atom in atoms:
        if not atom.negated:
            positive.setdefault(atom.relation, set()).add(atom.terms)
    for atom in atoms:
        if atom.negated and atom.terms in positive.get(atom.relation, set()):
            return query, Verdict.UNSATISFIABLE

    # Deduplicate while preserving order.
    seen_atoms: set[tuple] = set()
    unique_atoms: list[Atom] = []
    for atom in atoms:
        key = (atom.relation, atom.terms, atom.negated)
        if key not in seen_atoms:
            seen_atoms.add(key)
            unique_atoms.append(atom)
    seen_comparisons: set[tuple] = set()
    unique_comparisons: list[Comparison] = []
    for comparison in kept_comparisons:
        key = (comparison.left, comparison.op, comparison.right)
        if key not in seen_comparisons:
            seen_comparisons.add(key)
            unique_comparisons.append(comparison)

    if (
        not bindings
        and len(unique_atoms) == len(body.atoms)
        and len(unique_comparisons) == len(body.comparisons)
    ):
        # Nothing to simplify: the rebuilt query would equal the input.
        return query, Verdict.NORMAL

    try:
        new_body = ConjunctiveQuery(
            unique_atoms, unique_comparisons, name=body.name
        )
    except QueryError:
        # Substitution can only *remove* variables from positive atoms
        # when it removes them everywhere, but guard anyway: fall back to
        # the original query rather than produce an unsafe one.
        return query, Verdict.NORMAL

    if isinstance(query, AggregateQuery):
        agg_terms = tuple(
            _apply_bindings(term, bindings) for term in query.agg_terms
        )
        try:
            rewritten = AggregateQuery(
                query.func,
                agg_terms,
                new_body.atoms,
                query.op,
                query.threshold,
                new_body.comparisons,
                name=query.name,
            )
        except QueryError:
            return query, Verdict.NORMAL
        return rewritten, Verdict.NORMAL
    return new_body, Verdict.NORMAL
