"""Structural analysis of denial constraints.

Provides the ingredients of Section 6:

* *monotonicity* — NaiveDCSat/OptDCSat may restrict attention to maximal
  possible worlds only for monotone queries;
* *connectivity* — OptDCSat additionally requires the query's Gaifman
  graph to be connected;
* *equality constraints* — Θ_q (derived from pairs of positive atoms
  sharing terms) and Θ_I (derived from inclusion dependencies), the edge
  generators of the ind-q-transaction graph;
* *constant patterns* — the per-atom constant positions behind the
  ``Covers(R, T', q)`` pruning test.

:func:`compile_constraint` bundles them into a
:class:`CompiledConstraint`, so a standing constraint is analysed once
instead of on every check.

Reproduction note: the paper derives Θ_q from shared *variables* only,
while its Gaifman graph is over *terms*.  We follow the Gaifman-graph
reading and also pair positions holding equal constants — without this,
a query whose atoms touch only through a shared constant could be split
across components and OptDCSat would miss violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.query.ast import (
    AggregateQuery,
    Atom,
    ConjunctiveQuery,
    Constant,
    Term,
    Variable,
)
from repro.query.rewriter import Verdict, normalize
from repro.relational.constraints import ConstraintSet


class _UnionFind:
    """Tiny union-find over hashable items."""

    def __init__(self):
        self._parent: dict[object, object] = {}

    def find(self, item: object) -> object:
        parent = self._parent.setdefault(item, item)
        if parent is item or parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


def _canonical_keys(query: ConjunctiveQuery) -> dict[Term, object]:
    """Map every term occurring in the query to a canonical key.

    Variables linked by ``=`` comparisons share a key; a variable equated
    to a constant adopts the constant's key; equal constants share a key.
    """
    uf = _UnionFind()

    def key_of(term: Term) -> object:
        if isinstance(term, Variable):
            return ("var", term.name)
        return ("const", term.value)

    terms: set[Term] = set()
    for atom in query.atoms:
        terms.update(atom.terms)
    for comparison in query.comparisons:
        terms.add(comparison.left)
        terms.add(comparison.right)
        if comparison.op == "=":
            uf.union(key_of(comparison.left), key_of(comparison.right))
    return {t: uf.find(key_of(t)) for t in terms}


def is_connected(query: ConjunctiveQuery | AggregateQuery) -> bool:
    """Is the query conjunctive with a connected Gaifman graph?

    The Gaifman graph's nodes are the terms of the relational atoms, with
    an edge between terms co-occurring in an atom; ``=`` comparisons merge
    terms.  Aggregate queries are never *connected* in the paper's sense
    (the definition requires a conjunctive query).
    """
    if isinstance(query, AggregateQuery):
        return False
    canon = _canonical_keys(query)
    uf = _UnionFind()
    roots = []
    for atom in query.atoms:
        keys = [canon[t] for t in atom.terms]
        for other in keys[1:]:
            uf.union(keys[0], other)
        roots.append(keys[0])
    return len({uf.find(r) for r in roots}) <= 1


def is_monotone(
    query: ConjunctiveQuery | AggregateQuery, assume_nonnegative: bool = False
) -> bool:
    """Conservatively decide whether the query is monotone.

    A query is monotone when ``R ⊆ R'`` and ``q(R)`` imply ``q(R')``
    (Section 6.1).  Positive conjunctive queries are monotone; negation
    breaks monotonicity.  For aggregates over a positive body:

    * ``count``/``cntd`` with ``>``/``>=`` — monotone (assignments only
      accumulate);
    * ``max`` with ``>``/``>=`` and ``min`` with ``<``/``<=`` — monotone;
    * ``sum`` with ``>``/``>=`` — monotone only when all aggregated
      values are non-negative, which cannot be checked statically; pass
      ``assume_nonnegative=True`` to vouch for it (Bitcoin amounts are).

    Everything else is reported non-monotone.
    """
    if isinstance(query, ConjunctiveQuery):
        return query.is_positive
    if not query.is_positive:
        return False
    grows = query.op in (">", ">=")
    if query.func in ("count", "cntd"):
        return grows
    if query.func == "max":
        return grows
    if query.func == "min":
        return query.op in ("<", "<=")
    if query.func == "sum":
        return grows and assume_nonnegative
    return False


@dataclass(frozen=True)
class EqualityConstraint:
    """``left[left_positions] = right[right_positions]`` over tuple pairs.

    Satisfied by tuples ``t`` (of relation *left*) and ``s`` (of relation
    *right*) when their projections agree; satisfied by a pair of
    transactions when some pair of their tuples satisfies it, in either
    orientation.
    """

    left: str
    left_positions: tuple[int, ...]
    right: str
    right_positions: tuple[int, ...]

    def __post_init__(self):
        if len(self.left_positions) != len(self.right_positions):
            raise ValueError("equality constraint sides must have equal width")

    def __str__(self) -> str:
        return (
            f"{self.left}[{','.join(map(str, self.left_positions))}] = "
            f"{self.right}[{','.join(map(str, self.right_positions))}]"
        )


def equality_constraints_from_query(
    query: ConjunctiveQuery | AggregateQuery,
) -> frozenset[EqualityConstraint]:
    """Derive Θ_q: one constraint per pair of positive atoms sharing terms.

    For atoms ``R(x̄)`` and ``S(ȳ)``, the constraint pairs every position
    of ``x̄`` with every position of ``ȳ`` holding the same canonical
    term (identical variable, variables equated by comparisons, or equal
    constants).  Requiring *all* such position pairs simultaneously is
    sound: a single satisfying assignment grounds each shared term to one
    value, so any tuple pair it produces satisfies them all at once.
    """
    body = query.body if isinstance(query, AggregateQuery) else query
    canon = _canonical_keys(body)
    atoms = body.positive_atoms
    constraints: set[EqualityConstraint] = set()
    for i, a in enumerate(atoms):
        for b in atoms[i + 1 :]:
            left_positions: list[int] = []
            right_positions: list[int] = []
            for pa, ta in enumerate(a.terms):
                for pb, tb in enumerate(b.terms):
                    if canon[ta] == canon[tb]:
                        left_positions.append(pa)
                        right_positions.append(pb)
            if left_positions:
                constraints.add(
                    EqualityConstraint(
                        a.relation,
                        tuple(left_positions),
                        b.relation,
                        tuple(right_positions),
                    )
                )
    return frozenset(constraints)


def equality_constraints_from_inds(
    constraints: ConstraintSet,
) -> frozenset[EqualityConstraint]:
    """Derive Θ_I: each inclusion dependency ``R[X] ⊆ S[Y]`` contributes
    the equality constraint ``R[X] = S[Y]``."""
    out: set[EqualityConstraint] = set()
    for rind in (r for rel in constraints.schema.relation_names for r in constraints.inds_for_child(rel)):
        out.add(
            EqualityConstraint(
                rind.ind.child,
                rind.child_positions,
                rind.ind.parent,
                rind.parent_positions,
            )
        )
    return frozenset(out)


@dataclass(frozen=True)
class ConstantPattern:
    """The constants of one atom: ``relation[positions] = values``."""

    relation: str
    positions: tuple[int, ...]
    values: tuple


def constant_patterns(
    query: ConjunctiveQuery | AggregateQuery,
) -> tuple[ConstantPattern, ...]:
    """The constant patterns of every positive atom carrying constants.

    These drive the ``Covers(R, T', q)`` test of OptDCSat: a component is
    worth exploring only if, together with the current state, it provides
    a tuple matching each pattern.
    """
    body = query.body if isinstance(query, AggregateQuery) else query
    patterns: list[ConstantPattern] = []
    for atom in body.positive_atoms:
        pairs = atom.constant_positions()
        if pairs:
            positions = tuple(p for p, _ in pairs)
            values = tuple(v for _, v in pairs)
            patterns.append(ConstantPattern(atom.relation, positions, values))
    return tuple(patterns)


class CompiledConstraint:
    """A denial constraint's query with its analyses done once.

    ``query`` is the normalized query (the input itself when compiled
    without normalization) and ``unsatisfiable`` the rewriter's verdict
    that it can never hold.  The analyses are computed on first use and
    then kept: a standing constraint pays for each at most once, and a
    one-shot check pays only for the ones its algorithm reads.
    """

    def __init__(
        self,
        query: ConjunctiveQuery | AggregateQuery,
        unsatisfiable: bool = False,
        assume_nonnegative_sums: bool = False,
    ):
        self.query = query
        self.unsatisfiable = unsatisfiable
        self.assume_nonnegative_sums = assume_nonnegative_sums

    @cached_property
    def monotone(self) -> bool:
        return is_monotone(self.query, self.assume_nonnegative_sums)

    @cached_property
    def connected(self) -> bool:
        return is_connected(self.query)

    @cached_property
    def equalities(self) -> frozenset[EqualityConstraint]:
        """Θ_q, which also names the constraint's component partition."""
        return equality_constraints_from_query(self.query)

    @cached_property
    def patterns(self) -> tuple[ConstantPattern, ...]:
        return constant_patterns(self.query)


def compile_constraint(
    query: ConjunctiveQuery | AggregateQuery | CompiledConstraint,
    normalize_query: bool = True,
    assume_nonnegative_sums: bool = False,
) -> CompiledConstraint:
    """The compiled form of *query*; a compiled input is returned as is."""
    if isinstance(query, CompiledConstraint):
        return query
    unsatisfiable = False
    if normalize_query:
        query, verdict = normalize(query)
        unsatisfiable = verdict is Verdict.UNSATISFIABLE
    return CompiledConstraint(query, unsatisfiable, assume_nonnegative_sums)
