"""Compile denial constraints to SQL (the Postgres-style path).

A denial constraint compiles to one *world-correlated* statement.  The
paper marks the tuples of the world under consideration with a Boolean
``current`` column; here that column is derived per candidate world
instead of stored, from two caller-bound CTEs (see :func:`bind_worlds`):

* ``__repro_world_ids(world_id)`` — one row per candidate world;
* ``__repro_worlds(world_id, tx)`` — that world's active-set members —

and every positive or negated atom is guarded by "committed, or pending
in *this* row's world".  One statement answers a whole batch of worlds
(a single world being the batch of one) without writing to the
database.

Conjunctive queries return the ids of violating worlds: ``SELECT
world_id ... WHERE EXISTS(<join of the positive atoms>)``, with
``NOT EXISTS`` subqueries for negated atoms and comparison predicates
inlined.  Aggregate queries return the set ``H`` of satisfying
assignments of every world, each row prefixed by its world id; the
aggregate itself is computed by the backend in Python, which keeps the
bag semantics (including the empty-bag-is-false rule) in exactly one
place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import QueryError
from repro.query.ast import (
    AggregateQuery,
    Atom,
    Comparison,
    ConjunctiveQuery,
    Constant,
    Variable,
)
from repro.relational.schema import Schema

_OP_SQL = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: CTE names the world-correlated compilation references; the backend
#: binds them with a ``WITH ... AS (VALUES ...)`` prologue per batch.
WORLDS_CTE = "__repro_worlds"
WORLD_IDS_CTE = "__repro_world_ids"
#: Alias of the ``WORLD_IDS_CTE`` row the statement is correlated on.
WORLD_ALIAS = "wi"


def quote_identifier(name: str) -> str:
    """Quote an SQL identifier (relation or attribute name)."""
    return '"' + name.replace('"', '""') + '"'


@dataclass
class CompiledQuery:
    """A compiled denial constraint.

    ``kind`` is ``"exists"`` (the statement returns the id of every
    world whose body is non-empty) or ``"rows"`` (aggregate; one row per
    world and satisfying assignment: the world id, then the columns
    ordered as ``var_order``).
    """

    sql: str
    params: list = field(default_factory=list)
    kind: str = "exists"
    var_order: tuple[str, ...] = ()


class _Compilation:
    def __init__(self, schema: Schema):
        self.schema = schema
        self.conditions: list[str] = []
        self.params: list = []
        self.var_expr: dict[str, str] = {}
        self.from_items: list[str] = []
        self._alias_count = 0

    def _fresh_alias(self) -> str:
        alias = f"t{self._alias_count}"
        self._alias_count += 1
        return alias

    def _column(self, relation: str, position: int) -> str:
        attrs = self.schema[relation].attribute_names
        return quote_identifier(attrs[position])

    def _membership_guard(self, alias: str) -> str:
        """The per-row "belongs to the world under consideration" test.

        The paper's ``current`` column, derived per candidate world: a
        row is in a world when it is committed (``_tx = ''``) or its
        pending transaction is among that world's active set.
        """
        return (
            f"({alias}._tx = '' OR EXISTS (SELECT 1 FROM "
            f"{quote_identifier(WORLDS_CTE)} __w WHERE "
            f"__w.world_id = {WORLD_ALIAS}.world_id "
            f"AND __w.tx = {alias}._tx))"
        )

    def add_positive_atom(self, atom: Atom) -> None:
        alias = self._fresh_alias()
        self.from_items.append(f"{quote_identifier(atom.relation)} {alias}")
        self.conditions.append(self._membership_guard(alias))
        for position, term in enumerate(atom.terms):
            column = f"{alias}.{self._column(atom.relation, position)}"
            if isinstance(term, Constant):
                self.conditions.append(f"{column} = ?")
                self.params.append(term.value)
            else:
                bound = self.var_expr.get(term.name)
                if bound is None:
                    self.var_expr[term.name] = column
                else:
                    self.conditions.append(f"{column} = {bound}")

    def term_sql(self, term) -> str:
        if isinstance(term, Constant):
            self.params.append(term.value)
            return "?"
        expr = self.var_expr.get(term.name)
        if expr is None:
            raise QueryError(
                f"variable {term.name!r} is not bound by a positive atom"
            )
        return expr

    def add_comparison(self, comparison: Comparison) -> None:
        left = self.term_sql(comparison.left)
        op = _OP_SQL[comparison.op]
        right = self.term_sql(comparison.right)
        self.conditions.append(f"{left} {op} {right}")

    def add_negated_atom(self, atom: Atom) -> None:
        alias = self._fresh_alias()
        inner: list[str] = [self._membership_guard(alias)]
        for position, term in enumerate(atom.terms):
            column = f"{alias}.{self._column(atom.relation, position)}"
            inner.append(f"{column} = {self.term_sql(term)}")
        table = quote_identifier(atom.relation)
        self.conditions.append(
            f"NOT EXISTS (SELECT 1 FROM {table} {alias} WHERE "
            + " AND ".join(inner)
            + ")"
        )


def _compile_body(body: ConjunctiveQuery, schema: Schema) -> _Compilation:
    compilation = _Compilation(schema)
    for atom in body.positive_atoms:
        compilation.add_positive_atom(atom)
    for comparison in body.comparisons:
        compilation.add_comparison(comparison)
    for atom in body.negated_atoms:
        compilation.add_negated_atom(atom)
    return compilation


def compile_query_worlds(
    query: ConjunctiveQuery | AggregateQuery, schema: Schema
) -> CompiledQuery:
    """Compile a denial constraint against *schema*.

    The statement references the :data:`WORLD_IDS_CTE` /
    :data:`WORLDS_CTE` tables (the caller prepends the ``WITH``
    prologue :func:`bind_worlds` builds) and answers every candidate
    world in one round trip:

    * ``kind="exists"`` — one row per **violating** world:
      ``SELECT wi.world_id ... WHERE EXISTS(<body>)``;
    * ``kind="rows"`` — the satisfying assignments of every world at
      once, each row prefixed by its ``world_id`` (the backend groups
      them and applies the aggregate per world in Python).
    """
    body = query.body if isinstance(query, AggregateQuery) else query
    compilation = _compile_body(body, schema)
    from_clause = ", ".join(compilation.from_items)
    where_clause = " AND ".join(compilation.conditions) or "1"
    ids_table = f"{quote_identifier(WORLD_IDS_CTE)} {WORLD_ALIAS}"

    variables = (
        sorted(compilation.var_expr)
        if isinstance(query, AggregateQuery)
        else []
    )
    if not variables:
        # Conjunctive, or a variable-free aggregate body: per world the
        # answer is Boolean, so return the ids of worlds whose body is
        # non-empty.
        sql = (
            f"SELECT {WORLD_ALIAS}.world_id FROM {ids_table} "
            f"WHERE EXISTS(SELECT 1 FROM {from_clause} WHERE {where_clause})"
        )
        return CompiledQuery(sql=sql, params=compilation.params, kind="exists")

    select_list = ", ".join(
        f"{compilation.var_expr[name]} AS {quote_identifier(name)}"
        for name in variables
    )
    sql = (
        f"SELECT DISTINCT {WORLD_ALIAS}.world_id, {select_list} "
        f"FROM {ids_table}, {from_clause} WHERE {where_clause}"
    )
    return CompiledQuery(
        sql=sql,
        params=compilation.params,
        kind="rows",
        var_order=tuple(variables),
    )


def bind_worlds(
    compiled: CompiledQuery, worlds: Sequence[frozenset[str]], first_id: int = 0
) -> tuple[str, list]:
    """The executable ``(sql, params)`` of *compiled* over *worlds*.

    Prepends the ``WITH`` prologue binding the two world CTEs.  World
    ``i`` gets id ``first_id + i``; ids are inlined as integer literals,
    and every member of every world is bound as one host parameter.
    """
    members: list[str] = []
    member_rows: list[str] = []
    for offset, world in enumerate(worlds):
        row = f"({first_id + offset}, ?)"
        member_rows.extend(row for _ in world)
        members.extend(world)
    if member_rows:
        worlds_body = f"VALUES {', '.join(member_rows)}"
    else:
        # VALUES cannot be empty; bind a zero-row relation instead.
        worlds_body = "SELECT -1, '' WHERE 0"
    ids = ", ".join(f"({first_id + offset})" for offset in range(len(worlds)))
    sql = (
        f"WITH {quote_identifier(WORLDS_CTE)}(world_id, tx) AS ({worlds_body}), "
        f"{quote_identifier(WORLD_IDS_CTE)}(world_id) AS (VALUES {ids}) "
        f"{compiled.sql}"
    )
    return sql, [*members, *compiled.params]
