"""SQLite backend: the paper's Postgres architecture on the stdlib engine.

Each relation becomes a table with its attribute columns plus ``_tx``,
the provenance: ``''`` for committed tuples, else the pending
transaction id.

The paper selects a possible world by flipping a Boolean ``current``
column and evaluates each denial constraint over the flagged tuples.
Here the ``current`` test is derived per world inside the statement
itself: every query compiles once to a world-correlated statement
(:mod:`repro.storage.sql_compiler`) whose bound active-set CTE says
which pending transactions each candidate world holds.  Evaluating a
world, or a whole batch of worlds in one round trip, therefore never
writes to the database; the tables change only when transactions are
issued, committed or forgotten.
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING, Sequence

from repro.errors import StorageError
from repro.query.ast import AggregateQuery, ConjunctiveQuery, Constant
from repro.storage.sql_compiler import (
    CompiledQuery,
    bind_worlds,
    compile_query_worlds,
    quote_identifier,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.workspace import Workspace
    from repro.relational.transaction import Transaction

_TYPE_AFFINITY = {int: "INTEGER", float: "REAL", str: "TEXT", bytes: "BLOB", bool: "INTEGER"}

#: World members bound as host parameters per round trip.  Far below
#: sqlite's historical limit of 999 (which leaves room for the query's
#: own constants), and low on purpose: a chunk of small worlds shares a
#: statement, while a large world, whose evaluation dwarfs a round trip,
#: goes out alone.  A world with more members than this is never split.
_PARAM_BUDGET = 128


class SqliteBackend:
    """Stores the workspace in sqlite and evaluates compiled SQL."""

    multi_world = True

    def __init__(self, path: str = ":memory:", create_indexes: bool = True):
        self._path = path
        self._create_indexes = create_indexes
        self._conn: sqlite3.Connection | None = None
        self._workspace: "Workspace | None" = None
        # Keyed by the query's textual form: id()-based keys are unsafe
        # (CPython recycles addresses of collected query objects, which
        # would hand a later query a stale compiled plan).
        self._compiled: dict[str, CompiledQuery] = {}
        #: SELECT round trips issued for world evaluation — one per
        #: :meth:`evaluate` call, one per :meth:`evaluate_many` chunk.
        self.eval_roundtrips = 0

    @property
    def member_budget(self) -> int:
        """World members one round trip binds (the engine's chunk bound)."""
        return _PARAM_BUDGET

    # ------------------------------------------------------------------
    # Attachment / loading

    def attach(self, workspace: "Workspace") -> None:
        self._workspace = workspace
        # The service attaches on the main thread and evaluates on its
        # solver thread (one op at a time, never concurrently), so the
        # connection must be shareable across threads.
        self._conn = sqlite3.connect(self._path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode = MEMORY")
        self._conn.execute("PRAGMA synchronous = OFF")
        self._create_schema()
        self._bulk_load()

    def _require(self) -> tuple[sqlite3.Connection, "Workspace"]:
        if self._conn is None or self._workspace is None:
            raise StorageError("sqlite backend is not attached to a workspace")
        return self._conn, self._workspace

    def _create_schema(self) -> None:
        conn, workspace = self._require()
        for rel_schema in workspace.base.schema:
            columns = []
            for attr in rel_schema.attributes:
                affinity = _TYPE_AFFINITY.get(attr.dtype, "")
                columns.append(
                    f"{quote_identifier(attr.name)} {affinity}".rstrip()
                )
            columns.append("_tx TEXT NOT NULL DEFAULT ''")
            column_names = ", ".join(
                quote_identifier(a.name) for a in rel_schema.attributes
            )
            table = quote_identifier(rel_schema.name)
            conn.execute(
                f"CREATE TABLE {table} ({', '.join(columns)}, "
                f"UNIQUE ({column_names}, _tx))"
            )
            conn.execute(
                f"CREATE INDEX {quote_identifier('idx_' + rel_schema.name + '_tx')} "
                f"ON {table} (_tx)"
            )
            if self._create_indexes:
                for attr in rel_schema.attributes:
                    conn.execute(
                        f"CREATE INDEX "
                        f"{quote_identifier(f'idx_{rel_schema.name}_{attr.name}')} "
                        f"ON {table} ({quote_identifier(attr.name)})"
                    )
        conn.commit()

    def _insert_rows(self, relation: str, rows: list[tuple]) -> None:
        conn, workspace = self._require()
        arity = workspace.base[relation].schema.arity
        placeholders = ", ".join("?" for _ in range(arity + 1))
        conn.executemany(
            f"INSERT OR IGNORE INTO {quote_identifier(relation)} "
            f"VALUES ({placeholders})",
            rows,
        )

    def _bulk_load(self) -> None:
        conn, workspace = self._require()
        for rel in workspace.base:
            rows = [values + ("",) for values in rel]
            if rows:
                self._insert_rows(rel.name, rows)
        for tx in workspace.db.pending:
            self._load_transaction(tx)
        conn.commit()

    def _load_transaction(self, tx: "Transaction") -> None:
        by_relation: dict[str, list[tuple]] = {}
        for rel, values in tx:
            by_relation.setdefault(rel, []).append(values + (tx.tx_id,))
        for rel, rows in by_relation.items():
            self._insert_rows(rel, rows)

    # ------------------------------------------------------------------
    # Steady-state maintenance

    def on_issue(self, tx: "Transaction") -> None:
        conn, _ = self._require()
        self._load_transaction(tx)
        conn.commit()

    def on_commit(self, tx: "Transaction") -> None:
        conn, workspace = self._require()
        for rel in tx.relation_names:
            table = quote_identifier(rel)
            conn.execute(f"DELETE FROM {table} WHERE _tx = ?", (tx.tx_id,))
            rows = [values + ("",) for values in tx.tuples(rel)]
            self._insert_rows(rel, rows)
        conn.commit()

    def on_forget(self, tx: "Transaction") -> None:
        conn, _ = self._require()
        for rel in tx.relation_names:
            conn.execute(
                f"DELETE FROM {quote_identifier(rel)} WHERE _tx = ?", (tx.tx_id,)
            )
        conn.commit()

    # ------------------------------------------------------------------
    # Evaluation

    def _compiled_query(
        self, query: ConjunctiveQuery | AggregateQuery
    ) -> CompiledQuery:
        _, workspace = self._require()
        key = f"{type(query).__name__}:{query}"
        compiled = self._compiled.get(key)
        if compiled is None:
            compiled = compile_query_worlds(query, workspace.base.schema)
            self._compiled[key] = compiled
        return compiled

    def evaluate(
        self,
        query: ConjunctiveQuery | AggregateQuery,
        active: frozenset[str],
    ) -> bool:
        """Answer one world: the world-correlated statement over a
        batch of one."""
        return self.evaluate_many(query, (active,))[0]

    def evaluate_many(
        self,
        query: ConjunctiveQuery | AggregateQuery,
        actives: Sequence[frozenset[str]],
    ) -> list[bool]:
        """Answer a whole batch of worlds in one SQL round trip.

        The batch's active-sets are bound as ``VALUES`` CTEs and the
        query's world-correlated statement answers every world at once.
        Batches with more members than :data:`_PARAM_BUDGET` are split
        into several round trips.
        """
        actives = list(actives)
        if not actives:
            return []
        compiled = self._compiled_query(query)
        results = [False] * len(actives)
        start = 0
        while start < len(actives):
            end = start + 1
            budget = len(actives[start])
            while end < len(actives):
                budget += len(actives[end])
                if budget > _PARAM_BUDGET:
                    break
                end += 1
            self._evaluate_world_chunk(query, compiled, actives, start, end, results)
            start = end
        return results

    def _evaluate_world_chunk(
        self,
        query: ConjunctiveQuery | AggregateQuery,
        compiled: CompiledQuery,
        actives: list[frozenset[str]],
        start: int,
        end: int,
        results: list[bool],
    ) -> None:
        conn, _ = self._require()
        sql, params = bind_worlds(compiled, actives[start:end], first_id=start)
        self.eval_roundtrips += 1
        cursor = conn.execute(sql, params)
        if compiled.kind == "exists":
            violating = {row[0] for row in cursor.fetchall()}
            if isinstance(query, ConjunctiveQuery):
                for world_id in violating:
                    results[world_id] = True
            elif violating:
                # Variable-free aggregate body: every non-empty world
                # holds the same single constant row.
                verdict = self._aggregate_over(query, [{}])
                for world_id in violating:
                    results[world_id] = verdict
            return
        by_world: dict[int, list[dict[str, object]]] = {}
        for row in cursor.fetchall():
            by_world.setdefault(row[0], []).append(
                dict(zip(compiled.var_order, row[1:]))
            )
        for world_id, assignments in by_world.items():
            results[world_id] = self._aggregate_over(query, assignments)

    def _aggregate_over(
        self, query: AggregateQuery, assignments: list[dict[str, object]]
    ) -> bool:
        from repro.query.evaluator import _aggregate_value

        values = [
            tuple(
                term.value if isinstance(term, Constant) else assignment[term.name]
                for term in query.agg_terms
            )
            for assignment in assignments
        ]
        if not values:
            return False
        result = _aggregate_value(query.func, values)
        from repro.query.ast import Comparison

        return Comparison(
            Constant(result), query.op, Constant(query.threshold)
        ).holds(result, query.threshold)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self._workspace = None
        self._compiled.clear()
