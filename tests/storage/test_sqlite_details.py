"""SQLite backend internals: DDL, type affinity, provenance bookkeeping."""

import pytest

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.workspace import Workspace
from repro.query.parser import parse_query
from repro.relational.constraints import ConstraintSet, Key
from repro.relational.database import Database
from repro.relational.schema import Attribute, RelationSchema, Schema
from repro.relational.transaction import Transaction
from repro.storage.sqlite_backend import SqliteBackend


def _typed_db() -> BlockchainDatabase:
    schema = Schema(
        [
            RelationSchema(
                "Mixed",
                [
                    Attribute("name", str),
                    Attribute("count", int),
                    Attribute("ratio", float),
                    Attribute("flag", bool),
                ],
            )
        ]
    )
    constraints = ConstraintSet(schema, [Key("Mixed", ["name"], schema)])
    current = Database.from_dict(
        schema, {"Mixed": [("alpha", 3, 0.5, True), ("beta", 0, 2.0, False)]}
    )
    pending = [
        Transaction({"Mixed": [("gamma", 7, 1.25, True)]}, tx_id="M1"),
    ]
    return BlockchainDatabase(current, constraints, pending)


@pytest.fixture
def backend():
    db = _typed_db()
    workspace = Workspace(db)
    backend = SqliteBackend()
    backend.attach(workspace)
    yield backend, workspace
    backend.close()


class TestTypes:
    def test_ddl_affinities(self, backend):
        sqlite_backend, _ = backend
        conn = sqlite_backend._conn
        columns = {
            row[1]: row[2]
            for row in conn.execute('PRAGMA table_info("Mixed")')
        }
        assert columns["name"] == "TEXT"
        assert columns["count"] == "INTEGER"
        assert columns["ratio"] == "REAL"
        assert columns["flag"] == "INTEGER"
        assert columns["_tx"] == "TEXT"
        assert "_current" not in columns  # worlds are derived, not flagged

    def test_typed_values_round_trip(self, backend):
        sqlite_backend, _ = backend
        q = parse_query("q() <- Mixed('alpha', 3, r, f), r < 1.0")
        assert sqlite_backend.evaluate(q, frozenset())
        q2 = parse_query("q() <- Mixed(n, c, 2.0, f)")
        assert sqlite_backend.evaluate(q2, frozenset())

    def test_bool_comparisons(self, backend):
        sqlite_backend, _ = backend
        # Booleans are stored as 0/1 — matching Python's bool/int duality.
        q = parse_query("q() <- Mixed(n, c, r, 1)")
        assert sqlite_backend.evaluate(q, frozenset())


class TestFlags:
    def test_current_counts_after_switches(self, backend):
        """Switching worlds touches no row: the committed/pending row
        counts stay put while each world still sees its own tuples."""
        sqlite_backend, _ = backend
        conn = sqlite_backend._conn

        def counts():
            return conn.execute(
                "SELECT SUM(_tx = ''), SUM(_tx <> '') FROM \"Mixed\""
            ).fetchone()

        gamma = parse_query("q() <- Mixed('gamma', c, r, f)")
        assert counts() == (2, 1)
        assert not sqlite_backend.evaluate(gamma, frozenset())
        assert sqlite_backend.evaluate(gamma, frozenset({"M1"}))
        assert not sqlite_backend.evaluate(gamma, frozenset())
        assert counts() == (2, 1)

    def test_rows_carry_provenance(self, backend):
        sqlite_backend, _ = backend
        conn = sqlite_backend._conn
        provenance = {
            row[0]
            for row in conn.execute('SELECT DISTINCT _tx FROM "Mixed"')
        }
        assert provenance == {"", "M1"}

    def test_commit_rewrites_provenance(self, backend):
        sqlite_backend, workspace = backend
        tx = workspace.commit("M1")
        sqlite_backend.on_commit(tx)
        conn = sqlite_backend._conn
        rows = conn.execute(
            'SELECT _tx FROM "Mixed" WHERE "name" = ?', ("gamma",)
        ).fetchall()
        assert rows == [("",)]

    def test_compiled_query_cache(self, backend):
        """One compile cache serves both paths: a single world and a
        batch of worlds run the same compiled statement."""
        sqlite_backend, _ = backend
        q = parse_query("q() <- Mixed(n, c, r, f)")
        sqlite_backend.evaluate(q, frozenset())
        key = f"{type(q).__name__}:{q}"
        first = sqlite_backend._compiled[key]
        sqlite_backend.evaluate(q, frozenset({"M1"}))
        sqlite_backend.evaluate_many(q, [frozenset(), frozenset({"M1"})])
        assert sqlite_backend._compiled == {key: first}

    def test_cache_keys_are_structural_not_identity(self, backend):
        """Regression: id()-keyed caching handed recycled query objects a
        stale compiled plan (address reuse after garbage collection)."""
        sqlite_backend, _ = backend
        import gc

        answers = []
        for text in [
            "q() <- Mixed('alpha', c, r, f)",
            "q() <- Mixed('beta', c, r, f)",
            "q() <- Mixed('nope', c, r, f)",
        ] * 3:
            q = parse_query(text)  # fresh object each round, then dropped
            answers.append(sqlite_backend.evaluate(q, frozenset()))
            del q
            gc.collect()
        assert answers == [True, True, False] * 3

    def test_index_creation_optional(self):
        db = _typed_db()
        workspace = Workspace(db)
        lean = SqliteBackend(create_indexes=False)
        lean.attach(workspace)
        conn = lean._conn
        indexes = [
            row[1] for row in conn.execute('PRAGMA index_list("Mixed")')
        ]
        named = [name for name in indexes if name.startswith("idx_")]
        assert named == ["idx_Mixed_tx"]
        lean.close()
