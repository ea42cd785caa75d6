"""Conjunctive-query → SQL compilation (the world-correlated form)."""

import sqlite3

import pytest

from repro.query.parser import parse_query
from repro.relational.database import make_schema
from repro.storage.sql_compiler import (
    bind_worlds,
    compile_query_worlds,
    quote_identifier,
)


@pytest.fixture
def schema():
    return make_schema({"Edge": ["src", "dst"], "Node": ["id", "label"]})


@pytest.fixture
def conn(schema):
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE Edge (src, dst, _tx TEXT DEFAULT '')")
    conn.execute("CREATE TABLE Node (id, label, _tx TEXT DEFAULT '')")
    conn.executemany(
        "INSERT INTO Edge (src, dst) VALUES (?, ?)",
        [(1, 2), (2, 3), (3, 4), (2, 4)],
    )
    conn.executemany(
        "INSERT INTO Node (id, label) VALUES (?, ?)",
        [(1, "a"), (2, "b"), (3, "a"), (4, "c")],
    )
    return conn


def _run(conn, compiled, world=frozenset()) -> list:
    """The statement's rows over the single world *world* (id 0)."""
    return conn.execute(*bind_worlds(compiled, [world])).fetchall()


def _exists(conn, compiled, world=frozenset()) -> bool:
    return _run(conn, compiled, world) == [(0,)]


class TestExistsCompilation:
    def test_single_atom(self, schema, conn):
        compiled = compile_query_worlds(parse_query("q() <- Edge(1, y)"), schema)
        assert compiled.kind == "exists"
        assert "_tx = ''" in compiled.sql
        assert _exists(conn, compiled)
        missing = compile_query_worlds(parse_query("q() <- Edge(9, y)"), schema)
        assert not _exists(conn, missing)

    def test_join(self, schema, conn):
        compiled = compile_query_worlds(
            parse_query("q() <- Edge(x, y), Edge(y, z)"), schema
        )
        assert _exists(conn, compiled)
        no_path = compile_query_worlds(
            parse_query("q() <- Edge(a, b), Edge(b, c), Edge(c, d), Edge(d, e)"),
            schema,
        )
        assert not _exists(conn, no_path)

    def test_repeated_variable(self, schema, conn):
        compiled = compile_query_worlds(parse_query("q() <- Edge(x, x)"), schema)
        assert not _exists(conn, compiled)
        conn.execute("INSERT INTO Edge (src, dst) VALUES (7, 7)")
        assert _exists(conn, compiled)

    def test_comparisons(self, schema, conn):
        lt = compile_query_worlds(parse_query("q() <- Edge(x, y), x < y"), schema)
        assert _exists(conn, lt)
        gt = compile_query_worlds(parse_query("q() <- Edge(x, y), x > y"), schema)
        assert not _exists(conn, gt)
        ne = compile_query_worlds(
            parse_query("q() <- Node(x, l), Node(y, l), x != y"), schema
        )
        assert "<>" in ne.sql
        assert _exists(conn, ne)

    def test_negated_atom(self, schema, conn):
        compiled = compile_query_worlds(
            parse_query("q() <- Node(x, l), not Edge(x, x)"), schema
        )
        assert "NOT EXISTS" in compiled.sql
        assert _exists(conn, compiled)

    def test_current_flag_respected(self, schema, conn):
        """The paper's ``current`` flag, derived per world: a pending row
        is visible exactly in the worlds holding its transaction."""
        conn.execute("INSERT INTO Edge (src, dst, _tx) VALUES (8, 9, 'T1')")
        compiled = compile_query_worlds(parse_query("q() <- Edge(8, y)"), schema)
        assert not _exists(conn, compiled)
        assert not _exists(conn, compiled, frozenset({"T2"}))
        assert _exists(conn, compiled, frozenset({"T1", "T2"}))
        worlds = [frozenset(), frozenset({"T1"}), frozenset({"T2"}), frozenset({"T1"})]
        rows = conn.execute(*bind_worlds(compiled, worlds, first_id=5)).fetchall()
        assert sorted(rows) == [(6,), (8,)]

    def test_constants_parameterized_not_inlined(self, schema):
        compiled = compile_query_worlds(parse_query("q() <- Node(x, 'a')"), schema)
        assert "'a'" not in compiled.sql  # value travels as a parameter
        assert "a" in compiled.params


class TestRowsCompilation:
    def test_aggregate_compiles_to_distinct_rows(self, schema, conn):
        compiled = compile_query_worlds(
            parse_query("[q(count()) <- Edge(x, y)] > 3"), schema
        )
        assert compiled.kind == "rows"
        assert compiled.sql.startswith("SELECT DISTINCT")
        rows = _run(conn, compiled)
        assert len(rows) == 4
        assert {row[0] for row in rows} == {0}  # prefixed by the world id
        assert compiled.var_order == ("x", "y")

    def test_duplicate_provider_rows_deduplicated(self, schema, conn):
        # Same logical tuple under two provenances must count once.
        conn.execute("INSERT INTO Edge (src, dst, _tx) VALUES (1, 2, 'Tx')")
        compiled = compile_query_worlds(
            parse_query("[q(count()) <- Edge(x, y)] > 3"), schema
        )
        rows = _run(conn, compiled, frozenset({"Tx"}))
        assert len(rows) == 4

    def test_variable_free_aggregate_uses_exists(self, schema):
        compiled = compile_query_worlds(
            parse_query("[q(count()) <- Edge(1, 2)] >= 1"), schema
        )
        assert compiled.kind == "exists"


class TestQuoting:
    def test_quote_identifier(self):
        assert quote_identifier("simple") == '"simple"'
        assert quote_identifier('we"ird') == '"we""ird"'
