"""The multi-world evaluation path: ``Backend.evaluate_many``.

The contract: ``evaluate_many(query, actives)`` returns exactly
``[evaluate(query, active) for active in actives]`` — one verdict per
world, in order — regardless of how the backend amortizes the work.
The memory backend loops (world switches are O(1) there); the sqlite
backend compiles a world-correlated query once and answers each chunk
of worlds in a single SQL round trip.  Its single-world ``evaluate``
is the same statement over a batch of one, so neither path writes to
the database.
"""

import pytest

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.engine import SyncEngine
from repro.core.workspace import Workspace
from repro.query.parser import parse_query
from repro.relational.constraints import ConstraintSet, Key
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction
from repro.storage import MemoryBackend, SqliteBackend

QUERIES = [
    "q() <- TxOut(t, s, 'U8Pk', a)",
    "q() <- TxOut(t, s, pk, a), TxIn(t, s, pk, a, n, sg)",
    "q() <- TxIn(p1, s1, 'U2Pk', a, n1, sg1), TxIn(p2, s2, 'U2Pk', a, n2, sg2), n1 != n2",
    "q() <- TxOut(t, s, pk, a), not TxIn(t, s, pk, a, 'T9', 'sig')",
    "[q(sum(a)) <- TxOut(t, s, 'U7Pk', a)] >= 6",
    "[q(count()) <- TxOut(t, s, pk, a)] > 8",
    "[q(cntd(pk)) <- TxOut(t, s, pk, a)] >= 7",
    "[q(max(a)) <- TxOut(t, s, 'U7Pk', a)] > 3",
]

WORLDS = [
    frozenset(),
    frozenset({"T1"}),
    frozenset({"T3", "T5"}),
    frozenset({"T1", "T2", "T3", "T4"}),
    frozenset({"T2"}),
    frozenset({"T1", "T2", "T3", "T4", "T5"}),  # overlay, not a world
]


@pytest.fixture
def workspace(figure2):
    return Workspace(figure2)


@pytest.fixture
def sqlite_backend(workspace):
    backend = SqliteBackend()
    backend.attach(workspace)
    yield backend
    backend.close()


def test_memory_evaluate_many_matches_loop(workspace):
    backend = MemoryBackend()
    backend.attach(workspace)
    for text in QUERIES:
        query = parse_query(text)
        expected = [backend.evaluate(query, world) for world in WORLDS]
        assert backend.evaluate_many(query, WORLDS) == expected, text


def test_sqlite_evaluate_many_matches_per_world(workspace, sqlite_backend):
    memory = MemoryBackend()
    memory.attach(workspace)
    for text in QUERIES:
        query = parse_query(text)
        expected = [memory.evaluate(query, world) for world in WORLDS]
        assert sqlite_backend.evaluate_many(query, WORLDS) == expected, text


def test_sqlite_batch_is_one_round_trip(sqlite_backend):
    query = parse_query("q() <- TxOut(t, s, 'U8Pk', a)")
    before = sqlite_backend.eval_roundtrips
    verdicts = sqlite_backend.evaluate_many(query, WORLDS)
    assert len(verdicts) == len(WORLDS)
    assert sqlite_backend.eval_roundtrips == before + 1
    # The per-world path pays one round trip each.
    for world in WORLDS:
        sqlite_backend.evaluate(query, world)
    assert sqlite_backend.eval_roundtrips == before + 1 + len(WORLDS)


def test_sqlite_evaluate_many_leaves_active_flags_alone(sqlite_backend):
    query = parse_query("q() <- TxOut(t, s, 'U8Pk', a)")
    # Interleave single-world calls and a batch: no call may leave state
    # behind that a later one answers from.
    assert sqlite_backend.evaluate(query, frozenset({"T1", "T2", "T3", "T4"}))
    sqlite_backend.evaluate_many(query, WORLDS)
    assert not sqlite_backend.evaluate(query, frozenset({"T5"}))
    assert sqlite_backend.evaluate(query, frozenset({"T1", "T2", "T3", "T4"}))


def test_sqlite_evaluate_many_chunks_under_param_budget(workspace, sqlite_backend):
    import repro.storage.sqlite_backend as mod

    query = parse_query("q() <- TxOut(t, s, 'U8Pk', a)")
    memory = MemoryBackend()
    memory.attach(workspace)
    worlds = WORLDS * 40  # enough membership params to overflow one chunk
    expected = [memory.evaluate(query, world) for world in worlds]
    original = mod._PARAM_BUDGET
    mod._PARAM_BUDGET = 40
    try:
        before = sqlite_backend.eval_roundtrips
        assert sqlite_backend.evaluate_many(query, worlds) == expected
        chunks = sqlite_backend.eval_roundtrips - before
    finally:
        mod._PARAM_BUDGET = original
    assert chunks > 1  # the budget forced splitting...
    assert chunks < len(worlds)  # ...but not into one world per trip


def test_sqlite_evaluate_many_empty_input(sqlite_backend):
    query = parse_query("q() <- TxOut(t, s, 'U8Pk', a)")
    assert sqlite_backend.evaluate_many(query, []) == []


def test_sqlite_evaluate_many_sees_issue_and_commit(workspace, sqlite_backend):
    query = parse_query("q() <- TxOut(t, s, 'U9Pk', a)")
    assert sqlite_backend.evaluate_many(query, [frozenset()]) == [False]
    tx = Transaction({"TxOut": [("T9", 0, "U9Pk", 1)]}, tx_id="T9")
    workspace.issue(tx)
    sqlite_backend.on_issue(tx)
    assert sqlite_backend.evaluate_many(
        query, [frozenset(), frozenset({"T9"})]
    ) == [False, True]
    committed = workspace.commit("T9")
    sqlite_backend.on_commit(committed)
    assert sqlite_backend.evaluate_many(query, [frozenset()]) == [True]


def test_sqlite_evaluation_writes_nothing(sqlite_backend):
    """World switches are derived inside the statement: evaluating any
    world, alone or in a batch, changes no row of the database."""
    query = parse_query("q() <- TxOut(t, s, 'U8Pk', a)")
    conn = sqlite_backend._conn
    before = conn.total_changes
    for world in WORLDS:
        sqlite_backend.evaluate(query, world)
    sqlite_backend.evaluate_many(query, WORLDS)
    assert conn.total_changes == before


# ----------------------------------------------------------------------
# Worlds larger than the host-parameter budget


def _wide_db(pending: int):
    """*pending* transactions, each adding one ``A`` row and sharing no
    key, so every subset is a possible world."""
    schema = make_schema({"A": ["id", "grp"]})
    constraints = ConstraintSet(schema, [Key("A", ["id"], schema)])
    state = Database.from_dict(schema, {"A": [(-1, "base")]})
    txs = [
        Transaction({"A": [(index, f"g{index % 7}")]}, tx_id=f"W{index:04d}")
        for index in range(pending)
    ]
    return BlockchainDatabase(state, constraints, txs)


@pytest.fixture
def wide():
    import repro.storage.sqlite_backend as mod

    pending = max(500, mod._PARAM_BUDGET + 100)
    workspace = Workspace(_wide_db(pending))
    memory = MemoryBackend()
    memory.attach(workspace)
    sqlite = SqliteBackend()
    sqlite.attach(workspace)
    ids = sorted(workspace.db.pending_ids)
    yield workspace, memory, sqlite, ids, mod._PARAM_BUDGET
    sqlite.close()


WIDE_QUERIES = [
    "q() <- A(x, 'g3'), A(y, 'g3'), A(z, 'g3'), x < y, y < z",
    "[q(count()) <- A(x, g)] >= 420",
    "[q(cntd(g)) <- A(x, g)] >= 8",
    "q() <- A(x, 'base'), not A(7, 'g0')",
]


def test_sqlite_world_over_param_budget_matches_memory(wide):
    workspace, memory, sqlite, ids, budget = wide
    everything = frozenset(ids)
    assert len(everything) > budget  # one world alone overflows a chunk
    worlds = [everything, frozenset(ids[:5])]
    for text in WIDE_QUERIES:
        query = parse_query(text)
        expected = [memory.evaluate(query, world) for world in worlds]
        assert sqlite.evaluate(query, everything) == expected[0], text
        assert sqlite.evaluate_many(query, worlds) == expected, text


def test_sqlite_batch_straddling_a_chunk_split_matches_memory(wide):
    workspace, memory, sqlite, ids, budget = wide
    # Two large worlds that each fit the budget but not together, around
    # small ones: the split lands mid-batch, and world ids must stay
    # aligned across it.
    half = frozenset(ids[: budget // 2 + 10])
    other = frozenset(ids[-(budget // 2 + 10):])
    worlds = [frozenset(ids[:3]), half, frozenset(), other, frozenset(ids[7:9])]
    for text in WIDE_QUERIES:
        query = parse_query(text)
        expected = [memory.evaluate(query, world) for world in worlds]
        before = sqlite.eval_roundtrips
        assert sqlite.evaluate_many(query, worlds) == expected, text
        assert sqlite.eval_roundtrips - before == 2, text


def test_engine_sweep_stops_without_enumerating_past_a_full_chunk(wide):
    workspace, memory, sqlite, ids, budget = wide
    engine = SyncEngine(sqlite)
    query = parse_query(WIDE_QUERIES[0])  # three 'g3' members in one world
    big = frozenset(ids[: budget + 10])
    plan = [frozenset(ids[:2]), frozenset(ids[2:4]), big, frozenset(ids[:1])]
    pulled = []

    def stream():
        for world in plan:
            pulled.append(world)
            yield world

    before = sqlite.eval_roundtrips
    assert engine.sweep(query, stream()) == big
    # The two small worlds share a round trip; the big one goes alone
    # and, having filled its chunk, is evaluated before the plan's next
    # world is enumerated.
    assert sqlite.eval_roundtrips - before == 2
    assert pulled == plan[:3]
