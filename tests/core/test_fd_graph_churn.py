"""Randomized churn property: incremental maintenance ≡ fresh build.

A long-running monitor maintains its fd-transaction graph through
``add_transaction`` / ``remove_transaction`` / ``refresh_after_commit``
as the mempool churns.  This property test replays a generated trace of
issues, forgets and commits and asserts, at every step, that the
incrementally-maintained state — conflicts, nodes, never-appendable,
the group index and the clique stream — is identical to a graph
freshly built from the same database.
"""

import random

import pytest

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.fd_graph import FdTransactionGraph
from repro.core.workspace import Workspace
from repro.relational.constraints import ConstraintSet, FunctionalDependency
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction


def empty_db() -> BlockchainDatabase:
    schema = make_schema({"R": ["k", "v"]})
    constraints = ConstraintSet(schema, [FunctionalDependency("R", ["k"], ["v"])])
    return BlockchainDatabase(
        Database.from_dict(schema, {"R": set()}), constraints, []
    )


def random_tx(rng: random.Random, tx_id: str) -> Transaction:
    facts = [
        (rng.randrange(6), rng.choice("abc"))
        for _ in range(rng.randrange(1, 3))
    ]
    return Transaction({"R": facts}, tx_id=tx_id)


def graph_state(graph: FdTransactionGraph) -> tuple:
    return (graph.nodes, graph.conflicts, graph.never_appendable)


def assert_matches_fresh(graph, workspace):
    fresh = FdTransactionGraph(workspace)
    assert graph_state(graph) == graph_state(fresh)
    assert graph._group_index == fresh._group_index
    assert list(graph.maximal_cliques()) == list(fresh.maximal_cliques())


@pytest.mark.parametrize("seed", range(6))
def test_incremental_maintenance_matches_fresh_build(seed):
    rng = random.Random(seed)
    workspace = Workspace(empty_db())
    graph = FdTransactionGraph(workspace)
    live: list[str] = []
    for step in range(40):
        roll = rng.random()
        if roll < 0.55 or not live:
            tx_id = f"T{step}"
            workspace.issue(random_tx(rng, tx_id))
            graph.add_transaction(tx_id)
            live.append(tx_id)
        elif roll < 0.85:
            tx_id = live.pop(rng.randrange(len(live)))
            workspace.forget(tx_id)
            graph.remove_transaction(tx_id)
        else:
            # Commit only an appendable transaction (a committed tx must
            # itself satisfy the constraints against the base).
            appendable = [t for t in live if t in graph.nodes]
            if not appendable:
                continue
            tx_id = appendable[rng.randrange(len(appendable))]
            live.remove(tx_id)
            workspace.commit(tx_id)
            graph.remove_transaction(tx_id)
            graph.refresh_after_commit()
            # Committing shrinks the appendable set for everyone.
            live = [t for t in live if t in workspace.db.pending_ids]
        if step % 5 == 4:
            assert_matches_fresh(graph, workspace)
    assert_matches_fresh(graph, workspace)


def test_full_drain_resets_all_indexes():
    rng = random.Random(99)
    workspace = Workspace(empty_db())
    graph = FdTransactionGraph(workspace)
    ids = [f"T{i}" for i in range(12)]
    for tx_id in ids:
        workspace.issue(random_tx(rng, tx_id))
        graph.add_transaction(tx_id)
    for tx_id in ids:
        workspace.forget(tx_id)
        graph.remove_transaction(tx_id)
    assert graph.nodes == set()
    assert graph.conflicts == {}
    assert graph._group_index == {}
