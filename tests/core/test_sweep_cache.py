"""Sweep-universe cache parity: a warm cache never changes a sweep.

Both planners cache, per pool, everything a clique sweep needs besides
Bron–Kerbosch (free set, contested adjacency, canonical ranks or masks)
and clear it on every node or conflict change.  Random traces of
issue / forget / commit / absorb — commits and absorbs evict pending
transactions through ``refresh_after_commit`` — re-sweep the same pools
step after step, so cached universes are reused across mutations if
the invalidation is wrong.  At every step the maintained set graph's
``maximal_cliques(restrict)`` must equal, in order, a freshly built
graph's stream and the maintained bitset graph's stream, and neither
cache may outgrow the shared limit.
"""

from hypothesis import given, settings, strategies as st

from repro.core.bitset import BitsetFdGraph
from repro.core.blockchain_db import BlockchainDatabase
from repro.core.fd_graph import FdTransactionGraph
from repro.core.workspace import Workspace
from repro.relational.constraints import ConstraintSet, FunctionalDependency
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction

#: Small enough that the traces overflow it and exercise the wholesale
#: clear; the class default applies everywhere else.
LIMIT = 4

FACT = st.tuples(st.integers(0, 5), st.sampled_from("abc"))
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("issue"), st.lists(FACT, min_size=1, max_size=2)),
        st.tuples(st.just("forget"), st.integers(0, 50)),
        st.tuples(st.just("commit"), st.integers(0, 50)),
        st.tuples(st.just("absorb"), FACT),
    ),
    min_size=1,
    max_size=30,
)
POOLS = st.lists(st.integers(0, 2**12 - 1), min_size=1, max_size=3)


def empty_db() -> BlockchainDatabase:
    schema = make_schema({"R": ["k", "v"]})
    constraints = ConstraintSet(schema, [FunctionalDependency("R", ["k"], ["v"])])
    return BlockchainDatabase(Database.from_dict(schema, {"R": set()}), constraints, [])


def sweep(graph, restrict):
    return list(graph.maximal_cliques(restrict))


@settings(max_examples=80, deadline=None)
@given(ops=OPS, pools=POOLS)
def test_cached_sweeps_match_fresh_and_bitset(ops, pools):
    workspace = Workspace(empty_db())
    graphs = (FdTransactionGraph(workspace), BitsetFdGraph(workspace))
    for graph in graphs:
        graph.SWEEP_CACHE_LIMIT = LIMIT
    issued = 0
    for kind, arg in ops:
        pending = sorted(workspace.db.pending_ids)
        if kind == "issue":
            tx_id = f"T{issued}"
            issued += 1
            workspace.issue(Transaction({"R": arg}, tx_id=tx_id))
            for graph in graphs:
                graph.add_transaction(tx_id)
        elif kind == "forget" and pending:
            tx_id = pending[arg % len(pending)]
            workspace.forget(tx_id)
            for graph in graphs:
                graph.remove_transaction(tx_id)
        elif kind == "commit":
            appendable = sorted(graphs[0].nodes)
            if not appendable:
                continue
            tx_id = appendable[arg % len(appendable)]
            workspace.commit(tx_id)
            for graph in graphs:
                graph.remove_transaction(tx_id)
                graph.refresh_after_commit()
        elif kind == "absorb":
            key, value = arg
            if workspace.base["R"].lookup((0,), (key,)):
                continue  # keep the committed state itself consistent
            workspace.absorb(Transaction({"R": [arg]}, tx_id=f"B{issued}"))
            issued += 1
            for graph in graphs:
                graph.refresh_after_commit()

        pending = sorted(workspace.db.pending_ids)
        restricts = [None] + [
            [tx for bit, tx in enumerate(pending) if pool >> bit & 1]
            for pool in pools
        ]
        fresh = FdTransactionGraph(workspace)
        # Sweep every pool twice: the second pass is served from cache.
        for _ in range(2):
            for restrict in restricts:
                expected = sweep(fresh, restrict)
                for graph in graphs:
                    assert sweep(graph, restrict) == expected
                    assert len(graph._sweep_cache) <= LIMIT


def test_repeat_sweep_reuses_universe_until_mutation():
    workspace = Workspace(empty_db())
    graph = FdTransactionGraph(workspace)
    for index, facts in enumerate(([(0, "a")], [(0, "b")], [(1, "a")])):
        workspace.issue(Transaction({"R": facts}, tx_id=f"T{index}"))
        graph.add_transaction(f"T{index}")
    first = sweep(graph, None)
    universe = graph._sweep_cache[frozenset(graph.nodes)]
    assert sweep(graph, None) == first
    assert graph._sweep_cache[frozenset(graph.nodes)] is universe
    assert len(graph._sweep_cache) == 1
    workspace.issue(Transaction({"R": [(1, "b")]}, tx_id="T3"))
    graph.add_transaction("T3")
    assert graph._sweep_cache == {}
    assert sweep(graph, None) == sweep(FdTransactionGraph(workspace), None)
