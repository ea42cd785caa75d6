"""The fd-transaction graph G^fd_T (Figure 3, left)."""

import pytest

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.fd_graph import FdTransactionGraph
from repro.core.workspace import Workspace
from repro.relational.checking import transactions_fd_consistent
from repro.relational.constraints import ConstraintSet, Key
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction


def verify_against_pairwise(graph: FdTransactionGraph) -> None:
    """Cross-check the conflict index with pairwise fd checks."""
    workspace = graph._workspace
    ids = sorted(graph.nodes)
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            expected = transactions_fd_consistent(
                workspace.transaction_facts(u),
                workspace.transaction_facts(v),
                workspace.db.constraints,
            )
            actual = graph.has_edge(u, v)
            assert expected == actual, (
                f"fd-graph mismatch for ({u}, {v}): "
                f"pairwise={expected} index={actual}"
            )


@pytest.fixture
def figure2_graph(figure2):
    return FdTransactionGraph(Workspace(figure2))


class TestFigure3:
    def test_t1_t5_conflict(self, figure2_graph):
        # Figure 3: T1 and T5 spend the same TxIn key (double spend).
        assert not figure2_graph.has_edge("T1", "T5")
        assert figure2_graph.conflicts["T1"] == {"T5"}
        assert figure2_graph.conflicts["T5"] == {"T1"}

    def test_all_other_pairs_are_edges(self, figure2_graph):
        ids = ["T1", "T2", "T3", "T4", "T5"]
        for i, u in enumerate(ids):
            for v in ids[i + 1 :]:
                expected = {u, v} != {"T1", "T5"}
                assert figure2_graph.has_edge(u, v) is expected

    def test_maximal_cliques_match_example6(self, figure2_graph):
        cliques = set(figure2_graph.maximal_cliques())
        assert cliques == {
            frozenset({"T2", "T3", "T4", "T5"}),
            frozenset({"T1", "T2", "T3", "T4"}),
        }

    def test_verify_against_pairwise_definition(self, figure2_graph):
        verify_against_pairwise(figure2_graph)


class TestPruning:
    def _db(self, pending):
        schema = make_schema({"R": ["a", "b"]})
        constraints = ConstraintSet(schema, [Key("R", ["a"], schema)])
        current = Database.from_dict(schema, {"R": [(1, "committed")]})
        return BlockchainDatabase(current, constraints, pending)

    def test_base_clash_pruned(self):
        db = self._db([Transaction({"R": [(1, "different")]}, tx_id="T1")])
        graph = FdTransactionGraph(Workspace(db))
        assert graph.nodes == set()
        assert graph.never_appendable == {"T1"}

    def test_internally_inconsistent_pruned(self):
        db = self._db([Transaction({"R": [(5, "x"), (5, "y")]}, tx_id="T1")])
        graph = FdTransactionGraph(Workspace(db))
        assert graph.never_appendable == {"T1"}

    def test_same_tuple_as_base_not_pruned(self):
        db = self._db([Transaction({"R": [(1, "committed")]}, tx_id="T1")])
        graph = FdTransactionGraph(Workspace(db))
        assert graph.nodes == {"T1"}


class TestMaintenance:
    def _graph(self):
        schema = make_schema({"R": ["a", "b"]})
        constraints = ConstraintSet(schema, [Key("R", ["a"], schema)])
        db = BlockchainDatabase(
            Database.from_dict(schema, {"R": []}),
            constraints,
            [
                Transaction({"R": [(1, "x")]}, tx_id="T1"),
                Transaction({"R": [(1, "y")]}, tx_id="T2"),
            ],
        )
        ws = Workspace(db)
        return ws, FdTransactionGraph(ws)

    def test_add_transaction(self):
        ws, graph = self._graph()
        ws.issue(Transaction({"R": [(1, "x")]}, tx_id="T3"))
        graph.add_transaction("T3")
        # T3 agrees with T1 (same tuple) but clashes with T2.
        assert graph.has_edge("T1", "T3")
        assert not graph.has_edge("T2", "T3")

    def test_remove_transaction(self):
        ws, graph = self._graph()
        graph.remove_transaction("T2")
        assert graph.nodes == {"T1"}
        assert graph.conflicts["T1"] == set()

    def test_commit_invalidates_conflicting(self):
        ws, graph = self._graph()
        ws.commit("T1")  # (1, 'x') now committed
        graph.remove_transaction("T1")
        graph.refresh_after_commit()
        assert "T2" in graph.never_appendable
        assert graph.nodes == set()

    def test_conflicted_and_free(self):
        _, graph = self._graph()
        assert graph.conflicted_nodes() == {"T1", "T2"}
        assert graph.free_nodes() == set()
        assert graph.conflict_count() == 1


class TestRestrictedCliques:
    def test_restrict(self, figure2_graph):
        cliques = set(figure2_graph.maximal_cliques(restrict={"T1", "T5", "T3"}))
        assert cliques == {frozenset({"T1", "T3"}), frozenset({"T5", "T3"})}

    def test_restrict_to_free_only(self, figure2_graph):
        cliques = list(figure2_graph.maximal_cliques(restrict={"T2", "T3"}))
        assert cliques == [frozenset({"T2", "T3"})]

    def test_restrict_empty(self, figure2_graph):
        cliques = list(figure2_graph.maximal_cliques(restrict=set()))
        assert cliques == [frozenset()]

    def test_is_clique(self, figure2_graph):
        assert figure2_graph.is_clique({"T1", "T2", "T3"})
        assert not figure2_graph.is_clique({"T1", "T5"})
        assert not figure2_graph.is_clique({"T1", "unknown"})
        assert figure2_graph.is_clique(set())


class TestGroupIndexPruning:
    """Churn regression: ``_group_index`` must shrink back after
    add→remove cycles — a long-running monitor must not leak dead
    groups or scan them on every subsequent ``_add_node``."""

    def _db(self):
        schema = make_schema({"R": ["a", "b"]})
        constraints = ConstraintSet(schema, [Key("R", ["a"], schema)])
        return BlockchainDatabase(
            Database.from_dict(schema, {"R": []}), constraints, []
        )

    def test_group_index_shrinks_after_churn(self):
        ws = Workspace(self._db())
        graph = FdTransactionGraph(ws)
        assert graph._group_index == {}
        for cycle in range(3):
            ids = [f"T{cycle}_{i}" for i in range(8)]
            for index, tx_id in enumerate(ids):
                # Distinct keys per transaction: each occupies its own
                # group; half also contest a shared key.
                facts = [(f"{cycle}k{index}", "v")]
                if index % 2:
                    facts.append((f"{cycle}shared", f"v{index}"))
                ws.issue(Transaction({"R": facts}, tx_id=tx_id))
                graph.add_transaction(tx_id)
            assert len(graph._group_index) == len(ids) + 1
            for tx_id in ids:
                ws.forget(tx_id)
                graph.remove_transaction(tx_id)
            assert graph._group_index == {}
            assert graph._tx_signatures == {}
        assert graph.nodes == set()

    def test_partial_removal_keeps_shared_groups(self):
        ws = Workspace(self._db())
        graph = FdTransactionGraph(ws)
        ws.issue(Transaction({"R": [("k", "x")]}, tx_id="T1"))
        ws.issue(Transaction({"R": [("k", "y")]}, tx_id="T2"))
        graph.add_transaction("T1")
        graph.add_transaction("T2")
        assert len(graph._group_index) == 1
        graph.remove_transaction("T1")
        # T2 still occupies the group: only T1's rhs bucket goes away.
        (bucket,) = graph._group_index.values()
        assert len(bucket) == 1
        graph.remove_transaction("T2")
        assert graph._group_index == {}
