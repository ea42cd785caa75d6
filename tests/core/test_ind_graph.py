"""The ind-q-transaction graph G^{q,ind}_T (Figure 3, right)."""

import pytest

from repro.core.ind_graph import IndQTransactionGraph
from repro.core.workspace import Workspace
from repro.query.analysis import compile_constraint
from repro.query.parser import parse_query


@pytest.fixture
def figure2_ind(figure2):
    return IndQTransactionGraph(Workspace(figure2))


class TestThetaIComponents:
    def test_figure3_right_components(self, figure2_ind):
        # Figure 3 (right): the inclusion dependencies link T1–T2,
        # T2–T4, T3–T4 and T1–T5 (both spend TxOut(2,2)); T5's output
        # chain is separate, but the shared consumed output joins it.
        components = {frozenset(c) for c in figure2_ind.components()}
        # T1 and T5 both insert TxIn rows whose (prevTxId, prevSer,...)
        # projections match TxOut(2, 2, ...), but Θ_I links child rows to
        # *parent* rows — TxOut(2,2) lives in R, so the T1–T5 link does
        # not arise from Θ_I alone.  T1–T2 (T2 spends T1's output),
        # T2/T3–T4 (T4 spends both) make {T1, T2, T3, T4} one component.
        assert frozenset({"T1", "T2", "T3", "T4"}) in components
        assert frozenset({"T5"}) in components

    def test_all_transactions_covered(self, figure2_ind, figure2):
        components = figure2_ind.components()
        covered = {tx for c in components for tx in c}
        assert covered == set(figure2.pending_ids)


class TestQueryAugmentation:
    def test_query_constants_do_not_merge_unrelated(self, figure2_ind):
        # qs has a single atom: no Θ_q pairs, components unchanged.
        q = parse_query("q() <- TxOut(t, s, 'U8Pk', a)")
        base = {frozenset(c) for c in figure2_ind.components()}
        augmented = {frozenset(c) for c in figure2_ind.components(q)}
        assert base == augmented

    def test_query_join_merges(self, figure2_ind):
        # Both T4 and T5 create TxOut rows for U7Pk; a query joining two
        # TxOut atoms on pk merges their components.
        q = parse_query("q() <- TxOut(t1, s1, pk, a1), TxOut(t2, s2, pk, a2)")
        components = {frozenset(c) for c in figure2_ind.components(q)}
        merged = next(c for c in components if "T5" in c)
        assert "T4" in merged

    def test_invalidate_rebuilds(self, figure2, figure2_ind):
        before = len(figure2_ind.components())
        figure2_ind.invalidate()
        after = len(figure2_ind.components())
        assert before == after


class TestMaintainedPartitions:
    """Pinned Θ_I ∪ Θ_q partitions follow writes without a rebuild."""

    JOIN = "q() <- TxOut(t1, s1, pk, a1), TxOut(t2, s2, pk, a2)"

    @staticmethod
    def rebuilt(checker, query):
        fresh = IndQTransactionGraph(Workspace(checker.db))
        return set(fresh.components(query))

    def test_writes_keep_the_same_partition_exact(self, figure2):
        from repro.core.checker import DCSatChecker
        from repro.relational.transaction import Transaction

        checker = DCSatChecker(figure2)
        graph = checker.ind_graph
        query = checker.compile(self.JOIN)
        graph.pin(query)
        partition = graph.partition(query)
        assert set(graph.components(query)) == self.rebuilt(checker, query)
        # T6 pays U7Pk too: the Θ_q join merges it into T4/T5's component.
        checker.issue(Transaction({"TxOut": [(6, 1, "U7Pk", 1.0)]}, tx_id="T6"))
        merged = next(c for c in graph.components(query) if "T6" in c)
        assert {"T4", "T5"} <= merged
        for write in (
            lambda: checker.forget("T2"),
            lambda: checker.commit("T5"),
            lambda: checker.absorb(
                Transaction({"TxOut": [(99, 1, "MinerPk", 50.0)]}, tx_id="CB")
            ),
            lambda: checker.forget("T6"),
        ):
            write()
            assert graph.partition(query) is partition
            assert set(graph.components(query)) == self.rebuilt(checker, query)
            assert set(graph.components()) == self.rebuilt(checker, None)

    def test_departure_relinks_the_rest_of_its_component(self, figure2):
        from repro.core.checker import DCSatChecker

        checker = DCSatChecker(figure2)
        assert frozenset({"T1", "T2", "T3", "T4"}) in checker.ind_graph.components()
        checker.forget("T2")
        # T3–T4 is an edge of its own; only T1 loses its link.
        components = set(checker.ind_graph.components())
        assert frozenset({"T3", "T4"}) in components
        assert frozenset({"T1"}) in components

    def test_pins_are_counted_and_released(self, figure2):
        graph = IndQTransactionGraph(Workspace(figure2))
        query = compile_constraint(parse_query(self.JOIN))
        signature = graph.pin(query)
        assert graph.pin(compile_constraint(parse_query(self.JOIN))) == signature
        partition = graph.partition(query)
        assert graph.partition(query) is partition
        assert frozenset(graph._pinned) == {signature}
        assert graph.partition_count == 2  # Θ_I and the pinned one
        graph.release(signature)
        assert frozenset(graph._pinned) == {signature}
        graph.release(signature)
        assert frozenset(graph._pinned) == frozenset()
        # Unpinned, every call builds its own partition and keeps none.
        assert graph.partition(query) is not graph.partition(query)
        assert graph.partition_count == 1

    def test_write_past_the_graph_rebuilds(self, figure2):
        from repro.relational.transaction import Transaction

        workspace = Workspace(figure2)
        graph = IndQTransactionGraph(workspace)
        query = compile_constraint(parse_query(self.JOIN))
        graph.pin(query)
        stale = graph.partition(query)
        workspace.issue(Transaction({"TxOut": [(6, 1, "U7Pk", 1.0)]}, tx_id="T6"))
        assert graph.partition(query) is not stale
        fresh = IndQTransactionGraph(Workspace(figure2))
        assert set(graph.components(query)) == set(fresh.components(query))


class TestUnionFind:
    def test_clone_isolation(self):
        from repro.core.ind_graph import _UnionFind

        uf = _UnionFind()
        uf.union("a", "b")
        clone = uf.clone()
        clone.union("a", "c")
        assert uf.find("c") == "c"
        assert clone.find("a") == clone.find("c")

    def test_union_all(self):
        from repro.core.ind_graph import _UnionFind

        uf = _UnionFind()
        uf.union_all(["a", "b", "c"])
        assert uf.find("a") == uf.find("c")

    def test_components(self):
        from repro.core.ind_graph import _UnionFind

        uf = _UnionFind()
        uf.add("x")
        uf.union("a", "b")
        components = {frozenset(c) for c in uf.components()}
        assert components == {frozenset({"a", "b"}), frozenset({"x"})}
