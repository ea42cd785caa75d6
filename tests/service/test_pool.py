"""The parallel per-component solver pool vs. the sequential engine.

Every test cross-checks the pool against the sequential solver on the
same database — the pool must return identical ``satisfied`` /
``witness`` verdicts (Proposition 2 makes components independent, and
the pool takes the lowest-index violating component, matching the
sequential visit order).
"""

from types import SimpleNamespace

import pytest

from repro import serialize
from repro.core.checker import DCSatChecker
from repro.core.monitor import ConstraintMonitor
from repro.core.opt import component_survivors
from repro.errors import AlgorithmError
from repro.query.parser import parse_query
from repro.service import pool as pool_module
from repro.service.metrics import default_registry
from repro.service.pool import PooledDCSatChecker, SolverPool
from repro.storage import resolve_backend_name
from tests.service.conftest import (
    Q_ABSENT,
    Q_CONFLICT,
    Q_SKEW_SATISFIED,
    Q_SKEW_VIOLATED,
    Q_TWO_A,
    component_db,
    q_p3_db,
    r_tx,
    skewed_db,
)

QUERIES = [Q_CONFLICT, Q_TWO_A, Q_ABSENT]


@pytest.fixture(scope="module")
def pooled():
    checker = PooledDCSatChecker(component_db(), max_workers=2)
    yield checker
    checker.close()


@pytest.fixture(scope="module")
def sequential():
    checker = DCSatChecker(component_db())
    yield checker
    checker.close()


#: ``(database, max_workers, query, dispatched components)`` inputs of
#: the parity test: the component workload, and one giant component
#: plus many tiny ones, where striping rides tiny components along with
#: the giant.
PARITY_INPUTS = [
    *(
        pytest.param(component_db, 2, query, dispatched, id=query)
        for query, dispatched in zip(QUERIES, (8, 4, 0))
    ),
    *(
        pytest.param(
            skewed_db, workers, query, 9, id=f"skewed-{label}-{workers}"
        )
        for label, query in (
            ("satisfied", Q_SKEW_SATISFIED), ("violated", Q_SKEW_VIOLATED)
        )
        for workers in (2, 4)
    ),
]


class TestParallelCheck:
    @pytest.mark.parametrize("make_db, workers, query, dispatched", PARITY_INPUTS)
    def test_verdicts_match_sequential(
        self, monkeypatch, make_db, workers, query, dispatched
    ):
        sequential = DCSatChecker(make_db())
        pooled = PooledDCSatChecker(make_db(), max_workers=workers)
        groups: list[list[int]] = []
        executor = pooled.pool._ensure_executor()
        submit = executor.submit

        def recording_submit(fn, sync, query, group, *args):
            groups.append([index for index, _ in group])
            return submit(fn, sync, query, group, *args)

        monkeypatch.setattr(executor, "submit", recording_submit)
        try:
            expected = sequential.check(query, algorithm="opt")
            actual = pooled.check(query)
            assert actual.satisfied == expected.satisfied
            assert actual.witness == expected.witness
            # Round-robin stripes: ascending groups, the lowest index
            # first in group 0.
            submitted = sorted(index for group in groups for index in group)
            assert len(submitted) == dispatched
            assert len(groups) <= workers
            assert groups == [
                submitted[offset :: len(groups)]
                for offset in range(len(groups))
            ]
        finally:
            pooled.close()
            sequential.close()
    def test_parallel_tasks_and_aggregate_elapsed(self, pooled):
        result = pooled.check(Q_CONFLICT)
        # 4 cids x 2 keys -> 8 components (the FD scopes conflicts to a
        # (cid, key) pair); every component becomes one worker task whose
        # solve time is accumulated, two maximal cliques each.
        assert result.stats.parallel_tasks == 8
        assert result.stats.algorithm == "opt-pool"
        assert result.stats.elapsed_seconds > 0.0
        assert result.stats.cliques_enumerated == 8 * 2

    def test_explicit_algorithms_fall_back(self, pooled, sequential):
        naive = pooled.check(Q_CONFLICT, algorithm="naive")
        assert naive.satisfied
        assert naive.stats.algorithm == "naive"
        brute = pooled.check(Q_CONFLICT, algorithm="brute")
        assert brute.satisfied == sequential.check(Q_CONFLICT, algorithm="brute").satisfied

    def test_non_monotone_query_falls_back(self, pooled):
        # Negation makes the query non-monotone: the pool must not run
        # OptDCSat on it; auto falls through to the base class.
        result = pooled.check("q() <- R(c, k, 'a'), not R(c, k, 'b')")
        assert result.stats.algorithm not in ("opt-pool", "opt")

    def test_pool_rejects_non_monotone_direct(self, pooled):
        with pytest.raises(AlgorithmError):
            pooled.pool.check("q() <- R(c, k, 'a'), not R(c, k, 'b')")


class TestEpochSync:
    def test_issue_commit_forget_resync_workers(self):
        pooled = PooledDCSatChecker(component_db(), max_workers=2)
        sequential = DCSatChecker(component_db())
        try:
            assert pooled.check(Q_TWO_A).witness == sequential.check(
                Q_TWO_A, algorithm="opt"
            ).witness  # warm the worker snapshots

            for checker in (pooled, sequential):
                checker.issue(r_tx("N1", 0, 9, "a"))
                checker.issue(r_tx("N2", 9, 0, "a"))
                checker.commit("N1")
                checker.forget("N2")
            assert pooled.epoch == 4
            for query in QUERIES:
                expected = sequential.check(query, algorithm="opt")
                actual = pooled.check(query)
                assert actual.satisfied == expected.satisfied
                assert actual.witness == expected.witness
        finally:
            pooled.close()
            sequential.close()

    def test_oplog_overflow_compacts_without_restart(self):
        pooled = PooledDCSatChecker(component_db(), max_workers=2, resync_ops=2)
        try:
            pooled.check(Q_CONFLICT)  # builds the executor
            executor = pooled.pool._executor
            for index in range(4):  # overflows resync_ops=2 -> compaction
                pooled.issue(r_tx(f"X{index}", 50 + index, 0, "a"))
            # Warm workers stay up: the pool re-snapshots into the sync
            # payload instead of tearing the executor down.
            assert pooled.pool._executor is executor
            assert pooled.pool.compactions >= 1
            assert pooled.pool._snapshot is not None
            assert len(pooled.pool._oplog) <= pooled.pool.resync_ops
            result = pooled.check(Q_CONFLICT)
            assert result.satisfied
        finally:
            pooled.close()

    def test_long_lived_pool_sync_payload_stays_bounded(self):
        """Satellite: the per-task sync payload must not grow with age."""
        pooled = PooledDCSatChecker(component_db(), max_workers=2, resync_ops=4)
        sequential = DCSatChecker(component_db())
        try:
            pooled.check(Q_CONFLICT)  # warm the executor
            for index in range(25):  # many times resync_ops state changes
                tx = r_tx(f"L{index}", 100 + index, 0, "a")
                pooled.issue(tx)
                sequential.issue(tx)
            _, sync = pooled.pool._prepare()
            epoch, base_epoch, ops, snapshot = sync
            assert len(ops) <= pooled.pool.resync_ops
            assert epoch == pooled.epoch
            assert base_epoch + len(ops) == epoch
            assert snapshot is not None
            assert pooled.pool.compactions >= 5
            # Verdicts after repeated compaction still match sequential.
            for query in QUERIES:
                expected = sequential.check(query, algorithm="opt")
                actual = pooled.check(query)
                assert actual.satisfied == expected.satisfied
                assert actual.witness == expected.witness
        finally:
            pooled.close()
            sequential.close()

    def test_unrecorded_mutation_triggers_resnapshot(self):
        pooled = PooledDCSatChecker(component_db(), max_workers=2)
        try:
            pooled.check(Q_CONFLICT)
            # Bypass the op-log hooks entirely: the pool must notice the
            # epoch mismatch and rebuild instead of serving stale state.
            DCSatChecker.issue(pooled, r_tx("RAW", 0, 9, "b"))
            result = pooled.check(Q_CONFLICT)
            assert result.satisfied
            assert pooled.pool._base_epoch == pooled.epoch
        finally:
            pooled.close()


class TestParallelBatch:
    def test_batch_matches_sequential(self):
        pooled = PooledDCSatChecker(component_db(components=3), max_workers=2)
        sequential = DCSatChecker(component_db(components=3))
        try:
            expected = sequential.check_batch(QUERIES)
            actual = pooled.check_batch(QUERIES)
            assert [r.satisfied for r in actual] == [r.satisfied for r in expected]
            for got, want in zip(actual, expected):
                assert got.witness == want.witness
        finally:
            pooled.close()
            sequential.close()

    def test_batch_rejects_non_monotone(self):
        pooled = PooledDCSatChecker(component_db(components=2), max_workers=2)
        try:
            with pytest.raises(AlgorithmError):
                pooled.check_batch([Q_CONFLICT, "q() <- R(c, k, 'a'), not R(c, k, 'b')"])
        finally:
            pooled.close()

    def test_monitor_status_all_over_pool(self):
        pooled = PooledDCSatChecker(component_db(components=3), max_workers=2)
        sequential = DCSatChecker(component_db(components=3))
        try:
            for checker in (pooled, sequential):
                monitor = ConstraintMonitor(checker)
                monitor.register("conflict", Q_CONFLICT)
                monitor.register("two-a", Q_TWO_A)
                monitor.register("absent", Q_ABSENT)
                verdicts = monitor.status_all()
                assert verdicts["conflict"].satisfied
                assert not verdicts["two-a"].satisfied
                assert verdicts["absent"].satisfied
        finally:
            pooled.close()
            sequential.close()


class TestSumAggregates:
    """``assume_nonnegative_sums`` must reach the batch worker tasks
    instead of being hard-coded, so a pool built WITHOUT the flag
    rejects sum aggregates exactly like the sequential checker."""

    QUERIES = [
        "[q(sum(amt)) <- Pay(k, amt)] > 10",
        "[q(sum(amt)) <- Pay(k, amt)] >= 25",
        "[q(sum(amt)) <- Pay(k, amt)] > 30",  # decided by short-circuit
    ]

    @staticmethod
    def pay_db():
        from repro.core.blockchain_db import BlockchainDatabase
        from repro.relational.constraints import (
            ConstraintSet,
            FunctionalDependency,
        )
        from repro.relational.database import Database, make_schema
        from repro.relational.transaction import Transaction

        schema = make_schema({"Pay": ["k", "amt"]})
        constraints = ConstraintSet(
            schema, [FunctionalDependency("Pay", ["k"], ["amt"])]
        )
        state = Database.from_dict(schema, {"Pay": [(0, 4)]})
        pending = [
            Transaction({"Pay": [(k, amt)]}, tx_id=f"P{k}x{amt}")
            for k in (1, 2, 3)
            for amt in (3, 8)
        ]
        return BlockchainDatabase(state, constraints, pending)

    def test_flag_reaches_batch_workers(self):
        pooled = PooledDCSatChecker(
            self.pay_db(), max_workers=2, assume_nonnegative_sums=True
        )
        sequential = DCSatChecker(self.pay_db(), assume_nonnegative_sums=True)
        try:
            expected = sequential.check_batch(self.QUERIES)
            actual = pooled.check_batch(self.QUERIES)
            assert [r.satisfied for r in actual] == [
                r.satisfied for r in expected
            ]
            for got, want in zip(actual, expected):
                assert got.witness == want.witness
        finally:
            pooled.close()
            sequential.close()

    def test_sum_rejected_without_the_flag(self):
        pooled = PooledDCSatChecker(self.pay_db(), max_workers=2)
        try:
            with pytest.raises(AlgorithmError):
                pooled.check_batch(self.QUERIES[:1])
        finally:
            pooled.close()


class TestSolverPoolDirect:
    def test_single_component_stays_in_process(self):
        checker = DCSatChecker(component_db(components=1, keys=1))
        pool = SolverPool(checker, max_workers=2)
        try:
            result = pool.check(Q_CONFLICT)
            assert result.satisfied
            # one survivor < min_components: no executor was ever built
            assert pool._executor is None
        finally:
            pool.shutdown()
            checker.close()

    def test_normalize_handles_unsatisfiable(self):
        checker = DCSatChecker(component_db(components=2))
        pool = SolverPool(checker, max_workers=2)
        try:
            result = pool.check("q() <- R(c, k, v), v = 'a', v = 'b'")
            assert result.satisfied
            assert result.stats.algorithm == "rewrite"
        finally:
            pool.shutdown()
            checker.close()


def skipped_total() -> float:
    return default_registry().counter(
        "repro_pool_components_skipped_total"
    ).value


class TestEarlyStop:
    """The stop word: a witness in one worker group stops the others."""

    @staticmethod
    def free_group(db, query):
        """The witness-free components (indices 1..6) as one group."""
        checker = DCSatChecker(db)
        try:
            survivors = component_survivors(
                checker.workspace, checker.fd_graph, checker.ind_graph,
                checker.compile(query),
            )
        finally:
            checker.close()
        assert len(survivors) == 7 and "A0" in survivors[0]
        return tuple(
            (index, tuple(sorted(candidates)))
            for index, candidates in enumerate(survivors)
            if index > 0
        )

    def test_worker_honours_only_its_own_dispatch(self, monkeypatch):
        db = q_p3_db()
        query = parse_query(Q_TWO_A)
        group = self.free_group(db, query)
        stop = SimpleNamespace(value=-1)
        monkeypatch.setattr(pool_module, "_WORKER_CTX", None)
        monkeypatch.setattr(pool_module, "_STOP_WORD", None)
        pool_module._init_worker(
            serialize.database_to_dict(db), resolve_backend_name(None), 0,
            stop,
        )
        sync = (0, 0, (), None)

        def solved(dispatch_id):
            records = pool_module._solve_component_group_task(
                sync, query, group, True, dispatch_id
            )
            assert all(witness is None for _, witness, _, _ in records)
            return [index for index, *_ in records]

        try:
            stop.value = pool_module._pack_stop(7, 0)
            assert solved(7) == []  # nothing above index 0 is solved
            assert solved(8) == [1, 2, 3, 4, 5, 6]  # stale dispatch id
            stop.value = pool_module._pack_stop(7, 3)
            assert solved(7) == [1, 2, 3]
            # A dispatch id past the packing limit never matches a word.
            limit = pool_module._STOP_DISPATCH_LIMIT
            assert pool_module._pack_stop(limit, 0) is None
            assert solved(limit + 7) == [1, 2, 3, 4, 5, 6]
            assert pool_module._pack_stop(1, 1 << 24) is None
        finally:
            pool_module._WORKER_CTX["backend"].close()

    def test_pooled_checks_match_sequential(self):
        pooled = PooledDCSatChecker(q_p3_db(), max_workers=2)
        sequential = DCSatChecker(q_p3_db())
        try:
            expected = sequential.check(Q_TWO_A, algorithm="opt")
            assert expected.witness == frozenset({"A0", "A1"})
            before = skipped_total()
            for _ in range(30):
                result = pooled.check(Q_TWO_A)
                assert result.stats.algorithm == "opt-pool"
                assert result.satisfied == expected.satisfied
                assert result.witness == expected.witness
            word = pooled.pool._stop_word.value
            assert word & pool_module._STOP_INDEX_MASK == 0
            # Six costly witness-free components against one instant
            # witness: the stop must cut some sweeps short.
            assert skipped_total() > before
        finally:
            pooled.close()
            sequential.close()

    def test_skipped_components_are_not_ledgered(self):
        pooled = PooledDCSatChecker(q_p3_db(), max_workers=2)
        try:
            monitor = ConstraintMonitor(pooled)
            # No short-circuit: once the witness dies, the union of all
            # pending would decide the verdict without any sweep.
            monitor.register("p3", Q_TWO_A, short_circuit=False)
            counters = monitor.ledger.counters
            before = skipped_total()
            result = monitor.status("p3")
            assert result.witness == frozenset({"A0", "A1"})
            skipped = skipped_total() - before
            stored = counters["swept"]
            assert monitor.ledger.entry_count == stored
            assert stored + skipped <= 7
            # Kill the witness: every free component must now be
            # answered, from the ledger only where it was really swept.
            monitor.forget("A1")
            swept_before = counters["swept"]
            reused_before = counters["reused"]
            result = monitor.status("p3")
            assert result.satisfied
            assert counters["reused"] - reused_before == stored - 1
            assert counters["swept"] - swept_before == 7 - (stored - 1)
        finally:
            pooled.close()


class TestSpawnStart:
    def test_spawn_pool_parity_and_stop_word(self):
        db = q_p3_db()
        checker = DCSatChecker(db)
        sequential = DCSatChecker(q_p3_db())
        pool = SolverPool(checker, max_workers=2, start_method="spawn")
        try:
            for query in (Q_TWO_A, Q_CONFLICT):
                expected = sequential.check(
                    query, algorithm="opt", short_circuit=False
                )
                actual = pool.check(query, short_circuit=False)
                assert actual.stats.parallel_tasks > 0
                assert actual.satisfied == expected.satisfied
                assert actual.witness == expected.witness
            # A published word reaches the spawned workers.
            executor, sync = pool._prepare()
            pool._stop_word.value = pool_module._pack_stop(99, 0)
            query = parse_query(Q_TWO_A)
            group = TestEarlyStop.free_group(db, query)
            future = executor.submit(
                pool_module._solve_component_group_task,
                sync, query, group, True, 99,
            )
            assert future.result(timeout=60) == []
        finally:
            pool.shutdown()
            checker.close()
            sequential.close()
