"""Backend parity: the one evaluation engine is one solver everywhere.

:class:`~repro.core.engine.SyncEngine` drives a backend one of two
ways: one ``evaluate`` per world (memory), or chunks of worlds through
``evaluate_many`` answered by one world-correlated SQL statement each
(sqlite).  The *how* must never leak into the *what*: over either
backend the engine must return the same verdict, the same witness, and
the same work counters (``worlds_checked`` / ``evaluations`` /
``cliques_enumerated`` — charged only up to and including the first
violating world) as a reference.

The reference is a plain one-world-at-a-time loop over the memory
backend (:class:`ReferenceEngine`, a test oracle with the counters
charged by hand).  These tests compare the engine over each backend
with it on randomized databases, randomized monitor traces (verdicts
*and* invalidation lists), the Proposition-2 divergence instance, and
the aggregate paths, asserting byte-for-byte identical results.
"""

import random
from dataclasses import fields

import pytest

from repro import serialize
from repro.core.blockchain_db import BlockchainDatabase
from repro.core.checker import DCSatChecker
from repro.core.engine import SyncEngine
from repro.core.monitor import ConstraintMonitor
from repro.core.results import DCSatStats
from repro.relational.constraints import ConstraintSet, FunctionalDependency
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction
from tests.core.test_opt_incompleteness import (
    BRIDGE_QUERY,
    bridge_db,  # noqa: F401 (pytest fixture, used by parameter name)
)
from tests.service.conftest import Q_ABSENT, Q_CONFLICT, Q_TWO_A, component_db, r_tx

BACKENDS = ("memory", "sqlite")

#: Everything the backends must agree on.  ``engine`` labels the engine
#: (excluded by design); ``elapsed_seconds`` is wall clock.
PARITY_FIELDS = tuple(
    field.name
    for field in fields(DCSatStats)
    if field.name not in ("engine", "elapsed_seconds")
)

CONJUNCTIVE_QUERIES = (Q_CONFLICT, Q_TWO_A, Q_ABSENT)


def db_copy(db: BlockchainDatabase) -> BlockchainDatabase:
    """An independent database per checker: checkers mutate state."""
    return serialize.database_from_dict(serialize.database_to_dict(db))


class ReferenceEngine(SyncEngine):
    """The oracle: one backend evaluation per world, no look-ahead."""

    def sweep(self, query, worlds, stats=None, count_cliques=False):
        for world in worlds:
            if stats is not None:
                stats.engine = stats.engine or self.name
                stats.worlds_checked += 1
                stats.evaluations += 1
                if count_cliques:
                    stats.cliques_enumerated += 1
            if self.backend.evaluate(query, world):
                return world
        return None


def checker_for(
    db: BlockchainDatabase, backend: str, batch_size: int | None = None, **kwargs
) -> DCSatChecker:
    """The engine under test over *backend*."""
    checker = DCSatChecker(db_copy(db), backend=backend, **kwargs)
    if batch_size is not None:
        checker.engine = SyncEngine(checker.backend, batch_size=batch_size)
    return checker


def reference_for(db: BlockchainDatabase, **kwargs) -> DCSatChecker:
    """The oracle checker: :class:`ReferenceEngine` over memory."""
    checker = DCSatChecker(db_copy(db), backend="memory", **kwargs)
    checker.engine = ReferenceEngine(checker.backend)
    return checker


def parity_view(result) -> tuple:
    """The cross-backend-comparable projection of a check result."""
    stats = {name: getattr(result.stats, name) for name in PARITY_FIELDS}
    return (result.satisfied, result.witness, stats)


def random_db(rng: random.Random) -> BlockchainDatabase:
    """A small randomized instance: an FD-constrained relation plus an
    unconstrained amounts relation for the aggregate paths."""
    schema = make_schema({"R": ["cid", "k", "v"], "Amt": ["cid", "amount"]})
    constraints = ConstraintSet(
        schema, [FunctionalDependency("R", ["cid", "k"], ["v"])]
    )
    # One committed value per (cid, k) pair: the current state must
    # itself satisfy the FD.
    committed_r = [
        (cid, k, rng.choice("ab"))
        for cid in range(2)
        for k in range(2)
        if rng.random() < 0.4
    ]
    committed_amt = [
        (rng.randrange(2), rng.randrange(1, 4)) for _ in range(rng.randrange(3))
    ]
    current = Database.from_dict(
        schema, {"R": set(committed_r), "Amt": set(committed_amt)}
    )
    pending = []
    for index in range(rng.randrange(4, 8)):
        facts: dict = {
            "R": [
                (rng.randrange(2), rng.randrange(2), rng.choice("abc"))
                for _ in range(rng.randrange(1, 3))
            ]
        }
        if rng.random() < 0.5:
            facts["Amt"] = [(rng.randrange(2), rng.randrange(1, 4))]
        pending.append(Transaction(facts, tx_id=f"P{index}"))
    return BlockchainDatabase(current, constraints, pending)


CHECK_ALGORITHMS = ("auto", "naive", "opt", "brute")


def check_cases(rng: random.Random) -> list[tuple[str, str]]:
    cases = [
        (query, algorithm)
        for query in CONJUNCTIVE_QUERIES
        for algorithm in CHECK_ALGORITHMS
    ]
    cases.append((f"[q(sum(a)) <- Amt(c, a)] >= {rng.randrange(3, 9)}", "auto"))
    return cases


def assert_checks_agree(checker, reference, cases, label) -> None:
    for query, algorithm in cases:
        actual = parity_view(checker.check(query, algorithm=algorithm))
        expected = parity_view(reference.check(query, algorithm=algorithm))
        assert actual == expected, (query, algorithm, label)


class TestRandomizedCheckParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_all_engines_agree_on_random_instances(self, backend, seed):
        rng = random.Random(seed)
        db = random_db(rng)
        checker = checker_for(db, backend, assume_nonnegative_sums=True)
        reference = reference_for(db, assume_nonnegative_sums=True)
        try:
            assert_checks_agree(checker, reference, check_cases(rng), backend)
        finally:
            checker.close()
            reference.close()

    @pytest.mark.parametrize("batch_size", (1, 2, 3))
    @pytest.mark.parametrize("seed", range(4))
    def test_chunk_size_is_invisible_on_sqlite(self, batch_size, seed):
        """Chunk boundaries may fall before, on or after the violating
        world: the counters must not see where."""
        rng = random.Random(seed)
        db = random_db(rng)
        checker = checker_for(
            db, "sqlite", batch_size=batch_size, assume_nonnegative_sums=True
        )
        reference = reference_for(db, assume_nonnegative_sums=True)
        try:
            assert_checks_agree(
                checker, reference, check_cases(rng), batch_size
            )
        finally:
            checker.close()
            reference.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_field_identifies_the_engine(self, backend):
        checker = checker_for(component_db(components=2, keys=1), backend)
        try:
            result = checker.check(Q_CONFLICT, algorithm="naive")
            assert result.stats.engine == "sync"
            assert checker.engine.multi_world == (backend == "sqlite")
        finally:
            checker.close()


class TestPropositionTwoDivergenceParity:
    """The documented OptDCSat false negative must be backend-invariant:
    how worlds are evaluated cannot change which worlds are
    *enumerated*."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bridge_instance(self, backend, bridge_db):
        checker = checker_for(bridge_db, backend)
        try:
            opt = checker.check(BRIDGE_QUERY, algorithm="opt", short_circuit=False)
            assert opt.satisfied  # the documented divergence
            naive = checker.check(BRIDGE_QUERY, algorithm="naive")
            assert not naive.satisfied
            assert naive.witness == frozenset({"TA", "TC"})
        finally:
            checker.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bridge_stats_identical_across_engines(self, backend, bridge_db):
        views = {}
        for label, checker in (
            ("engine", checker_for(bridge_db, backend)),
            ("reference", reference_for(bridge_db)),
        ):
            try:
                views[label] = (
                    parity_view(
                        checker.check(
                            BRIDGE_QUERY, algorithm="opt", short_circuit=False
                        )
                    ),
                    parity_view(checker.check(BRIDGE_QUERY, algorithm="naive")),
                )
            finally:
                checker.close()
        assert views["engine"] == views["reference"]


class TestRandomizedTraceParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_monitor_traces_agree(self, backend, seed):
        """One random issue/commit/forget trace, two monitors (the
        engine over *backend*, the reference): every step must produce
        identical invalidation lists and identical verdicts for every
        registered constraint."""
        rng = random.Random(100 + seed)
        base = component_db(components=2, keys=2)
        monitors = {
            "engine": ConstraintMonitor(checker_for(base, backend)),
            "reference": ConstraintMonitor(reference_for(base)),
        }
        try:
            for name, query in (
                ("conflict", Q_CONFLICT),
                ("two-a", Q_TWO_A),
                ("absent", Q_ABSENT),
            ):
                for monitor in monitors.values():
                    monitor.register(name, query)

            def assert_monitors_agree(step):
                verdicts = {
                    label: {
                        name: parity_view(result)
                        for name, result in monitor.status_all().items()
                    }
                    for label, monitor in monitors.items()
                }
                assert verdicts["engine"] == verdicts["reference"], step

            assert_monitors_agree("initial")
            issued = 0
            for step in range(8):
                action = rng.choice(("issue", "issue", "commit", "forget"))
                pending = sorted(monitors["reference"].checker.db.pending_ids)
                if action == "issue" or not pending:
                    tx = r_tx(
                        f"T{issued}", rng.randrange(2), rng.randrange(2),
                        rng.choice("ab"),
                    )
                    issued += 1
                    invalidated = {
                        label: sorted(monitor.issue(tx))
                        for label, monitor in monitors.items()
                    }
                else:
                    tx_id = rng.choice(pending)
                    invalidated = {
                        label: sorted(getattr(monitor, action)(tx_id))
                        for label, monitor in monitors.items()
                    }
                assert invalidated["engine"] == invalidated["reference"], (
                    step, action,
                )
                assert_monitors_agree((step, action))
        finally:
            for monitor in monitors.values():
                monitor.checker.close()
