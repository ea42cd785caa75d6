"""Parallel per-component OptDCSat vs. the sequential solver.

The workload is built so the ind-q-transaction graph has one *heavy*
connected component per chain id.  The FD ``cid -> v`` forces a
uniform value per cid in every possible world, and both benchmark
queries join their atoms only on ``c`` — so Θ_q links all of a cid's
transactions into one component.  Each component holds ``KEYS × VALUES``
pending transactions and exactly ``VALUES`` maximal cliques (one
all-same-value world per value, ``KEYS`` facts each).

``Q_SATISFIED`` needs values ``'v0'`` and ``'v1'`` to coexist in one
cid — impossible in any uniform-value world, but true on the full
(inconsistent) pending superset, so the monotone short-circuit cannot
decide it and the solver must enumerate and evaluate every clique of
every component.  That is the embarrassingly parallel case the pool
fans out (Proposition 2: no satisfying assignment spans components).

Verdict-identity assertions always run; the wall-clock speedup
assertion only runs on multi-core hosts (the pool cannot beat the
sequential solver on one CPU).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.checker import DCSatChecker
from repro.relational.constraints import ConstraintSet, FunctionalDependency
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction
from repro.service.pool import PooledDCSatChecker


def _env_int(name: str, default: int) -> int:
    """A ``REPRO_BENCH_*`` override, for quick CI smoke configurations."""
    try:
        return int(os.environ[name])
    except (KeyError, ValueError):
        return default


COMPONENTS = _env_int("REPRO_BENCH_COMPONENTS", 8)
KEYS = _env_int("REPRO_BENCH_KEYS", 24)
VALUES = _env_int("REPRO_BENCH_VALUES", 24)
POOL_WORKERS = _env_int("REPRO_BENCH_WORKERS", 4)
#: On scaled-down smoke configs the pool's fixed overhead dominates,
#: so the speedup assertion only runs at the full default scale.
DEFAULT_SCALE = (COMPONENTS, KEYS, VALUES) == (8, 24, 24)

#: Unsatisfiable in every world (worlds are uniform-value per cid), yet
#: true on the pending superset: forces the full clique sweep.
Q_SATISFIED = "q() <- R(c, k1, 'v0'), R(c, k2, 'v1')"
#: Satisfiable (the all-'v0' world of any cid): violated, with the
#: witness taken from the lowest-index component.
Q_VIOLATED = "q() <- R(c, k1, 'v0'), R(c, k2, 'v0'), k1 != k2"
QUERYSET = [Q_SATISFIED, Q_VIOLATED]


def uniform_value_db(
    components: int = COMPONENTS, keys: int = KEYS, values: int = VALUES
) -> BlockchainDatabase:
    schema = make_schema({"R": ["cid", "k", "v"]})
    constraints = ConstraintSet(
        schema, [FunctionalDependency("R", ["cid"], ["v"])]
    )
    state = Database.from_dict(schema, {"R": []})
    pending = [
        Transaction({"R": [(cid, key, f"v{v}")]}, tx_id=f"C{cid}K{key}V{v}")
        for cid in range(components)
        for key in range(keys)
        for v in range(values)
    ]
    return BlockchainDatabase(state, constraints, pending)


_cache: dict[str, object] = {}


def sequential_checker() -> DCSatChecker:
    if "seq" not in _cache:
        _cache["seq"] = DCSatChecker(uniform_value_db())
    return _cache["seq"]


def pooled_checker() -> PooledDCSatChecker:
    if "pool" not in _cache:
        checker = PooledDCSatChecker(uniform_value_db(), max_workers=POOL_WORKERS)
        checker.check(Q_VIOLATED)  # build the executor + worker snapshots
        _cache["pool"] = checker
    return _cache["pool"]


def test_sequential_opt(benchmark):
    checker = sequential_checker()
    result = benchmark(checker.check, Q_SATISFIED, algorithm="opt")
    assert result.satisfied
    assert result.stats.components_total == COMPONENTS
    assert result.stats.cliques_enumerated == COMPONENTS * VALUES


def test_parallel_pool(benchmark):
    checker = pooled_checker()
    result = benchmark(checker.check, Q_SATISFIED)
    assert result.satisfied
    assert result.stats.parallel_tasks == COMPONENTS


def test_parallel_beats_sequential_with_identical_verdicts():
    sequential = sequential_checker()
    pooled = pooled_checker()

    sequential_elapsed = 0.0
    parallel_elapsed = 0.0
    for query in QUERYSET:
        started = time.perf_counter()
        expected = sequential.check(query, algorithm="opt")
        sequential_elapsed += time.perf_counter() - started

        started = time.perf_counter()
        actual = pooled.check(query)
        parallel_elapsed += time.perf_counter() - started

        assert actual.satisfied == expected.satisfied
        assert actual.witness == expected.witness

    if (os.cpu_count() or 1) >= 2 and DEFAULT_SCALE:
        assert parallel_elapsed < sequential_elapsed, (
            f"pool of {POOL_WORKERS} took {parallel_elapsed:.3f}s vs "
            f"{sequential_elapsed:.3f}s sequential"
        )


@pytest.fixture(scope="module", autouse=True)
def bench_json_artifact():
    """When a ``BENCH_<rev>.json`` artifact is being written this
    session (see :mod:`benchmarks.conftest`), land one traced pooled
    check — stats plus its span tree — as a row in it."""
    yield
    from benchmarks.conftest import _bench_json_path, record_bench

    if _bench_json_path() is None:
        return
    from repro.obs.trace import default_tracer
    from repro.service.protocol import stats_to_wire

    tracer = default_tracer()
    checker = pooled_checker()
    with tracer.trace("bench_parallel_pool") as root:
        started = time.perf_counter()
        result = checker.check(Q_SATISFIED)
        elapsed = time.perf_counter() - started
        root.fold_stats(result.stats)
    record_bench(
        "parallel_pool.traced_check",
        components=COMPONENTS,
        keys=KEYS,
        values=VALUES,
        workers=POOL_WORKERS,
        seconds=elapsed,
        satisfied=result.satisfied,
        stats=stats_to_wire(result.stats),
        trace=tracer.recent(limit=1)[0],
        gate=True,
    )


def skewed_db(
    giant_keys: int = 18,
    giant_values: int = 12,
    tiny: int = 12,
    tiny_keys: int = 3,
    tiny_values: int = 3,
) -> BlockchainDatabase:
    """One giant component (cid 0) plus *tiny* small ones — the skewed
    workload where round-robin striping rides extra components along
    with the giant while other workers idle."""
    schema = make_schema({"R": ["cid", "k", "v"]})
    constraints = ConstraintSet(
        schema, [FunctionalDependency("R", ["cid"], ["v"])]
    )
    state = Database.from_dict(schema, {"R": []})
    shapes = [(0, giant_keys, giant_values)] + [
        (cid, tiny_keys, tiny_values) for cid in range(1, tiny + 1)
    ]
    pending = [
        Transaction({"R": [(cid, key, f"v{v}")]}, tx_id=f"C{cid}K{key}V{v}")
        for cid, keys, values in shapes
        for key in range(keys)
        for v in range(values)
    ]
    return BlockchainDatabase(state, constraints, pending)


def test_warm_cost_model_groups_skew_tighter_than_round_robin():
    """The tentpole acceptance: on one-giant-plus-many-tiny, a warm cost
    model bin-packs the giant component alone, with measurably lower
    predicted makespan imbalance than round-robin striping — and the
    verdicts never change."""
    from repro.obs.perf import CostModel
    from repro.service.pool import SolverPool, group_imbalance

    giant_keys, giant_values, tiny, tiny_keys, tiny_values = 18, 12, 12, 3, 3
    sequential = DCSatChecker(
        skewed_db(giant_keys, giant_values, tiny, tiny_keys, tiny_values)
    )
    checker = DCSatChecker(
        skewed_db(giant_keys, giant_values, tiny, tiny_keys, tiny_values)
    )
    model = CostModel(export_metrics=False)
    pool = SolverPool(checker, max_workers=4, cost_model=model)
    try:
        # Cold pool: the first check plans round-robin and, component by
        # component, teaches the model what each size bucket costs.
        assert not model.warm
        expected = sequential.check(Q_SATISFIED, algorithm="opt")
        cold = pool.check(Q_SATISFIED)
        assert cold.satisfied == expected.satisfied
        assert model.warm, "one full sweep must warm the model"

        # Same component shapes the solve just saw, as a planning input.
        sizes = [giant_keys * giant_values] + [tiny_keys * tiny_values] * tiny
        survivors = [
            {f"s{i}-{j}" for j in range(size)} for i, size in enumerate(sizes)
        ]
        cost_groups, strategy, _ = pool.plan_groups(survivors)
        assert strategy == "cost"
        rr_groups, _, _ = pool.plan_groups(survivors, strategy="round-robin")

        def predicted_loads(groups):
            return [
                sum(
                    model.predict(len(survivors[index]))
                    for index in group
                )
                for group in groups
            ]

        cost_imbalance = group_imbalance(predicted_loads(cost_groups))
        rr_imbalance = group_imbalance(predicted_loads(rr_groups))
        # The cost plan isolates the giant; round-robin makes the
        # giant's worker carry extra tinies on top.
        giant_group = next(group for group in cost_groups if 0 in group)
        assert giant_group == [0]
        assert cost_imbalance < rr_imbalance, (
            f"cost planning imbalance {cost_imbalance:.3f} must beat "
            f"round-robin {rr_imbalance:.3f}"
        )

        # Warm checks (now cost-planned) still verdict-match, violated
        # witnesses included.
        for query in QUERYSET:
            want = sequential.check(query, algorithm="opt")
            got = pool.check(query)
            assert got.satisfied == want.satisfied
            assert got.witness == want.witness

        from benchmarks.conftest import _bench_json_path, record_bench

        if _bench_json_path() is not None:
            record_bench(
                "pool.group_planning",
                components=1 + tiny,
                giant=giant_keys * giant_values,
                tiny=tiny_keys * tiny_values,
                workers=pool.max_workers,
                cost_imbalance=cost_imbalance,
                round_robin_imbalance=rr_imbalance,
            )
    finally:
        pool.shutdown()
        checker.close()
        sequential.close()


def test_parallel_batch_identical_verdicts():
    # batch_dcsat sweeps maximal cliques *globally* (worlds multiply
    # across components), so the batch comparison uses a small workload.
    sequential = DCSatChecker(uniform_value_db(3, 3, 3))
    pooled = PooledDCSatChecker(uniform_value_db(3, 3, 3), max_workers=2)
    try:
        expected = sequential.check_batch(QUERYSET)
        actual = pooled.check_batch(QUERYSET)
        assert [r.satisfied for r in actual] == [r.satisfied for r in expected]
        assert [r.witness for r in actual] == [r.witness for r in expected]
    finally:
        sequential.close()
        pooled.close()
