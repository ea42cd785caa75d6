"""The full configuration matrix on one workload: every solver
algorithm over every backend — all cells must agree on the verdict,
and every cell's median wall clock lands in the session's
``BENCH_<rev>.json`` (see :func:`benchmarks.conftest.record_bench`).
Rows keep the ``engine`` dimension, with the one engine's label, so
they line up with earlier artifacts.

The workload is a single K-clique fd-graph component (every pending
transaction writes the same key), so each check sweeps exactly K
singleton worlds — small enough that the ``naive`` solver stays
tractable, structured enough that no short-circuit hides the sweep.
"""

from __future__ import annotations

import statistics
import time

import pytest

from benchmarks.conftest import record_bench
from repro.core.blockchain_db import BlockchainDatabase
from repro.core.checker import DCSatChecker
from repro.relational.constraints import ConstraintSet, FunctionalDependency
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction

K = 12
ROUNDS = 3
Q = "q() <- R(k, 'v0'), R(k, 'v1')"

ALGORITHMS = ("naive", "opt", "assign")
BACKENDS = ("memory", "sqlite")


def clique_db() -> BlockchainDatabase:
    schema = make_schema({"R": ["k", "v"]})
    constraints = ConstraintSet(schema, [FunctionalDependency("R", ["k"], ["v"])])
    state = Database.from_dict(schema, {"R": []})
    pending = [
        Transaction({"R": [(0, f"v{index}")]}, tx_id=f"T{index}")
        for index in range(K)
    ]
    return BlockchainDatabase(state, constraints, pending)


_checkers: dict[str, DCSatChecker] = {}


def checker_for(backend: str) -> DCSatChecker:
    if backend not in _checkers:
        _checkers[backend] = DCSatChecker(clique_db(), backend=backend)
    return _checkers[backend]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_matrix_cell(algorithm, backend):
    checker = checker_for(backend)
    timings = []
    result = None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        result = checker.check(Q, algorithm=algorithm)
        timings.append(time.perf_counter() - started)
    assert result is not None and result.satisfied
    # The world-sweeping solvers count worlds; the assignment solver
    # counts assignments.  Either way, real work must have happened.
    assert result.stats.worlds_checked or result.stats.assignments_examined
    record_bench(
        "matrix.k_clique",
        gate=True,
        algorithm=algorithm,
        engine=checker.engine.name,
        backend=backend,
        k=K,
        seconds=statistics.median(timings),
        worlds_checked=result.stats.worlds_checked,
        evaluations=result.stats.evaluations,
    )
