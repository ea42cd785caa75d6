"""The evaluation engine over the sqlite backend: chunked vs. per-world.

The workload is one heavy fd-graph component: ``K`` pending
transactions all writing the *same* key of ``R(k, v)`` under the FD
``k -> v``, each with a distinct value.  Every pair conflicts, so the
component's clique structure is ``K`` singleton maximal cliques — ``K``
possible worlds of one transaction each.  ``Q_SATISFIED`` needs two
distinct values to coexist on the key, which no singleton world can
provide while the full pending superset does, so the monotone
short-circuit cannot decide it and the engine must sweep all ``K``
worlds.

sqlite declares a native multi-world round trip, so
:class:`~repro.core.engine.SyncEngine` hands it the sweep in chunks of
``batch_size`` worlds, each answered by one world-correlated statement
through the ``__repro_worlds`` CTE.  With ``batch_size >= K`` the whole
component is **one** round trip; ``batch_size=1`` is the per-world
shape (**K** round trips) it is compared against.

Round-trip counts are asserted exactly via the backend's
``eval_roundtrips`` counter; the wall-clock assertion runs at every
scale (fewer round trips on the same connection is cheaper regardless
of host).  The memory backend must agree on verdict and work counters.

The artifact also carries the enumeration-only clique sweep over a
larger component (``planner.clique_sweep``), so the gate covers
Bron–Kerbosch on its own.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.checker import DCSatChecker
from repro.core.engine import SyncEngine
from repro.core.fd_graph import FdTransactionGraph
from repro.core.workspace import Workspace
from repro.relational.constraints import ConstraintSet, FunctionalDependency
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction


def _env_int(name: str, default: int) -> int:
    """A ``REPRO_BENCH_*`` override, for quick CI smoke configurations."""
    try:
        return int(os.environ[name])
    except (KeyError, ValueError):
        return default


#: Pairwise-conflicting transactions = worlds in the component's sweep.
CLIQUE_K = _env_int("REPRO_BENCH_CLIQUE_K", 96)
#: Wall-clock comparison repetitions (medians are reported).
ROUNDS = _env_int("REPRO_BENCH_ENGINE_ROUNDS", 3)
#: Component size for the enumeration-only clique sweep row.
PLANNER_K = _env_int("REPRO_BENCH_PLANNER_K", 384)

#: No singleton world holds two values; the pending superset does —
#: the short-circuit stays undecided and the full K-world sweep runs.
Q_SATISFIED = "q() <- R(k, 'v0'), R(k, 'v1')"
#: Violated by every singleton world: the sweep stops at world one.
Q_VIOLATED = "q() <- R(k, v)"


def k_clique_db(k: int = CLIQUE_K) -> BlockchainDatabase:
    schema = make_schema({"R": ["k", "v"]})
    constraints = ConstraintSet(schema, [FunctionalDependency("R", ["k"], ["v"])])
    state = Database.from_dict(schema, {"R": []})
    pending = [
        Transaction({"R": [(0, f"v{index}")]}, tx_id=f"T{index}")
        for index in range(k)
    ]
    return BlockchainDatabase(state, constraints, pending)


_cache: dict[tuple[str, int], DCSatChecker] = {}


def engine_checker(backend: str = "sqlite", batch_size: int = CLIQUE_K) -> DCSatChecker:
    """A cached checker per backend and chunk size; the default chunk
    holds the whole component, so its sweep is one round trip."""
    key = (backend, batch_size)
    if key not in _cache:
        checker = DCSatChecker(k_clique_db(), backend=backend)
        checker.engine = SyncEngine(checker.backend, batch_size=batch_size)
        _cache[key] = checker
    return _cache[key]


@pytest.fixture(scope="module", autouse=True)
def close_checkers():
    yield
    for checker in _cache.values():
        checker.close()
    _cache.clear()


def test_engine_sweep(benchmark):
    checker = engine_checker()
    result = benchmark(checker.check, Q_SATISFIED, algorithm="naive")
    assert result.satisfied
    assert result.stats.worlds_checked == CLIQUE_K
    assert result.stats.engine == "sync"


def round_trips(checker: DCSatChecker) -> int:
    before = checker.backend.eval_roundtrips
    result = checker.check(Q_SATISFIED, algorithm="naive", short_circuit=False)
    assert result.satisfied
    return checker.backend.eval_roundtrips - before


def test_sweep_is_one_round_trip():
    # Without the short-circuit probe, the sweep *is* the query load:
    # one state-check round trip plus ONE multi-world trip for all K
    # worlds, against K per-world trips with single-world chunks.
    assert round_trips(engine_checker()) == 1 + 1
    assert round_trips(engine_checker(batch_size=1)) == 1 + CLIQUE_K


def timed_median(checker: DCSatChecker, rounds: int = ROUNDS) -> float:
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        result = checker.check(Q_SATISFIED, algorithm="naive")
        samples.append(time.perf_counter() - started)
        assert result.satisfied
    samples.sort()
    return samples[len(samples) // 2]


def test_chunked_sweep_beats_per_world_wall_clock():
    per_world = timed_median(engine_checker(batch_size=1))
    chunked = timed_median(engine_checker())
    assert chunked < per_world, (
        f"one chunk took {chunked * 1000:.2f}ms vs {per_world * 1000:.2f}ms "
        f"per world over a {CLIQUE_K}-clique component"
    )


def test_backends_verdict_and_stats_identical():
    views = {}
    for backend in ("memory", "sqlite"):
        checker = engine_checker(backend)
        for query in (Q_SATISFIED, Q_VIOLATED):
            result = checker.check(query, algorithm="naive")
            views.setdefault(query, {})[backend] = (
                result.satisfied,
                result.witness,
                result.stats.worlds_checked,
                result.stats.evaluations,
                result.stats.cliques_enumerated,
            )
    for query, by_backend in views.items():
        assert by_backend["sqlite"] == by_backend["memory"], query


# ----------------------------------------------------------------------
# The clique-sweep hot path, enumeration only.
#
# A steady-state monitor re-sweeps its components check after check, so
# the cost that matters is the *repeated* maximal-clique enumeration
# over an unchanged graph, served from the cached sweep universe.


def clique_graph() -> FdTransactionGraph:
    return FdTransactionGraph(Workspace(k_clique_db(PLANNER_K)))


def sweep_median(
    graph, rounds: int = max(ROUNDS, 3)
) -> tuple[float, int, list[float]]:
    count = sum(1 for _ in graph.maximal_cliques())  # warm any caches
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        swept = sum(1 for _ in graph.maximal_cliques())
        samples.append(time.perf_counter() - started)
        assert swept == count
    samples.sort()
    return samples[len(samples) // 2], count, samples


@pytest.fixture(scope="module", autouse=True)
def bench_json_artifact():
    """When a ``BENCH_<rev>.json`` artifact is being written this
    session (see :mod:`benchmarks.conftest`), land the sqlite sweep row —
    median wall clock plus round-trip count — in it."""
    yield
    from benchmarks.conftest import _bench_json_path, record_bench

    if _bench_json_path() is None:
        return
    checker = engine_checker()
    before = checker.backend.eval_roundtrips
    samples = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        result = checker.check(Q_SATISFIED, algorithm="naive")
        samples.append(time.perf_counter() - started)
        assert result.satisfied
    record_bench(
        "engines.k_clique_sweep",
        engine=checker.engine.name,
        backend="sqlite",
        algorithm="naive",
        planner="set",
        clique_k=CLIQUE_K,
        rounds=ROUNDS,
        seconds=sorted(samples)[len(samples) // 2],
        samples=samples,
        eval_roundtrips=checker.backend.eval_roundtrips - before,
        gate=True,
    )
    median, count, samples = sweep_median(clique_graph())
    assert count == PLANNER_K
    # ``planner="set"`` is part of the committed rows' identity.
    record_bench(
        "planner.clique_sweep",
        planner="set",
        clique_k=PLANNER_K,
        cliques=count,
        rounds=max(ROUNDS, 3),
        seconds=median,
        samples=samples,
        gate=True,
    )
