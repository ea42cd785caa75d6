"""Batched denial-constraint checking: one world sweep, many constraints.

A node monitoring *k* constraints would pay for *k* independent clique
enumerations with the paper's algorithms.  Because NaiveDCSat's world
construction is query-independent, all still-undecided constraints can
be evaluated against each maximal world in a single sweep: worst-case
work is one enumeration plus ``k`` evaluations per world, and each
constraint still benefits individually from the state check and the
monotone short-circuit.
"""

from __future__ import annotations

import time

from repro.core.engine import SyncEngine
from repro.core.fd_graph import FdTransactionGraph
from repro.core.results import DCSatResult, DCSatStats
from repro.core.workspace import Workspace
from repro.errors import AlgorithmError
from repro.query.analysis import is_monotone
from repro.query.ast import AggregateQuery, ConjunctiveQuery

Query = ConjunctiveQuery | AggregateQuery


def batch_dcsat(
    workspace: Workspace,
    fd_graph: FdTransactionGraph,
    queries: list[Query],
    engine: SyncEngine,
    assume_nonnegative_sums: bool = False,
    short_circuit: bool = True,
    pivot: bool = True,
) -> list[DCSatResult]:
    """Decide ``D |= ¬q`` for every monotone query in one clique sweep.

    Results are positionally aligned with *queries*.  Raises
    :class:`AlgorithmError` when a query is not (verifiably) monotone.
    """
    for query in queries:
        if not is_monotone(query, assume_nonnegative_sums):
            raise AlgorithmError(
                f"batch checking requires monotone queries; {query!s} is not"
            )
    evaluate_world = engine.evaluate
    started = time.perf_counter()
    results: list[DCSatResult | None] = [None] * len(queries)
    stats_list = [
        DCSatStats(algorithm="batch-naive", engine=engine.name) for _ in queries
    ]

    # Per-query fast paths: the current state, then the overlay.
    open_indexes: list[int] = []
    all_active = frozenset(workspace.db.pending_ids)
    for index, query in enumerate(queries):
        stats = stats_list[index]
        stats.evaluations += 1
        if evaluate_world(query, frozenset()):
            results[index] = DCSatResult(
                satisfied=False, witness=frozenset(), stats=stats
            )
            continue
        if short_circuit:
            stats.evaluations += 1
            stats.short_circuit_used = True
            if not evaluate_world(query, all_active):
                stats.short_circuit_result = True
                results[index] = DCSatResult(satisfied=True, stats=stats)
                continue
            stats.short_circuit_result = False
        open_indexes.append(index)

    # One sweep over maximal worlds for everything still open.
    if open_indexes:
        for clique in fd_graph.maximal_cliques(pivot=pivot):
            world = workspace.ind_support.maximal_world(clique)
            still_open: list[int] = []
            for index in open_indexes:
                stats = stats_list[index]
                stats.cliques_enumerated += 1
                stats.worlds_checked += 1
                stats.evaluations += 1
                if evaluate_world(queries[index], world):
                    results[index] = DCSatResult(
                        satisfied=False, witness=world, stats=stats
                    )
                else:
                    still_open.append(index)
            open_indexes = still_open
            if not open_indexes:
                break
        for index in open_indexes:
            results[index] = DCSatResult(satisfied=True, stats=stats_list[index])

    elapsed = time.perf_counter() - started
    for index, result in enumerate(results):
        assert result is not None
        result.stats.elapsed_seconds = elapsed
    workspace.clear_active()
    return [result for result in results if result is not None]
