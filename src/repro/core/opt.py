"""OptDCSat (Figure 5).

For connected, monotone denial constraints: split the pending set into
connected components of the ind-q-transaction graph, discard components
that cannot cover the query's constants, and run the maximal-clique
machinery within each surviving component independently (Proposition 2:
no satisfying assignment spans two components).

Enumeration is decoupled from evaluation: :func:`component_survivors`
plus the per-component :func:`~repro.core.naive.maximal_worlds` stream
form the evaluation plan, and :func:`solve_component` hands the stream
to an :class:`~repro.core.engine.EvaluationEngine` (sync, batched or
async — see :func:`opt_dcsat_async`).

Reproduction note: Proposition 2, as stated in the paper, can fail when
two pending transactions are joined only *through tuples of the current
state* — the chain of shared query variables passes through ``R``, so no
equality constraint links the transactions directly and they may land in
different components even though one assignment touches both.  This
implementation is faithful to the paper (the Bitcoin workloads of the
evaluation never trigger the case, because a committed tuple's join
partners on the chain side are committed too); the test suite contains a
crafted instance demonstrating the divergence, and
:mod:`repro.core.assignment` provides a sound-and-complete alternative.
"""

from __future__ import annotations

import time

from repro.core.coverage import covers
from repro.core.engine import EvaluationEngine, as_engine
from repro.core.fd_graph import FdTransactionGraph
from repro.core.ind_graph import IndQTransactionGraph
from repro.core.naive import WorldEvaluator, maximal_worlds
from repro.core.results import DCSatResult, DCSatStats
from repro.core.workspace import Workspace
from repro.errors import AlgorithmError
from repro.obs.perf import CostModel
from repro.obs.trace import span as obs_span
from repro.query.analysis import constant_patterns, is_connected
from repro.query.ast import AggregateQuery, ConjunctiveQuery


def component_survivors(
    workspace: Workspace,
    fd_graph: FdTransactionGraph,
    ind_graph: IndQTransactionGraph,
    query: ConjunctiveQuery | AggregateQuery,
    use_coverage: bool = True,
    stats: DCSatStats | None = None,
) -> list[set[str]]:
    """The components of ``G^{q,ind}_T`` that survive the cheap pruning.

    Components also include never-appendable transactions (they carry
    no worlds); restrict every component to fd-graph nodes.  Coverage
    filtering happens for every component up front (the cheap test),
    then only the surviving components pay for clique enumeration.

    Each survivor is an independent unit of work (Proposition 2: no
    satisfying assignment spans two components), which is exactly what
    :mod:`repro.service.pool` fans out across worker processes.
    """
    patterns = constant_patterns(query)
    survivors: list[set[str]] = []
    with obs_span("component_prune") as sp:
        total = pruned = 0
        for component in ind_graph.components(query):
            total += 1
            if stats is not None:
                stats.components_total += 1
            # The bitset planner answers the component ∩ nodes
            # intersection through its interner masks (one AND sweep);
            # the set planner intersects Python sets.
            restrict = getattr(fd_graph, "restrict_appendable", None)
            if restrict is not None:
                candidates = restrict(component)
            else:
                candidates = component & fd_graph.nodes
            if not candidates:
                pruned += 1
                if stats is not None:
                    stats.components_pruned += 1
                continue
            if use_coverage and not covers(workspace, candidates, patterns):
                pruned += 1
                if stats is not None:
                    stats.components_pruned += 1
                continue
            if stats is not None:
                stats.max_component_size = max(
                    stats.max_component_size, len(candidates)
                )
            survivors.append(candidates)
        sp.set(components=total, pruned=pruned, survivors=len(survivors))
    return survivors


def solve_component(
    workspace: Workspace,
    fd_graph: FdTransactionGraph,
    query: ConjunctiveQuery | AggregateQuery,
    candidates: set[str],
    evaluate_world: WorldEvaluator | EvaluationEngine,
    pivot: bool = True,
    stats: DCSatStats | None = None,
) -> frozenset[str] | None:
    """Run the maximal-clique machinery within one surviving component.

    Returns the first violating world (as a frozenset of pending
    transaction ids), or ``None`` when no possible world restricted to
    *candidates* satisfies the query.  This is the picklable task unit
    of the parallel solver pool: it only needs the workspace, the
    fd-graph and a candidate set — no ind-graph, no checker.
    """
    engine = as_engine(evaluate_world)
    before = stats.cliques_enumerated if stats is not None else 0
    with obs_span(
        "clique_sweep", candidates=len(candidates), engine=engine.name
    ) as sp:
        witness = engine.sweep(
            query,
            maximal_worlds(workspace, fd_graph, restrict=candidates, pivot=pivot),
            stats=stats,
            count_cliques=True,
        )
        after = stats.cliques_enumerated if stats is not None else 0
        sp.set(cliques=after - before, violated=witness is not None)
    return witness


def sweep_components(
    workspace: Workspace,
    fd_graph: FdTransactionGraph,
    query: ConjunctiveQuery | AggregateQuery,
    items: list[tuple[int, set[str]]],
    engine: EvaluationEngine,
    cost_model: CostModel,
    planner: str = "",
    pivot: bool = True,
    stats: DCSatStats | None = None,
) -> dict[int, frozenset[str] | None]:
    """Solve ``(index, candidates)`` units in-process, in the given order.

    The in-process sweep behind the monitor's verdict ledger and the
    solver pool's small-set path.  *items* arrive in ascending index
    order, so the sweep stops at the first witness: no later component
    can hold the deterministic (lowest-index) one.  Every solve is timed
    into *cost_model*, which is what warms the pool's group planner.
    Returns ``{index: witness}`` for every component solved.
    """
    stats = stats if stats is not None else DCSatStats()
    resolved: dict[int, frozenset[str] | None] = {}
    for index, candidates in items:
        cliques_before = stats.cliques_enumerated
        started = time.perf_counter()
        with obs_span("solve_component", component=index):
            witness = solve_component(
                workspace, fd_graph, query, candidates, engine,
                pivot=pivot, stats=stats,
            )
        cost_model.observe(
            time.perf_counter() - started,
            len(candidates),
            engine=engine.name,
            planner=planner,
            cliques=stats.cliques_enumerated - cliques_before,
        )
        resolved[index] = witness
        if witness is not None:
            break
    return resolved


async def solve_component_async(
    workspace: Workspace,
    fd_graph: FdTransactionGraph,
    query: ConjunctiveQuery | AggregateQuery,
    candidates: set[str],
    engine: EvaluationEngine,
    pivot: bool = True,
    stats: DCSatStats | None = None,
) -> frozenset[str] | None:
    """:func:`solve_component` on the engine's coroutine surface."""
    before = stats.cliques_enumerated if stats is not None else 0
    with obs_span(
        "clique_sweep", candidates=len(candidates), engine=engine.name
    ) as sp:
        witness = await engine.sweep_async(
            query,
            maximal_worlds(workspace, fd_graph, restrict=candidates, pivot=pivot),
            stats=stats,
            count_cliques=True,
        )
        after = stats.cliques_enumerated if stats is not None else 0
        sp.set(cliques=after - before, violated=witness is not None)
    return witness


def opt_dcsat(
    workspace: Workspace,
    fd_graph: FdTransactionGraph,
    ind_graph: IndQTransactionGraph,
    query: ConjunctiveQuery | AggregateQuery,
    evaluate_world: WorldEvaluator | EvaluationEngine,
    pivot: bool = True,
    use_coverage: bool = True,
    check_connected: bool = True,
    stats: DCSatStats | None = None,
) -> DCSatResult:
    """Decide ``D |= ¬q`` for a connected, monotone denial constraint.

    ``use_coverage=False`` disables the ``Covers`` pruning (ablation).
    ``check_connected=False`` skips the connectivity validation (callers
    that already verified it).
    """
    if check_connected and not is_connected(query):
        raise AlgorithmError(
            "OptDCSat requires a connected conjunctive query; "
            f"{query!s} is not connected"
        )
    stats = stats if stats is not None else DCSatStats()
    stats.algorithm = stats.algorithm or "opt"
    survivors = component_survivors(
        workspace, fd_graph, ind_graph, query,
        use_coverage=use_coverage, stats=stats,
    )
    engine = as_engine(evaluate_world)
    for index, candidates in enumerate(survivors):
        with obs_span("solve_component", component=index):
            witness = solve_component(
                workspace, fd_graph, query, candidates, engine,
                pivot=pivot, stats=stats,
            )
        if witness is not None:
            return DCSatResult(satisfied=False, witness=witness, stats=stats)
    return DCSatResult(satisfied=True, stats=stats)


async def opt_dcsat_async(
    workspace: Workspace,
    fd_graph: FdTransactionGraph,
    ind_graph: IndQTransactionGraph,
    query: ConjunctiveQuery | AggregateQuery,
    engine: EvaluationEngine,
    pivot: bool = True,
    use_coverage: bool = True,
    check_connected: bool = True,
    stats: DCSatStats | None = None,
) -> DCSatResult:
    """:func:`opt_dcsat` on the engine's coroutine surface."""
    if check_connected and not is_connected(query):
        raise AlgorithmError(
            "OptDCSat requires a connected conjunctive query; "
            f"{query!s} is not connected"
        )
    stats = stats if stats is not None else DCSatStats()
    stats.algorithm = stats.algorithm or "opt"
    survivors = component_survivors(
        workspace, fd_graph, ind_graph, query,
        use_coverage=use_coverage, stats=stats,
    )
    for index, candidates in enumerate(survivors):
        with obs_span("solve_component", component=index):
            witness = await solve_component_async(
                workspace, fd_graph, query, candidates, engine,
                pivot=pivot, stats=stats,
            )
        if witness is not None:
            return DCSatResult(satisfied=False, witness=witness, stats=stats)
    return DCSatResult(satisfied=True, stats=stats)
