"""OptDCSat (Figure 5).

For connected, monotone denial constraints: split the pending set into
connected components of the ind-q-transaction graph, discard components
that cannot cover the query's constants, and run the maximal-clique
machinery within each surviving component independently (Proposition 2:
no satisfying assignment spans two components).

Enumeration is decoupled from evaluation: :func:`component_survivors`
plus the per-component :func:`~repro.core.naive.maximal_worlds` stream
form the evaluation plan, and :func:`solve_component` hands the stream
to the :class:`~repro.core.engine.SyncEngine`.

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

from repro.core.coverage import covers, uncovered_contributors
from repro.core.engine import SyncEngine
from repro.core.fd_graph import FdTransactionGraph
from repro.core.ind_graph import IndQTransactionGraph
from repro.core.naive import maximal_worlds
from repro.core.results import DCSatResult, DCSatStats
from repro.core.workspace import Workspace
from repro.errors import AlgorithmError
from repro.obs.trace import span as obs_span
from repro.query.analysis import CompiledConstraint
from repro.query.ast import AggregateQuery, ConjunctiveQuery


def component_survivors(
    workspace: Workspace,
    fd_graph: FdTransactionGraph,
    ind_graph: IndQTransactionGraph,
    constraint: CompiledConstraint,
    use_coverage: bool = True,
    stats: DCSatStats | None = None,
) -> list[set[str]]:
    """The components of ``G^{q,ind}_T`` that survive the cheap pruning.

    Components also include never-appendable transactions (they carry
    no worlds); restrict every component to fd-graph nodes.  Coverage
    filtering happens for every component up front (the cheap test),
    then only the surviving components pay for clique enumeration.
    Survivors come in component order (lowest member first).

    When some constant pattern has no match in ``R``, only the
    components holding a pending contributor of that pattern can cover
    it: those are the only ones visited, and the rest count as pruned
    without being looked at.

    Each survivor is an independent unit of work (Proposition 2: no
    satisfying assignment spans two components), which is exactly what
    :mod:`repro.service.pool` fans out across worker processes.
    """
    patterns = constraint.patterns if use_coverage else ()
    survivors: list[set[str]] = []
    with obs_span("component_prune") as sp:
        partition = ind_graph.partition(constraint)
        total = len(partition)
        for component in _candidate_components(workspace, partition, patterns):
            candidates = component & fd_graph.nodes
            if candidates and covers(workspace, candidates, patterns):
                survivors.append(candidates)
        pruned = total - len(survivors)
        if stats is not None:
            stats.components_total += total
            stats.components_pruned += pruned
            for candidates in survivors:
                stats.max_component_size = max(
                    stats.max_component_size, len(candidates)
                )
        sp.set(components=total, pruned=pruned, survivors=len(survivors))
    return survivors


def _candidate_components(
    workspace: Workspace, partition, patterns
) -> list[set[str]]:
    """The components of *partition* that can cover *patterns*, in order.

    A pattern with no match in ``R`` is covered only through one of its
    pending contributors, so the components holding a contributor of
    such a pattern are a superset of the survivors; the pattern with the
    fewest contributors gives the fewest components to test.
    """
    contributors = min(
        uncovered_contributors(workspace, patterns), key=len, default=None
    )
    if contributors is None:
        groups = partition.members.values()
    else:
        groups = {
            partition.root[tx_id]: partition.members[partition.root[tx_id]]
            for tx_id in contributors
        }.values()
    return sorted(groups, key=min)


def solve_component(
    workspace: Workspace,
    fd_graph: FdTransactionGraph,
    query: ConjunctiveQuery | AggregateQuery,
    candidates: set[str],
    engine: SyncEngine,
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
    engine: SyncEngine,
    pivot: bool = True,
    stats: DCSatStats | None = None,
) -> dict[int, frozenset[str] | None]:
    """Solve ``(index, candidates)`` units in-process, in the given order.

    The one in-process sweep loop: :func:`opt_dcsat`, the monitor's
    verdict ledger and the solver pool's small-set path all run it.
    *items* arrive in ascending index order, so the sweep stops at the
    first witness: no later component can hold the deterministic
    (lowest-index) one.  Returns ``{index: witness}`` for every
    component solved.
    """
    resolved: dict[int, frozenset[str] | None] = {}
    for index, candidates in items:
        with obs_span("solve_component", component=index):
            witness = solve_component(
                workspace, fd_graph, query, candidates, engine,
                pivot=pivot, stats=stats,
            )
        resolved[index] = witness
        if witness is not None:
            break
    return resolved


def opt_dcsat(
    workspace: Workspace,
    fd_graph: FdTransactionGraph,
    ind_graph: IndQTransactionGraph,
    constraint: CompiledConstraint,
    engine: SyncEngine,
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
    query = constraint.query
    if check_connected and not constraint.connected:
        raise AlgorithmError(
            "OptDCSat requires a connected conjunctive query; "
            f"{query!s} is not connected"
        )
    stats = stats if stats is not None else DCSatStats()
    stats.algorithm = stats.algorithm or "opt"
    survivors = component_survivors(
        workspace, fd_graph, ind_graph, constraint,
        use_coverage=use_coverage, stats=stats,
    )
    resolved = sweep_components(
        workspace, fd_graph, query, list(enumerate(survivors)), engine,
        pivot=pivot, stats=stats,
    )
    for witness in resolved.values():
        if witness is not None:
            return DCSatResult(satisfied=False, witness=witness, stats=stats)
    return DCSatResult(satisfied=True, stats=stats)

