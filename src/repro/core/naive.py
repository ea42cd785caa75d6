"""NaiveDCSat (Figure 4).

Iterates over every maximal clique of the fd-transaction graph, builds
the unique maximal possible world for the clique (``getMaximal``,
computed by the workspace's IND-support index,
:mod:`repro.core.ind_support`), and evaluates the denial constraint
there.  Sound and complete for *monotone* denial constraints: a
monotone query satisfied in any world is satisfied in some maximal
world, and every maximal world arises from a maximal clique.

Enumeration and evaluation are decoupled: :func:`maximal_worlds` emits
the evaluation plan (a pure stream of candidate active-sets, no side
effects), and the :class:`~repro.core.engine.SyncEngine` sweeps it.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.engine import SyncEngine
from repro.core.fd_graph import FdTransactionGraph
from repro.core.results import DCSatResult, DCSatStats
from repro.core.workspace import Workspace
from repro.obs.trace import span as obs_span
from repro.query.ast import AggregateQuery, ConjunctiveQuery


def maximal_worlds(
    workspace: Workspace,
    fd_graph: FdTransactionGraph,
    restrict: set[str] | None = None,
    pivot: bool = True,
) -> Iterator[frozenset[str]]:
    """The clique sweep's evaluation plan: one maximal world per clique.

    A pure generator — it never touches solver statistics, so an engine
    that prefetches a chunk of worlds cannot skew the counters.  The consuming
    engine charges ``cliques_enumerated`` / ``worlds_checked`` /
    ``evaluations`` per world it actually examines.
    """
    maximal_world = workspace.ind_support.maximal_world
    for clique in fd_graph.maximal_cliques(restrict=restrict, pivot=pivot):
        yield maximal_world(clique)


def naive_dcsat(
    workspace: Workspace,
    fd_graph: FdTransactionGraph,
    query: ConjunctiveQuery | AggregateQuery,
    engine: SyncEngine,
    pivot: bool = True,
    stats: DCSatStats | None = None,
) -> DCSatResult:
    """Decide ``D |= ¬q`` for a monotone denial constraint.

    Returns ``satisfied=False`` with the violating world as witness as
    soon as the query evaluates to true over some maximal world.
    """
    stats = stats if stats is not None else DCSatStats()
    stats.algorithm = stats.algorithm or "naive"
    with obs_span("clique_sweep", algorithm="naive", engine=engine.name) as sp:
        witness = engine.sweep(
            query,
            maximal_worlds(workspace, fd_graph, pivot=pivot),
            stats=stats,
            count_cliques=True,
        )
        sp.set(cliques=stats.cliques_enumerated, violated=witness is not None)
    if witness is not None:
        return DCSatResult(satisfied=False, witness=witness, stats=stats)
    return DCSatResult(satisfied=True, stats=stats)

