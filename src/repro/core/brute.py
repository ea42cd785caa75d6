"""Brute-force reference solver: enumerate ``Poss(D)`` and evaluate.

Exponential in the number of pending transactions — the oracle against
which the practical algorithms are validated, and the fallback for
non-monotone denial constraints on small instances (where maximal worlds
do not suffice).

The search is breadth-first over extendable worlds; each frontier level
is one evaluation plan handed to the
:class:`~repro.core.engine.SyncEngine` (so a multi-world backend
answers a level in chunked round trips), and the frontier is only
extended once the level is known violation-free.
"""

from __future__ import annotations

from repro.core.engine import SyncEngine
from repro.core.results import DCSatResult, DCSatStats
from repro.core.workspace import Workspace
from repro.errors import AlgorithmError
from repro.query.ast import AggregateQuery, ConjunctiveQuery
from repro.relational.checking import can_extend

#: Refuse to enumerate beyond this many pending transactions by default.
DEFAULT_PENDING_LIMIT = 20


def _check_limit(workspace: Workspace, pending_limit: int) -> None:
    pending = len(workspace.db.pending_ids)
    if pending > pending_limit:
        raise AlgorithmError(
            f"brute-force DCSat refused: {pending} pending "
            f"transactions exceed the limit of {pending_limit}"
        )


def _extend_frontier(
    workspace: Workspace,
    frontier: list[frozenset[str]],
    seen: set[frozenset[str]],
) -> list[frozenset[str]]:
    """All unseen one-transaction extensions of the frontier's worlds."""
    db = workspace.db
    next_frontier: list[frozenset[str]] = []
    for world in frontier:
        for tx_id in db.pending_ids:
            if tx_id in world:
                continue
            candidate = world | {tx_id}
            if candidate in seen:
                continue
            workspace.set_active(world)
            if can_extend(
                workspace, db.constraints, workspace.transaction_facts(tx_id)
            ):
                seen.add(candidate)
                next_frontier.append(candidate)
    return next_frontier


def brute_dcsat(
    workspace: Workspace,
    query: ConjunctiveQuery | AggregateQuery,
    engine: SyncEngine,
    pending_limit: int = DEFAULT_PENDING_LIMIT,
    stats: DCSatStats | None = None,
) -> DCSatResult:
    """Decide ``D |= ¬q`` by checking the query over every possible world.

    Sound and complete for *any* Boolean query (monotone or not).
    Raises :class:`AlgorithmError` when the pending set exceeds
    *pending_limit* (the world count can be exponential in it).
    """
    _check_limit(workspace, pending_limit)
    stats = stats if stats is not None else DCSatStats()
    stats.algorithm = stats.algorithm or "brute"

    seen: set[frozenset[str]] = {frozenset()}
    frontier: list[frozenset[str]] = [frozenset()]
    while frontier:
        witness = engine.sweep(query, frontier, stats=stats)
        if witness is not None:
            return DCSatResult(satisfied=False, witness=witness, stats=stats)
        frontier = _extend_frontier(workspace, frontier, seen)
    return DCSatResult(satisfied=True, stats=stats)

