"""Certain answers over blockchain databases (Section 5's aside).

The paper observes that the classical *certain answers* question — which
tuples appear in the query result over **every** possible world — is
less interesting here than denial constraints, because for positive
conjunctive queries the certain answers are precisely the answers over
the current state ``R`` (every world contains ``R``, and ``R`` itself is
a world).  This module makes that observation executable:

* :func:`certain_answers` — the general definition, by world
  enumeration (exponential; small instances);
* :func:`certain_answers_monotone` — the PTIME shortcut for monotone
  queries: evaluate over ``R`` alone;
* plus *possible answers* (appear in **some** world), the other side of
  the coin, which for monotone queries reduces to the maximal worlds the
  DCSat machinery already enumerates.
"""

from __future__ import annotations

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.fd_graph import FdTransactionGraph
from repro.core.possible_worlds import enumerate_possible_worlds
from repro.core.workspace import Workspace
from repro.errors import AlgorithmError
from repro.query.analysis import is_monotone
from repro.query.ast import AggregateQuery, ConjunctiveQuery
from repro.query.evaluator import iter_assignments

#: An answer: the tuple of values bound to the query's variables, in
#: sorted variable-name order.
Answer = tuple


def _answers_over(query: ConjunctiveQuery, view) -> set[Answer]:
    names = sorted(v.name for v in query.variables)
    return {
        tuple(assignment[name] for name in names)
        for assignment in iter_assignments(query, view)
    }


def certain_answers(
    db: BlockchainDatabase,
    query: ConjunctiveQuery,
    world_limit: int = 4096,
) -> set[Answer]:
    """Answers present in *every* possible world (the general definition).

    Enumerates ``Poss(D)`` — exponential; guarded by *world_limit*.
    """
    if isinstance(query, AggregateQuery):
        raise AlgorithmError("certain answers are defined for conjunctive queries")
    workspace = Workspace(db)
    result: set[Answer] | None = None
    for world in enumerate_possible_worlds(db, limit=world_limit):
        workspace.set_active(world)
        answers = _answers_over(query, workspace)
        result = answers if result is None else (result & answers)
        if not result:
            break
    workspace.clear_active()
    return result or set()


def certain_answers_monotone(
    db: BlockchainDatabase, query: ConjunctiveQuery
) -> set[Answer]:
    """Certain answers of a *monotone* query: just evaluate over ``R``.

    ``R`` is itself a possible world and a subset of every other one, so
    for monotone queries the intersection over all worlds equals the
    answers over ``R`` — the paper's observation that certain answering
    collapses in this setting.
    """
    if not is_monotone(query):
        raise AlgorithmError(
            "the R-only shortcut requires a monotone query; use "
            "certain_answers() for general ones"
        )
    workspace = Workspace(db)
    workspace.clear_active()
    return _answers_over(query, workspace)


def possible_answers(
    db: BlockchainDatabase,
    query: ConjunctiveQuery,
    pivot: bool = True,
) -> set[Answer]:
    """Answers appearing in *some* possible world, for monotone queries.

    A monotone answer appears in some world iff it appears in some
    *maximal* world, so this walks the same maximal cliques DCSat does —
    no exponential world enumeration.
    """
    if not is_monotone(query):
        raise AlgorithmError("possible_answers requires a monotone query")
    workspace = Workspace(db)
    fd_graph = FdTransactionGraph(workspace)
    answers: set[Answer] = set()
    for clique in fd_graph.maximal_cliques(pivot=pivot):
        world = workspace.ind_support.maximal_world(clique)
        workspace.set_active(world)
        answers |= _answers_over(query, workspace)
    workspace.clear_active()
    return answers
