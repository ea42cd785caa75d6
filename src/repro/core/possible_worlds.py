"""Possible worlds: the can-append relation, recognition and enumeration.

``R →(T,I) R'`` holds when ``R' = R`` or ``R' = R ∪ T`` for a pending
transaction ``T`` with ``R' |= I``; ``Poss(D)`` is the transitive
closure (Section 4).  This module provides:

* :func:`enumerate_possible_worlds` — all of ``Poss(D)`` (exponential;
  meant for small instances, tests and the brute-force oracle);
* :func:`is_possible_world` — the PTIME recognition of Proposition 1;
* :func:`get_maximal` — the ``getMaximal`` procedure of Figure 4, over a
  :class:`~repro.core.workspace.Workspace` (it mutates the workspace's
  active set to the maximal world it constructs).  The clique sweeps
  build their worlds through the workspace's IND-support index instead
  (:mod:`repro.core.ind_support`); this generic fixpoint serves candidate
  sets that may conflict, where arrival order decides, and is the
  index's test oracle.

Why the greedy fixpoints are correct: functional-dependency satisfaction
is *anti-monotone* (every subset of a satisfying relation satisfies the
FDs), so FD-consistency of the final state implies FD-consistency of
every intermediate state; inclusion-dependency "addability" is
*monotone* (new tuples only add parents), so a transaction that can be
appended now can still be appended later.  Hence repeatedly adding any
currently-appendable transaction reaches a unique fixpoint.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.workspace import Workspace
from repro.relational.checking import can_extend, find_violations
from repro.relational.database import Database


def world_database(
    db: BlockchainDatabase, included: Iterable[str]
) -> Database:
    """Materialize the world ``R ∪ {facts of included transactions}``."""
    world = db.current.copy()
    for tx_id in included:
        tx = db.transaction(tx_id)
        for rel, values in tx:
            world.insert(rel, values)
    return world


def enumerate_possible_worlds(
    db: BlockchainDatabase, limit: int | None = None
) -> Iterator[frozenset[str]]:
    """Yield every possible world of ``D`` as a frozenset of included ids.

    Exhaustive BFS over the can-append relation; the empty frozenset
    (the current state itself) is always yielded first.  ``limit`` guards
    against blow-up: the iterator raises :class:`ReproError` after
    yielding that many worlds.
    """
    from repro.errors import ReproError

    workspace = Workspace(db)
    seen: set[frozenset[str]] = set()
    frontier: list[frozenset[str]] = [frozenset()]
    seen.add(frozenset())
    count = 0
    while frontier:
        next_frontier: list[frozenset[str]] = []
        for world in frontier:
            yield world
            count += 1
            if limit is not None and count > limit:
                raise ReproError(
                    f"possible-world enumeration exceeded limit of {limit}"
                )
            workspace.set_active(world)
            for tx_id in db.pending_ids:
                if tx_id in world:
                    continue
                candidate = world | {tx_id}
                if candidate in seen:
                    continue
                if can_extend(
                    workspace, db.constraints, workspace.transaction_facts(tx_id)
                ):
                    seen.add(candidate)
                    next_frontier.append(candidate)
        frontier = next_frontier


def is_possible_world(db: BlockchainDatabase, candidate: Database) -> bool:
    """Decide ``candidate ∈ Poss(D)`` in polynomial time (Proposition 1).

    Greedy saturation: repeatedly append any pending transaction whose
    facts all lie inside *candidate* and whose addition preserves ``I``.
    Correct because appendability only grows as tuples accumulate (see
    the module docstring), and appending a transaction contained in the
    target can never overshoot it.
    """
    # The candidate must extend the current state...
    for rel_name in db.current.relation_names:
        if rel_name not in candidate:
            return False
        if not db.current[rel_name].tuples <= candidate[rel_name].tuples:
            return False
    # ... and be consistent itself.
    if find_violations(candidate, db.constraints):
        return False

    # Facts of the candidate that are not in the current state must be
    # exactly covered by a sequence of appendable transactions.
    target_delta: set[tuple[str, tuple]] = set()
    for rel_name in candidate.relation_names:
        if rel_name not in db.current:
            return False
        base_tuples = db.current[rel_name].tuples
        for values in candidate[rel_name]:
            if values not in base_tuples:
                target_delta.add((rel_name, values))

    workspace = Workspace(db)
    eligible = [
        tx_id
        for tx_id in db.pending_ids
        if all(fact in target_delta or db.current.contains_fact(*fact)
               for fact in db.transaction(tx_id))
    ]
    included: set[str] = set()
    covered: set[tuple[str, tuple]] = set()
    progress = True
    while progress and covered != target_delta:
        progress = False
        workspace.set_active(included)
        for tx_id in list(eligible):
            if tx_id in included:
                continue
            if can_extend(
                workspace, db.constraints, workspace.transaction_facts(tx_id)
            ):
                included.add(tx_id)
                covered.update(
                    fact for fact in db.transaction(tx_id) if fact in target_delta
                )
                workspace.set_active(included)
                progress = True
    return covered == target_delta


def get_maximal(
    workspace: Workspace,
    candidates: Iterable[str],
    start: Iterable[str] = (),
) -> frozenset[str]:
    """``getMaximal`` (Figure 4): a maximal world over *candidates*.

    Starting from the world selected by *start* (normally empty),
    repeatedly appends every candidate transaction whose addition
    preserves the constraints, until a fixpoint.  Leaves the workspace's
    active set at the resulting world and returns it.

    The result is *unique* (order-independent) when the candidates are
    mutually fd-consistent — a clique of the fd-transaction graph, which
    is how the DCSat algorithms always call it — because FD obstacles
    then never arise and IND-appendability only grows.  Over a candidate
    set containing conflicts, the iteration order decides the races
    (first-come wins), which is exactly the behaviour the likelihood
    module's arrival-order semantics builds on.
    """
    constraints = workspace.db.constraints
    included = set(start)
    workspace.set_active(included)
    remaining = [tx_id for tx_id in candidates if tx_id not in included]
    progress = True
    while remaining and progress:
        progress = False
        leftover: list[str] = []
        for tx_id in remaining:
            if can_extend(
                workspace, constraints, workspace.transaction_facts(tx_id)
            ):
                included.add(tx_id)
                workspace.activate(tx_id)
                progress = True
            else:
                leftover.append(tx_id)
        remaining = leftover
    return frozenset(included)
