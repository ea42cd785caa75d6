"""Assignment-driven DCSat ("AssignDCSat").

A sound *and* complete solver for monotone denial constraints that works
from satisfying assignments instead of enumerating all maximal worlds:

1. Evaluate the query's body over the full overlay ``R ∪ ⋃T`` (every
   pending transaction active).  For a monotone (hence positive) query,
   every assignment satisfied in *some* possible world appears here.
2. For each satisfying assignment, each matched fact is supplied by the
   committed state or by one of its pending *provider* transactions;
   iterate over provider combinations to obtain candidate support sets
   ``S``.
3. ``q`` is violated iff some support set ``S`` extends to a possible
   world.  ``S`` must be a clique of the fd-transaction graph, and its
   inclusion-dependency support can only come from the ind-components
   that ``S`` touches; enumerate the maximal cliques containing ``S``
   inside those components and test ``S ⊆ getMaximal(clique)``.

This repairs the incompleteness of OptDCSat for assignments whose atom
chain passes through committed tuples (see :mod:`repro.core.opt`), while
typically examining far fewer worlds than NaiveDCSat.
"""

from __future__ import annotations

import itertools

from repro.core.fd_graph import FdTransactionGraph
from repro.core.ind_graph import IndQTransactionGraph
from repro.core.results import DCSatResult, DCSatStats
from repro.core.workspace import Workspace
from repro.errors import AlgorithmError
from repro.graphs import UndirectedGraph, bron_kerbosch
from repro.query.ast import AggregateQuery, ConjunctiveQuery
from repro.query.evaluator import iter_matches

#: Upper bound on provider combinations examined per assignment.
MAX_PROVIDER_COMBINATIONS = 4096


def _support_sets(workspace: Workspace, matched):
    """Yield candidate support sets (frozensets of tx ids) for a match.

    Each matched fact not present in the committed state must be supplied
    by one of its pending providers; the Cartesian product over facts
    gives all minimal support choices.
    """
    options: list[list[str | None]] = []
    for relation, values in matched:
        if workspace.fact_in_base(relation, values):
            continue
        providers = sorted(workspace.providers_of(relation, values))
        if not providers:
            return  # fact not available anywhere: match impossible
        options.append(providers)
    total = 1
    for providers in options:
        total *= len(providers)
        if total > MAX_PROVIDER_COMBINATIONS:
            raise AlgorithmError(
                "assignment solver aborted: too many provider combinations "
                f"({total} > {MAX_PROVIDER_COMBINATIONS})"
            )
    if not options:
        yield frozenset()
        return
    seen: set[frozenset[str]] = set()
    for combo in itertools.product(*options):
        support = frozenset(combo)
        if support not in seen:
            seen.add(support)
            yield support


def _world_containing(
    workspace: Workspace,
    fd_graph: FdTransactionGraph,
    ind_graph: IndQTransactionGraph,
    support: frozenset[str],
    pivot: bool,
    stats: DCSatStats,
) -> frozenset[str] | None:
    """Find a possible world including every transaction of *support*."""
    if not support:
        return frozenset()
    if not fd_graph.is_clique(support):
        return None
    # Inclusion-dependency helpers can only live in the ind-components of
    # the support transactions (parents share projected values).
    components = ind_graph.components()
    pool: set[str] = set()
    for component in components:
        if component & support:
            pool |= component
    pool &= fd_graph.nodes
    pool -= support
    # Candidates must be fd-compatible with the whole support set.
    candidates = {
        tx
        for tx in pool
        if all(fd_graph.has_edge(tx, member) for member in support)
    }
    contested = {tx for tx in candidates if fd_graph.conflicts[tx] & candidates}
    free = candidates - contested
    if not contested:
        clique_iter = iter([frozenset()])
    else:
        subgraph = UndirectedGraph(nodes=contested)
        contested_list = sorted(contested)
        for i, u in enumerate(contested_list):
            for v in contested_list[i + 1 :]:
                if v not in fd_graph.conflicts[u]:
                    subgraph.add_edge(u, v)
        clique_iter = bron_kerbosch(subgraph, pivot=pivot)
    for extension in clique_iter:
        clique = support | free | extension
        stats.cliques_enumerated += 1
        world = workspace.ind_support.maximal_world(clique)
        stats.worlds_checked += 1
        if support <= world:
            return world
    return None


def assignment_dcsat(
    workspace: Workspace,
    fd_graph: FdTransactionGraph,
    ind_graph: IndQTransactionGraph,
    query: ConjunctiveQuery | AggregateQuery,
    evaluate_world,
    pivot: bool = True,
    stats: DCSatStats | None = None,
) -> DCSatResult:
    """Decide ``D |= ¬q`` for a monotone *conjunctive* denial constraint.

    Aggregate queries are rejected: a single assignment does not witness
    an aggregate threshold (use NaiveDCSat for those).
    """
    if isinstance(query, AggregateQuery):
        raise AlgorithmError(
            "the assignment solver handles conjunctive denial constraints "
            "only; aggregate thresholds need whole-world evaluation"
        )
    if not query.is_positive:
        raise AlgorithmError(
            "the assignment solver requires a positive (monotone) query"
        )
    stats = stats if stats is not None else DCSatStats()
    stats.algorithm = stats.algorithm or "assign"

    workspace.activate_all()
    for _, matched in iter_matches(query, workspace):
        stats.assignments_examined += 1
        for support in _support_sets(workspace, matched):
            world = _world_containing(
                workspace, fd_graph, ind_graph, support, pivot, stats
            )
            if world is not None:
                return DCSatResult(satisfied=False, witness=world, stats=stats)
    return DCSatResult(satisfied=True, stats=stats)
