"""Maximal clique enumeration: Bron–Kerbosch with Tomita pivoting.

NaiveDCSat and OptDCSat iterate over the maximal cliques of the
fd-transaction graph — each maximal clique determines one maximal
possible world.  We implement the classical Bron–Kerbosch algorithm [9]
with the pivot selection of Tomita, Tanaka and Takahashi [44] (choose
the vertex of ``P ∪ X`` with the most neighbours in ``P``), exactly as
the paper's implementation does.  A no-pivot variant is kept for the
ablation benchmarks.

Emission order is *canonical*: nodes are ranked by their sorted order,
candidates are explored ascending, and pivot ties break toward the
lowest rank.  The sequence of emitted cliques is therefore a pure
function of the graph — independent of hash randomization — so the
evaluation plans (which worlds are checked, in which order) and the
witness a check reports are deterministic across runs and processes.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

from repro.graphs.undirected import UndirectedGraph


def canonical_ranks(nodes: Iterable[Hashable]) -> dict:
    """A deterministic total order over *nodes*: ``node -> rank``.

    Sorted order where the nodes are mutually comparable; a
    type-name/repr key otherwise (mixed-type graphs in tests).
    """
    try:
        ordered = sorted(nodes)
    except TypeError:
        ordered = sorted(nodes, key=lambda n: (type(n).__name__, repr(n)))
    return {node: index for index, node in enumerate(ordered)}


def bron_kerbosch(
    graph: UndirectedGraph, pivot: bool = True
) -> Iterator[frozenset]:
    """Yield every maximal clique of *graph* as a frozenset of nodes.

    Iterative (explicit stack) to survive graphs whose recursion depth
    would exceed Python's limit.  With ``pivot=False`` runs the plain
    Bron–Kerbosch recurrence — exponentially slower on dense graphs,
    retained for the pivoting ablation.  Cliques are emitted in the
    canonical order described in the module docstring.
    """
    adjacency = graph.adjacency()
    yield from bron_kerbosch_adjacency(
        adjacency, canonical_ranks(adjacency), pivot=pivot
    )


def bron_kerbosch_adjacency(
    adjacency: dict, rank: dict, pivot: bool = True
) -> Iterator[frozenset]:
    """:func:`bron_kerbosch` over a prepared frozen adjacency
    (``node -> frozenset of neighbours``) and its
    :func:`canonical_ranks`, for callers that sweep the same graph
    repeatedly and keep both."""
    if not adjacency:
        return

    # Stack frames: (R, P, X, candidate vertices, popped lowest-rank
    # first).
    def candidates(p: set, x: set) -> list:
        if not p:
            return []
        if pivot:
            # Tomita pivot: vertex of P ∪ X maximizing |N(u) ∩ P|;
            # ties break toward the lowest rank (ascending scan with a
            # strict improvement test).
            best = None
            best_score = -1
            for u in sorted(p | x, key=rank.__getitem__):
                score = len(adjacency[u] & p)
                if score > best_score:
                    best, best_score = u, score
            pool = p - adjacency[best]
        else:
            pool = p
        # Descending rank: ``pop()`` then processes ascending.
        return sorted(pool, key=rank.__getitem__, reverse=True)

    stack: list[tuple[set, set, set, list]] = []
    r: set = set()
    p: set = set(adjacency)
    x: set = set()
    stack.append((r, p, x, candidates(p, x)))
    while stack:
        r, p, x, cands = stack[-1]
        if not p and not x:
            yield frozenset(r)
            stack.pop()
            continue
        if not cands:
            stack.pop()
            continue
        v = cands.pop()
        if v not in p:
            continue
        p.remove(v)
        x.add(v)
        nv = adjacency[v]
        new_r = r | {v}
        new_p = p & nv
        new_x = x & nv
        # x already contains v, but v ∉ nv (no self loops), so new_x is
        # exactly the excluded set for the child call.
        stack.append((new_r, new_p, new_x, candidates(new_p, new_x)))


def maximal_cliques(graph: UndirectedGraph, pivot: bool = True) -> list[frozenset]:
    """All maximal cliques of *graph*, as a list (see :func:`bron_kerbosch`)."""
    return list(bron_kerbosch(graph, pivot=pivot))


def is_clique(graph: UndirectedGraph, nodes: set | frozenset) -> bool:
    """True when *nodes* induces a complete subgraph of *graph*."""
    nodes = list(nodes)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if not graph.has_edge(u, v):
                return False
    return True


def maximal_cliques_containing(
    graph: UndirectedGraph, seed: frozenset, pivot: bool = True
) -> Iterator[frozenset]:
    """Yield the maximal cliques of *graph* that contain every node of *seed*.

    Used by the assignment-driven solver: restrict the search to the
    common neighbourhood of the seed and extend.  The seed itself must be
    a clique; otherwise nothing is yielded.
    """
    if not seed:
        yield from bron_kerbosch(graph, pivot=pivot)
        return
    if not is_clique(graph, seed):
        return
    common: set | None = None
    for node in seed:
        if node not in graph:
            return
        nbrs = set(graph.neighbors(node))
        common = nbrs if common is None else common & nbrs
    assert common is not None
    common -= set(seed)
    if not common:
        yield frozenset(seed)
        return
    for clique in bron_kerbosch(graph.subgraph(common), pivot=pivot):
        yield frozenset(seed) | clique
