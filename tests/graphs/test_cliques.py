"""Bron–Kerbosch maximal cliques, cross-checked against networkx."""

import itertools

import networkx as nx
import pytest

from repro.graphs import UndirectedGraph, bron_kerbosch, maximal_cliques
from repro.graphs.cliques import is_clique


def _as_nx(graph: UndirectedGraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    g.add_edges_from(graph.edges())
    return g


def _nx_cliques(graph: UndirectedGraph) -> set[frozenset]:
    return {frozenset(c) for c in nx.find_cliques(_as_nx(graph))}


def test_triangle_plus_pendant():
    g = UndirectedGraph(edges=[(1, 2), (2, 3), (1, 3), (3, 4)])
    cliques = set(maximal_cliques(g))
    assert cliques == {frozenset({1, 2, 3}), frozenset({3, 4})}


def test_empty_graph():
    assert maximal_cliques(UndirectedGraph()) == []


def test_isolated_nodes_are_cliques():
    g = UndirectedGraph(nodes=[1, 2])
    assert set(maximal_cliques(g)) == {frozenset({1}), frozenset({2})}


def test_complete_graph_single_clique():
    g = UndirectedGraph(
        edges=[(i, j) for i in range(6) for j in range(i + 1, 6)]
    )
    assert set(maximal_cliques(g)) == {frozenset(range(6))}


def test_matching_complement_structure():
    # Complete graph on 6 nodes minus a perfect matching: pick one
    # endpoint per matched pair -> 2^3 maximal cliques.
    nodes = list(range(6))
    matching = {frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})}
    g = UndirectedGraph(nodes=nodes)
    for i, j in itertools.combinations(nodes, 2):
        if frozenset({i, j}) not in matching:
            g.add_edge(i, j)
    cliques = set(maximal_cliques(g))
    assert len(cliques) == 8
    assert all(len(c) == 3 for c in cliques)


@pytest.mark.parametrize("pivot", [True, False])
def test_matches_networkx_on_fixed_graphs(pivot):
    graphs = [
        UndirectedGraph(edges=[(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)]),
        UndirectedGraph(edges=[(i, i + 1) for i in range(9)]),  # path
        UndirectedGraph(edges=[(0, i) for i in range(1, 8)]),  # star
    ]
    for g in graphs:
        assert set(bron_kerbosch(g, pivot=pivot)) == _nx_cliques(g)


def test_pivot_and_no_pivot_agree():
    g = UndirectedGraph(
        edges=[(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 1), (2, 5)]
    )
    assert set(bron_kerbosch(g, pivot=True)) == set(bron_kerbosch(g, pivot=False))


def test_is_clique():
    g = UndirectedGraph(edges=[(1, 2), (2, 3), (1, 3), (3, 4)])
    assert is_clique(g, {1, 2, 3})
    assert is_clique(g, {3, 4})
    assert is_clique(g, {1})
    assert is_clique(g, set())
    assert not is_clique(g, {1, 4})
