"""Connected components."""

from repro.graphs import UndirectedGraph, connected_components


def test_basic_components():
    g = UndirectedGraph(edges=[(1, 2), (2, 3), (4, 5)], nodes=[6])
    components = {frozenset(c) for c in connected_components(g)}
    assert components == {
        frozenset({1, 2, 3}),
        frozenset({4, 5}),
        frozenset({6}),
    }


def test_empty_graph():
    assert connected_components(UndirectedGraph()) == []


def test_single_component():
    g = UndirectedGraph(edges=[(i, i + 1) for i in range(10)])
    components = connected_components(g)
    assert len(components) == 1
    assert components[0] == frozenset(range(11))


def test_components_partition_nodes():
    g = UndirectedGraph(edges=[(1, 2), (3, 4), (4, 5)], nodes=[9])
    components = connected_components(g)
    seen = [n for c in components for n in c]
    assert sorted(seen) == sorted(g.nodes)
