"""Connected components (iterative BFS)."""

from __future__ import annotations

from collections import deque
from typing import Hashable

from repro.graphs.undirected import UndirectedGraph


def connected_components(graph: UndirectedGraph) -> list[frozenset]:
    """Return the connected components of *graph* as frozensets of nodes.

    Deterministic order: components are emitted in first-seen node order
    (insertion order of the underlying adjacency dict).
    """
    seen: set[Hashable] = set()
    components: list[frozenset] = []
    for start in graph:
        if start in seen:
            continue
        queue: deque = deque([start])
        seen.add(start)
        component = {start}
        while queue:
            node = queue.popleft()
            for neighbor in graph.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    component.add(neighbor)
                    queue.append(neighbor)
        components.append(frozenset(component))
    return components
