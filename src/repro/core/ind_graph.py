"""The ind-q-transaction graph ``G^{q,ind}_T`` (Section 6.2, Figure 3).

Edges come from equality constraints ``Θ = Θ_I ∪ Θ_q``: there is an edge
``(T, T')`` when some ``θ ∈ Θ`` is satisfied by a pair of their tuples.
OptDCSat only needs the *connected components*, so instead of
materializing edges we union transactions sharing a projected value:
for ``θ = L[X̄] = S[Ȳ]``, every transaction contributing a tuple of
``L`` projecting to value ``v`` is connected to every transaction
contributing a tuple of ``S`` projecting to ``v`` — i.e. per projected
value, all contributors on both sides fall in one component (they are
pairwise linked through any contributor of the opposite side).

The Θ_I part is precomputed in the steady state; Θ_q edges are added per
query on top of a cheap clone of the union-find.
"""

from __future__ import annotations

from repro.core.workspace import Workspace
from repro.query.analysis import (
    EqualityConstraint,
    equality_constraints_from_inds,
    equality_constraints_from_query,
)
from repro.query.ast import AggregateQuery, ConjunctiveQuery


class _UnionFind:
    """Union-find with path halving; supports cheap cloning."""

    __slots__ = ("parent",)

    def __init__(self, parent: dict[str, str] | None = None):
        self.parent: dict[str, str] = dict(parent) if parent else {}

    def add(self, item: str) -> None:
        self.parent.setdefault(item, item)

    def find(self, item: str) -> str:
        self.parent.setdefault(item, item)
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def union_all(self, items) -> None:
        items = list(items)
        for other in items[1:]:
            self.union(items[0], other)

    def components(self) -> list[frozenset[str]]:
        groups: dict[str, set[str]] = {}
        for item in self.parent:
            groups.setdefault(self.find(item), set()).add(item)
        # Deterministic component order (lowest member first): the
        # evaluation-plan stream — and hence backend parity and the
        # reported witness — must not depend on hash randomization.
        return sorted((frozenset(g) for g in groups.values()), key=min)

    def clone(self) -> "_UnionFind":
        return _UnionFind(self.parent)


class IndQTransactionGraph:
    """Connected-component index for ``G^{q,ind}_T``."""

    def __init__(self, workspace: Workspace):
        self._workspace = workspace
        self._ind_constraints = equality_constraints_from_inds(
            workspace.db.constraints
        )
        self._base_uf: _UnionFind | None = None

    # ------------------------------------------------------------------
    # Steady-state maintenance

    def invalidate(self) -> None:
        """Drop the precomputed Θ_I union-find (pending set changed)."""
        self._base_uf = None

    def _apply_constraint(
        self, uf: _UnionFind, constraint: EqualityConstraint
    ) -> None:
        left = self._workspace.pending_projections(
            constraint.left, constraint.left_positions
        )
        right = self._workspace.pending_projections(
            constraint.right, constraint.right_positions
        )
        # Iterate the smaller side for speed; the semantics are symmetric.
        if len(left) > len(right):
            left, right = right, left
        for key, group_a in left.items():
            group_b = right.get(key)
            if group_b:
                combined = group_a | group_b
                if len(combined) > 1:
                    uf.union_all(combined)

    def _ind_union_find(self) -> _UnionFind:
        if self._base_uf is None:
            uf = _UnionFind()
            for tx_id in self._workspace.db.pending_ids:
                uf.add(tx_id)
            for constraint in self._ind_constraints:
                self._apply_constraint(uf, constraint)
            self._base_uf = uf
        return self._base_uf

    # ------------------------------------------------------------------
    # Per-query components

    def components(
        self, query: ConjunctiveQuery | AggregateQuery | None = None
    ) -> list[frozenset[str]]:
        """Connected components of ``G^{q,ind}_T``.

        With ``query=None`` this is ``G^ind_T`` (the precomputed part of
        Figure 3); otherwise the Θ_q edges of the query are added.
        """
        base = self._ind_union_find()
        if query is None:
            return base.components()
        uf = base.clone()
        for constraint in equality_constraints_from_query(query):
            self._apply_constraint(uf, constraint)
        return uf.components()

    def ind_edge_count(self) -> int:
        """Number of non-singleton Θ_I components (diagnostics only)."""
        return sum(1 for c in self._ind_union_find().components() if len(c) > 1)

    def __repr__(self) -> str:
        components = self._ind_union_find().components()
        return (
            f"IndQTransactionGraph({len(self._workspace.db.pending_ids)} txs, "
            f"{len(components)} ind-components)"
        )
