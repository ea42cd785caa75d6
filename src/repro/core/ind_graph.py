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

The Θ_I partition is kept in the steady state, and so is one Θ_I ∪ Θ_q
partition per Θ_q *signature* a standing constraint pins
(:meth:`IndQTransactionGraph.pin`).  Both are maintained across writes
rather than rebuilt: ``issue(t)`` only adds edges at the values ``t``
projects to, so it only merges; ``commit(t)`` and ``forget(t)`` only
remove ``t``'s edges, so only the component that held ``t`` can split,
and only that component is rebuilt.  One-shot queries still get their
Θ_q edges applied to a clone of the Θ_I partition.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.workspace import Workspace
from repro.obs.trace import span as obs_span
from repro.query.analysis import (
    CompiledConstraint,
    EqualityConstraint,
    compile_constraint,
    equality_constraints_from_inds,
)
from repro.query.ast import AggregateQuery, ConjunctiveQuery
from repro.relational.relation import project


class _UnionFind:
    """Union-find over transaction ids with explicit member sets.

    Each component is one set under a representative member.  A union
    relabels the smaller side (union by size), so ``find`` is one dict
    lookup, ``members`` answers "who shares t's component" directly, and
    one component can be taken apart without touching the others.
    """

    __slots__ = ("root", "members")

    def __init__(self):
        self.root: dict[str, str] = {}
        self.members: dict[str, set[str]] = {}

    def add(self, item: str) -> None:
        if item not in self.root:
            self.root[item] = item
            self.members[item] = {item}

    def find(self, item: str) -> str:
        self.add(item)
        return self.root[item]

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        big, small = self.members[ra], self.members[rb]
        if len(big) < len(small):
            ra, rb, big, small = rb, ra, small, big
        big |= small
        root = self.root
        for item in small:
            root[item] = ra
        del self.members[rb]

    def union_all(self, items) -> None:
        items = list(items)
        for other in items[1:]:
            self.union(items[0], other)

    def split(self, item: str) -> set[str]:
        """Remove *item*; the rest of its component becomes singletons.

        Returns those former co-members, which the caller re-links.
        """
        members = self.members.pop(self.root.pop(item))
        members.discard(item)
        for other in members:
            self.root[other] = other
            self.members[other] = {other}
        return members

    def components(self) -> list[frozenset[str]]:
        # Deterministic component order (lowest member first): the
        # evaluation-plan stream — and hence backend parity and the
        # reported witness — must not depend on hash randomization.
        return sorted((frozenset(g) for g in self.members.values()), key=min)

    def clone(self) -> "_UnionFind":
        copy = _UnionFind()
        copy.root = dict(self.root)
        copy.members = {rep: set(group) for rep, group in self.members.items()}
        return copy

    def __len__(self) -> int:
        return len(self.members)


class _Pinned:
    """One maintained Θ_I ∪ Θ_q partition and the entries holding it."""

    __slots__ = ("pins", "constraints", "partition")

    def __init__(self, constraints: frozenset[EqualityConstraint]):
        self.pins = 0
        self.constraints = constraints
        self.partition: _UnionFind | None = None


class IndQTransactionGraph:
    """Connected-component index for ``G^{q,ind}_T``."""

    def __init__(self, workspace: Workspace):
        self._workspace = workspace
        self._ind_constraints = equality_constraints_from_inds(
            workspace.db.constraints
        )
        self._base_uf: _UnionFind | None = None
        self._pinned: dict[frozenset[EqualityConstraint], _Pinned] = {}
        #: Workspace version the built partitions reflect; a version
        #: moved by anything but the maintenance calls below (a direct
        #: workspace write) drops them all.
        self._version = workspace.version

    # ------------------------------------------------------------------
    # The edge rule

    def _groups(
        self,
        constraint: EqualityConstraint,
        tx_ids: Iterable[str] | None = None,
    ) -> list[set[str]]:
        """The edge rule: the transaction groups one equality constraint
        puts in a single component.

        Per projected value, the pending contributors of both sides form
        one group when both sides have one.  With *tx_ids*, only the
        values those transactions' facts project to are visited — every
        group they belong to, and no other.
        """
        left = self._workspace.pending_projections(
            constraint.left, constraint.left_positions
        )
        right = self._workspace.pending_projections(
            constraint.right, constraint.right_positions
        )
        if tx_ids is None:
            # Iterate the smaller side for speed; the rule is symmetric.
            keys = left if len(left) <= len(right) else right
        else:
            keys = set()
            db = self._workspace.db
            for tx_id in tx_ids:
                tx = db.transaction(tx_id)
                for values in tx.tuples(constraint.left):
                    keys.add(project(values, constraint.left_positions))
                for values in tx.tuples(constraint.right):
                    keys.add(project(values, constraint.right_positions))
        groups = []
        for key in keys:
            group_a = left.get(key)
            group_b = right.get(key)
            if group_a and group_b:
                combined = group_a | group_b
                if len(combined) > 1:
                    groups.append(combined)
        return groups

    def _link(
        self,
        uf: _UnionFind,
        constraints: Iterable[EqualityConstraint],
        tx_ids: Iterable[str] | None = None,
    ) -> None:
        for constraint in constraints:
            for group in self._groups(constraint, tx_ids):
                uf.union_all(group)

    def _build(self, constraints: Iterable[EqualityConstraint]) -> _UnionFind:
        uf = self._ind_union_find().clone()
        self._link(uf, constraints)
        return uf

    # ------------------------------------------------------------------
    # Steady-state maintenance

    def invalidate(self) -> None:
        """Drop every built partition; each rebuilds on its next use."""
        self._base_uf = None
        for pinned in self._pinned.values():
            pinned.partition = None
        self._version = self._workspace.version

    def _sync(self) -> None:
        if self._version != self._workspace.version:
            self.invalidate()

    def _advance(self) -> list[tuple[_UnionFind, frozenset[EqualityConstraint]]]:
        """Account for one workspace write; the built partitions to carry
        across it (none, after a write the graph was not told about)."""
        if self._version != self._workspace.version - 1:
            self.invalidate()
            return []
        self._version = self._workspace.version
        built = [
            (pinned.partition, pinned.constraints)
            for pinned in self._pinned.values()
            if pinned.partition is not None
        ]
        if self._base_uf is not None:
            built.append((self._base_uf, self._ind_constraints))
        return built

    def issue(self, tx_id: str) -> None:
        """*tx_id* joined the pending set (after the workspace indexed it).

        Its new edges all run through values its facts project to, and
        are the same for every partition whose constraints include them.
        """
        built = self._advance()
        if not built:
            return
        with obs_span("ind_graph.maintain", op="issue", partitions=len(built)):
            groups: dict[EqualityConstraint, list[set[str]]] = {}
            for uf, constraints in built:
                uf.add(tx_id)
                for constraint in constraints:
                    if constraint not in groups:
                        groups[constraint] = self._groups(constraint, (tx_id,))
                    for group in groups[constraint]:
                        uf.union_all(group)

    def remove(self, tx_id: str) -> None:
        """*tx_id* left the pending set (committed or forgotten).

        Θ has pending-to-pending edges only: the component that held it
        may split, and no other component changes.
        """
        built = self._advance()
        if not built:
            return
        with obs_span("ind_graph.maintain", op="remove", partitions=len(built)):
            for uf, constraints in built:
                rest = uf.split(tx_id)
                if rest:
                    self._link(uf, constraints, rest)

    def absorb(self) -> None:
        """Facts went straight into the committed state: Θ joins only
        pending facts, so no partition changes."""
        self._advance()

    def _ind_union_find(self) -> _UnionFind:
        self._sync()
        if self._base_uf is None:
            uf = _UnionFind()
            for tx_id in self._workspace.db.pending_ids:
                uf.add(tx_id)
            self._link(uf, self._ind_constraints)
            self._base_uf = uf
        return self._base_uf

    # ------------------------------------------------------------------
    # Pinned per-signature partitions

    def pin(self, constraint: CompiledConstraint) -> frozenset[EqualityConstraint]:
        """Keep the Θ_I ∪ Θ_q partition of *constraint* maintained.

        Constraints with equal Θ_q share one partition; returns that
        signature, which the caller hands back to :meth:`release`.
        """
        signature = constraint.equalities
        pinned = self._pinned.get(signature)
        if pinned is None:
            pinned = self._pinned[signature] = _Pinned(
                self._ind_constraints | signature
            )
        pinned.pins += 1
        return signature

    def release(self, signature: frozenset[EqualityConstraint]) -> None:
        """Undo one :meth:`pin`; the last release drops the partition."""
        pinned = self._pinned[signature]
        pinned.pins -= 1
        if not pinned.pins:
            del self._pinned[signature]

    @property
    def partition_count(self) -> int:
        """Live maintained partitions: Θ_I plus each built pinned one.

        Read-only, so a metrics scrape may call it from another thread.
        """
        pinned = list(self._pinned.values())
        return (self._base_uf is not None) + sum(
            entry.partition is not None for entry in pinned
        )

    def partition(self, constraint: CompiledConstraint) -> _UnionFind:
        """The Θ_I ∪ Θ_q partition of *constraint*.

        The maintained one (built on first use) when an entry pins its
        signature; otherwise one built from a clone of Θ_I for this call
        alone.  Either way the caller must not change it.
        """
        pinned = self._pinned.get(constraint.equalities)
        if pinned is None:
            return self._build(constraint.equalities)
        self._sync()
        if pinned.partition is None:
            pinned.partition = self._build(pinned.constraints - self._ind_constraints)
        return pinned.partition

    # ------------------------------------------------------------------
    # Per-query components

    def components(
        self,
        query: ConjunctiveQuery | AggregateQuery | CompiledConstraint | None = None,
    ) -> list[frozenset[str]]:
        """Connected components of ``G^{q,ind}_T``.

        With ``query=None`` this is ``G^ind_T`` (the precomputed part of
        Figure 3); otherwise the Θ_q edges of the query are added.
        """
        if query is None:
            return self._ind_union_find().components()
        constraint = compile_constraint(query, normalize_query=False)
        return self.partition(constraint).components()

    def __repr__(self) -> str:
        components = self._ind_union_find().components()
        return (
            f"IndQTransactionGraph({len(self._workspace.db.pending_ids)} txs, "
            f"{len(components)} ind-components)"
        )
