"""The fd-transaction graph ``G^fd_T`` (Section 6.1, Figure 3).

Nodes are pending transactions; there is an edge ``(T, T')`` whenever
``T ∪ T' |= I_fd``.  Every possible world corresponds to a clique, so
the DCSat algorithms enumerate maximal cliques.

Representation: real mempools contain very few mutually contradicting
transactions (the paper injects 10–50 into thousands), so ``G^fd_T`` is
nearly complete.  Materializing its adjacency sets would be quadratic;
instead we store the sparse *complement* — the conflict pairs — and
derive cliques from it: transactions with no conflicts ("free" nodes)
belong to every maximal clique, and the maximal cliques of the full
graph are exactly ``free ∪ C`` for the maximal cliques ``C`` of the
induced subgraph on the conflicted nodes.

Transactions that can *never* be appended because of functional
dependencies alone — internally inconsistent, or clashing with the
committed state (FD violations cannot be repaired by adding tuples) —
are excluded from the node set up front and reported separately.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator

from repro.core.workspace import Workspace
from repro.graphs.cliques import bron_kerbosch_adjacency, canonical_ranks
from repro.relational.relation import project


class FdTransactionGraph:
    """``G^fd_T`` with complement (conflict-pair) representation."""

    #: Cached sweep universes beyond this count are dropped wholesale.
    SWEEP_CACHE_LIMIT = 256

    def __init__(self, workspace: Workspace):
        self._workspace = workspace
        self.conflicts: dict[str, set[str]] = {}
        self.nodes: set[str] = set()
        self.never_appendable: set[str] = set()
        self._build()

    # ------------------------------------------------------------------
    # Construction / maintenance

    def _build(self) -> None:
        self.conflicts = {}
        self.nodes = set()
        self.never_appendable = set()
        self._group_index = {}
        self._tx_signatures = {}
        self._sweep_cache = {}
        for tx_id in self._workspace.db.pending_ids:
            self._add_node(tx_id)

    def _fd_signature(self, tx_id: str) -> list[tuple[tuple, tuple]]:
        """``(group key, rhs projection)`` pairs for every fact and FD.

        The group key identifies the FD and the left-hand-side value;
        two transactions conflict iff they share a group key with
        different right-hand sides.
        """
        constraints = self._workspace.db.constraints
        tx = self._workspace.db.transaction(tx_id)
        signature: list[tuple[tuple, tuple]] = []
        for rel in tx.relation_names:
            for fd_index, rfd in enumerate(constraints.fds_for(rel)):
                for values in tx.tuples(rel):
                    group = (rel, fd_index, project(values, rfd.lhs_positions))
                    signature.append((group, project(values, rfd.rhs_positions)))
        return signature

    def _clashes_with_base(self, tx_id: str) -> bool:
        constraints = self._workspace.db.constraints
        tx = self._workspace.db.transaction(tx_id)
        base = self._workspace.base
        for rel in tx.relation_names:
            for rfd in constraints.fds_for(rel):
                for values in tx.tuples(rel):
                    key = project(values, rfd.lhs_positions)
                    rhs = project(values, rfd.rhs_positions)
                    for existing in base[rel].lookup(rfd.lhs_positions, key):
                        if project(existing, rfd.rhs_positions) != rhs:
                            return True
        return False

    def _internally_inconsistent(self, tx_id: str) -> bool:
        return self._signature_inconsistent(self._fd_signature(tx_id))

    @staticmethod
    def _signature_inconsistent(
        signature: list[tuple[tuple, tuple]]
    ) -> bool:
        groups: dict[tuple, tuple] = {}
        for group, rhs in signature:
            seen = groups.get(group)
            if seen is None:
                groups[group] = rhs
            elif seen != rhs:
                return True
        return False

    # group key -> {rhs projection -> set of tx ids}
    _group_index: dict[tuple, dict[tuple, set[str]]]
    # tx id -> its fd signature at add time, so removal can prune the
    # exact buckets the transaction occupies (the transaction itself may
    # already be gone from the pending set when it is removed here).
    _tx_signatures: dict[str, list[tuple[tuple, tuple]]]
    # pool key -> everything a sweep of that pool needs besides
    # Bron–Kerbosch itself.  A monitor re-sweeps the same components
    # check after check; a pool's universe only changes when the node
    # set or a conflict does, so every such mutation clears the cache.
    _sweep_cache: dict

    def _add_node(self, tx_id: str) -> None:
        signature = self._fd_signature(tx_id)
        if self._signature_inconsistent(signature) or self._clashes_with_base(tx_id):
            self.never_appendable.add(tx_id)
            return
        self.nodes.add(tx_id)
        self._sweep_cache.clear()
        self.conflicts.setdefault(tx_id, set())
        self._tx_signatures[tx_id] = signature
        for group, rhs in signature:
            bucket = self._group_index.setdefault(group, {})
            for other_rhs, others in bucket.items():
                if other_rhs != rhs:
                    for other in others:
                        if other != tx_id:
                            self.conflicts[tx_id].add(other)
                            self.conflicts[other].add(tx_id)
            bucket.setdefault(rhs, set()).add(tx_id)

    def add_transaction(self, tx_id: str) -> None:
        """Steady-state maintenance: a new transaction was issued."""
        self._add_node(tx_id)

    def remove_transaction(self, tx_id: str) -> None:
        """Steady-state maintenance: a transaction left the pending set.

        When a transaction is *committed*, transactions conflicting with
        the now-committed facts become never-appendable; callers should
        invoke :meth:`refresh_after_commit` afterwards.
        """
        self.never_appendable.discard(tx_id)
        if tx_id not in self.nodes:
            return
        self.nodes.discard(tx_id)
        self._sweep_cache.clear()
        for other in self.conflicts.pop(tx_id, set()):
            self.conflicts[other].discard(tx_id)
        signature = self._tx_signatures.pop(tx_id, None)
        if signature is not None:
            # Prune exactly the buckets the transaction occupies, and
            # drop emptied rhs-buckets/group keys — a long-running
            # monitor under churn must not leak dead groups (they cost
            # memory *and* a scan on every subsequent ``_add_node``).
            for group, rhs in signature:
                bucket = self._group_index.get(group)
                if bucket is None:
                    continue
                others = bucket.get(rhs)
                if others is None:
                    continue
                others.discard(tx_id)
                if not others:
                    del bucket[rhs]
                if not bucket:
                    del self._group_index[group]
        else:  # defensive: unknown signature, fall back to a full scan
            for group in list(self._group_index):
                bucket = self._group_index[group]
                for rhs in list(bucket):
                    others = bucket[rhs]
                    others.discard(tx_id)
                    if not others:
                        del bucket[rhs]
                if not bucket:
                    del self._group_index[group]

    def refresh_after_commit(self) -> None:
        """Re-evaluate base clashes after the committed state grew."""
        for tx_id in list(self.nodes):
            if self._clashes_with_base(tx_id):
                self.remove_transaction(tx_id)
                self.never_appendable.add(tx_id)

    # ------------------------------------------------------------------
    # Queries

    def has_edge(self, u: str, v: str) -> bool:
        """``T ∪ T' |= I_fd`` for two (appendable) transactions."""
        if u not in self.nodes or v not in self.nodes or u == v:
            return False
        return v not in self.conflicts[u]

    def conflicted_nodes(self) -> set[str]:
        return {tx for tx, cs in self.conflicts.items() if cs}

    def free_nodes(self) -> set[str]:
        return {tx for tx, cs in self.conflicts.items() if not cs}

    def conflict_count(self) -> int:
        return sum(len(cs) for cs in self.conflicts.values()) // 2

    def maximal_cliques(
        self, restrict: Iterable[str] | None = None, pivot: bool = True
    ) -> Iterator[frozenset[str]]:
        """Yield the maximal cliques of ``G^fd_T`` (optionally of the
        subgraph induced by *restrict*).

        Conflict-free nodes join every maximal clique; clique structure
        on the conflicted nodes is enumerated with Bron–Kerbosch.
        """
        if restrict is None:
            pool = frozenset(self.nodes)
        else:
            pool = frozenset(t for t in restrict if t in self.nodes)
        free, adjacency, rank = self._sweep_universe(pool, self._build_sweep_universe)
        if not adjacency:
            yield free
            return
        for clique in bron_kerbosch_adjacency(adjacency, rank, pivot=pivot):
            yield free | clique

    def _sweep_universe(self, key: Hashable, build: Callable[[Hashable], tuple]) -> tuple:
        """The cached sweep universe of the pool *key*, built on a miss."""
        universe = self._sweep_cache.get(key)
        if universe is None:
            universe = build(key)
            if len(self._sweep_cache) >= self.SWEEP_CACHE_LIMIT:
                self._sweep_cache.clear()
            self._sweep_cache[key] = universe
        return universe

    def _build_sweep_universe(
        self, pool: frozenset[str]
    ) -> tuple[frozenset[str], dict[str, frozenset[str]], dict[str, int]]:
        """Free set, frozen fd-graph adjacency of the contested nodes and
        their canonical ranks.  The adjacency is the contested set minus
        each node's conflicts, one set difference per node."""
        free = frozenset(t for t in pool if not (self.conflicts[t] & pool))
        contested = pool - free
        adjacency = {
            u: contested - self.conflicts[u] - {u} for u in contested
        }
        return free, adjacency, canonical_ranks(adjacency)

    def is_clique(self, tx_ids: Iterable[str]) -> bool:
        ids = [t for t in tx_ids]
        if any(t not in self.nodes for t in ids):
            return False
        for i, u in enumerate(ids):
            for v in ids[i + 1 :]:
                if u != v and v in self.conflicts[u]:
                    return False
        return True

    def __repr__(self) -> str:
        return (
            f"FdTransactionGraph({len(self.nodes)} nodes, "
            f"{self.conflict_count()} conflicts, "
            f"{len(self.never_appendable)} never-appendable)"
        )
