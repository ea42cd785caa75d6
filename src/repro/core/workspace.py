"""The merged store behind the DCSat engine (Section 6.3).

The paper's implementation keeps both the committed state ``R`` and the
pending transactions ``T`` in one database, with a Boolean ``current``
column marking which tuples belong to the possible world under
consideration.  :class:`Workspace` is the in-memory equivalent: committed
tuples live in the base :class:`~repro.relational.database.Database`
(always current), pending tuples carry their transaction id as
provenance, and an *active set* of transaction ids plays the role of the
``current`` flags.  Switching possible worlds is a single set assignment
instead of per-tuple updates.

The workspace implements the fact-view protocol, so the query evaluator
and the incremental constraint checker run directly against whichever
possible world is active.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.ind_support import IndSupportIndex
from repro.errors import ReproError
from repro.relational.relation import project
from repro.relational.transaction import Transaction


class Workspace:
    """Overlay view: base database + pending facts + an active-set cursor."""

    def __init__(self, db: BlockchainDatabase):
        self.db = db
        self.base = db.current
        # relation -> {tuple -> set of provider tx ids}
        self._pending_facts: dict[str, dict[tuple, set[str]]] = {}
        # (relation, positions) -> {projected key -> set of tx ids}
        self._projection_cache: dict[tuple[str, tuple[int, ...]], dict[tuple, set[str]]] = {}
        # (relation, positions) -> {projected key -> {tuple -> providers}}
        self._lookup_cache: dict[
            tuple[str, tuple[int, ...]], dict[tuple, dict[tuple, set[str]]]
        ] = {}
        self._active: frozenset[str] = frozenset()
        for tx in db.pending:
            self._index_transaction(tx)
        #: Bumped by every issue / commit / forget / absorb; derived
        #: caches (the IND-support index) key themselves on it.
        self.version = 0
        #: Provider sets behind the fd-clique maximal worlds.
        self.ind_support = IndSupportIndex(self)

    # ------------------------------------------------------------------
    # Maintenance (steady state: issue / commit)

    def _index_transaction(self, tx: Transaction) -> None:
        for rel, values in tx:
            self._pending_facts.setdefault(rel, {}).setdefault(values, set()).add(
                tx.tx_id
            )
        for (rel, positions), index in self._projection_cache.items():
            for values in tx.tuples(rel):
                index.setdefault(project(values, positions), set()).add(tx.tx_id)
        for (rel, positions), index in self._lookup_cache.items():
            for values in tx.tuples(rel):
                index.setdefault(project(values, positions), {}).setdefault(
                    values, set()
                ).add(tx.tx_id)

    def _unindex_transaction(self, tx: Transaction) -> None:
        for rel, values in tx:
            providers = self._pending_facts.get(rel, {}).get(values)
            if providers is not None:
                providers.discard(tx.tx_id)
                if not providers:
                    del self._pending_facts[rel][values]
        for (rel, positions), index in self._projection_cache.items():
            for values in tx.tuples(rel):
                key = project(values, positions)
                txs = index.get(key)
                if txs is not None:
                    txs.discard(tx.tx_id)
                    if not txs:
                        del index[key]
        for (rel, positions), index in self._lookup_cache.items():
            for values in tx.tuples(rel):
                key = project(values, positions)
                bucket = index.get(key)
                if bucket is None:
                    continue
                providers = bucket.get(values)
                if providers is not None:
                    providers.discard(tx.tx_id)
                    if not providers:
                        del bucket[values]
                        if not bucket:
                            del index[key]

    def issue(self, tx: Transaction) -> None:
        """Add a newly issued transaction to the pending structures."""
        self.db.add_pending(tx)
        self._index_transaction(tx)
        self.version += 1

    def commit(self, tx_id: str) -> Transaction:
        """Move a pending transaction into the committed base state."""
        tx = self.db.remove_pending(tx_id)
        self._unindex_transaction(tx)
        self.absorb(tx)
        if tx_id in self._active:
            self._active = self._active - {tx_id}
        return tx

    def absorb(self, tx: Transaction) -> None:
        """Insert committed facts straight into the base state."""
        for rel, values in tx:
            self.base.insert(rel, values)
        self.version += 1

    def forget(self, tx_id: str) -> Transaction:
        """Drop a pending transaction without committing it."""
        tx = self.db.remove_pending(tx_id)
        self._unindex_transaction(tx)
        self.version += 1
        if tx_id in self._active:
            self._active = self._active - {tx_id}
        return tx

    # ------------------------------------------------------------------
    # The possible-world cursor

    @property
    def active(self) -> frozenset[str]:
        return self._active

    def set_active(self, tx_ids: Iterable[str]) -> None:
        """Select the possible world ``R ∪ {facts of tx_ids}``.

        This is the analogue of flipping the ``current`` column: O(1) in
        the in-memory workspace, while the SQL backend mirrors it with
        real UPDATE statements.
        """
        active = frozenset(tx_ids)
        pending = self.db.pending_id_view
        if not pending >= active:
            unknown = {tx_id for tx_id in active if tx_id not in pending}
            raise ReproError(f"unknown transaction ids in active set: {unknown}")
        self._active = active

    def activate(self, tx_id: str) -> None:
        self.set_active(self._active | {tx_id})

    def activate_all(self) -> None:
        self.set_active(self.db.pending_ids)

    def clear_active(self) -> None:
        self._active = frozenset()

    # ------------------------------------------------------------------
    # Fact-view protocol (drives the evaluator and constraint checker)

    def iter_tuples(self, relation: str) -> Iterator[tuple]:
        base_rel = self.base[relation]
        pending = self._pending_facts.get(relation)
        if not pending:
            yield from base_rel
            return
        active = self._active
        yield from base_rel
        for values, providers in pending.items():
            if values not in base_rel and providers & active:
                yield values

    def lookup(
        self, relation: str, positions: tuple[int, ...], key: tuple
    ) -> Iterator[tuple]:
        base_rel = self.base[relation]
        yield from base_rel.lookup(positions, key)
        bucket = self._pending_lookup_index(relation, positions).get(key)
        if bucket:
            active = self._active
            for values, providers in bucket.items():
                if values not in base_rel and providers & active:
                    yield values

    def has_projection(
        self, relation: str, positions: tuple[int, ...], key: tuple
    ) -> bool:
        if self.base[relation].lookup(positions, key):
            return True
        bucket = self._pending_lookup_index(relation, positions).get(key)
        if not bucket:
            return False
        active = self._active
        return any(providers & active for providers in bucket.values())

    def has_fact(self, relation: str, values: tuple) -> bool:
        if values in self.base[relation]:
            return True
        providers = self._pending_facts.get(relation, {}).get(values)
        return bool(providers and providers & self._active)

    def count_tuples(self, relation: str) -> int:
        # An upper bound (pending facts of inactive transactions are
        # included): only used as a join-ordering heuristic.
        return len(self.base[relation]) + len(self._pending_facts.get(relation, ()))

    # ------------------------------------------------------------------
    # Pending-side indexes (shared by the ind graph and coverage tests)

    def _pending_lookup_index(
        self, relation: str, positions: tuple[int, ...]
    ) -> dict[tuple, dict[tuple, set[str]]]:
        cache_key = (relation, positions)
        index = self._lookup_cache.get(cache_key)
        if index is None:
            index = {}
            for values, providers in self._pending_facts.get(relation, {}).items():
                index.setdefault(project(values, positions), {})[values] = set(
                    providers
                )
            self._lookup_cache[cache_key] = index
        return index

    def pending_projections(
        self, relation: str, positions: tuple[int, ...]
    ) -> dict[tuple, set[str]]:
        """``projected key -> transaction ids`` over *all* pending facts.

        Independent of the active set; used to build ind-graph edges and
        the ``Covers`` test.
        """
        cache_key = (relation, positions)
        index = self._projection_cache.get(cache_key)
        if index is None:
            index = {}
            for values, providers in self._pending_facts.get(relation, {}).items():
                index.setdefault(project(values, positions), set()).update(providers)
            self._projection_cache[cache_key] = index
        return index

    def providers_of(self, relation: str, values: tuple) -> frozenset[str]:
        """The pending transactions that insert exactly this fact."""
        return frozenset(self._pending_facts.get(relation, {}).get(values, ()))

    def fact_in_base(self, relation: str, values: tuple) -> bool:
        return values in self.base[relation]

    def transaction_facts(self, tx_id: str) -> dict[str, frozenset[tuple]]:
        tx = self.db.transaction(tx_id)
        return {rel: tx.tuples(rel) for rel in tx.relation_names}

    def pending_tuple_count(self) -> int:
        return sum(len(facts) for facts in self._pending_facts.values())

    def __repr__(self) -> str:
        return (
            f"Workspace(base={self.base.total_tuples()} tuples, "
            f"pending={self.pending_tuple_count()} tuples, "
            f"active={len(self._active)} txs)"
        )
