"""The IND-support index: maximal worlds of fd-cliques without ``can_extend``.

``getMaximal`` (Figure 4) grows a world by re-testing every candidate
with the full ``R' |= I`` check on each fixpoint round.  Over a clique
of the fd-transaction graph most of that work is provably vacuous:

* **Functional dependencies never block.**  A transaction clashing with
  ``R`` or with itself never enters the fd-graph; two clique members
  never clash, because they share an fd edge; and an FD violation
  always involves just two tuples, so these cases cover every clash.
* **Inclusion dependencies reduce to provider sets.**  A child tuple of
  transaction ``T`` needs a parent key.  When neither ``R`` nor ``T``
  itself supplies it, the only possible suppliers are the pending
  transactions whose parent-relation facts project onto the key — its
  *provider set*.  ``T`` can be appended exactly when every one of its
  provider sets meets the world built so far; a node with an empty
  provider set can never be appended.

Appendability is monotone (new tuples only add parents), so the
maximal world of a clique is the least fixpoint of "append every member
whose provider sets all meet the world" — the same unique world
``getMaximal`` reaches, computed by propagation instead of re-probing.

Provider sets depend only on ``R`` and the pending set, so the index
computes them lazily per transaction and caches them until the
workspace's ``version`` moves (every issue / commit / forget / absorb
bumps it); a version change drops the cache whole.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.relational.relation import project

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.workspace import Workspace

#: ``None`` marks a transaction with an unsatisfiable parent key.
ProviderSets = tuple[frozenset[str], ...] | None


class IndSupportIndex:
    """Per-transaction provider sets, cached per workspace version."""

    def __init__(self, workspace: "Workspace"):
        self._workspace = workspace
        self._version = -1
        self._provider_sets: dict[str, ProviderSets] = {}
        # provider tx id -> transactions with a provider set naming it
        self._dependents: dict[str, list[str]] = {}

    def _sync(self) -> None:
        version = self._workspace.version
        if version != self._version:
            self._provider_sets = {}
            self._dependents = {}
            self._version = version

    def _compute(self, tx_id: str) -> ProviderSets:
        workspace = self._workspace
        tx = workspace.db.transaction(tx_id)
        base = workspace.base
        needs: set[frozenset[str]] = set()
        for rel in tx.relation_names:
            for rind in workspace.db.constraints.inds_for_child(rel):
                parent = rind.ind.parent
                positions = rind.parent_positions
                own = {project(values, positions) for values in tx.tuples(parent)}
                index = workspace.pending_projections(parent, positions)
                for values in tx.tuples(rel):
                    key = project(values, rind.child_positions)
                    if key in own or base[parent].lookup(positions, key):
                        continue
                    providers = index.get(key)
                    if not providers:
                        return None
                    needs.add(frozenset(providers))
        provider_sets = tuple(needs)
        for provider in frozenset().union(*provider_sets):
            self._dependents.setdefault(provider, []).append(tx_id)
        return provider_sets

    def maximal_world(self, clique: Iterable[str]) -> frozenset[str]:
        """The unique maximal world over an fd-clique of pending ids.

        Byte-identical to ``get_maximal(workspace, clique)`` for every
        clique of the fd-transaction graph, without touching the
        workspace's active set.
        """
        self._sync()
        cache = self._provider_sets
        waiting: dict[str, tuple[frozenset[str], ...]] = {}
        frontier: list[str] = []
        for tx_id in clique:
            if tx_id in cache:
                needs = cache[tx_id]
            else:
                needs = cache[tx_id] = self._compute(tx_id)
            if needs:
                waiting[tx_id] = needs
            elif needs is not None:
                frontier.append(tx_id)
        included = set(frontier)
        dependents = self._dependents
        while frontier and waiting:
            for tx_id in dependents.get(frontier.pop(), ()):
                needs = waiting.get(tx_id)
                if needs is not None and all(
                    not providers.isdisjoint(included) for providers in needs
                ):
                    del waiting[tx_id]
                    included.add(tx_id)
                    frontier.append(tx_id)
        return frozenset(included)
