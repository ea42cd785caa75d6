"""Incremental verdict maintenance: the component-scoped verdict ledger.

The paper's monitoring use case is a *stream*: transactions arrive,
confirm and evict continuously, and a registered constraint's verdict
must stay current at production cadence.  Re-running OptDCSat from
scratch after every state change throws away the one thing churn rarely
touches — the per-component sub-verdicts.  OptDCSat's unit of work is a
connected component of the ind-q-transaction graph (Proposition 2: no
satisfying assignment spans two components), so a verdict decomposes
into independent component verdicts, and most events leave most
components untouched:

* **issue(t) / forget(t)** change the membership of at most the
  components whose ind/fd neighborhood contains ``t``.  Every other
  component keeps exactly the same candidate set, the committed state is
  unchanged, and the clique sweep within a component only ever consults
  the component's own pending facts — so its previous sub-verdict
  (witness included) is *exactly* what a fresh sweep would produce.
  Components that did change surface as key misses: the ledger keys each
  sub-verdict by the frozenset of member transaction ids, and the
  survivors are read off a component partition the ind-graph maintains
  across writes (:meth:`~repro.core.ind_graph.IndQTransactionGraph.pin`),
  visiting only components that can cover the query's constants.

* **commit / absorb** grow the committed state, which can flip
  IND-appendability (and hence world membership) inside *any* component
  of a constraint the coupled-closure invalidation reaches — a
  footprint-refined rule here would be unsound for the same reason raw
  footprint intersection was in the monitor (see
  :func:`repro.core.monitor.coupled_relations`).  All entries of the
  invalidated constraints are therefore dirtied wholesale.

Dirtied entries are dropped and re-swept, so verdicts *and witnesses*
are bit-identical to a fresh full recomputation (the churn-parity suite
pins this).

The ledger is owned by :class:`~repro.core.monitor.ConstraintMonitor`;
the solver pool solves only the dirty components
(:meth:`~repro.service.pool.SolverPool.solve_components`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

#: Ledger entries kept per constraint; the least recently touched entry
#: is evicted first.  Components come and go as the mempool churns, so
#: an unbounded ledger would accumulate keys that can never match again.
DEFAULT_MAX_ENTRIES = 512


@dataclass
class ComponentVerdict:
    """One component-scoped sub-verdict.

    ``key`` is the frozenset of member transaction ids (the component's
    surviving candidate set), which the ledger looks entries up by, and
    ``footprint`` the relations those members write.  ``witness`` is
    the first violating world the sweep found (``None`` when no world
    restricted to the component satisfies the query).
    """

    key: frozenset[str]
    footprint: frozenset[str]
    witness: frozenset[str] | None


def _fresh_counters() -> dict[str, int]:
    return {
        "reused": 0,
        "swept": 0,
        "dirtied": 0,
        "pruned": 0,
        "evicted": 0,
        "epoch_resets": 0,
    }


class VerdictLedger:
    """Component-scoped sub-verdicts, maintained across state changes.

    The owning monitor forwards every state change through
    :meth:`note_change` and resolves each status call through
    :meth:`plan` + :meth:`store`.  The ledger never talks to a backend
    itself.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        self.max_entries = max_entries
        #: Per-constraint entry tables; insertion order doubles as LRU.
        self._states: dict[str, dict[frozenset[str], ComponentVerdict]] = {}
        #: Checker epoch the ledger last synchronized with.  ``None``
        #: until the first state change or solve; a solve observing an
        #: epoch the monitor never reported (direct checker mutation,
        #: e.g. :meth:`DCSatChecker.dry_run`) clears everything.
        self._epoch: int | None = None
        self.counters: dict[str, int] = _fresh_counters()

    # -- lifecycle -----------------------------------------------------

    def drop(self, name: str) -> None:
        """Forget every entry of an unregistered constraint."""
        self._states.pop(name, None)

    def clear(self) -> None:
        self._states.clear()

    @property
    def entry_count(self) -> int:
        return sum(len(entries) for entries in self._states.values())

    # -- state-change propagation --------------------------------------

    def note_change(
        self,
        kind: str,
        tx_id: str | None,
        invalidated: Iterable[str],
        epoch: int,
    ) -> dict[str, int]:
        """Propagate one monitor state change into the ledger.

        Returns the per-constraint count of entries the change dirtied
        or pruned (the ``dirty_components`` payload the service layers
        surface) — empty for changes that only shift component
        membership, which the key-addressed lookup absorbs without
        touching any stored entry.
        """
        self._epoch = epoch
        affected: dict[str, int] = {}
        if kind in ("forget", "commit") and tx_id is not None:
            # The transaction left the pending set: entries containing
            # it can never match a future survivor again.
            for name, entries in self._states.items():
                stale = [key for key in entries if tx_id in key]
                for key in stale:
                    del entries[key]
                if stale:
                    self.counters["pruned"] += len(stale)
                    affected[name] = affected.get(name, 0) + len(stale)
        if kind in ("commit", "absorb"):
            # The committed state grew: IND-appendability inside *any*
            # component of a reachable constraint may flip, so entries
            # are dropped wholesale (see the module docstring for why a
            # footprint-refined rule would be unsound).
            for name in invalidated:
                entries = self._states.get(name)
                if not entries:
                    continue
                count = len(entries)
                entries.clear()
                self.counters["dirtied"] += count
                affected[name] = affected.get(name, 0) + count
        return affected

    # -- solve planning ------------------------------------------------

    def plan(
        self, name: str, epoch: int, survivors: list[set[str]]
    ) -> list[ComponentVerdict | None]:
        """The stored sub-verdict of each surviving component, in
        survivor order.

        An entry is exactly what a fresh sweep would produce; ``None``
        means no entry, run the clique sweep.
        """
        if self._epoch is None:
            self._epoch = epoch
        elif epoch != self._epoch:
            # A state change bypassed the monitor: nothing stored can be
            # trusted.  Start over (cheap — the next statuses repopulate).
            self.clear()
            self.counters["epoch_resets"] += 1
            self._epoch = epoch
        entries = self._states.get(name, {})
        return [entries.get(frozenset(candidates)) for candidates in survivors]

    def store(
        self,
        name: str,
        candidates: Iterable[str],
        footprint: frozenset[str],
        witness: frozenset[str] | None,
    ) -> ComponentVerdict:
        """Record (or refresh) one component sub-verdict."""
        key = frozenset(candidates)
        entries = self._states.setdefault(name, {})
        # Re-inserting moves the key to the end of the dict, which is
        # the LRU order eviction walks from the front.
        entries.pop(key, None)
        entry = ComponentVerdict(key=key, footprint=footprint, witness=witness)
        entries[key] = entry
        while len(entries) > self.max_entries:
            oldest = next(iter(entries))
            del entries[oldest]
            self.counters["evicted"] += 1
        return entry

    def touch(self, name: str, entry: ComponentVerdict) -> None:
        """Refresh an entry's LRU position after a reuse."""
        entries = self._states.get(name)
        if entries is not None and entry.key in entries:
            entries.pop(entry.key)
            entries[entry.key] = entry

    # -- exposition ----------------------------------------------------

    def snapshot(self) -> dict:
        """The ledger's state for ``/perfz`` and ``describe()``."""
        return {
            "constraints": len(self._states),
            "entries": self.entry_count,
            "counters": dict(self.counters),
        }

    def __repr__(self) -> str:
        return (
            f"VerdictLedger({len(self._states)} constraints, "
            f"{self.entry_count} entries)"
        )


def component_footprint(db, candidates: Iterable[str]) -> frozenset[str]:
    """The relations the component's member transactions write."""
    relations: set[str] = set()
    for tx_id in candidates:
        relations.update(db.transaction(tx_id).relation_names)
    return frozenset(relations)


__all__ = [
    "ComponentVerdict",
    "VerdictLedger",
    "component_footprint",
]
