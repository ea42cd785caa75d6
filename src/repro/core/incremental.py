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
  survivors are recomputed fresh on every status call.

* **commit / absorb** grow the committed state, which can flip
  IND-appendability (and hence world membership) inside *any* component
  of a constraint the coupled-closure invalidation reaches — a
  footprint-refined rule here would be unsound for the same reason raw
  footprint intersection was in the monitor (see
  :func:`repro.core.monitor.coupled_relations`).  All entries of the
  invalidated constraints are therefore dirtied wholesale.

For a dirtied component the ledger supports two policies
(``witness_mode``):

* ``"strict"`` (default) — dirty entries are dropped and re-swept, so
  verdicts *and witnesses* are bit-identical to a fresh full
  recomputation (the churn-parity suite pins this).
* ``"revalidate"`` — a previously *violated* component first re-checks
  its stored witness (one greedy possible-world fixpoint plus one
  backend evaluation, instead of a ``2^K`` sweep); a previously
  *satisfied* component first re-runs the monotone short-circuit at
  component scope (one evaluation of ``q`` over ``R`` plus the whole
  candidate set).  Verdicts remain identical to a fresh recompute;
  witnesses are guaranteed to be valid violating possible worlds but
  may be non-maximal (a fresh sweep only ever reports maximal worlds).
  See ``docs/INCREMENTAL.md`` for the exact contract.

The ledger is owned by :class:`~repro.core.monitor.ConstraintMonitor`;
the solver pool solves only the dirty components
(:meth:`~repro.service.pool.SolverPool.solve_components`), and the
revalidate-vs-sweep costs feed the perf cost model under separate
``mode`` keys (:mod:`repro.obs.perf`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.core.possible_worlds import get_maximal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import SyncEngine
    from repro.core.results import DCSatStats
    from repro.core.workspace import Workspace

#: Ledger entries kept per constraint; the least recently touched entry
#: is evicted first.  Components come and go as the mempool churns, so
#: an unbounded ledger would accumulate keys that can never match again.
DEFAULT_MAX_ENTRIES = 512

WITNESS_MODES = ("strict", "revalidate")


@dataclass
class ComponentVerdict:
    """One component-scoped sub-verdict.

    ``key`` is the frozenset of member transaction ids (the component's
    surviving candidate set) and ``footprint`` the relations those
    members write — together the component identity the tentpole keys
    on.  ``witness`` is the first violating world the sweep found
    (``None`` when no world restricted to the component satisfies the
    query).  ``epoch`` records the checker epoch the sweep ran at;
    ``dirty`` marks entries whose committed state shifted underneath
    them (commit / absorb) and that therefore need revalidation.
    """

    key: frozenset[str]
    footprint: frozenset[str]
    witness: frozenset[str] | None
    epoch: int
    dirty: bool = False


def _fresh_counters() -> dict[str, int]:
    return {
        "reused": 0,
        "swept": 0,
        "revalidations": 0,
        "revalidation_hits": 0,
        "dirtied": 0,
        "pruned": 0,
        "evicted": 0,
        "epoch_resets": 0,
    }


@dataclass
class _LedgerState:
    """Per-constraint entry table (insertion order doubles as LRU)."""

    entries: dict[frozenset[str], ComponentVerdict] = field(
        default_factory=dict
    )


class VerdictLedger:
    """Component-scoped sub-verdicts, maintained across state changes.

    The owning monitor forwards every state change through
    :meth:`note_change` and resolves each status call through
    :meth:`plan` + :meth:`store`.  The ledger never talks to a backend
    itself — witness revalidation is the module-level helpers below,
    run by the monitor which owns the workspace and engine.
    """

    def __init__(
        self,
        witness_mode: str = "strict",
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ):
        if witness_mode not in WITNESS_MODES:
            raise ValueError(
                f"witness_mode must be one of {WITNESS_MODES}, "
                f"got {witness_mode!r}"
            )
        self.witness_mode = witness_mode
        self.max_entries = max_entries
        self._states: dict[str, _LedgerState] = {}
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
        return sum(len(state.entries) for state in self._states.values())

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
            for name, state in self._states.items():
                stale = [key for key in state.entries if tx_id in key]
                for key in stale:
                    del state.entries[key]
                if stale:
                    self.counters["pruned"] += len(stale)
                    affected[name] = affected.get(name, 0) + len(stale)
        if kind in ("commit", "absorb"):
            # The committed state grew: IND-appendability inside *any*
            # component of a reachable constraint may flip, so entries
            # are dirtied wholesale (see the module docstring for why a
            # footprint-refined rule would be unsound).
            for name in invalidated:
                state = self._states.get(name)
                if state is None or not state.entries:
                    continue
                if self.witness_mode == "strict":
                    count = len(state.entries)
                    state.entries.clear()
                else:
                    count = 0
                    for entry in state.entries.values():
                        if not entry.dirty:
                            entry.dirty = True
                            count += 1
                if count:
                    self.counters["dirtied"] += count
                    affected[name] = affected.get(name, 0) + count
        return affected

    # -- solve planning ------------------------------------------------

    def plan(
        self, name: str, epoch: int, survivors: list[set[str]]
    ) -> list[tuple[str, ComponentVerdict | None]]:
        """Disposition for each surviving component, in survivor order.

        ``("reuse", entry)`` — clean key hit, the stored sub-verdict is
        exactly what a fresh sweep would produce; ``("revalidate",
        entry)`` — dirty key hit under ``witness_mode="revalidate"``;
        ``("sweep", None)`` — no usable entry, run the clique sweep.
        """
        if self._epoch is None:
            self._epoch = epoch
        elif epoch != self._epoch:
            # A state change bypassed the monitor: nothing stored can be
            # trusted.  Start over (cheap — the next statuses repopulate).
            self.clear()
            self.counters["epoch_resets"] += 1
            self._epoch = epoch
        state = self._states.get(name)
        plan: list[tuple[str, ComponentVerdict | None]] = []
        for candidates in survivors:
            entry = None if state is None else state.entries.get(
                frozenset(candidates)
            )
            if entry is None:
                plan.append(("sweep", None))
            elif entry.dirty:
                plan.append(("revalidate", entry))
            else:
                plan.append(("reuse", entry))
        return plan

    def store(
        self,
        name: str,
        candidates: Iterable[str],
        footprint: frozenset[str],
        witness: frozenset[str] | None,
        epoch: int,
    ) -> ComponentVerdict:
        """Record (or refresh) one component sub-verdict."""
        key = frozenset(candidates)
        state = self._states.setdefault(name, _LedgerState())
        # Re-inserting moves the key to the end of the dict, which is
        # the LRU order eviction walks from the front.
        state.entries.pop(key, None)
        entry = ComponentVerdict(
            key=key, footprint=footprint, witness=witness, epoch=epoch
        )
        state.entries[key] = entry
        while len(state.entries) > self.max_entries:
            oldest = next(iter(state.entries))
            del state.entries[oldest]
            self.counters["evicted"] += 1
        return entry

    def touch(self, name: str, entry: ComponentVerdict) -> None:
        """Refresh an entry's LRU position after a reuse."""
        state = self._states.get(name)
        if state is not None and entry.key in state.entries:
            state.entries.pop(entry.key)
            state.entries[entry.key] = entry

    # -- exposition ----------------------------------------------------

    def snapshot(self) -> dict:
        """The ledger's state for ``/perfz`` and ``describe()``."""
        return {
            "witness_mode": self.witness_mode,
            "constraints": len(self._states),
            "entries": self.entry_count,
            "counters": dict(self.counters),
        }

    def __repr__(self) -> str:
        return (
            f"VerdictLedger({len(self._states)} constraints, "
            f"{self.entry_count} entries, mode={self.witness_mode})"
        )


# ----------------------------------------------------------------------
# Revalidation primitives (run by the monitor, which owns the engine)


def revalidate_witness(
    workspace: "Workspace",
    engine: "SyncEngine",
    query,
    witness: frozenset[str],
    stats: "DCSatStats | None" = None,
) -> bool:
    """Is the stored violating world still a violating possible world?

    Two checks, both far cheaper than a ``2^K`` sweep: the greedy
    ``getMaximal`` fixpoint restricted to the witness itself (the world
    is appendable iff the fixpoint reaches all of it), then one backend
    evaluation of ``q`` over it.  A hit keeps the component's VIOLATED
    verdict with the same witness; note the witness may no longer be
    *maximal* after base growth — valid for the verdict (monotone
    queries: any violating possible world suffices) but not necessarily
    the world a fresh sweep would report.
    """
    if not all(tx_id in workspace.db.pending_ids for tx_id in witness):
        return False
    world = get_maximal(workspace, witness)
    if world != witness:
        return False
    if stats is not None:
        stats.evaluations += 1
    return bool(engine.evaluate(query, witness))


def component_still_satisfied(
    engine: "SyncEngine",
    query,
    candidates: Iterable[str],
    stats: "DCSatStats | None" = None,
) -> bool:
    """The monotone short-circuit at component scope.

    Every possible world restricted to the component is a subset of
    ``R ∪ {facts of candidates}``; for a monotone query, ``q`` false
    over that superset implies ``q`` false in each of them — one
    evaluation confirms the component's SATISFIED verdict survives a
    base-state change.
    """
    if stats is not None:
        stats.evaluations += 1
    return not engine.evaluate(query, frozenset(candidates))


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
    "component_still_satisfied",
    "revalidate_witness",
]
