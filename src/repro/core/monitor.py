"""A standing constraint monitor over a live blockchain database.

Downstream systems rarely check one constraint once: an exchange keeps a
battery of invariants ("no customer is paid twice", "hot-wallet outflow
stays under X") that must be re-examined as the mempool churns.
:class:`ConstraintMonitor` wraps a :class:`~repro.core.checker.DCSatChecker`,
registers named denial constraints, caches verdicts, and invalidates
only the constraints whose relations a state change touches.

Verdicts are maintained *incrementally* (docs/INCREMENTAL.md): the
monitor owns a :class:`~repro.core.incremental.VerdictLedger` of
component-scoped sub-verdicts, so an invalidated constraint usually
re-sweeps only the components the state change actually reached and
reuses (or revalidates) the rest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.checker import DCSatChecker
from repro.core.incremental import (
    VerdictLedger,
    component_footprint,
    component_still_satisfied,
    revalidate_witness,
)
from repro.core.opt import component_survivors, sweep_components
from repro.core.results import DCSatResult, DCSatStats
from repro.errors import ReproError
from repro.obs.perf import default_cost_model
from repro.obs.trace import span as obs_span
from repro.query.analysis import CompiledConstraint, is_monotone
from repro.query.ast import AggregateQuery, ConjunctiveQuery
from repro.query.parser import parse_query
from repro.relational.constraints import ConstraintSet
from repro.relational.transaction import Transaction

#: check() keyword arguments the ledger path understands.  Anything else
#: (pending_limit, an explicit non-opt algorithm) routes the entry to
#: the plain checker, exactly as before.
_INCREMENTAL_KWARGS = frozenset(
    {"algorithm", "short_circuit", "use_coverage", "pivot", "normalize"}
)


def coupled_relations(
    relations: Iterable[str],
    constraints: ConstraintSet,
    pending_footprints: Iterable[Iterable[str]] = (),
) -> frozenset[str]:
    """All relations whose possible-world facts can change when the
    state of *relations* changes.

    A state change over one relation reaches others two ways:

    * **Inclusion dependencies** — committing parent rows can make a
      child transaction appendable (and vice versa a committed child's
      parent requirement pins parents), so the whole ind-connected
      component of :meth:`ConstraintSet.ind_closure` is coupled.
    * **Co-written relations** — a single pending transaction spanning
      several relations is one include-or-not decision: if a commit
      elsewhere makes it never-appendable over relation ``B``, its facts
      over relation ``A`` vanish from every possible world too.

    The two edge kinds interleave, so the expansion runs to a fixpoint.
    """
    footprints = [frozenset(fp) for fp in pending_footprints]
    expanded = constraints.ind_closure(relations)
    while True:
        grown = set(expanded)
        for footprint in footprints:
            if len(footprint) > 1 and footprint & grown:
                grown |= footprint
        grown = constraints.ind_closure(grown)
        if grown == expanded:
            return expanded
        expanded = grown


@dataclass
class MonitorEntry:
    """One registered constraint and its cached verdict.

    ``compiled`` and ``ledger`` are filled on the entry's first check
    (not at registration, which stays as cheap as storing the query):
    the analysed constraint, and whether the verdict ledger maintains
    it.  ``signature`` names the Θ_I ∪ Θ_q partition a ledger entry
    pins in the checker's ind-graph until it unregisters.
    """

    name: str
    query: ConjunctiveQuery | AggregateQuery
    check_kwargs: dict = field(default_factory=dict)
    result: DCSatResult | None = None
    checks_run: int = 0
    cache_hits: int = 0
    compiled: CompiledConstraint | None = None
    ledger: bool = False
    signature: frozenset | None = None

    @property
    def relations(self) -> frozenset[str]:
        return self.query.relations()


class ConstraintMonitor:
    """Registers denial constraints; re-checks lazily on state changes.

    With ``incremental`` (default), verdict recomputation for monotone
    connected constraints runs through the component-scoped
    :class:`~repro.core.incremental.VerdictLedger` instead of a full
    OptDCSat sweep: clean components are reused, and — under
    ``witness_mode="revalidate"`` — dirty components first try the
    cheap witness-revalidation / component-short-circuit probes.
    ``witness_mode="strict"`` (default) re-sweeps every dirty
    component, keeping witnesses bit-identical to a fresh recompute.
    """

    def __init__(
        self,
        checker: DCSatChecker,
        incremental: bool = True,
        witness_mode: str = "strict",
    ):
        self.checker = checker
        self.incremental = incremental
        self.ledger = VerdictLedger(witness_mode=witness_mode)
        self._entries: dict[str, MonitorEntry] = {}
        #: Per-constraint count of ledger entries the most recent state
        #: change dirtied or pruned — surfaced by the service layers as
        #: the op response's ``dirty_components`` payload.
        self.last_dirty_components: dict[str, int] = {}
        #: Same counts accumulated until the constraint's next check
        #: (several ops can land between two status calls).
        self._dirty_since_check: dict[str, int] = {}
        #: ``denial_subsumes(covering, covered)`` answers by covered
        #: name, then covering name: registered queries never change.
        self._subsumes: dict[str, dict[str, bool]] = {}

    # ------------------------------------------------------------------
    # Registration

    def register(
        self,
        name: str,
        query: ConjunctiveQuery | AggregateQuery | str,
        **check_kwargs,
    ) -> MonitorEntry:
        """Register a named denial constraint.

        ``check_kwargs`` are forwarded to
        :meth:`~repro.core.checker.DCSatChecker.check` (algorithm
        selection, pruning toggles).
        """
        if name in self._entries:
            raise ReproError(f"constraint {name!r} is already registered")
        if isinstance(query, str):
            query = parse_query(query)
        entry = MonitorEntry(name=name, query=query, check_kwargs=check_kwargs)
        self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        if name not in self._entries:
            raise ReproError(f"no constraint named {name!r}")
        entry = self._entries.pop(name)
        # Long-lived servers churn constraints: drop the per-constraint
        # state that would otherwise outlive the registration (ledger
        # sub-verdicts, the pinned partition and subsumption answers
        # here; the server additionally removes its labelled latency
        # series).
        self.ledger.drop(name)
        if entry.signature is not None:
            self.checker.ind_graph.release(entry.signature)
        self._subsumes.pop(name, None)
        for answers in self._subsumes.values():
            answers.pop(name, None)
        self._dirty_since_check.pop(name, None)
        self.last_dirty_components.pop(name, None)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def entry(self, name: str) -> MonitorEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise ReproError(f"no constraint named {name!r}") from None

    # ------------------------------------------------------------------
    # Checking with verdict caching (and optional subsumption)

    def _subsumed_by_satisfied(self, entry: MonitorEntry) -> str | None:
        """A registered constraint whose cached SATISFIED verdict
        logically covers *entry* (denial subsumption), if any.

        If ``¬q1`` subsumes ``¬q2`` and ``q1`` is satisfied on this
        database, ``q2`` is satisfied too — no solver run needed.  Only
        positive conjunctive queries participate (the containment test's
        scope).  Verdicts assembled from reused ledger components are
        ordinary cached results, so they cover subsumed constraints
        exactly like fully swept ones.
        """
        from repro.query.ast import ConjunctiveQuery
        from repro.query.containment import denial_subsumes

        if not isinstance(entry.query, ConjunctiveQuery) or not entry.query.is_positive:
            return None
        answers = self._subsumes.setdefault(entry.name, {})
        for other in self._entries.values():
            if other is entry or other.result is None:
                continue
            if not other.result.satisfied:
                continue
            subsumes = answers.get(other.name)
            if subsumes is None:
                subsumes = answers[other.name] = (
                    isinstance(other.query, ConjunctiveQuery)
                    and other.query.is_positive
                    and denial_subsumes(other.query, entry.query)
                )
            if subsumes:
                return other.name
        return None

    def status(self, name: str, use_subsumption: bool = True) -> DCSatResult:
        """The (possibly cached) verdict for one constraint.

        With ``use_subsumption`` (default), a constraint subsumed by an
        already-verified satisfied constraint is answered for free.
        """
        entry = self.entry(name)
        with obs_span("monitor.status", constraint=name) as sp:
            if entry.result is None and use_subsumption:
                covering = self._subsumed_by_satisfied(entry)
                if covering is not None:
                    entry.result = DCSatResult(
                        satisfied=True,
                        stats=DCSatStats(algorithm=f"subsumed-by:{covering}"),
                    )
                    sp.set(outcome="subsumed", covered_by=covering)
                    return entry.result
            if entry.result is None:
                sp.set(outcome="check")
                entry.result = self._check_entry(entry)
                entry.checks_run += 1
            else:
                sp.set(outcome="cache-hit")
                entry.cache_hits += 1
            sp.set(satisfied=entry.result.satisfied)
        return entry.result

    def status_all(self, batch: bool = True) -> dict[str, DCSatResult]:
        """Verdicts for every registered constraint.

        With ``batch=True`` (default), uncached constraints that are
        monotone and use default check options are decided together in a
        single world sweep (:meth:`DCSatChecker.check_batch`); the rest
        fall back to individual checks.
        """
        if batch:
            batchable = [
                entry
                for entry in self._entries.values()
                if entry.result is None
                and not entry.check_kwargs
                and is_monotone(
                    entry.query, self.checker.assume_nonnegative_sums
                )
            ]
            if len(batchable) > 1:
                results = self.checker.check_batch(
                    [entry.query for entry in batchable]
                )
                for entry, result in zip(batchable, results):
                    entry.result = result
                    entry.checks_run += 1
        return {name: self.status(name) for name in self._entries}

    def violated(self) -> dict[str, DCSatResult]:
        """The subset of constraints that some possible world violates."""
        return {
            name: result
            for name, result in self.status_all().items()
            if not result.satisfied
        }

    # ------------------------------------------------------------------
    # Incremental checking through the verdict ledger

    def _incremental_eligible(self, entry: MonitorEntry) -> bool:
        """Can this entry's verdict be maintained through the ledger?

        The ledger path is OptDCSat with component-level memoization, so
        the eligibility gate mirrors the pool's: default-ish kwargs, an
        ``auto``/``opt`` algorithm request, and a monotone connected
        query.  Everything else takes the plain checker path unchanged.
        """
        if not self.incremental:
            return False
        if not set(entry.check_kwargs) <= _INCREMENTAL_KWARGS:
            return False
        if entry.check_kwargs.get("algorithm", "auto") not in ("auto", "opt"):
            return False
        return entry.compiled.monotone and entry.compiled.connected

    def _compile(self, entry: MonitorEntry) -> CompiledConstraint:
        """The entry's compiled constraint, made on its first check.

        A ledger entry with a satisfiable query also pins its Θ_I ∪ Θ_q
        partition, so later checks read components the writes maintain.
        """
        if entry.compiled is None:
            entry.compiled = self.checker.compile(
                entry.query, entry.check_kwargs.get("normalize", True)
            )
            entry.ledger = self._incremental_eligible(entry)
            if entry.ledger and not entry.compiled.unsatisfiable:
                entry.signature = self.checker.ind_graph.pin(entry.compiled)
        return entry.compiled

    def _check_entry(self, entry: MonitorEntry) -> DCSatResult:
        constraint = self._compile(entry)
        if entry.ledger:
            return self._check_incremental(entry, constraint)
        self._dirty_since_check.pop(entry.name, None)
        return self.checker.check(constraint, **entry.check_kwargs)

    def _check_incremental(
        self, entry: MonitorEntry, constraint: CompiledConstraint
    ) -> DCSatResult:
        """OptDCSat with the ledger consulted per surviving component."""
        checker = self.checker
        kwargs = entry.check_kwargs
        stats = DCSatStats()
        stats.dirty_components = self._dirty_since_check.pop(entry.name, 0)
        if constraint.unsatisfiable:
            stats.algorithm = "rewrite"
            return DCSatResult(satisfied=True, stats=stats)
        query = constraint.query
        started = time.perf_counter()
        with obs_span("dcsat.check", requested="opt-ledger") as sp:
            try:
                decided = checker.fast_paths(
                    query, True, kwargs.get("short_circuit", True), stats
                )
                if decided is not None:
                    return decided
                stats.algorithm = "opt-ledger"
                survivors = component_survivors(
                    checker.workspace,
                    checker.fd_graph,
                    checker.ind_graph,
                    constraint,
                    use_coverage=kwargs.get("use_coverage", True),
                    stats=stats,
                )
                plan = self.ledger.plan(entry.name, checker.epoch, survivors)
                return self._solve_with_ledger(
                    entry.name, query, survivors, plan,
                    kwargs.get("pivot", True), stats,
                )
            finally:
                stats.elapsed_seconds = time.perf_counter() - started
                sp.fold_stats(stats)
                checker.workspace.clear_active()

    def _resolve_cached(
        self,
        name: str,
        query,
        plan,
        survivors: list[set[str]],
        stats: DCSatStats,
        counters: dict[str, int],
    ) -> tuple[int | None, frozenset[str] | None, list[int]]:
        """Resolve reuse/revalidate dispositions (the cheap ones) first.

        Returns ``(cutoff, cutoff_witness, sweep_indices)``: the lowest
        component index already *known* violated from the ledger (with
        its witness), and the indices below it that still need a sweep.
        A fresh recompute stops at its first violated component, so
        components past the cutoff are irrelevant either way.
        """
        checker = self.checker
        cutoff: int | None = None
        cutoff_witness: frozenset[str] | None = None
        sweep_indices: list[int] = []
        for index, (disposition, ledger_entry) in enumerate(plan):
            candidates = survivors[index]
            if disposition == "reuse":
                stats.components_reused += 1
                counters["reused"] += 1
                self.ledger.touch(name, ledger_entry)
                if ledger_entry.witness is not None:
                    cutoff, cutoff_witness = index, ledger_entry.witness
                    break
                continue
            if disposition == "revalidate":
                counters["revalidations"] += 1
                stats.witness_revalidations += 1
                probe_started = time.perf_counter()
                if ledger_entry.witness is not None:
                    alive = revalidate_witness(
                        checker.workspace, checker.engine, query,
                        ledger_entry.witness, stats,
                    )
                else:
                    alive = component_still_satisfied(
                        checker.engine, query, candidates, stats
                    )
                self._observe_probe(
                    time.perf_counter() - probe_started, len(candidates)
                )
                if alive:
                    counters["revalidation_hits"] += 1
                    refreshed = self.ledger.store(
                        name, ledger_entry.key, ledger_entry.footprint,
                        ledger_entry.witness, checker.epoch,
                    )
                    if refreshed.witness is not None:
                        cutoff, cutoff_witness = index, refreshed.witness
                        break
                    continue
            sweep_indices.append(index)
        return cutoff, cutoff_witness, sweep_indices

    def _solve_with_ledger(
        self,
        name: str,
        query,
        survivors: list[set[str]],
        plan,
        pivot: bool,
        stats: DCSatStats,
    ) -> DCSatResult:
        checker = self.checker
        counters = self.ledger.counters
        cutoff, cutoff_witness, sweep_indices = self._resolve_cached(
            name, query, plan, survivors, stats, counters
        )
        witness = self._solve_dirty(
            name, query, survivors, sweep_indices, pivot, stats
        )
        if witness is not None:
            return DCSatResult(satisfied=False, witness=witness, stats=stats)
        if cutoff_witness is not None:
            return DCSatResult(
                satisfied=False, witness=cutoff_witness, stats=stats
            )
        return DCSatResult(satisfied=True, stats=stats)

    def _solve_dirty(
        self,
        name: str,
        query,
        survivors: list[set[str]],
        indices: list[int],
        pivot: bool,
        stats: DCSatStats,
    ) -> frozenset[str] | None:
        """Sweep the components the ledger could not answer.

        Goes through the checker's solver pool when one is attached (the
        pool decides whether the dirty set is worth fanning out);
        otherwise sweeps in-process in ascending index order with the
        usual early stop.  Solved components are stored back into the
        ledger; components the sweep never reached are not.  Returns the
        lowest-index violating witness, if any.
        """
        if not indices:
            return None
        checker = self.checker
        counters = self.ledger.counters
        items = [(index, survivors[index]) for index in indices]
        pool = getattr(checker, "pool", None)
        if pool is not None:
            resolved = pool.solve_components(
                query, items, pivot=pivot, stats=stats
            )
        else:
            resolved = sweep_components(
                checker.workspace, checker.fd_graph, query, items,
                checker.engine, default_cost_model(),
                pivot=pivot, stats=stats,
            )
        best_index: int | None = None
        best_witness: frozenset[str] | None = None
        for index, witness in resolved.items():
            counters["swept"] += 1
            self.ledger.store(
                name,
                survivors[index],
                component_footprint(checker.db, survivors[index]),
                witness,
                checker.epoch,
            )
            if witness is not None and (
                best_index is None or index < best_index
            ):
                best_index, best_witness = index, witness
        return best_witness

    def _observe_probe(self, seconds: float, size: int) -> None:
        """Feed one revalidation probe into the shared cost model.

        Recorded under ``mode="revalidate"`` so the model (and
        ``/perfz``) keeps the probe-vs-sweep cost split visible — the
        whole point of revalidation is that this series stays orders of
        magnitude below the sweep series for the same size bucket.
        """
        default_cost_model().observe(seconds, size, mode="revalidate")

    def ledger_stats(self) -> dict:
        """The verdict ledger's counters (``/perfz`` and describe())."""
        return self.ledger.snapshot()

    # ------------------------------------------------------------------
    # State changes (targeted invalidation)

    def _invalidate_touching(
        self, relations: frozenset[str]
    ) -> tuple[list[str], list[str]]:
        """Drop cached verdicts over relations the change can reach.

        The changed relations are first expanded through ind-connectivity
        and pending co-writes (:func:`coupled_relations`): a commit into
        relation ``A`` can flip the verdict of a constraint whose query
        never mentions ``A``, because it changes which transactions are
        appendable over an ind-coupled (or co-written) relation ``B``.
        Intersecting raw footprints served stale verdicts in that case.

        Returns ``(invalidated, reached)``: the constraints whose cached
        verdict was dropped, and every constraint whose footprint meets
        the coupled relations.  The ledger needs the second list — a
        constraint whose verdict an earlier issue already dropped still
        holds component entries a commit must dirty.
        """
        with obs_span("monitor.invalidate") as sp:
            touched = coupled_relations(
                relations,
                self.checker.db.constraints,
                (tx.relation_names for tx in self.checker.db.pending),
            )
            invalidated, reached = [], []
            for entry in self._entries.values():
                if entry.relations & touched:
                    reached.append(entry.name)
                    if entry.result is not None:
                        entry.result = None
                        invalidated.append(entry.name)
            sp.set(touched=len(touched), invalidated=len(invalidated))
        return invalidated, reached

    def _note_change(
        self, kind: str, tx_id: str | None, relations: frozenset[str]
    ) -> list[str]:
        """Invalidate cached verdicts and propagate one state change
        into the ledger's dirty-sets; returns the invalidated names."""
        invalidated, reached = self._invalidate_touching(relations)
        self.last_dirty_components = self.ledger.note_change(
            kind, tx_id, reached, self.checker.epoch
        )
        for name, count in self.last_dirty_components.items():
            self._dirty_since_check[name] = (
                self._dirty_since_check.get(name, 0) + count
            )
        return invalidated

    def issue(self, tx: Transaction) -> list[str]:
        """Forward a newly issued transaction; returns the names of the
        constraints whose cached verdicts were invalidated."""
        self.checker.issue(tx)
        return self._note_change("issue", tx.tx_id, frozenset(tx.relation_names))

    def commit(self, tx_id: str) -> list[str]:
        tx = self.checker.commit(tx_id)
        return self._note_change("commit", tx_id, frozenset(tx.relation_names))

    def forget(self, tx_id: str) -> list[str]:
        tx = self.checker.forget(tx_id)
        return self._note_change("forget", tx_id, frozenset(tx.relation_names))

    def absorb(self, tx: Transaction) -> list[str]:
        """Insert externally committed facts (mined-block coinbases,
        transactions first heard about inside a block) and invalidate the
        cached verdicts the new facts can reach.

        Without this, calling :meth:`DCSatChecker.absorb` underneath a
        monitor left every cached verdict stale.
        """
        self.checker.absorb(tx)
        return self._note_change("absorb", None, frozenset(tx.relation_names))

    def __repr__(self) -> str:
        cached = sum(1 for e in self._entries.values() if e.result is not None)
        return (
            f"ConstraintMonitor({len(self._entries)} constraints, "
            f"{cached} cached verdicts)"
        )
