"""Sharded constraint monitoring: many monitors behind one front.

A node watching hundreds of constraints over a wide schema pays for a
single global world sweep on every ``status_all`` — and the number of
maximal worlds *multiplies* across independent parts of the pending
set.  :class:`ShardedMonitor` partitions registered constraints by
relation footprint across N :class:`~repro.core.monitor.ConstraintMonitor`
shards, each with its own :class:`~repro.core.checker.DCSatChecker`
(optionally a :class:`~repro.service.pool.PooledDCSatChecker`), behind
a front that preserves the monitor API.

All routing *decisions* — placement, the coupled-closure fan-out, the
skip/replay backlogs — live in :class:`~repro.fabric.topology.ShardTopology`,
which this front shares with the cross-process fleet
(:class:`~repro.fabric.router.FabricMonitor`): the same decision engine
drives in-process monitors here and shard subprocesses there, so the
verdict-identity guarantees pinned by ``tests/service/test_shard.py``
carry over to the fabric unchanged.

Routing semantics (see the topology module for the full story): a state
change over relations ``S`` is applied **only** to shards whose
footprint intersects the ind-connectivity / co-write coupled closure of
``S``; every other shard backlogs the op, and backlogged ops replay —
in original global order — the moment the shard's state starts to
matter.  Each shard's database therefore always equals the global
database *restricted to what its verdicts can observe*.

The payoff: a shard's world sweep enumerates cliques only over the
pending transactions it has seen.  With B independent constraint
batteries of 2^K worlds each, one monitor sweeps 2^(B·K) worlds where B
shards sweep B·2^K (see ``benchmarks/test_sharded_monitor.py``).
"""

from __future__ import annotations

from typing import Callable

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.checker import DCSatChecker
from repro.core.monitor import ConstraintMonitor, MonitorEntry
from repro.core.results import DCSatResult
from repro.errors import ReproError
from repro.fabric.topology import (
    AppliedOp,
    ShardAction,
    ShardTopology,
    copy_database,
)
from repro.obs.log import get_logger
from repro.obs.trace import span as obs_span
from repro.query.ast import AggregateQuery, ConjunctiveQuery
from repro.query.parser import parse_query
from repro.relational.transaction import Transaction
from repro.service.metrics import MetricsRegistry

log = get_logger("service.shard")

#: Bucket bounds for the drained-ops-per-flush histogram.
FLUSH_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)

# Re-exported for callers that used the private helper.
_copy_database = copy_database


class _Shard:
    """One monitor bound to its topology slot (the executor side)."""

    def __init__(self, index: int, monitor: ConstraintMonitor, slot):
        self.index = index
        self.monitor = monitor
        self._slot = slot

    @property
    def footprint(self) -> frozenset[str]:
        return self._slot.footprint

    @property
    def skipped(self) -> list:
        return self._slot.skipped

    @property
    def flushes(self) -> int:
        return self._slot.flushes

    @property
    def drained_ops(self) -> int:
        return self._slot.drained_ops

    def apply(self, kind: str, payload) -> list[str]:
        if kind == "issue":
            return self.monitor.issue(payload)
        if kind == "commit":
            return self.monitor.commit(payload)
        if kind == "forget":
            return self.monitor.forget(payload)
        if kind == "absorb":
            return self.monitor.absorb(payload)
        raise ReproError(f"unknown shard op {kind!r}")  # pragma: no cover


class ShardedMonitor:
    """N constraint monitors behind the single-monitor API.

    ``checker_factory`` builds the per-shard checker from the shard's
    private database copy; the default is a plain
    :class:`~repro.core.checker.DCSatChecker`.  Pass a factory returning
    :class:`~repro.service.pool.PooledDCSatChecker` instances to give
    every shard its own solver pool.

    With ``metrics``, each flush observes the number of drained ops in
    a per-shard histogram; :meth:`export_gauges` publishes per-shard
    gauges on demand (the server calls it on every metrics scrape).
    """

    def __init__(
        self,
        db: BlockchainDatabase,
        shards: int = 2,
        checker_factory: Callable[[BlockchainDatabase], DCSatChecker] | None = None,
        max_skipped: int = 512,
        metrics: MetricsRegistry | None = None,
    ):
        if checker_factory is None:
            checker_factory = DCSatChecker
        self._topology = ShardTopology(db, shards, max_skipped=max_skipped)
        self._shards = [
            _Shard(
                slot.index,
                ConstraintMonitor(checker_factory(copy_database(db))),
                slot,
            )
            for slot in self._topology.slots
        ]
        #: constraint name -> owning shard (kept in registration order).
        self._placement: dict[str, _Shard] = {}
        self.max_skipped = max_skipped
        self._metrics = metrics
        #: Union of the per-shard monitors' dirty-component counts for
        #: the most recent routed state change (docs/INCREMENTAL.md).
        self.last_dirty_components: dict[str, int] = {}

    @property
    def epoch(self) -> int:
        """Monotone state-change counter, mirroring ``DCSatChecker.epoch``."""
        return self._topology.epoch

    @property
    def topology(self) -> ShardTopology:
        return self._topology

    # ------------------------------------------------------------------
    # Registration

    def register(
        self,
        name: str,
        query: ConjunctiveQuery | AggregateQuery | str,
        **check_kwargs,
    ) -> MonitorEntry:
        if isinstance(query, str):
            query = parse_query(query)
        plan = self._topology.place(name, query.relations())
        shard = self._shards[plan.shard]
        # The footprint is about to grow: drain every skipped op the
        # new constraint could observe before it can cache a verdict.
        self._replay(shard, plan.drained, plan.retained)
        entry = shard.monitor.register(name, query, **check_kwargs)
        self._placement[name] = shard
        return entry

    def unregister(self, name: str) -> None:
        shard = self._shard_of(name)
        self._topology.forget_placement(name)
        shard.monitor.unregister(name)
        del self._placement[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._placement)

    def entry(self, name: str) -> MonitorEntry:
        return self._shard_of(name).monitor.entry(name)

    def _shard_of(self, name: str) -> _Shard:
        try:
            return self._placement[name]
        except KeyError:
            raise ReproError(f"no constraint named {name!r}") from None

    # ------------------------------------------------------------------
    # Checking

    def status(self, name: str, use_subsumption: bool = True) -> DCSatResult:
        return self._shard_of(name).monitor.status(
            name, use_subsumption=use_subsumption
        )

    def status_all(self, batch: bool = True) -> dict[str, DCSatResult]:
        merged: dict[str, DCSatResult] = {}
        for shard in self._shards:
            merged.update(shard.monitor.status_all(batch=batch))
        return {name: merged[name] for name in self._placement}

    def violated(self) -> dict[str, DCSatResult]:
        return {
            name: result
            for name, result in self.status_all().items()
            if not result.satisfied
        }

    # ------------------------------------------------------------------
    # State changes (routed)

    def issue(self, tx: Transaction) -> list[str]:
        with obs_span("shard.route", kind="issue") as sp:
            return self._run_actions("issue", self._topology.issue(tx), sp)

    def commit(self, tx_id: str) -> list[str]:
        with obs_span("shard.route", kind="commit") as sp:
            return self._run_actions("commit", self._topology.commit(tx_id), sp)

    def forget(self, tx_id: str) -> list[str]:
        with obs_span("shard.route", kind="forget") as sp:
            return self._run_actions("forget", self._topology.forget(tx_id), sp)

    def absorb(self, tx: Transaction) -> list[str]:
        with obs_span("shard.route", kind="absorb") as sp:
            return self._run_actions("absorb", self._topology.absorb(tx), sp)

    def _run_actions(
        self, kind: str, actions: list[ShardAction], sp
    ) -> list[str]:
        invalidated: list[str] = []
        applied = skipped = 0
        self.last_dirty_components = {}
        for action in actions:
            shard = self._shards[action.shard]
            if action.skipped:
                skipped += 1
                with obs_span("shard.skip", shard=shard.index, kind=kind):
                    pass
                # A backlog-overflow flush replays everything, the
                # routed op included.
                invalidated.extend(
                    self._replay(shard, action.drained, action.retained)
                )
            else:
                applied += 1
                invalidated.extend(
                    self._replay(shard, action.drained, action.retained)
                )
                with obs_span("shard.apply", shard=shard.index, kind=kind):
                    invalidated.extend(
                        shard.apply(action.op.kind, action.op.payload)
                    )
                self._merge_dirty(shard)
        sp.set(applied=applied, skipped=skipped)
        # Match the single monitor: names in global registration order.
        hit = set(invalidated)
        return [name for name in self._placement if name in hit]

    def _merge_dirty(self, shard: _Shard) -> None:
        """Fold one shard monitor's last dirty-set into the front's."""
        for name, count in getattr(
            shard.monitor, "last_dirty_components", {}
        ).items():
            self.last_dirty_components[name] = (
                self.last_dirty_components.get(name, 0) + count
            )

    def _replay(
        self, shard: _Shard, drained: list[AppliedOp], retained: int
    ) -> list[str]:
        """Apply a drain plan to the shard's monitor, in plan order."""
        if not drained and not retained:
            return []
        with obs_span("shard.drain", shard=shard.index) as sp:
            invalidated: list[str] = []
            for op in drained:
                invalidated.extend(shard.apply(op.kind, op.payload))
                self._merge_dirty(shard)
            sp.set(drained=len(drained), retained=retained)
            if drained:
                log.debug(
                    "shard drained skipped ops",
                    extra={
                        "ctx": {"shard": shard.index, "drained": len(drained)}
                    },
                )
                if self._metrics is not None:
                    self._metrics.histogram(
                        "repro_shard_flush_drained_ops",
                        "Skipped operations replayed per shard drain.",
                        labels={"shard": str(shard.index)},
                        buckets=FLUSH_BUCKETS,
                    ).observe(len(drained))
        return invalidated

    # ------------------------------------------------------------------
    # Introspection (used by the server's duck-typed surface)

    def pending_count(self) -> int:
        return self._topology.pending_count()

    def checkers(self) -> list[DCSatChecker]:
        return [shard.monitor.checker for shard in self._shards]

    def ledger_stats(self) -> dict:
        """Verdict-ledger counters aggregated across shard monitors."""
        merged: dict = {}
        for shard in self._shards:
            snapshot = shard.monitor.ledger_stats()
            shard.monitor.ledger.merge_snapshot(snapshot, merged)
        return merged

    def describe(self) -> dict:
        """Per-shard placement, footprint and routing-state summary."""
        return {
            "sharded": True,
            "shards": len(self._shards),
            "detail": [
                {
                    "shard": shard.index,
                    "constraints": sorted(shard.monitor.names),
                    "footprint": sorted(shard.footprint),
                    "pending": len(shard.monitor.checker.db.pending_ids),
                    "skipped_ops": len(shard.skipped),
                    "flushes": shard.flushes,
                    "ledger_entries": shard.monitor.ledger.entry_count,
                }
                for shard in self._shards
            ],
        }

    def export_gauges(self, metrics: MetricsRegistry) -> None:
        """Publish per-shard gauges (called on every metrics scrape)."""
        for shard in self._shards:
            labels = {"shard": str(shard.index)}
            names = shard.monitor.names
            metrics.gauge(
                "repro_shard_constraints",
                "Constraints registered on the shard.",
                labels=labels,
            ).set(len(names))
            metrics.gauge(
                "repro_shard_pending_transactions",
                "Pending transactions the shard has applied.",
                labels=labels,
            ).set(len(shard.monitor.checker.db.pending_ids))
            metrics.gauge(
                "repro_shard_skipped_ops",
                "State changes queued but not yet applied to the shard.",
                labels=labels,
            ).set(len(shard.skipped))
            metrics.gauge(
                "repro_shard_checks_run",
                "Solver checks run across the shard's entries.",
                labels=labels,
            ).set(
                sum(shard.monitor.entry(name).checks_run for name in names)
            )
            metrics.gauge(
                "repro_shard_flushes",
                "Times the shard replayed its skipped-op backlog.",
                labels=labels,
            ).set(shard.flushes)
            metrics.gauge(
                "repro_shard_ledger_entries",
                "Component sub-verdicts in the shard's verdict ledger.",
                labels=labels,
            ).set(shard.monitor.ledger.entry_count)

    # ------------------------------------------------------------------
    # Lifecycle

    def close(self) -> None:
        for checker in self.checkers():
            checker.close()

    def __enter__(self) -> "ShardedMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        skipped = sum(len(shard.skipped) for shard in self._shards)
        return (
            f"ShardedMonitor({len(self._shards)} shards, "
            f"{len(self._placement)} constraints, {skipped} skipped ops)"
        )


__all__ = ["ShardedMonitor"]
