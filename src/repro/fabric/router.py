"""The fabric front-end: one monitor surface over N shard processes.

:class:`FabricMonitor` is shaped exactly like a
:class:`~repro.core.monitor.ConstraintMonitor`, so the existing
:class:`~repro.service.server.ConstraintService` serves it unchanged —
same wire protocol, same queue/deadline/backpressure machinery — and
every existing :class:`~repro.service.client.ServiceClient` talks to a
fleet without knowing it.  Underneath, each shard of the partition is a
``repro serve`` *subprocess* (spawned by a
:class:`~repro.fabric.supervisor.FleetSupervisor`), reached over its own
JSON-lines connection.

Routing decisions come from :class:`~repro.fabric.topology.ShardTopology`,
so every shard's verdicts match one monitor's: commits and absorbs
fan out only to the ind/co-write coupled closure of affected shards,
decoupled shards backlog the op router-side, and ``status_all``
scatter-gathers across the fleet.

What the cross-process setting adds:

* **Router-side invalidation.**  Every applied op carries ``touched``
  (the coupled closure against that shard's own pending set), and the
  router holds mirror verdict caches (:class:`MonitorEntry` per
  constraint).  Invalidation lists are computed *here*, never asked of
  a shard — a freshly respawned shard has empty caches and would
  under-report, breaking parity with a single monitor.
* **A journal that is the source of truth.**  The router journals every
  wire op *before* sending it (and every backlogged op as a ``skip``
  record), optionally to a durable on-disk
  :class:`~repro.fabric.journal.FabricJournal`.  A shard's state is
  *defined* as its journal: when a shard dies — or answers ambiguously
  (``deadline``/``internal``: the op's fate on the shard is unknown) —
  the router respawns it from the seed database and replays the
  journal, forcing the shard back into exactly the journaled state.
  Only a *definitive* rejection (the shard was alive and refused the
  op) removes the record, via a durable ``revoke``.
* **Crash recovery.**  :meth:`FabricMonitor.recover` rebuilds the whole
  router — fleet map, verdict mirrors, per-shard backlogs, the front
  database's pending set — from the on-disk journal after a router
  crash, tolerating a torn final record and completing the at most one
  op the single-threaded mutation path can leave partially fanned out.
* **A liveness circuit breaker.**  A crash-looping shard (respawned
  over and over by the
  :class:`~repro.fabric.supervisor.LivenessWatchdog`) is *broken*:
  reads against it fail fast with ``code="circuit-open"``, mutations
  keep journaling durably, and ``/healthz``/``/fabricz`` degrade
  instead of the fleet respawn-storming.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.monitor import MonitorEntry, coupled_relations
from repro.core.results import DCSatResult
from repro.errors import FabricError, ReproError, ServiceError
from repro.fabric.journal import FabricJournal
from repro.fabric.topology import AppliedOp, ShardAction, ShardTopology
from repro.obs.log import get_logger
from repro.obs.trace import default_tracer, span as obs_span
from repro.query.ast import AggregateQuery, ConjunctiveQuery
from repro.query.parser import parse_query
from repro.relational.transaction import Transaction
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.metrics import MetricsRegistry

log = get_logger("fabric.router")

#: How long the router gives a shard for one replayed journal op.
REPLAY_DEADLINE = 60.0

#: Per-shard socket timeout when the caller does not pick one.  Heavy
#: solves stay well under it; a peer that never answers at all turns
#: into an ambiguous ``unavailable`` failure instead of a wedged router.
DEFAULT_SHARD_TIMEOUT = 120.0

#: Error codes after which the shard's state is unknowable from here:
#: ``unavailable`` (transport died), ``deadline`` (the server answers
#: early but still completes the op in its solver thread) and
#: ``internal`` (the op blew up somewhere midway).  The router resolves
#: all three the same way — respawn and replay the journal, forcing the
#: shard into exactly the journaled state.  Every other code is a
#: definitive rejection by a live shard.
AMBIGUOUS_CODES = frozenset({"unavailable", "deadline", "internal"})

#: The wire ops that change global database state (vs. placement ops).
STATE_OPS = frozenset({"issue", "commit", "forget", "absorb"})


def compact_records(records: list[dict]) -> list[dict] | None:
    """The absorb-rewrite: a semantically equivalent, shorter journal.

    * ``issue`` + later ``commit`` of the same transaction collapse into
      a single ``absorb`` record at the commit's position and sequence
      number — identical net database state (the insert lands in the
      base, the pending entry never existed), which is all a replay
      needs since replayed shards start with cold caches anyway.
    * ``issue`` + ``forget`` pairs vanish; so do ``register`` +
      ``unregister`` pairs.
    * ``skip`` records superseded by a later applied record with the
      same sequence number (the backlog entry was drained) are dropped;
      **live** skip records — the shard's actual backlog — are kept
      verbatim, preserving post-recovery drain behavior exactly.

    Returns ``None`` when the journal does not look self-contained (a
    commit or forget without its issue, an unregister without its
    register, an unknown record kind): compaction then refuses rather
    than guessing.
    """
    op_gs = {r["g"] for r in records if r.get("k") == "op"}
    drop: set[int] = set()
    replace: dict[int, dict] = {}
    register_at: dict[str, int] = {}
    issue_at: dict[str, int] = {}
    for i, record in enumerate(records):
        kind = record.get("k")
        if kind == "skip":
            if record["g"] in op_gs:
                drop.add(i)
            continue
        if kind != "op":
            return None
        op = record["op"]
        if op == "register":
            register_at[record["args"]["name"]] = i
        elif op == "unregister":
            j = register_at.pop(record["args"]["name"], None)
            if j is None:
                return None
            drop.add(j)
            drop.add(i)
        elif op == "issue":
            issue_at[record["args"]["tx"]["id"]] = i
        elif op == "commit":
            j = issue_at.pop(record["args"]["tx_id"], None)
            if j is None:
                return None
            drop.add(j)
            replace[i] = {
                "g": record["g"],
                "k": "op",
                "op": "absorb",
                "args": {"tx": records[j]["args"]["tx"]},
            }
        elif op == "forget":
            j = issue_at.pop(record["args"]["tx_id"], None)
            if j is None:
                return None
            drop.add(j)
            drop.add(i)
    return [
        replace.get(i, record)
        for i, record in enumerate(records)
        if i not in drop
    ]


class RemoteShard:
    """One shard connection plus the journal that can rebuild it."""

    def __init__(self, index: int, slot):
        self.index = index
        self._slot = slot
        self.client: ServiceClient | None = None
        #: Every journal record for this shard, in append order — the
        #: ``k == "op"`` records, replayed against a fresh seed-state
        #: server, reproduce the shard (``skip`` records are the
        #: router-side backlog; definitive rejections are removed here
        #: and revoked on disk).
        self.journal: list[dict] = []
        #: Serializes mutations, reads, revives and watchdog respawns
        #: touching this shard (scatter threads each lock their own).
        self.lock = threading.RLock()
        #: Below this journal length, skip re-attempting a compaction
        #: that could not shrink the journal last time.
        self.compact_floor = 0

    @property
    def footprint(self) -> frozenset[str]:
        return self._slot.footprint

    @property
    def names(self) -> list[str]:
        return self._slot.names

    @property
    def skipped(self) -> list:
        return self._slot.skipped

    @property
    def flushes(self) -> int:
        return self._slot.flushes

    def connect(self, handle, timeout: float | None = None) -> None:
        if self.client is not None:
            self.client.close()
        # Never block on a shard forever: a half-dead peer (wedged
        # server thread, socket accepted into a dying listener's
        # backlog) must surface as an ambiguous transport failure the
        # revive path handles, not hang the router.
        self.client = ServiceClient(
            handle.host,
            handle.port,
            timeout=DEFAULT_SHARD_TIMEOUT if timeout is None else timeout,
            connect_timeout=10.0,
        )

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


class FabricMonitor:
    """The routing front of a cross-process shard fleet.

    *fleet* is a started (or startable)
    :class:`~repro.fabric.supervisor.FleetSupervisor` — or any object
    with the same surface, e.g. a
    :class:`~repro.fabric.supervisor.ThreadFleet`; ``fleet.count``
    fixes the shard count.  *db* must be the same seed state the shard
    servers load, or journal replay would diverge from reality.

    *journal* makes the write-ahead journal durable: every record is
    framed to disk before the wire send, so
    :meth:`FabricMonitor.recover` can rebuild this whole object after a
    router crash.  *journal_max_ops* bounds the per-shard journal
    length: past it, the journal is compacted (see
    :func:`compact_records`) and — when durable — snapshotted, so disk
    use stays proportional to live state, not history.
    """

    def __init__(
        self,
        db: BlockchainDatabase,
        fleet,
        max_skipped: int = 512,
        metrics: MetricsRegistry | None = None,
        journal: FabricJournal | None = None,
        journal_max_ops: int = 0,
        shard_timeout: float | None = None,
    ):
        if journal is not None and journal.count != fleet.count:
            raise FabricError(
                f"journal is for {journal.count} shards, fleet has {fleet.count}"
            )
        self._topology = ShardTopology(db, fleet.count, max_skipped=max_skipped)
        self._fleet = fleet
        self._shards = [
            RemoteShard(slot.index, slot) for slot in self._topology.slots
        ]
        #: Mirror entries: verdict caches and counters, global order.
        self._entries: dict[str, MonitorEntry] = {}
        self._metrics = metrics
        self._journal = journal
        self._journal_max_ops = journal_max_ops
        self._shard_timeout = shard_timeout
        #: shard index -> reason, for circuit-broken (crash-looping)
        #: shards: no more respawns, reads fail fast, health degrades.
        self._broken: dict[int, str] = {}
        self._watchdog = None
        #: Times this router instance was rebuilt from the durable
        #: journal (0 for a fresh boot; :meth:`recover` sets it).
        self.recoveries = 0
        #: Per-constraint ledger components dirtied by the most recent
        #: routed state change, merged from every shard the op reached
        #: (each shard server reports its monitor's
        #: ``last_dirty_components`` on the wire).
        self.last_dirty_components: dict[str, int] = {}
        self._executor: ThreadPoolExecutor | None = None
        if any(handle is None for handle in fleet.handles):
            fleet.start()
        for shard in self._shards:
            shard.connect(fleet.handle(shard.index), timeout=shard_timeout)

    @property
    def epoch(self) -> int:
        return self._topology.epoch

    @property
    def topology(self) -> ShardTopology:
        return self._topology

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    # ------------------------------------------------------------------
    # Recovery

    @classmethod
    def recover(
        cls,
        db: BlockchainDatabase,
        fleet,
        journal: FabricJournal,
        max_skipped: int = 512,
        metrics: MetricsRegistry | None = None,
        journal_max_ops: int = 0,
        shard_timeout: float | None = None,
    ) -> "FabricMonitor":
        """Rebuild a router (and its shard fleet) from a durable journal.

        *fleet* must be freshly started over the same seed *db* the
        crashed router used.  The journal is loaded shard by shard
        (tolerating a torn final record per file), and from it this
        rebuilds: constraint placement and verdict-mirror entries, the
        front database's pending set, per-shard backlogs and pending
        mirrors, and the routing sequence.  The at-most-one state op the
        crash can have left partially fanned out (mutations are
        single-threaded) is completed through the normal routing rule.
        Finally every shard subprocess is replayed into its journaled
        state.
        """
        monitor = cls(
            db,
            fleet,
            max_skipped=max_skipped,
            metrics=metrics,
            journal=journal,
            journal_max_ops=journal_max_ops,
            shard_timeout=shard_timeout,
        )
        loaded = journal.load_all()
        torn = sum(lj.torn_bytes for lj in loaded)
        topo = monitor._topology
        for shard, lj in zip(monitor._shards, loaded):
            shard.journal = list(lj.records)

        # Placement + verdict mirrors: the surviving register records of
        # each shard's journal say exactly what lives there.
        for shard, lj in zip(monitor._shards, loaded):
            placed: dict[str, dict] = {}
            for record in lj.records:
                if record["k"] != "op":
                    continue
                if record["op"] == "register":
                    placed[record["args"]["name"]] = record["args"]
                elif record["op"] == "unregister":
                    placed.pop(record["args"]["name"], None)
            for name, args in placed.items():
                query = parse_query(args["query"])
                topo.restore_placement(name, query.relations(), shard.index)
                monitor._entries[name] = MonitorEntry(
                    name, query, dict(args.get("check_kwargs") or {})
                )

        # The global state-op history: union across shards keyed by the
        # routing sequence number.  Where a compacted journal holds an
        # ``absorb`` rewrite at the same sequence as another shard's
        # original record, the original (non-absorb) kind wins — each
        # journal is self-contained, so the original's issue is in the
        # union too and the net pending-set arithmetic comes out equal.
        by_g: dict[int, dict] = {}
        presence: dict[int, set[int]] = {}
        max_seq = 0
        for shard, lj in zip(monitor._shards, loaded):
            for record in lj.records:
                g = record["g"]
                max_seq = max(max_seq, g)
                if record["op"] in STATE_OPS:
                    presence.setdefault(g, set()).add(shard.index)
                    prev = by_g.get(g)
                    if prev is None or (
                        prev["op"] == "absorb" and record["op"] != "absorb"
                    ):
                        by_g[g] = record
        topo.resume_seq(max_seq)

        state_gs = sorted(by_g)
        g_last = state_gs[-1] if state_gs else 0
        everyone = set(range(len(monitor._shards)))
        partial = bool(state_gs) and presence[g_last] != everyone
        for g in state_gs:
            if partial and g == g_last:
                break
            record = by_g[g]
            if record["op"] in ("issue", "absorb"):
                topo.restore_front(
                    record["op"],
                    protocol.transaction_from_wire(record["args"]["tx"]),
                )
            else:
                topo.restore_front(record["op"], record["args"]["tx_id"])

        # Per-shard backlog and pending mirrors, from that shard's own
        # records: a skip record still stands unless a later applied
        # record with the same sequence drained it.
        for shard, lj in zip(monitor._shards, loaded):
            op_gs = {r["g"] for r in lj.records if r["k"] == "op"}
            backlog = []
            pending: dict[str, frozenset[str]] = {}
            for record in lj.records:
                if record["k"] == "skip":
                    if record["g"] not in op_gs:
                        kind = record["op"]
                        if kind in ("issue", "absorb"):
                            payload = protocol.transaction_from_wire(
                                record["args"]["tx"]
                            )
                        else:
                            payload = record["args"]["tx_id"]
                        backlog.append(
                            (record["g"], kind, payload, frozenset(record["rels"]))
                        )
                elif record["op"] == "issue":
                    tx = protocol.transaction_from_wire(record["args"]["tx"])
                    pending[tx.tx_id] = frozenset(tx.relation_names)
                elif record["op"] in ("commit", "forget"):
                    pending.pop(record["args"]["tx_id"], None)
            topo.restore_backlog(shard.index, backlog)
            topo.restore_pending(shard.index, pending)

        if partial:
            monitor._complete_partial(by_g[g_last], presence[g_last])

        # Force every (freshly started) shard into its journaled state.
        for shard in monitor._shards:
            with shard.lock:
                try:
                    monitor._replay(shard)
                except (ConnectionError, ServiceError):
                    # Leave it dead with the journal intact: the next
                    # access (or the watchdog) revives it from scratch.
                    monitor._fleet.kill(shard.index)
                    log.warning(
                        "shard replay failed during recovery; left dead",
                        extra={"ctx": {"shard": shard.index}},
                    )

        log.warning(
            "router recovered from journal",
            extra={
                "ctx": {
                    "journal_dir": journal.directory,
                    "constraints": len(monitor._entries),
                    "state_ops": len(state_gs),
                    "torn_bytes": torn,
                    "completed_partial": partial,
                }
            },
        )
        monitor.recoveries += 1
        if metrics is not None:
            metrics.counter(
                "repro_fabric_recoveries_total",
                "Router crash recoveries performed from the durable journal.",
            ).inc()
        return monitor

    def _complete_partial(self, record: dict, reached: set[int]) -> None:
        """Finish the one state op the crash cut off mid-fanout.

        ``reached`` holds the shards whose journal already has a record
        at the op's sequence — their replay covers them.  Every other
        shard gets the record the original fanout would have written:
        applied (with the usual backlog drain first) when the op's
        coupled closure meets the shard's footprint, a skip otherwise.
        """
        topo = self._topology
        g, kind = record["g"], record["op"]
        if kind in ("issue", "absorb"):
            payload = protocol.transaction_from_wire(record["args"]["tx"])
            relations = frozenset(payload.relation_names)
            topo.restore_front(kind, payload)
        else:
            tx_id = record["args"]["tx_id"]
            relations = frozenset(
                topo.front.transaction(tx_id).relation_names
            )
            topo.restore_front(kind, tx_id)
            payload = tx_id
        touched = coupled_relations(
            relations,
            topo.front.constraints,
            (tx.relation_names for tx in topo.front.pending),
        )
        for slot in topo.slots:
            if slot.index in reached:
                continue
            shard = self._shards[slot.index]
            if kind in ("commit", "forget"):
                in_backlog = any(
                    e[1] == "issue" and e[2].tx_id == payload
                    for e in slot.skipped
                )
                if payload not in slot.pending and not in_backlog:
                    # A compaction hole, not a crash: this shard's
                    # issue/commit (or issue/forget) pair was already
                    # rewritten away — its state is consistent as is.
                    continue
            if touched & slot.footprint:
                drained, _retained = topo._take_drainable(slot, slot.footprint)
                for op in drained:
                    wire_op, args = self._wire_of(op)
                    self._record(
                        shard,
                        {"g": op.seq, "k": "op", "op": wire_op, "args": args},
                    )
                applied = topo._applied(slot, kind, payload, relations, g)
                wire_op, args = self._wire_of(applied)
                self._record(
                    shard, {"g": g, "k": "op", "op": wire_op, "args": args}
                )
            else:
                entry = (g, kind, payload, relations)
                slot.skipped.append(entry)
                wire_op, args = self._wire_of(
                    AppliedOp(kind, payload, relations)
                )
                self._record(
                    shard,
                    {
                        "g": g,
                        "k": "skip",
                        "op": wire_op,
                        "args": args,
                        "rels": sorted(relations),
                    },
                )

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
        self._drain(shard, plan.drained, plan.retained)
        args: dict = {"name": name, "query": str(query)}
        if check_kwargs:
            args["check_kwargs"] = check_kwargs
        self._apply_wire(shard, "register", args)
        entry = MonitorEntry(name, query, dict(check_kwargs))
        self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        shard = self._shards[self._topology.slot_of(name)]
        self._topology.forget_placement(name)
        self._apply_wire(shard, "unregister", {"name": name})
        del self._entries[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def entry(self, name: str) -> MonitorEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise ReproError(f"no constraint named {name!r}") from None

    # ------------------------------------------------------------------
    # Checking

    def status(self, name: str, use_subsumption: bool = True) -> DCSatResult:
        entry = self.entry(name)
        if entry.result is not None:
            entry.cache_hits += 1
            return entry.result
        shard = self._shards[self._topology.slot_of(name)]
        payload = self._query_shard(
            shard, "status", name=name, use_subsumption=use_subsumption
        )
        result = protocol.result_from_wire(payload)
        entry.result = result
        entry.checks_run += 1
        return result

    def status_all(self) -> dict[str, DCSatResult]:
        """Scatter-gather: every populated shard sweeps concurrently,
        each over the pending transactions its constraints can observe.
        """
        tracer = default_tracer()
        parent = tracer.current()
        populated = [shard for shard in self._shards if shard.names]
        merged: dict[str, DCSatResult] = {}
        if populated:
            for shard, payload, elapsed, spans in self._scatter(
                populated, "status_all"
            ):
                sp = None
                if parent is not None:
                    sp = tracer.record_span(
                        "fabric.call",
                        parent,
                        elapsed,
                        shard=shard.index,
                        op="status_all",
                        pid=getattr(self._fleet.handle(shard.index), "pid", None),
                    )
                if spans:
                    tracer.adopt(spans, parent=sp or parent)
                for name, wire in payload.items():
                    entry = self._entries.get(name)
                    result = protocol.result_from_wire(wire)
                    if entry is not None:
                        if entry.result is None:
                            entry.checks_run += 1
                        else:
                            entry.cache_hits += 1
                        entry.result = result
                    merged[name] = result
        return {name: merged[name] for name in self._entries if name in merged}

    def violated(self) -> dict[str, DCSatResult]:
        return {
            name: result
            for name, result in self.status_all().items()
            if not result.satisfied
        }

    def _scatter(
        self, shards: list[RemoteShard], op: str, **args
    ) -> list[tuple[RemoteShard, dict, float, list[dict] | None]]:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=len(self._shards),
                thread_name_prefix="repro-fabric",
            )

        def fetch(shard: RemoteShard):
            started = time.perf_counter()
            payload = self._query_shard(shard, op, **args)
            return (
                shard,
                payload,
                time.perf_counter() - started,
                shard.client.last_spans if shard.client else None,
            )

        return list(self._executor.map(fetch, shards))

    # ------------------------------------------------------------------
    # State changes (routed)

    def issue(self, tx: Transaction) -> list[str]:
        with obs_span("fabric.route", kind="issue") as sp:
            return self._run_actions("issue", self._topology.issue(tx), sp)

    def commit(self, tx_id: str) -> list[str]:
        with obs_span("fabric.route", kind="commit") as sp:
            return self._run_actions("commit", self._topology.commit(tx_id), sp)

    def forget(self, tx_id: str) -> list[str]:
        with obs_span("fabric.route", kind="forget") as sp:
            return self._run_actions("forget", self._topology.forget(tx_id), sp)

    def absorb(self, tx: Transaction) -> list[str]:
        with obs_span("fabric.route", kind="absorb") as sp:
            return self._run_actions("absorb", self._topology.absorb(tx), sp)

    def _run_actions(
        self, kind: str, actions: list[ShardAction], sp
    ) -> list[str]:
        self.last_dirty_components = {}
        invalidated: list[str] = []
        applied = skipped = 0
        for action in actions:
            shard = self._shards[action.shard]
            if action.skipped:
                skipped += 1
                if action.backlogged is not None:
                    seq, skind, payload, relations = action.backlogged
                    wire_op, args = self._wire_of(
                        AppliedOp(skind, payload, relations)
                    )
                    with shard.lock:
                        self._record(
                            shard,
                            {
                                "g": seq,
                                "k": "skip",
                                "op": wire_op,
                                "args": args,
                                "rels": sorted(relations),
                            },
                        )
                invalidated.extend(
                    self._drain(shard, action.drained, action.retained)
                )
            else:
                applied += 1
                invalidated.extend(
                    self._drain(shard, action.drained, action.retained)
                )
                invalidated.extend(self._invalidate(shard, action.op.touched))
                self._merge_dirty(self._apply_op(shard, action.op))
        sp.set(applied=applied, skipped=skipped)
        hit = set(invalidated)
        return [name for name in self._entries if name in hit]

    def _drain(
        self, shard: RemoteShard, drained: list[AppliedOp], retained: int
    ) -> list[str]:
        """Replay a backlog drain plan onto the shard, journaled."""
        if not drained and not retained:
            return []
        with obs_span("fabric.drain", shard=shard.index) as sp:
            invalidated: list[str] = []
            for op in drained:
                invalidated.extend(self._invalidate(shard, op.touched))
                self._merge_dirty(self._apply_op(shard, op))
            sp.set(drained=len(drained), retained=retained)
        return invalidated

    def _merge_dirty(self, payload: dict | None) -> None:
        """Fold one applied op's shard-reported component dirty-set into
        the router-level view.  Sums across shards: under replication a
        constraint name can only live on one shard, so in practice each
        name appears once per routed op."""
        if not payload:
            return
        for name, count in payload.get("dirty_components", {}).items():
            self.last_dirty_components[name] = (
                self.last_dirty_components.get(name, 0) + int(count)
            )

    def _invalidate(
        self, shard: RemoteShard, touched: frozenset[str]
    ) -> list[str]:
        """Drop mirror verdicts the op can reach on *shard* — exactly
        what the shard's own monitor does, mirrored router-side so the
        list survives a shard respawn (whose caches start empty)."""
        invalidated = []
        for name in shard.names:
            entry = self._entries.get(name)
            if (
                entry is not None
                and entry.result is not None
                and entry.relations & touched
            ):
                entry.result = None
                invalidated.append(name)
        return invalidated

    @staticmethod
    def _wire_of(op: AppliedOp) -> tuple[str, dict]:
        if op.kind in ("issue", "absorb"):
            return op.kind, {"tx": protocol.transaction_to_wire(op.payload)}
        return op.kind, {"tx_id": op.payload}

    def _apply_op(self, shard: RemoteShard, op: AppliedOp) -> dict | None:
        wire_op, args = self._wire_of(op)
        return self._apply_wire(shard, wire_op, args, seq=op.seq)

    def _record(self, shard: RemoteShard, record: dict) -> None:
        """Append one record to the shard's journal, durably if so
        configured — always *before* any wire send of the same op."""
        shard.journal.append(record)
        if self._journal is not None:
            self._journal.append(shard.index, record)

    def _apply_wire(
        self, shard: RemoteShard, op: str, args: dict, seq: int | None = None
    ) -> dict | None:
        """Journal, then send.  Journal-first makes every shard-side
        failure safe: a dead or ambiguous shard is respawned and
        replayed into exactly the journaled state (op included), so the
        op is never sent twice and never lost; only a live shard's
        definitive rejection removes it again (with a durable revoke).

        Returns the shard's response payload, or ``None`` on the
        revive/defer paths (the replayed shard recomputes its own dirty
        state, so there is nothing trustworthy to report)."""
        if seq is None:
            seq = self._topology.next_seq()
        record = {"g": seq, "k": "op", "op": op, "args": args}
        with shard.lock:
            self._record(shard, record)
            payload: dict | None = None
            try:
                payload = self._call(shard, op, **args)
            except ServiceError as error:
                if error.code in AMBIGUOUS_CODES:
                    self._revive_or_defer(shard)
                else:
                    # The shard is alive and rejected the op; keep the
                    # journal true to what the shard actually holds.
                    shard.journal.pop()
                    if self._journal is not None:
                        self._journal.append(
                            shard.index, {"g": seq, "k": "revoke", "op": op}
                        )
                    raise
            except ConnectionError:
                self._revive_or_defer(shard)
            self._maybe_compact(shard)
            return payload

    def _maybe_compact(self, shard: RemoteShard) -> None:
        if not self._journal_max_ops:
            return
        size = len(shard.journal)
        if size <= self._journal_max_ops or size <= shard.compact_floor:
            return
        compacted = compact_records(shard.journal)
        if compacted is None or len(compacted) >= size:
            # Nothing to gain right now; don't rescan on every append.
            shard.compact_floor = size * 2
            return
        shard.journal = compacted
        shard.compact_floor = 0
        if self._journal is not None:
            self._journal.shards[shard.index].write_snapshot(compacted)
        log.info(
            "shard journal compacted",
            extra={
                "ctx": {
                    "shard": shard.index,
                    "before": size,
                    "after": len(compacted),
                }
            },
        )
        if self._metrics is not None:
            self._metrics.counter(
                "repro_fabric_journal_compactions_total",
                "Shard journals rewritten by snapshot+truncate compaction.",
                labels={"shard": str(shard.index)},
            ).inc()

    # ------------------------------------------------------------------
    # Shard calls, liveness, replay

    def _call(self, shard: RemoteShard, op: str, **args) -> dict:
        tracer = default_tracer()
        assert shard.client is not None
        with tracer.span("fabric.call", shard=shard.index, op=op) as sp:
            result = shard.client.call(op, export_spans=True, **args)
            if shard.client.last_spans:
                tracer.adopt(shard.client.last_spans, parent=sp)
            return result

    def _query_shard(self, shard: RemoteShard, op: str, **args) -> dict:
        """A read-style call, with one revive-and-retry on failure."""
        with shard.lock:
            self._ensure_alive(shard)
            try:
                return self._call(shard, op, **args)
            except ServiceError as error:
                if error.code != "unavailable":
                    raise
                self._revive(shard)
                return self._call(shard, op, **args)
            except ConnectionError:
                self._revive(shard)
                return self._call(shard, op, **args)

    def _ensure_alive(self, shard: RemoteShard) -> None:
        if not self._fleet.alive(shard.index):
            self._revive(shard)

    def _revive_or_defer(self, shard: RemoteShard) -> None:
        """After an ambiguous failure the op is already journaled, i.e.
        durably applied as far as the fabric is concerned — so a failed
        revive (the respawn died too, or the breaker is open) defers to
        the next access or the watchdog instead of failing the op."""
        try:
            self._revive(shard)
        except (ConnectionError, ServiceError) as error:
            log.warning(
                "revive failed; shard left dead, journal stays authoritative",
                extra={"ctx": {"shard": shard.index, "error": str(error)}},
            )

    def revive_shard(self, index: int) -> None:
        """Respawn shard *index* and replay its journal (public surface
        for the liveness watchdog and operators); no-op when alive."""
        shard = self._shards[index]
        with shard.lock:
            if self._fleet.alive(index):
                return
            self._revive(shard)

    def _replay(self, shard: RemoteShard) -> None:
        """Send every applied-op record to the (fresh) shard, in order."""
        assert shard.client is not None
        for record in shard.journal:
            if record["k"] != "op":
                continue
            shard.client.call(
                record["op"], deadline=REPLAY_DEADLINE, **record["args"]
            )

    def _revive(self, shard: RemoteShard) -> None:
        """Respawn a dead shard from the seed db and replay its journal."""
        if shard.index in self._broken:
            raise FabricError(
                f"shard {shard.index} is circuit-broken "
                f"({self._broken[shard.index]}); not respawning",
                code="circuit-open",
                shard=shard.index,
            )
        with shard.lock:
            replayed = sum(1 for r in shard.journal if r["k"] == "op")
            with obs_span(
                "fabric.revive", shard=shard.index, journal_ops=replayed
            ):
                handle = self._fleet.restart(shard.index)
                shard.connect(handle, timeout=self._shard_timeout)
                try:
                    self._replay(shard)
                except Exception:
                    # A shard that died *mid-replay* must not pass for
                    # alive with half its history: kill it so the next
                    # access re-revives from the intact journal.
                    self._fleet.kill(shard.index)
                    raise
        log.warning(
            "shard revived from journal",
            extra={
                "ctx": {
                    "shard": shard.index,
                    "replayed_ops": replayed,
                    "pid": getattr(handle, "pid", None),
                }
            },
        )
        if self._metrics is not None:
            labels = {"shard": str(shard.index)}
            self._metrics.counter(
                "repro_fabric_revives_total",
                "Shard subprocesses respawned and journal-replayed.",
                labels=labels,
            ).inc()
            self._metrics.counter(
                "repro_fabric_replayed_ops_total",
                "Journal operations replayed into respawned shards.",
                labels=labels,
            ).inc(replayed)

    # ------------------------------------------------------------------
    # Circuit breaker

    def is_broken(self, index: int) -> bool:
        return index in self._broken

    def break_shard(self, index: int, reason: str) -> None:
        """Open the circuit: stop respawning a crash-looping shard.  Its
        reads fail fast with ``code="circuit-open"``, mutations keep
        journaling durably, and health endpoints degrade."""
        self._broken[index] = reason
        log.error(
            "shard circuit-broken",
            extra={"ctx": {"shard": index, "reason": reason}},
        )

    def reset_shard(self, index: int) -> None:
        """Close the circuit and revive the shard (operator surface)."""
        self._broken.pop(index, None)
        self.revive_shard(index)

    def start_watchdog(self, **kwargs):
        """Spawn a :class:`~repro.fabric.supervisor.LivenessWatchdog`
        probing this fleet; returns it (also stored for :meth:`close`)."""
        from repro.fabric.supervisor import LivenessWatchdog

        if self._watchdog is not None:
            return self._watchdog
        self._watchdog = LivenessWatchdog(self, metrics=self._metrics, **kwargs)
        self._watchdog.start()
        return self._watchdog

    # ------------------------------------------------------------------
    # Rebalance

    def rebalance(self) -> dict:
        """Migrate constraints by recorded solve cost (see
        :meth:`ShardTopology.rebalance`); the cost of a constraint is
        the worlds checked plus evaluations of its last mirror verdict."""
        costs = {
            name: float(
                entry.result.stats.worlds_checked
                + entry.result.stats.evaluations
            )
            or 1.0
            for name, entry in self._entries.items()
            if entry.result is not None
        }
        moves = []
        for plan in self._topology.rebalance(costs):
            executed = self._topology.migrate(plan.name, plan.target)
            target = self._shards[executed.target]
            source = self._shards[executed.source]
            self._drain(target, executed.drained, executed.retained)
            entry = self._entries[plan.name]
            args: dict = {"name": plan.name, "query": str(entry.query)}
            if entry.check_kwargs:
                args["check_kwargs"] = entry.check_kwargs
            self._apply_wire(target, "register", args)
            self._apply_wire(source, "unregister", {"name": plan.name})
            # The verdict would still hold, but the fresh placement has
            # no shard-side cache; stay conservative and recompute.
            entry.result = None
            moves.append(
                {"name": plan.name, "from": executed.source, "to": executed.target}
            )
            log.info(
                "constraint migrated",
                extra={"ctx": moves[-1]},
            )
        return {"migrated": moves, "shards": len(self._shards)}

    # ------------------------------------------------------------------
    # Introspection (the server's duck-typed surface)

    def pending_count(self) -> int:
        return self._topology.pending_count()

    def checkers(self) -> list:
        return []  # solving happens in the shard subprocesses

    def fleet_health(self) -> dict:
        """Per-shard liveness for ``/healthz`` — truthful, no revival:
        a dead shard shows dead until the next op lazily respawns it
        (or never, when its circuit breaker is open)."""
        shards = []
        dead = []
        for shard in self._shards:
            handle = self._fleet.handles[shard.index]
            alive = handle is not None and handle.alive()
            broken = shard.index in self._broken
            shards.append(
                {
                    "shard": shard.index,
                    "alive": alive,
                    "broken": broken,
                    "pid": getattr(handle, "pid", None),
                    "port": getattr(handle, "port", None),
                    "restarts": self._fleet.restarts[shard.index],
                    "journal_ops": len(shard.journal),
                }
            )
            if not alive:
                dead.append(shard.index)
        return {
            "ok": not dead and not self._broken,
            "dead": dead,
            "broken": sorted(self._broken),
            "shards": shards,
        }

    def describe(self) -> dict:
        info = self._topology.describe()
        info["fabric"] = True
        health = {item["shard"]: item for item in self.fleet_health()["shards"]}
        for item in info["detail"]:
            item.update(health[item["shard"]])
        if self._journal is not None:
            info["journal"] = {
                "dir": self._journal.directory,
                "fsync": self._journal.fsync,
                "bytes": self._journal.bytes,
                "max_ops": self._journal_max_ops,
            }
        info["recoveries"] = self.recoveries
        info["last_dirty_components"] = dict(self.last_dirty_components)
        if self._watchdog is not None:
            info["watchdog"] = {
                "interval": self._watchdog.interval,
                "respawns": self._watchdog.respawns,
            }
        return info

    def export_gauges(self, metrics: MetricsRegistry) -> None:
        for item in self.fleet_health()["shards"]:
            labels = {"shard": str(item["shard"])}
            shard = self._shards[item["shard"]]
            metrics.gauge(
                "repro_fabric_shard_alive",
                "1 when the shard subprocess is alive.",
                labels=labels,
            ).set(1 if item["alive"] else 0)
            metrics.gauge(
                "repro_fabric_shard_broken",
                "1 when the shard's respawn circuit breaker is open.",
                labels=labels,
            ).set(1 if item["broken"] else 0)
            metrics.gauge(
                "repro_fabric_shard_constraints",
                "Constraints placed on the shard.",
                labels=labels,
            ).set(len(shard.names))
            metrics.gauge(
                "repro_fabric_shard_skipped_ops",
                "State changes backlogged router-side for the shard.",
                labels=labels,
            ).set(len(shard.skipped))
            metrics.gauge(
                "repro_fabric_shard_flushes",
                "Times the shard's backlog was drained.",
                labels=labels,
            ).set(shard.flushes)
            metrics.gauge(
                "repro_fabric_shard_restarts",
                "Times the shard subprocess was respawned.",
                labels=labels,
            ).set(item["restarts"])
            metrics.gauge(
                "repro_fabric_shard_journal_ops",
                "Wire operations journaled for replay on respawn.",
                labels=labels,
            ).set(item["journal_ops"])
            if self._journal is not None:
                metrics.gauge(
                    "repro_fabric_journal_bytes",
                    "On-disk bytes of the shard's write-ahead journal.",
                    labels=labels,
                ).set(self._journal.shards[item["shard"]].bytes)
        # Registering without incrementing keeps the series visible at 0
        # on a fresh (non-recovered) boot; recover() owns the increments.
        metrics.counter(
            "repro_fabric_recoveries_total",
            "Router crash recoveries performed from the durable journal.",
        )

    # ------------------------------------------------------------------
    # Lifecycle

    def close(self) -> None:
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        for shard in self._shards:
            shard.close()
        self._fleet.stop()
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "FabricMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        journaled = sum(len(shard.journal) for shard in self._shards)
        return (
            f"FabricMonitor({len(self._shards)} shard processes, "
            f"{len(self._entries)} constraints, {journaled} journaled ops)"
        )


__all__ = [
    "AMBIGUOUS_CODES",
    "FabricMonitor",
    "RemoteShard",
    "REPLAY_DEADLINE",
    "compact_records",
]
