"""The routing brain behind the fabric router.

:class:`ShardTopology` owns everything about a constraint fleet that is
*not* solving: the authoritative front database (which validates every
state change before routing), constraint placement by ind-coupled
footprint, the per-shard skipped-op backlogs with their drain/replay
semantics, and per-shard pending bookkeeping.  It emits **plans** —
ordered per-shard action lists — and never touches a monitor itself:
:class:`~repro.fabric.router.FabricMonitor` executes them against shard
servers over the JSON-lines wire protocol.  The randomized-trace suites
in ``tests/fabric/`` pin every shard's verdicts to one monitor's.

The routing semantics: a state change over relations ``S`` can only
affect shards whose footprint intersects the ind-connectivity /
co-write coupled closure of ``S``
(:func:`~repro.core.monitor.coupled_relations`); every other shard
appends the op to its backlog.  Skipped ops replay — in original global
order — before the next coupled op, before a registration that grows
the footprint over them, or wholesale when the backlog outgrows
``max_skipped``.

Every applied op additionally records ``touched``: the coupled closure
computed against *that shard's own pending set* after the op, exactly
as the shard's local monitor computes its invalidation set.  A router
holding cached-verdict mirrors can therefore reproduce the shard's
invalidation list without a round trip — which keeps invalidation
reporting correct even across a shard kill/replay (a freshly replayed
shard has no caches and would report nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import serialize
from repro.core.blockchain_db import BlockchainDatabase
from repro.core.monitor import coupled_relations
from repro.errors import ReproError
from repro.relational.transaction import Transaction


def copy_database(db: BlockchainDatabase) -> BlockchainDatabase:
    """An independent deep copy (shards must not share mutable state)."""
    return serialize.database_from_dict(
        serialize.database_to_dict(db), validate=False
    )


@dataclass
class AppliedOp:
    """One state change to apply to a shard, with its invalidation reach."""

    kind: str  # issue | commit | forget | absorb
    payload: object  # Transaction, or tx_id for commit/forget
    relations: frozenset[str]
    #: Coupled closure over the shard's own pending set *after* this op
    #: — the relations whose constraint verdicts the op can invalidate
    #: on that shard (mirrors ConstraintMonitor._invalidate_touching).
    touched: frozenset[str] = frozenset()
    #: Global routing sequence number of the originating state change.
    #: A drained backlog op keeps the seq it was routed under, so the
    #: durable journal can match an applied record against the skip
    #: record it supersedes.
    seq: int = 0


@dataclass
class ShardAction:
    """What one shard must do for one routed state change."""

    shard: int
    #: Backlogged ops to replay first, in original global order.
    drained: list[AppliedOp] = field(default_factory=list)
    #: Ops left in the backlog after the drain (for tracing/metrics).
    retained: int = 0
    #: The routed op itself; None when it was skipped into the backlog
    #: (an overflow flush then carries it inside ``drained``).
    op: AppliedOp | None = None
    skipped: bool = False
    #: The backlog entry ``(seq, kind, payload, relations)`` appended
    #: when ``skipped`` — what a durable journal records for the shard.
    backlogged: tuple | None = None


@dataclass
class RegisterPlan:
    """Placement decision plus the backlog the new constraint observes."""

    shard: int
    drained: list[AppliedOp] = field(default_factory=list)
    retained: int = 0


@dataclass
class MigrationPlan:
    """One constraint moving between shards during a rebalance."""

    name: str
    source: int
    target: int
    #: Backlog of the *target* shard the constraint would observe.
    drained: list[AppliedOp] = field(default_factory=list)
    retained: int = 0


class ShardSlot:
    """Routing state for one shard (no monitor, no connection)."""

    __slots__ = (
        "index", "footprint", "skipped", "names",
        "pending", "flushes",
    )

    def __init__(self, index: int):
        self.index = index
        #: Union of the raw relation footprints of placed constraints.
        self.footprint: frozenset[str] = frozenset()
        #: Backlogged ``(seq, kind, payload, relations)`` with seed
        #: relations recorded at skip time (a committed transaction's
        #: relations are not otherwise recoverable later) and the global
        #: sequence number the op was routed under.
        self.skipped: list[tuple[int, str, object, frozenset[str]]] = []
        #: Constraints placed here, in placement order.
        self.names: list[str] = []
        #: tx_id -> relations of pending transactions this shard has
        #: applied — its own db's pending set, tracked router-side.
        self.pending: dict[str, frozenset[str]] = {}
        self.flushes = 0


class ShardTopology:
    """Placement, routing and rebalance decisions for N shards."""

    def __init__(
        self,
        db: BlockchainDatabase,
        shards: int = 2,
        max_skipped: int = 512,
    ):
        if shards < 1:
            raise ReproError(f"need at least one shard, got {shards}")
        #: The front's own authoritative copy: validates ops and tracks
        #: the pending set whose co-write footprints drive routing.
        self.front = copy_database(db)
        self.slots = [ShardSlot(index) for index in range(shards)]
        #: constraint name -> shard index, in registration order.
        self.placement: dict[str, int] = {}
        #: constraint name -> raw relation footprint of its query.
        self.footprints: dict[str, frozenset[str]] = {}
        self.max_skipped = max_skipped
        #: Monotone state-change counter, mirroring ``DCSatChecker.epoch``.
        self.epoch = 0
        #: Global routing sequence: every routed state change (and every
        #: registration the router journals) takes the next value, so a
        #: durable journal can order records across shards.
        self.seq = 0

    def next_seq(self) -> int:
        """Advance and return the global routing sequence (used by the
        router to stamp registration records it journals itself)."""
        self.seq += 1
        return self.seq

    # ------------------------------------------------------------------
    # Placement

    def place(self, name: str, relations: frozenset[str]) -> RegisterPlan:
        """Choose a shard for a new constraint and record the placement.

        The returned plan's ``drained`` ops must replay on the shard
        *before* the constraint registers there: the footprint is about
        to grow, so every backlogged op the new constraint could observe
        has to land first.
        """
        if name in self.placement:
            raise ReproError(f"constraint {name!r} is already registered")
        slot = self._pick_slot(relations)
        drained, retained = self._take_drainable(
            slot, slot.footprint | relations
        )
        slot.footprint |= relations
        slot.names.append(name)
        self.placement[name] = slot.index
        self.footprints[name] = relations
        return RegisterPlan(slot.index, drained, retained)

    def _pick_slot(self, relations: frozenset[str]) -> ShardSlot:
        """Deterministic placement: co-locate with the shard sharing the
        most ind-coupled relations; otherwise balance by entry count."""
        expanded = self.front.constraints.ind_closure(relations)
        best: ShardSlot | None = None
        best_score = 0
        for slot in self.slots:
            score = len(expanded & slot.footprint)
            if score > best_score:
                best, best_score = slot, score
        if best is None:
            best = min(self.slots, key=lambda s: (len(s.names), s.index))
        return best

    def forget_placement(self, name: str) -> int:
        """Remove a constraint from the topology; returns its shard."""
        slot = self.slots[self.slot_of(name)]
        slot.names.remove(name)
        del self.placement[name]
        del self.footprints[name]
        self._refresh_footprint(slot)
        return slot.index

    def slot_of(self, name: str) -> int:
        try:
            return self.placement[name]
        except KeyError:
            raise ReproError(f"no constraint named {name!r}") from None

    def _refresh_footprint(self, slot: ShardSlot) -> None:
        footprint: set[str] = set()
        for name in slot.names:
            footprint |= self.footprints[name]
        slot.footprint = frozenset(footprint)

    # ------------------------------------------------------------------
    # State changes (front validation + routing)

    def issue(self, tx: Transaction) -> list[ShardAction]:
        self.front.add_pending(tx)  # validates id, relations, arity
        self.epoch += 1
        return self._route("issue", tx, frozenset(tx.relation_names))

    def commit(self, tx_id: str) -> list[ShardAction]:
        tx = self.front.remove_pending(tx_id)
        self.epoch += 1
        return self._route("commit", tx_id, frozenset(tx.relation_names))

    def forget(self, tx_id: str) -> list[ShardAction]:
        tx = self.front.remove_pending(tx_id)
        self.epoch += 1
        return self._route("forget", tx_id, frozenset(tx.relation_names))

    def absorb(self, tx: Transaction) -> list[ShardAction]:
        for rel in tx.relation_names:
            if rel not in self.front.current:
                raise ReproError(
                    f"transaction {tx.tx_id!r} targets unknown relation {rel!r}"
                )
            schema = self.front.current[rel].schema
            for values in tx.tuples(rel):
                schema.validate_tuple(values)
        self.epoch += 1
        return self._route("absorb", tx, frozenset(tx.relation_names))

    def _route(
        self, kind: str, payload, relations: frozenset[str]
    ) -> list[ShardAction]:
        seq = self.next_seq()
        touched = coupled_relations(
            relations,
            self.front.constraints,
            (tx.relation_names for tx in self.front.pending),
        )
        actions = []
        for slot in self.slots:
            if touched & slot.footprint:
                drained, retained = self._take_drainable(slot, slot.footprint)
                actions.append(
                    ShardAction(
                        slot.index,
                        drained,
                        retained,
                        self._applied(slot, kind, payload, relations, seq),
                    )
                )
            else:
                entry = (seq, kind, payload, relations)
                slot.skipped.append(entry)
                action = ShardAction(slot.index, skipped=True, backlogged=entry)
                if self.max_skipped and len(slot.skipped) > self.max_skipped:
                    action.drained, action.retained = self._take_drainable(
                        slot, None
                    )
                actions.append(action)
        return actions

    def _take_drainable(
        self, slot: ShardSlot, footprint: frozenset[str] | None
    ) -> tuple[list[AppliedOp], int]:
        """Split the backlog into (replay now, keep skipped).

        Ops in a different coupling component commute with everything
        the shard observes, so they stay skipped — that independence is
        what keeps each shard's world sweep small.  Coupled ops drain
        together (their seeds close over the same component), so the
        relative order among drained ops is the global one.  ``None``
        drains the whole backlog.
        """
        if not slot.skipped:
            return [], 0
        pending_footprints = [
            frozenset(tx.relation_names) for tx in self.front.pending
        ]
        drained: list[AppliedOp] = []
        retained: list[tuple[int, str, object, frozenset[str]]] = []
        for seq, kind, payload, relations in slot.skipped:
            coupled = footprint is None or (
                coupled_relations(
                    relations, self.front.constraints, pending_footprints
                )
                & footprint
            )
            if coupled:
                drained.append(
                    self._applied(slot, kind, payload, relations, seq)
                )
            else:
                retained.append((seq, kind, payload, relations))
        slot.skipped = retained
        if drained:
            slot.flushes += 1
        return drained, len(retained)

    def _applied(
        self,
        slot: ShardSlot,
        kind: str,
        payload,
        relations: frozenset[str],
        seq: int = 0,
    ) -> AppliedOp:
        """Record an op as applied to *slot* and compute its reach.

        Pending bookkeeping mirrors the shard's own checker (issue adds
        before the invalidation closure is taken; commit/forget remove
        first), so ``touched`` equals what the shard-local
        ``ConstraintMonitor._invalidate_touching`` would compute.
        """
        if kind == "issue":
            slot.pending[payload.tx_id] = relations
        elif kind in ("commit", "forget"):
            slot.pending.pop(payload, None)
        touched = coupled_relations(
            relations, self.front.constraints, slot.pending.values()
        )
        return AppliedOp(kind, payload, relations, touched, seq)

    # ------------------------------------------------------------------
    # Recovery restoration (see FabricMonitor.recover)

    def restore_placement(
        self, name: str, relations: frozenset[str], shard: int
    ) -> None:
        """Record a placement known from a durable journal, bypassing
        :meth:`_pick_slot` — recovery must land every constraint on the
        shard whose journal registered it, not wherever the heuristic
        would put it today."""
        if name in self.placement:
            raise ReproError(f"constraint {name!r} is already registered")
        slot = self.slots[shard]
        slot.footprint |= relations
        slot.names.append(name)
        self.placement[name] = shard
        self.footprints[name] = relations

    def restore_front(self, kind: str, payload) -> None:
        """Re-apply one recovered global state op to the front database
        only — no routing, no backlog effects.  Rebuilds the pending set
        a restarted router needs for coupled-closure decisions."""
        if kind == "issue":
            self.front.add_pending(payload)
        elif kind in ("commit", "forget"):
            self.front.remove_pending(payload)
        # absorb leaves the front untouched: the front's ``current`` is
        # never mutated, it only tracks the pending set.
        self.epoch += 1

    def restore_backlog(
        self,
        shard: int,
        entries: list[tuple[int, str, object, frozenset[str]]],
    ) -> None:
        """Install a shard's recovered skip backlog, in original order."""
        self.slots[shard].skipped = sorted(entries, key=lambda e: e[0])

    def restore_pending(
        self, shard: int, pending: dict[str, frozenset[str]]
    ) -> None:
        """Install a shard's recovered router-side pending mirror."""
        self.slots[shard].pending = dict(pending)

    def resume_seq(self, seq: int) -> None:
        """Fast-forward the routing sequence past every recovered record
        so new ops never reuse a journaled sequence number."""
        self.seq = max(self.seq, seq)

    # ------------------------------------------------------------------
    # Rebalance

    def coupling_groups(self) -> list[list[str]]:
        """Registered constraints grouped by ind-coupled footprint.

        Constraints in one group observe overlapping closure, so a
        rebalance moves them together — co-location is what lets the
        router skip decoupled shards on every op.
        """
        names = list(self.placement)
        expanded = {
            name: self.front.constraints.ind_closure(self.footprints[name])
            for name in names
        }
        parent = {name: name for name in names}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if expanded[a] & expanded[b]:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[rb] = ra
        groups: dict[str, list[str]] = {}
        for name in names:
            groups.setdefault(find(name), []).append(name)
        return list(groups.values())

    def rebalance(
        self, costs: dict[str, float] | None = None
    ) -> list[MigrationPlan]:
        """Plan constraint migrations that even out per-shard load.

        *costs* maps constraint names to a recorded expense (e.g. the
        worlds checked by its last solve, off ``DCSatStats``); missing
        names cost 1.  Coupling groups are greedily bin-packed, heaviest
        first, onto the shard with the least assigned cost.  Returns
        only the moves — callers apply them via :meth:`migrate`.
        """
        costs = costs or {}
        groups = sorted(
            self.coupling_groups(),
            key=lambda g: (-sum(costs.get(n, 1.0) for n in g), g[0]),
        )
        load = {slot.index: 0.0 for slot in self.slots}
        assigned: dict[str, int] = {}
        for group in groups:
            weight = sum(costs.get(n, 1.0) for n in group)
            target = min(load, key=lambda idx: (load[idx], idx))
            load[target] += weight
            for name in group:
                assigned[name] = target
        return [
            MigrationPlan(name, self.placement[name], target)
            for name, target in assigned.items()
            if self.placement[name] != target
        ]

    def migrate(self, name: str, target: int) -> MigrationPlan:
        """Re-place one constraint; returns the target-shard drain plan.

        The executor must replay ``drained`` on the target shard, then
        register the constraint there, then unregister it at the source
        — the topology bookkeeping is already updated when this returns.
        """
        source = self.slot_of(name)
        if target == source:
            return MigrationPlan(name, source, target)
        if not 0 <= target < len(self.slots):
            raise ReproError(f"no shard {target} in a {len(self.slots)}-shard fleet")
        relations = self.footprints[name]
        source_slot = self.slots[source]
        target_slot = self.slots[target]
        drained, retained = self._take_drainable(
            target_slot, target_slot.footprint | relations
        )
        source_slot.names.remove(name)
        self._refresh_footprint(source_slot)
        target_slot.footprint |= relations
        target_slot.names.append(name)
        self.placement[name] = target
        return MigrationPlan(name, source, target, drained, retained)

    # ------------------------------------------------------------------
    # Introspection

    def pending_count(self) -> int:
        return len(self.front.pending_ids)

    def describe(self) -> dict:
        """Per-shard placement, footprint and routing-state summary."""
        return {
            "sharded": True,
            "shards": len(self.slots),
            "detail": [
                {
                    "shard": slot.index,
                    "constraints": sorted(slot.names),
                    "footprint": sorted(slot.footprint),
                    "pending": len(slot.pending),
                    "skipped_ops": len(slot.skipped),
                    "flushes": slot.flushes,
                }
                for slot in self.slots
            ],
        }

    def __repr__(self) -> str:
        skipped = sum(len(slot.skipped) for slot in self.slots)
        return (
            f"ShardTopology({len(self.slots)} shards, "
            f"{len(self.placement)} constraints, {skipped} skipped ops)"
        )


__all__ = [
    "AppliedOp",
    "MigrationPlan",
    "RegisterPlan",
    "ShardAction",
    "ShardSlot",
    "ShardTopology",
    "copy_database",
]
