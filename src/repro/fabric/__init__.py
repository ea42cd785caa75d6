"""repro.fabric — a cross-process shard fleet behind one wire endpoint.

The fabric partitions registered constraints by coupled relation
footprint across shard processes: every shard runs as its own
``repro serve`` subprocess (one interpreter, one solver each), and a
router process speaks the same JSON-lines protocol to clients, so
existing :class:`~repro.service.client.ServiceClient` code works
unchanged against a fleet.  It is a durability and isolation tier (a
write-ahead journal, ``--recover`` after a crash, a liveness watchdog),
not a speed-up: see ``docs/FABRIC.md`` for the measured cost.

* :mod:`~repro.fabric.topology` — :class:`ShardTopology`, the routing
  brain: constraint placement by coupled footprint, skip/replay
  backlogs, per-shard pending bookkeeping, and footprint-driven
  rebalance plans.  It only *decides*; executors apply.
* :mod:`~repro.fabric.supervisor` — shard process lifecycle: spawn,
  ready-probe, liveness, kill and respawn (:class:`FleetSupervisor`
  over subprocesses; :class:`ThreadFleet` over in-process servers for
  tests and embedding).
* :mod:`~repro.fabric.router` — :class:`FabricMonitor`, the
  monitor-shaped front that :class:`~repro.service.server.ConstraintService`
  serves: it fans state changes to the coupled closure of affected
  shards, scatter-gathers ``status_all``, journals every applied op so
  a killed shard can be respawned and replayed, adopts shard-side trace
  spans over the socket, and migrates constraints on ``rebalance``.
* :mod:`~repro.fabric.journal` — the durable half of that journal:
  segmented, checksummed JSON-lines write-ahead files per shard
  (:class:`FabricJournal`), written *before* each op is sent, with
  snapshot-and-truncate compaction.  :meth:`FabricMonitor.recover`
  rebuilds a whole router from one after a crash.
* :mod:`~repro.fabric.chaos` — fault injection: a seeded
  :class:`ChaosProxy` per shard (connection drops, delayed / truncated
  replies, kill-during-replay) behind a fleet-shaped
  :class:`ChaosFleet`, for crash-parity testing.

Run a fleet from the command line with ``repro fabric --shards N``
(add ``--journal-dir`` for durability, ``--recover`` after a crash);
see ``docs/FABRIC.md`` for topology, durability and failure semantics.
"""

from repro.fabric.chaos import ChaosFleet, ChaosProxy, FaultPlan
from repro.fabric.journal import FabricJournal, ShardJournal
from repro.fabric.router import FabricMonitor
from repro.fabric.supervisor import (
    FleetSupervisor,
    LivenessWatchdog,
    ShardSpec,
    ThreadFleet,
    reap_stale,
)
from repro.fabric.topology import ShardTopology

__all__ = [
    "ChaosFleet",
    "ChaosProxy",
    "FabricJournal",
    "FabricMonitor",
    "FaultPlan",
    "FleetSupervisor",
    "LivenessWatchdog",
    "ShardJournal",
    "ShardSpec",
    "ThreadFleet",
    "ShardTopology",
    "reap_stale",
]
