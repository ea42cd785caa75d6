"""The fabric against one in-process monitor: B shard *subprocesses*
sweep B decoupled batteries concurrently, while one
:class:`~repro.core.monitor.ConstraintMonitor` checks the same
constraints one at a time (``status_all()`` checks each constraint over
its own components — the same per-constraint worlds each shard sweeps).

B decoupled batteries of per-key conflicting pending pairs: each key is
one fd-graph component of two worlds, and the satisfied constraint
forces the sweep to visit every component's worlds, with ``KEYS``
raised until one battery's sweep dwarfs the fabric's per-call RPC
overhead.  Fleet spawn time is deliberately *excluded* — the fleet
boots once and serves many sweeps; the steady-state ``status_all`` is
what the router is for.

Both wall clocks land in ``BENCH_<rev>.json`` via
:func:`benchmarks.conftest.record_bench`.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from benchmarks.conftest import record_bench
from repro import serialize
from repro.fabric import FabricMonitor, FleetSupervisor, ShardSpec
from repro.relational.constraints import ConstraintSet, Key
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction
from repro.core.blockchain_db import BlockchainDatabase
from repro.core.checker import DCSatChecker
from repro.core.monitor import ConstraintMonitor


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ[name])
    except (KeyError, ValueError):
        return default


BATTERIES = _env_int("REPRO_BENCH_FABRIC_BATTERIES", 2)
#: Conflicting pending pairs per battery.  A constraint's check
#: decomposes per component (one per key, two worlds each), so a
#: battery's sweep costs ``2 * KEYS`` world checks — sized here so one
#: battery's sweep dwarfs a fabric RPC round trip by a wide margin.
KEYS = _env_int("REPRO_BENCH_FABRIC_KEYS", 120)
ROUNDS = _env_int("REPRO_BENCH_FABRIC_ROUNDS", 3)


def battery_db() -> BlockchainDatabase:
    schema = make_schema({f"R{b}": ["k", "v"] for b in range(BATTERIES)})
    constraints = ConstraintSet(
        schema, [Key(f"R{b}", ["k"], schema) for b in range(BATTERIES)]
    )
    state = Database.from_dict(schema, {f"R{b}": [] for b in range(BATTERIES)})
    return BlockchainDatabase(state, constraints)


def battery_transactions() -> list[Transaction]:
    return [
        Transaction({f"R{b}": [(key, value)]}, tx_id=f"B{b}K{key}{value}")
        for b in range(BATTERIES)
        for key in range(KEYS)
        for value in ("a", "b")
    ]


def register_batteries(monitor) -> None:
    for b in range(BATTERIES):
        monitor.register(f"battery-{b}", f"q() <- R{b}(k, 'a'), R{b}(k, 'b')")


def timed_sweeps(monitor, tag: str) -> list[float]:
    timings = []
    for round_index in range(ROUNDS):
        # Absorb one fresh, conflict-free fact per battery: it touches
        # every battery's relation, so *all* verdict caches — router
        # mirrors and shard-side monitors alike — invalidate, and every
        # round pays the full 2 * KEYS-world sweep per battery.  The new key is
        # beyond the conflicting range, so the verdicts never change.
        for b in range(BATTERIES):
            monitor.absorb(
                Transaction(
                    {f"R{b}": [(10_000 + round_index, "a")]},
                    tx_id=f"{tag}W{b}R{round_index}",
                )
            )
        started = time.perf_counter()
        verdicts = monitor.status_all()
        timings.append(time.perf_counter() - started)
        assert all(verdicts[f"battery-{b}"].satisfied for b in range(BATTERIES))
    return timings


def test_process_fleet_beats_single_monitor(tmp_path):
    db_path = str(tmp_path / "batteries.json")
    serialize.dump(battery_db(), db_path)

    single = ConstraintMonitor(DCSatChecker(battery_db()))
    register_batteries(single)
    for tx in battery_transactions():
        single.issue(tx)

    fleet = FleetSupervisor(ShardSpec(db_path=db_path), shards=BATTERIES)
    fabric = FabricMonitor(battery_db(), fleet)
    try:
        register_batteries(fabric)
        for tx in battery_transactions():
            fabric.issue(tx)

        fabric_timings = timed_sweeps(fabric, "F")
        single_timings = timed_sweeps(single, "S")
    finally:
        fabric.close()

    fabric_s = statistics.median(fabric_timings)
    single_s = statistics.median(single_timings)
    cores = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1)
    )
    record_bench(
        "fabric.status_all",
        gate=True,
        batteries=BATTERIES,
        keys=KEYS,
        shards=BATTERIES,
        cores=cores,
        seconds=fabric_s,
        single_process_seconds=single_s,
        speedup=single_s / fabric_s if fabric_s else float("inf"),
    )
    if cores < 2:
        # One core cannot run two shard subprocesses concurrently; the
        # fabric then pays its RPC overhead with nothing to win.  The
        # timings are recorded above either way.
        pytest.skip(f"speedup needs >= 2 CPU cores, host has {cores}")
    assert fabric_s < single_s, (
        f"{BATTERIES} shard subprocesses took {fabric_s:.3f}s vs "
        f"{single_s:.3f}s for one in-process monitor"
    )
