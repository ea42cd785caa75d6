"""Churn parity through the fabric: a :class:`FabricMonitor` routing the
trace to shard servers (each a ledger-maintained monitor behind the wire
protocol) must agree with a single fresh-recompute monitor after every
event — verdicts and witnesses survive the wire round trip intact.

Runs over an in-process :class:`ThreadFleet` (real servers, real
protocol, no subprocess spawn); ``REPRO_CHURN_EVENTS`` scales the trace.
"""

from __future__ import annotations

import pytest

from repro.core.checker import DCSatChecker
from repro.core.monitor import ConstraintMonitor

from tests.core.test_churn_parity import (
    CHURN_CONSTRAINTS,
    EVENTS,
    apply_event,
    churn_db,
    churn_events,
)
from tests.fabric.conftest import thread_fabric


def run_churn_parity(shards: int, seed: int) -> None:
    fabric = thread_fabric(churn_db, shards=shards)
    mirror = ConstraintMonitor(DCSatChecker(churn_db()), incremental=False)
    try:
        for monitor in (fabric, mirror):
            for name, query in CHURN_CONSTRAINTS.items():
                monitor.register(name, query)
        dirty_reports = 0
        for index, (kind, payload) in enumerate(churn_events(seed, EVENTS)):
            apply_event(fabric, kind, payload)
            apply_event(mirror, kind, payload)
            if fabric.last_dirty_components:
                dirty_reports += 1
            for name in CHURN_CONSTRAINTS:
                lhs = fabric.status(name)
                rhs = mirror.status(name, use_subsumption=False)
                assert lhs.satisfied == rhs.satisfied, (
                    f"verdict diverged for {name!r} after event {index} "
                    f"({kind}, shards={shards})"
                )
                assert lhs.witness == rhs.witness, (
                    f"witness diverged for {name!r} after event {index} "
                    f"({kind}, shards={shards})"
                )
        # The shard servers' dirty-component payloads crossed the wire.
        assert dirty_reports > 0
    finally:
        fabric.close()


def test_fabric_churn_parity():
    run_churn_parity(shards=2, seed=31337)


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_fabric_churn_parity_over_shards(shards):
    run_churn_parity(shards=shards, seed=9001)


def test_fabric_dirty_components_surface():
    # A commit or forget that prunes shard ledger entries reports the
    # dirtied components through the router, each with a positive count.
    fabric = thread_fabric(churn_db, shards=2)
    try:
        for name, query in CHURN_CONSTRAINTS.items():
            fabric.register(name, query)
        for name in CHURN_CONSTRAINTS:
            fabric.status(name)
        for kind, payload in churn_events(11, 40):
            apply_event(fabric, kind, payload)
            if kind in ("commit", "forget") and fabric.last_dirty_components:
                break
            for name in CHURN_CONSTRAINTS:
                fabric.status(name)
        else:
            pytest.fail("trace produced no prunable ledger entries")
        assert all(
            count > 0 for count in fabric.last_dirty_components.values()
        )
    finally:
        fabric.close()
