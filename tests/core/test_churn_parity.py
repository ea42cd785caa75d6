"""Randomized churn parity: ledger-maintained verdicts equal a fresh
recompute after *every* event of a seeded mempool-style trace.

The incremental monitor and a recompute mirror (``incremental=False``)
receive the same stream of issue / commit / forget / absorb events over
a schema mixing fd cliques, inclusion dependencies and co-written
relations; after each event every constraint's verdict — and, under the
default ``witness_mode="strict"``, its witness — must be identical, and
each op's invalidation list must agree.  Parameterized over backends
(the second id names the one engine the stats report);
``REPRO_CHURN_EVENTS`` scales the trace length
(default 200, the acceptance floor).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.checker import DCSatChecker
from repro.core.incremental import revalidate_witness
from repro.core.monitor import ConstraintMonitor
from repro.query.parser import parse_query
from repro.relational.constraints import ConstraintSet, InclusionDependency, Key
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction

EVENTS = int(os.environ.get("REPRO_CHURN_EVENTS", "200"))

#: Standing constraints mixing satisfied/violated verdicts, fd-clique
#: joins, ind-dependent relations and a co-written reach.
CHURN_CONSTRAINTS = {
    "orphan-c": "q() <- C(3, v)",
    "b-conflict": "q() <- B(k, 'x'), B(k, 'y')",
    "any-a": "q() <- A(x)",
    "linked": "q() <- P(k), C(k, 'w')",
}


def churn_db() -> BlockchainDatabase:
    schema = make_schema(
        {"P": ["k"], "C": ["k", "v"], "B": ["k", "v"], "A": ["x"]}
    )
    constraints = ConstraintSet(
        schema,
        [
            Key("B", ["k"], schema),
            InclusionDependency("C", ["k"], "P", ["k"]),
        ],
    )
    current = Database.from_dict(
        schema, {"P": [(0,)], "C": [], "B": [(9, "z")], "A": []}
    )
    return BlockchainDatabase(current, constraints)


def random_transaction(rng: random.Random, counter: int) -> Transaction:
    shape = rng.randrange(6)
    k = rng.randrange(5)
    tx_id = f"X{counter}"
    if shape == 0:
        facts = {"P": [(k,)]}
    elif shape == 1:
        facts = {"C": [(k, rng.choice("vwz"))]}
    elif shape == 2:
        facts = {"B": [(k, rng.choice("xyz"))]}
    elif shape == 3:
        facts = {"A": [(counter,)]}
    elif shape == 4:
        # Co-written: one include-or-not decision spanning A and B.
        facts = {"A": [(counter,)], "B": [(k, rng.choice("xy"))]}
    else:
        facts = {"P": [(k,)], "C": [(k, rng.choice("vw"))]}
    return Transaction(facts, tx_id=tx_id)


def churn_events(seed: int, events: int):
    """A deterministic trace: (kind, payload) pairs, replayable onto
    any number of monitors."""
    rng = random.Random(seed)
    pending: list[str] = []
    counter = 0
    out = []
    for _ in range(events):
        kind = rng.choices(
            ["issue", "commit", "forget", "absorb"], weights=[5, 2, 2, 1]
        )[0]
        if kind in ("commit", "forget") and not pending:
            kind = "issue"
        if kind == "issue":
            tx = random_transaction(rng, counter)
            counter += 1
            pending.append(tx.tx_id)
            out.append(("issue", tx))
        elif kind == "absorb":
            tx = random_transaction(rng, counter)
            counter += 1
            out.append(("absorb", tx))
        else:
            tx_id = pending.pop(rng.randrange(len(pending)))
            out.append((kind, tx_id))
    return out


def apply_event(monitor, kind, payload):
    if kind == "issue":
        return monitor.issue(payload)
    if kind == "commit":
        return monitor.commit(payload)
    if kind == "forget":
        return monitor.forget(payload)
    return monitor.absorb(payload)


def assert_verdict_parity(incremental, mirror, event_index, strict=True):
    for name in CHURN_CONSTRAINTS:
        lhs = incremental.status(name, use_subsumption=False)
        rhs = mirror.status(name, use_subsumption=False)
        assert lhs.satisfied == rhs.satisfied, (
            f"verdict diverged for {name!r} after event {event_index}: "
            f"ledger={lhs.satisfied} fresh={rhs.satisfied}"
        )
        if strict:
            assert lhs.witness == rhs.witness, (
                f"witness diverged for {name!r} after event {event_index}: "
                f"ledger={lhs.witness} fresh={rhs.witness}"
            )


CONFIGURATIONS = [
    ("memory", "sync"),
    ("sqlite", "sync"),
]


@pytest.mark.parametrize("backend,engine", CONFIGURATIONS)
def test_churn_parity(backend, engine):
    incremental = ConstraintMonitor(DCSatChecker(churn_db(), backend=backend))
    mirror = ConstraintMonitor(
        DCSatChecker(churn_db(), backend=backend), incremental=False
    )
    assert incremental.checker.engine.name == engine
    for monitor in (incremental, mirror):
        for name, query in CHURN_CONSTRAINTS.items():
            monitor.register(name, query)
    for index, (kind, payload) in enumerate(churn_events(4242, EVENTS)):
        lhs = apply_event(incremental, kind, payload)
        rhs = apply_event(mirror, kind, payload)
        assert lhs == rhs, (
            f"invalidation lists diverged after event {index} ({kind})"
        )
        assert_verdict_parity(incremental, mirror, index)
    # The trace must actually have exercised the ledger.
    assert incremental.ledger.counters["reused"] > 0
    assert incremental.ledger.counters["swept"] > 0


def test_churn_parity_revalidate_mode():
    """``witness_mode="revalidate"`` guarantees verdict parity; its
    witnesses are valid violating possible worlds (possibly non-maximal,
    so no bit-identity assertion — docs/INCREMENTAL.md)."""
    incremental = ConstraintMonitor(
        DCSatChecker(churn_db()), witness_mode="revalidate"
    )
    mirror = ConstraintMonitor(DCSatChecker(churn_db()), incremental=False)
    for monitor in (incremental, mirror):
        for name, query in CHURN_CONSTRAINTS.items():
            monitor.register(name, query)
    for index, (kind, payload) in enumerate(churn_events(7, EVENTS)):
        apply_event(incremental, kind, payload)
        apply_event(mirror, kind, payload)
        assert_verdict_parity(incremental, mirror, index, strict=False)
        for name in CHURN_CONSTRAINTS:
            witness = incremental.status(name, use_subsumption=False).witness
            if witness is not None:
                checker = incremental.checker
                assert revalidate_witness(
                    checker.workspace,
                    checker.engine,
                    parse_query(CHURN_CONSTRAINTS[name]),
                    witness,
                ), f"invalid witness for {name!r} after event {index}"
                checker.workspace.clear_active()
    # Deterministic epilogue: the random trace may end with every
    # constraint fast-path-decidable, so force one dirty-entry probe.
    # B(7, ...) is outside the trace's key range: never committed, so
    # the check always reaches the ledger.
    for monitor in (incremental, mirror):
        monitor.register("late", "q() <- B(7, 'x'), B(7, 'y')")
        monitor.issue(Transaction({"B": [(7, "x")]}, tx_id="EP-X"))
        monitor.issue(Transaction({"B": [(7, "y")]}, tx_id="EP-Y"))
        assert monitor.status("late").satisfied
        monitor.absorb(Transaction({"B": [(8, "q")]}, tx_id="EP-ABS"))
        assert monitor.status("late").satisfied
    assert incremental.ledger.counters["revalidations"] > 0


def test_coupled_closure_commit_parity():
    """The PR 2 regression shape, through the parity harness: a commit
    into ``Parent`` must flip the ledger-maintained verdict of an
    ind-dependent ``Child`` constraint exactly as a fresh recompute."""
    def build():
        schema = make_schema(
            {"Parent": ["pid", "tag"], "Child": ["cid", "pid", "tag"]}
        )
        constraints = ConstraintSet(
            schema,
            [
                Key("Parent", ["pid"], schema),
                InclusionDependency(
                    "Child", ["pid", "tag"], "Parent", ["pid", "tag"]
                ),
            ],
        )
        return BlockchainDatabase(
            Database.from_dict(schema, {"Parent": [(2, "z")], "Child": []}),
            constraints,
            [
                Transaction({"Parent": [(1, "x")]}, tx_id="TP"),
                Transaction({"Parent": [(1, "y")]}, tx_id="TQ"),
                Transaction({"Child": [(10, 1, "x")]}, tx_id="TC"),
            ],
        )

    incremental = ConstraintMonitor(DCSatChecker(build()))
    mirror = ConstraintMonitor(DCSatChecker(build()), incremental=False)
    for monitor in (incremental, mirror):
        monitor.register("no-child", "q() <- Child(c, p, t)")
        assert not monitor.status("no-child").satisfied
    # Committing TQ makes TP never-appendable and TC loses its parent.
    assert incremental.commit("TQ") == mirror.commit("TQ") == ["no-child"]
    lhs, rhs = incremental.status("no-child"), mirror.status("no-child")
    assert lhs.satisfied and rhs.satisfied
    assert lhs.witness == rhs.witness
