"""Shared service-test fixtures: a small multi-component workload.

The synthetic schema is one relation ``R(cid, k, v)`` with the FD
``(cid, k) -> v``.  Per component *cid* and key *k* there are two
pending transactions writing conflicting values ``'a'`` / ``'b'``, so
each component contributes ``2^keys`` maximal cliques and the query
``q() <- R(c, k, 'a'), R(c, k, 'b')`` can never be satisfied (the FD
keeps the two values out of every possible world) — the worst case for
the solvers and the best case for observing real per-component work.
"""

from __future__ import annotations

import pytest

from repro.core.blockchain_db import BlockchainDatabase
from repro.relational.constraints import ConstraintSet, FunctionalDependency
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction

#: Satisfied on the component workload (needs 'a' and 'b' on one key).
Q_CONFLICT = "q() <- R(c, k, 'a'), R(c, k, 'b')"
#: Violated (two 'a' facts on different keys coexist fine).
Q_TWO_A = "q() <- R(c, k1, 'a'), R(c, k2, 'a'), k1 != k2"
#: Decided by the monotone short-circuit (no 'zz' anywhere).
Q_ABSENT = "q() <- R(c, k, 'zz')"


def component_db(components: int = 4, keys: int = 2) -> BlockchainDatabase:
    schema = make_schema({"R": ["cid", "k", "v"]})
    constraints = ConstraintSet(
        schema, [FunctionalDependency("R", ["cid", "k"], ["v"])]
    )
    state = Database.from_dict(schema, {"R": []})
    pending = []
    for cid in range(components):
        for key in range(keys):
            pending.append(
                Transaction({"R": [(cid, key, "a")]}, tx_id=f"C{cid}K{key}a")
            )
            pending.append(
                Transaction({"R": [(cid, key, "b")]}, tx_id=f"C{cid}K{key}b")
            )
    return BlockchainDatabase(state, constraints, pending)


def q_p3_db(free: int = 6, keys: int = 6) -> BlockchainDatabase:
    """A witness in the lowest-index component plus *free* costly ones.

    Shaped like the paper's ``q_p3`` under ``Q_TWO_A``: component 0
    (``A0``/``A1``, two ``'a'`` keys of cid 0) violates at its only
    world, while every other cid writes ``'a'`` on key 0 only, with a
    ``'b'``/``'c'`` conflict on each of *keys* further keys — ``2^keys``
    maximal cliques and no witness.
    """
    schema = make_schema({"R": ["cid", "k", "v"]})
    constraints = ConstraintSet(
        schema, [FunctionalDependency("R", ["cid", "k"], ["v"])]
    )
    state = Database.from_dict(schema, {"R": []})
    pending = [r_tx("A0", 0, 0, "a"), r_tx("A1", 0, 1, "a")]
    for cid in range(1, free + 1):
        for key in range(1, keys + 1):
            for value in ("b", "c"):
                pending.append(
                    Transaction(
                        {"R": [(cid, 0, "a"), (cid, key, value)]},
                        tx_id=f"F{cid}K{key}{value}",
                    )
                )
    return BlockchainDatabase(state, constraints, pending)


#: On :func:`skewed_db`: 'v0' and 'v1' never share a cid in a world,
#: but they do on the pending superset, so every component is swept.
Q_SKEW_SATISFIED = "q() <- R(c, k1, 'v0'), R(c, k2, 'v1')"
#: On :func:`skewed_db`: violated in every component (two 'v0' keys).
Q_SKEW_VIOLATED = "q() <- R(c, k1, 'v0'), R(c, k2, 'v0'), k1 != k2"


def skewed_db(
    giant_keys: int = 8,
    giant_values: int = 6,
    tiny: int = 8,
    tiny_keys: int = 2,
    tiny_values: int = 2,
) -> BlockchainDatabase:
    """One giant component (cid 0) plus *tiny* small ones.

    The FD ``cid -> v`` keeps one value per cid in every world, so a
    component holds ``keys × values`` pending transactions and
    ``values`` maximal cliques.
    """
    schema = make_schema({"R": ["cid", "k", "v"]})
    constraints = ConstraintSet(
        schema, [FunctionalDependency("R", ["cid"], ["v"])]
    )
    state = Database.from_dict(schema, {"R": []})
    shapes = [(0, giant_keys, giant_values)] + [
        (cid, tiny_keys, tiny_values) for cid in range(1, tiny + 1)
    ]
    pending = [
        r_tx(f"C{cid}K{key}V{value}", cid, key, f"v{value}")
        for cid, keys, values in shapes
        for key in range(keys)
        for value in range(values)
    ]
    return BlockchainDatabase(state, constraints, pending)


def r_tx(tx_id: str, cid: int, key: int, value: str) -> Transaction:
    return Transaction({"R": [(cid, key, value)]}, tx_id=tx_id)


@pytest.fixture
def small_db() -> BlockchainDatabase:
    return component_db(components=4, keys=2)
