"""Shared fabric-test helpers: in-process fleets over two small schemas.

``two_relation_db`` has two decoupled relations (constraints on each
spread across shards); ``parent_child_db`` couples Parent and Child by
an inclusion dependency and adds a loner D.  A :class:`ThreadFleet`
gives every test a real server per shard (same wire protocol, same
journal-replay semantics) without paying a Python subprocess spawn;
only the e2e module boots actual subprocesses.
"""

from __future__ import annotations

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.checker import DCSatChecker
from repro.core.monitor import ConstraintMonitor
from repro.fabric import FabricMonitor, ThreadFleet
from repro.fabric.topology import copy_database
from repro.relational.constraints import ConstraintSet, InclusionDependency, Key
from repro.relational.database import Database, make_schema


def two_relation_db():
    """A(k, v) and B(k, v), each with a key on k, no coupling between."""
    schema = make_schema({"A": ["k", "v"], "B": ["k", "v"]})
    constraints = ConstraintSet(
        schema, [Key("A", ["k"], schema), Key("B", ["k"], schema)]
    )
    return BlockchainDatabase(
        Database.from_dict(schema, {"A": [], "B": []}), constraints
    )


def parent_child_db():
    """Parent/Child coupled by an inclusion dependency, plus a loner D."""
    schema = make_schema(
        {
            "Parent": ["pid", "tag"],
            "Child": ["cid", "pid", "tag"],
            "D": ["k", "v"],
        }
    )
    constraints = ConstraintSet(
        schema,
        [
            Key("Parent", ["pid"], schema),
            Key("D", ["k"], schema),
            InclusionDependency("Child", ["pid", "tag"], "Parent", ["pid", "tag"]),
        ],
    )
    return BlockchainDatabase(
        Database.from_dict(
            schema, {"Parent": [(0, "z")], "Child": [], "D": []}
        ),
        constraints,
    )


def thread_fabric(db_factory, shards: int, **kwargs) -> FabricMonitor:
    """A FabricMonitor over an in-process fleet seeded from *db_factory*."""
    db = db_factory()
    fleet = ThreadFleet(
        lambda: ConstraintMonitor(DCSatChecker(copy_database(db))),
        shards=shards,
    )
    return FabricMonitor(db, fleet, **kwargs)
