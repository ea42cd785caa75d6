"""The OptDCSat soundness caveat (reproduction finding).

Proposition 2 as stated can fail when two pending transactions are
joined only through tuples of the *current state*: the query's variable
chain passes through R, so no Θ equality constraint links the two
transactions directly, they land in different components, and OptDCSat
never evaluates a world containing both.  This test pins down the
divergence on the crafted instance from the module docstring of
:mod:`repro.core.opt` — and shows that NaiveDCSat, AssignDCSat and brute
force all get it right.
"""

import pytest

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.checker import DCSatChecker
from repro.core.monitor import ConstraintMonitor
from repro.query.analysis import is_connected
from repro.query.parser import parse_query
from repro.relational.constraints import ConstraintSet, Key
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction


@pytest.fixture
def bridge_db() -> BlockchainDatabase:
    """A(x) and C(y) pending, joined only through committed B(1, 2)."""
    schema = make_schema({"A": ["x"], "B": ["x", "y"], "C": ["y"]})
    # A key constraint keeps the fd-graph machinery honest but creates
    # no conflicts here.
    constraints = ConstraintSet(schema, [Key("B", ["x"], schema)])
    current = Database.from_dict(schema, {"A": [], "B": [(1, 2)], "C": []})
    pending = [
        Transaction({"A": [(1,)]}, tx_id="TA"),
        Transaction({"C": [(2,)]}, tx_id="TC"),
    ]
    return BlockchainDatabase(current, constraints, pending)


BRIDGE_QUERY = "q() <- A(x), B(x, y), C(y)"


def test_query_is_connected(bridge_db):
    assert is_connected(parse_query(BRIDGE_QUERY))


def test_sound_algorithms_find_the_violation(bridge_db):
    checker = DCSatChecker(bridge_db)
    for algorithm in ("naive", "assign", "brute"):
        result = checker.check(BRIDGE_QUERY, algorithm=algorithm)
        assert not result.satisfied, algorithm
        assert result.witness == frozenset({"TA", "TC"})


def test_opt_misses_the_r_bridged_assignment(bridge_db):
    """Documents the paper-faithful behaviour: OptDCSat answers
    'satisfied' although the world R ∪ TA ∪ TC violates the constraint.

    If this test ever fails because OptDCSat returns unsatisfied, the
    implementation has diverged from the paper's Figure 5 — update the
    reproduction notes in DESIGN.md accordingly.
    """
    checker = DCSatChecker(bridge_db)
    result = checker.check(BRIDGE_QUERY, algorithm="opt", short_circuit=False)
    assert result.satisfied  # the documented false negative

    # The short-circuit does not mask the divergence either: q is true
    # over R ∪ T, so the full algorithm runs.
    result2 = checker.check(BRIDGE_QUERY, algorithm="opt", short_circuit=True)
    assert result2.satisfied
    assert result2.stats.short_circuit_result is False


def test_monitor_verdict_does_not_depend_on_op_order(bridge_db):
    """``status_all()`` first and ``status()`` first cache the same
    verdict for the bridge constraint.  Which verdict is not asserted:
    both are the documented false negative above."""
    cached = []
    for status_all_first in (True, False):
        monitor = ConstraintMonitor(DCSatChecker(bridge_db))
        monitor.register("bridge", BRIDGE_QUERY)
        monitor.register("a-in-b", "q() <- A(x), B(x, y)")
        if status_all_first:
            monitor.status_all()
        else:
            monitor.status("bridge")
        result = monitor.entry("bridge").result
        cached.append((result.satisfied, result.witness, result.stats.algorithm))
    assert cached[0] == cached[1]


def test_direct_link_restores_opt(bridge_db):
    """When the bridge tuple is *pending* instead of committed, the
    Θ edges exist and OptDCSat is correct again."""
    schema = make_schema({"A": ["x"], "B": ["x", "y"], "C": ["y"]})
    constraints = ConstraintSet(schema, [Key("B", ["x"], schema)])
    current = Database.from_dict(schema, {"A": [], "B": [], "C": []})
    pending = [
        Transaction({"A": [(1,)]}, tx_id="TA"),
        Transaction({"B": [(1, 2)]}, tx_id="TB"),
        Transaction({"C": [(2,)]}, tx_id="TC"),
    ]
    db = BlockchainDatabase(current, constraints, pending)
    checker = DCSatChecker(db)
    result = checker.check(BRIDGE_QUERY, algorithm="opt")
    assert not result.satisfied
    assert result.witness == frozenset({"TA", "TB", "TC"})
