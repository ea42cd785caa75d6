"""Property tests: the maintained Θ_I ∪ Θ_q partitions equal a rebuild.

Random issue / forget / commit / absorb traces run through a
:class:`ConstraintMonitor` with register / unregister / status mixed
in.  After every step, each partition the ind-graph maintains must equal
the components a fresh :class:`IndQTransactionGraph` computes for the
same query, the survivors read through it must equal those read
through the rebuild (with equal ``DCSatStats`` counters), and the
pinned signatures must be exactly those of the registered entries that
were checked through the ledger.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.checker import DCSatChecker
from repro.core.ind_graph import IndQTransactionGraph
from repro.core.monitor import ConstraintMonitor
from repro.core.opt import component_survivors
from repro.core.results import DCSatStats
from repro.core.workspace import Workspace
from repro.relational.constraints import ConstraintSet, InclusionDependency, Key
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction

#: Ledger constraints with assorted Θ_q signatures (one repeated under
#: two names, one empty), plus one the ledger never takes (disconnected).
QUERIES = (
    "q() <- C(k, v), P(k)",
    "q() <- P(k), C(k, 'w')",
    "q() <- B(k, 'x'), B(k, 'y')",
    "q() <- B(k, 'x'), B(k, 'y')",
    "q() <- B(k, v), C(k, v)",
    "q() <- A(x), B(x, v)",
    "q() <- A(x)",
    "q() <- A(x), P(y)",
)

VALUES = (0, 1)
LABELS = ("x", "y", "w")

facts = st.lists(
    st.one_of(
        st.tuples(st.just("P"), st.tuples(st.sampled_from(VALUES))),
        st.tuples(
            st.sampled_from(("B", "C")),
            st.tuples(st.sampled_from(VALUES), st.sampled_from(LABELS)),
        ),
        st.tuples(st.just("A"), st.tuples(st.sampled_from(VALUES))),
    ),
    min_size=1,
    max_size=3,
)

registrations = st.tuples(st.integers(0, len(QUERIES) - 1), st.booleans())

steps = st.lists(
    st.one_of(
        st.tuples(st.just("issue"), facts),
        st.tuples(st.just("issue"), facts),
        st.tuples(st.just("issue"), facts),
        st.tuples(st.sampled_from(("forget", "commit")), st.integers(0, 20)),
        st.tuples(st.sampled_from(("forget", "commit")), st.integers(0, 20)),
        st.tuples(st.just("absorb"), facts),
        st.tuples(st.just("register"), registrations),
        st.tuples(st.just("unregister"), st.integers(0, 20)),
    ),
    min_size=10,
    max_size=50,
)


def fresh_db() -> BlockchainDatabase:
    schema = make_schema({"P": ["k"], "C": ["k", "v"], "B": ["k", "v"], "A": ["x"]})
    constraints = ConstraintSet(
        schema,
        [Key("B", ["k"], schema), InclusionDependency("C", ["k"], "P", ["k"])],
    )
    current = Database.from_dict(
        schema, {"P": [(0,)], "C": [], "B": [(3, "w")], "A": []}
    )
    return BlockchainDatabase(current, constraints)


def transaction(tx_id: str, rows) -> Transaction:
    grouped: dict[str, list[tuple]] = {}
    for relation, values in rows:
        grouped.setdefault(relation, []).append(values)
    return Transaction(grouped, tx_id=tx_id)


def survivors(checker, graph, constraint, use_coverage):
    """Survivors and their counters, read through *graph*'s partition."""
    stats = DCSatStats()
    found = component_survivors(
        checker.workspace, checker.fd_graph, graph, constraint,
        use_coverage=use_coverage, stats=stats,
    )
    return found, stats


def assert_partitions_match(monitor: ConstraintMonitor, seen: dict) -> None:
    """*seen* maps each signature to the partition object built for it:
    a partition stays the same object for as long as it is pinned."""
    checker = monitor.checker
    graph = checker.ind_graph
    entries = [monitor.entry(name) for name in monitor.names]
    assert frozenset(graph._pinned) == {
        entry.compiled.equalities
        for entry in entries
        if entry.compiled is not None
        and entry.ledger
        and not entry.compiled.unsatisfiable
    }
    for signature in set(seen) - frozenset(graph._pinned):
        del seen[signature]
    fresh = IndQTransactionGraph(Workspace(checker.db))
    for entry in entries:
        if entry.signature is None:
            continue
        # Built on the first check that needs components (a fast path
        # can answer before that), then maintained, never rebuilt.
        maintained = graph._pinned[entry.signature].partition
        if maintained is None:
            assert entry.signature not in seen
            continue
        assert seen.setdefault(entry.signature, maintained) is maintained
        assert all(
            maintained.root[tx] == rep
            for rep, group in maintained.members.items()
            for tx in group
        )
        got = {frozenset(group) for group in maintained.members.values()}
        assert got == set(fresh.components(entry.compiled.query))
        assert {tx for group in got for tx in group} == set(checker.db.pending_ids)
        for use_coverage in (True, False):
            assert survivors(checker, graph, entry.compiled, use_coverage) == (
                survivors(checker, fresh, entry.compiled, use_coverage)
            )
    if graph._base_uf is not None:
        got = {frozenset(group) for group in graph._base_uf.members.values()}
        assert got == set(fresh.components())


@settings(max_examples=100, deadline=None)
@given(initial=st.lists(registrations, min_size=1, max_size=4), trace=steps)
def test_maintained_partitions_equal_a_rebuild(initial, trace):
    monitor = ConstraintMonitor(DCSatChecker(fresh_db()))
    seen: dict = {}
    registered = 0

    def register(query: int, short_circuit: bool) -> None:
        nonlocal registered
        # Without the short-circuit, every check that the state alone
        # does not decide reads (and so builds) the partition.
        monitor.register(
            f"c{registered}", QUERIES[query], short_circuit=short_circuit
        )
        registered += 1

    for query, short_circuit in initial:
        register(query, short_circuit)
    for counter, (kind, arg) in enumerate(trace):
        pending = sorted(monitor.checker.db.pending_ids)
        names = list(monitor.names)
        if kind == "issue":
            monitor.issue(transaction(f"T{counter}", arg))
        elif kind == "absorb":
            monitor.absorb(transaction(f"X{counter}", arg))
        elif kind in ("forget", "commit"):
            if pending:
                getattr(monitor, kind)(pending[arg % len(pending)])
        elif kind == "register":
            register(*arg)
        elif names:
            monitor.unregister(names[arg % len(names)])
        assert_partitions_match(monitor, seen)
        for name in monitor.names:
            monitor.status(name)
        assert_partitions_match(monitor, seen)
