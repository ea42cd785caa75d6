"""Property tests: possible-world structure and recognition."""

from hypothesis import given, settings, strategies as st

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.checker import DCSatChecker
from repro.core.possible_worlds import (
    enumerate_possible_worlds,
    get_maximal,
    is_possible_world,
    world_database,
)
from repro.core.workspace import Workspace
from repro.relational.checking import can_extend, check_database
from repro.relational.constraints import ConstraintSet, InclusionDependency, Key
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction
from tests.property.test_property_dcsat import blockchain_dbs


@settings(max_examples=50, deadline=None)
@given(db=blockchain_dbs())
def test_every_world_satisfies_constraints(db):
    for world in enumerate_possible_worlds(db):
        materialized = world_database(db, world)
        assert check_database(materialized, db.constraints)


@settings(max_examples=50, deadline=None)
@given(db=blockchain_dbs())
def test_worlds_are_downward_reachable(db):
    """Every non-empty world has a predecessor: remove some transaction
    and still have a world (the can-append chain witnesses it)."""
    worlds = set(enumerate_possible_worlds(db))
    for world in worlds:
        if world:
            assert any(world - {tx} in worlds for tx in world)


@settings(max_examples=50, deadline=None)
@given(db=blockchain_dbs())
def test_recognition_matches_enumeration(db):
    worlds = set(enumerate_possible_worlds(db))
    for world in worlds:
        assert is_possible_world(db, world_database(db, world))


@settings(max_examples=30, deadline=None)
@given(db=blockchain_dbs(), data=st.data())
def test_non_worlds_are_rejected(db, data):
    worlds = set(enumerate_possible_worlds(db))
    ids = list(db.pending_ids)
    if not ids:
        return
    subset = frozenset(data.draw(st.sets(st.sampled_from(ids))))
    candidate = world_database(db, subset)
    recognized = is_possible_world(db, candidate)
    # Equality of *fact sets*, not of included-id sets: two different
    # subsets may materialize the same database.
    materializations = {
        frozenset(world_database(db, w).facts()) for w in worlds
    }
    expected = frozenset(candidate.facts()) in materializations
    assert recognized == expected


@settings(max_examples=50, deadline=None)
@given(db=blockchain_dbs(), data=st.data())
def test_get_maximal_is_maximal_and_order_independent_on_cliques(db, data):
    from repro.core.fd_graph import FdTransactionGraph
    from repro.relational.checking import can_extend

    ids = list(db.pending_ids)
    order = data.draw(st.permutations(ids))
    ws = Workspace(db)
    world = get_maximal(ws, order)
    # Maximality holds for ANY candidate order: at the fixpoint nothing
    # else from the chosen order can be appended.
    ws.set_active(world)
    for tx_id in order:
        if tx_id not in world:
            assert not can_extend(
                ws, db.constraints, ws.transaction_facts(tx_id)
            )
    # Order-independence is only promised on fd-consistent candidate
    # sets (cliques) — which is how the DCSat algorithms call it.  (An
    # earlier version of this test claimed it for arbitrary sets;
    # hypothesis found the two-conflicting-transactions counterexample.)
    graph = FdTransactionGraph(ws)
    if graph.is_clique([tx for tx in order if tx in graph.nodes]):
        clique = [tx for tx in order if tx in graph.nodes]
        forward = get_maximal(ws, clique)
        backward = get_maximal(ws, list(reversed(clique)))
        assert forward == backward


@settings(max_examples=50, deadline=None)
@given(db=blockchain_dbs())
def test_get_maximal_is_a_world(db):
    ws = Workspace(db)
    world = get_maximal(ws, db.pending_ids)
    assert is_possible_world(db, world_database(db, world))


# ----------------------------------------------------------------------
# The IND-support index against the generic getMaximal oracle

SMALL = st.integers(min_value=0, max_value=3)


def _chain_schema():
    # A three-level inclusion chain C[p] ⊆ B[k], B[p] ⊆ A[k], with a key
    # on every relation so that fd conflicts shape the cliques too.
    return make_schema({"A": ["k", "v"], "B": ["k", "p"], "C": ["k", "p"]})


def _chain_constraints(schema):
    return ConstraintSet(
        schema,
        [
            Key("A", ["k"], schema),
            Key("B", ["k"], schema),
            Key("C", ["k"], schema),
            InclusionDependency("B", ["p"], "A", ["k"]),
            InclusionDependency("C", ["p"], "B", ["k"]),
        ],
    )


@st.composite
def _chain_fact(draw):
    relation = draw(st.sampled_from("ABC"))
    return relation, (draw(SMALL), draw(SMALL))


@st.composite
def ind_chain_dbs(draw):
    """Random databases whose parent keys come from ``R``, from the same
    transaction, from one or several other pending transactions, or from
    nobody — over a multi-level inclusion chain."""
    schema = _chain_schema()
    a_rows = {k: draw(SMALL) for k in draw(st.sets(SMALL, max_size=2))}
    b_rows = {
        k: draw(st.sampled_from(sorted(a_rows)))
        for k in draw(st.sets(SMALL, max_size=2))
    } if a_rows else {}
    current = Database.from_dict(
        schema,
        {"A": list(a_rows.items()), "B": list(b_rows.items()), "C": []},
    )
    pending = [
        Transaction(
            draw(st.lists(_chain_fact(), min_size=1, max_size=3)),
            tx_id=f"P{index}",
        )
        for index in range(draw(st.integers(min_value=0, max_value=7)))
    ]
    return BlockchainDatabase(current, _chain_constraints(schema), pending)


def _assert_index_matches_oracle(checker, data):
    workspace = checker.workspace
    for clique in checker.fd_graph.maximal_cliques():
        # Every subset of a clique is a clique too.
        subset = (
            data.draw(st.sets(st.sampled_from(sorted(clique)))) if clique else set()
        )
        for candidates in (clique, subset):
            assert workspace.ind_support.maximal_world(
                candidates
            ) == get_maximal(workspace, candidates)


def _appendable_to_base(checker, tx):
    facts = {rel: tx.tuples(rel) for rel in tx.relation_names}
    return can_extend(checker.workspace.base, checker.db.constraints, facts)


@settings(max_examples=150, deadline=None)
@given(db=ind_chain_dbs(), data=st.data())
def test_ind_support_worlds_equal_get_maximal(db, data):
    _assert_index_matches_oracle(DCSatChecker(db), data)


@settings(max_examples=60, deadline=None)
@given(db=ind_chain_dbs(), data=st.data())
def test_ind_support_stays_exact_across_churn(db, data):
    """One checker through random issue / commit / forget / absorb:
    a stale provider-set cache would diverge from the oracle."""
    checker = DCSatChecker(db)
    fresh_ids = (f"N{index}" for index in range(100))
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        _assert_index_matches_oracle(checker, data)
        pending = list(checker.db.pending_ids)
        # Only transactions appendable to R alone may commit or be
        # absorbed: the committed state must keep satisfying I.
        committable = [
            tx_id for tx_id in pending
            if _appendable_to_base(checker, checker.db.transaction(tx_id))
        ]
        kind = data.draw(st.sampled_from(["issue", "commit", "forget", "absorb"]))
        if kind == "issue" or not pending:
            facts = data.draw(st.lists(_chain_fact(), min_size=1, max_size=3))
            checker.issue(Transaction(facts, tx_id=next(fresh_ids)))
        elif kind == "commit" and committable:
            checker.commit(data.draw(st.sampled_from(committable)))
        elif kind == "forget":
            checker.forget(data.draw(st.sampled_from(pending)))
        else:
            facts = data.draw(st.lists(_chain_fact(), min_size=1, max_size=2))
            tx = Transaction(facts, tx_id=next(fresh_ids))
            if _appendable_to_base(checker, tx):
                checker.absorb(tx)
    _assert_index_matches_oracle(checker, data)
