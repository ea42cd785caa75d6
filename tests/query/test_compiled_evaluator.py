"""Compiled evaluator ≡ the dynamic-planning reference, match for match.

Random conjunctive and aggregate queries run against random committed
states, pending transactions and active sets of a :class:`Workspace`.
The compiled evaluator must yield the same ``(assignment, match)``
sequence as ``reference_evaluator`` — same order, same assignment key
order — and the same ``evaluate`` verdicts.  Each example re-evaluates
one query object across several active sets and after writes that
re-rank the relation sizes, so cached plans are exercised under every
ranking they can be reused for.

The bounded-cache tests pin the plan cache to one plan per dense size
ranking, and keep plans out of pickled queries.
"""

import pickle
import random

from hypothesis import given, settings, strategies as st

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.workspace import Workspace
from repro.query.ast import (
    AGGREGATE_FUNCTIONS,
    COMPARISON_OPS,
    AggregateQuery,
    Atom,
    Comparison,
    ConjunctiveQuery,
    Constant,
    Variable,
)
from repro.query import evaluator
from repro.query.evaluator import evaluate, iter_matches
from repro.query.parser import parse_query
from repro.relational.constraints import ConstraintSet
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction
from tests.query import reference_evaluator as reference

ARITIES = {"A": 1, "B": 2, "C": 3}
VALUES = st.integers(min_value=0, max_value=3)
VARIABLES = ("x", "y", "z", "w")


def _schema():
    return make_schema({"A": ["a"], "B": ["b1", "b2"], "C": ["c1", "c2", "c3"]})


def _facts(draw, max_size: int) -> list[tuple[str, tuple]]:
    relation = st.sampled_from(sorted(ARITIES))
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        rel = draw(relation)
        out.append((rel, tuple(draw(VALUES) for _ in range(ARITIES[rel]))))
    return out


@st.composite
def workspaces(draw):
    schema = _schema()
    committed: dict[str, list] = {rel: [] for rel in ARITIES}
    for rel, values in _facts(draw, 10):
        committed[rel].append(values)
    pending = [
        Transaction(_facts(draw, 3) or [("A", (0,))], tx_id=f"P{index}")
        for index in range(draw(st.integers(0, 4)))
    ]
    db = BlockchainDatabase(
        Database.from_dict(schema, committed), ConstraintSet(schema, []), pending
    )
    return Workspace(db)


def _term(draw, variables):
    if variables and draw(st.booleans()):
        return Variable(draw(st.sampled_from(variables)))
    return Constant(draw(VALUES))


@st.composite
def bodies(draw):
    """Positive atoms (constants, repeated variables), comparisons and
    negated atoms, each with and without variables."""
    positive = []
    for _ in range(draw(st.integers(1, 3))):
        rel = draw(st.sampled_from(sorted(ARITIES)))
        positive.append(
            Atom(rel, tuple(_term(draw, VARIABLES) for _ in range(ARITIES[rel])))
        )
    bound = sorted({v.name for a in positive for v in a.variables})
    comparisons = [
        Comparison(
            _term(draw, bound), draw(st.sampled_from(COMPARISON_OPS)), _term(draw, bound)
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    negated = []
    for _ in range(draw(st.integers(0, 1))):
        rel = draw(st.sampled_from(sorted(ARITIES)))
        negated.append(
            Atom(
                rel,
                tuple(_term(draw, bound) for _ in range(ARITIES[rel])),
                negated=True,
            )
        )
    return positive + negated, comparisons


@st.composite
def queries(draw):
    atoms, comparisons = draw(bodies())
    if draw(st.booleans()):
        return ConjunctiveQuery(atoms, comparisons)
    body_vars = sorted(
        {v.name for a in atoms if not a.negated for v in a.variables}
    )
    func = draw(st.sampled_from(AGGREGATE_FUNCTIONS))
    if func in ("sum", "max", "min"):
        agg_terms = (_term(draw, body_vars),)
    else:
        count = draw(st.integers(0 if func == "count" else 1, 2))
        agg_terms = tuple(_term(draw, body_vars) for _ in range(count))
    # Small thresholds so the count/cntd early exits fire.
    threshold = draw(st.integers(-1, 4))
    op = draw(st.sampled_from(COMPARISON_OPS))
    return AggregateQuery(func, agg_terms, atoms, op, threshold, comparisons)


def _ordered(matches):
    return [(list(assignment.items()), match) for assignment, match in matches]


def assert_same(query, state):
    compiled = _ordered(iter_matches(query, state))
    expected = _ordered(reference.iter_matches(query, state))
    assert compiled == expected
    assert evaluate(query, state) == reference.evaluate(query, state)


@settings(max_examples=250, deadline=None)
@given(
    workspace=workspaces(),
    query=queries(),
    picks=st.lists(st.integers(0, 15), min_size=1, max_size=4),
)
def test_compiled_matches_reference(workspace, query, picks):
    pending = sorted(workspace.db.pending_ids)

    def sweep():
        for pick in picks:
            workspace.set_active(
                [tx for bit, tx in enumerate(pending) if pick >> bit & 1]
            )
            assert_same(query, workspace)
        assert_same(query, workspace.base)

    sweep()
    # Grow the smallest relation of the body into the largest, twice:
    # the same query object meets new size rankings, so a plan reused
    # across rankings would show up as a different match order.
    relations = sorted({a.relation for a in query.positive_atoms})
    for round_ in range(2 if len(relations) > 1 else 0):
        smallest = min(relations, key=workspace.count_tuples)
        target = max(workspace.count_tuples(r) for r in relations) + 1
        filler = 100 * (round_ + 1)
        while workspace.count_tuples(smallest) < target:
            values = (filler,) * ARITIES[smallest]
            workspace.absorb(Transaction([(smallest, values)], tx_id=f"X{filler}"))
            filler += 1
        sweep()


def test_plan_order_follows_relation_size_ranking():
    # Two equally bound atoms: the smaller relation is expanded first,
    # so the match order flips when the size ranking does.
    schema = make_schema({"A": ["a"], "B": ["b"]})
    db = Database.from_dict(schema, {"A": [(1,), (2,)], "B": [(1,)]})
    query = parse_query("q() <- A(x), B(y)")
    first = [m for _, m in iter_matches(query, db)]
    assert first[0][0][0] == "B"
    db.insert("B", (2,))
    db.insert("B", (3,))
    second = [m for _, m in iter_matches(query, db)]
    assert second[0][0][0] == "A"
    assert _ordered(iter_matches(query, db)) == _ordered(
        reference.iter_matches(query, db)
    )
    assert len(evaluator._COMPILED[query].plans) == 2


def test_standing_constraint_holds_at_most_three_plans():
    """A two-relation constraint through 1,000 random writes: relation
    sizes change on nearly every write, but a two-relation body has only
    three dense rankings, so the cache stays at three plans."""
    rng = random.Random(7)
    schema = make_schema({"A": ["a"], "B": ["a", "b"]})
    db = BlockchainDatabase(
        Database.from_dict(schema, {"A": [(0,)], "B": [(0, 0)]}),
        ConstraintSet(schema, []),
        [],
    )
    workspace = Workspace(db)
    query = parse_query("q() <- A(x), B(x, y), y > 2")
    pickled = len(pickle.dumps(query))
    live: list[str] = []
    rankings = set()
    for step in range(1000):
        roll = rng.random()
        if roll < 0.5 or not live:
            tx_id = f"T{step}"
            facts = [
                ("A", (rng.randrange(6),))
                if rng.random() < 0.5
                else ("B", (rng.randrange(6), rng.randrange(6)))
                for _ in range(rng.randrange(1, 4))
            ]
            workspace.issue(Transaction(facts, tx_id=tx_id))
            live.append(tx_id)
        elif roll < 0.8:
            workspace.forget(live.pop(rng.randrange(len(live))))
        else:
            workspace.commit(live.pop(rng.randrange(len(live))))
        workspace.set_active(rng.sample(live, k=min(len(live), 3)))
        assert evaluate(query, workspace) == reference.evaluate(query, workspace)
        sizes = (workspace.count_tuples("A"), workspace.count_tuples("B"))
        rankings.add((sizes[0] > sizes[1]) - (sizes[0] < sizes[1]))
    assert len(rankings) > 1  # the trace really re-ranked the relations
    assert len(evaluator._COMPILED[query].plans) <= 3
    assert len(pickle.dumps(query)) == pickled


def test_equal_queries_share_one_bounded_compiled_form():
    schema = make_schema({"A": ["a"]})
    db = Database.from_dict(schema, {"A": [(1,)]})
    first, second = parse_query("q() <- A(1)"), parse_query("q() <- A(1)")
    evaluate(first, db)
    evaluate(second, db)
    assert evaluator._COMPILED[first] is evaluator._COMPILED[second]
    # 1 and 1.0 spell differently, so they never share a compiled form.
    evaluate(parse_query("q() <- A(1.0)"), db)
    assert evaluator._COMPILED[first] is not evaluator._SHARED[
        (ConjunctiveQuery, "q() <- A(1.0)")
    ]
    # Least recently used first out: a text in steady use survives a
    # stream of one-off queries.
    for value in range(evaluator.SHARED_LIMIT + 10):
        evaluate(parse_query(f"q() <- A({value + 2})"), db)
        evaluate(parse_query("q() <- A(1)"), db)
        assert len(evaluator._SHARED) <= evaluator.SHARED_LIMIT
    assert evaluator._SHARED[(ConjunctiveQuery, "q() <- A(1)")] is (
        evaluator._COMPILED[first]
    )
