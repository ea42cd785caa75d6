"""Relation instances: insertion, set semantics, indexes."""

import pytest

from repro.errors import SchemaError
from repro.relational.relation import Relation, project
from repro.relational.schema import RelationSchema


@pytest.fixture
def rel() -> Relation:
    return Relation(RelationSchema("R", ["a", "b", "c"]))


def test_project():
    assert project((1, 2, 3), (2, 0)) == (3, 1)
    assert project((1, 2, 3), ()) == ()


def test_insert_and_contains(rel):
    assert rel.insert((1, 2, 3))
    assert (1, 2, 3) in rel
    assert (1, 2, 4) not in rel
    assert len(rel) == 1


def test_set_semantics(rel):
    assert rel.insert((1, 2, 3))
    assert not rel.insert((1, 2, 3))  # duplicate is a no-op
    assert len(rel) == 1


def test_insert_many(rel):
    assert rel.insert_many([(1, 1, 1), (2, 2, 2), (1, 1, 1)]) == 2
    assert len(rel) == 2


def test_insert_validates_arity(rel):
    with pytest.raises(SchemaError):
        rel.insert((1, 2))


def test_lookup_via_index(rel):
    rel.insert_many([(1, 2, 3), (1, 2, 4), (5, 2, 3)])
    assert rel.lookup((0,), (1,)) == {(1, 2, 3), (1, 2, 4)}
    assert rel.lookup((0, 1), (1, 2)) == {(1, 2, 3), (1, 2, 4)}
    assert rel.lookup((2,), (3,)) == {(1, 2, 3), (5, 2, 3)}
    assert rel.lookup((0,), (99,)) == set()


def test_index_maintained_after_build(rel):
    rel.insert((1, 2, 3))
    assert rel.lookup((0,), (1,)) == {(1, 2, 3)}
    rel.insert((1, 9, 9))  # index already exists: must be updated
    assert rel.lookup((0,), (1,)) == {(1, 2, 3), (1, 9, 9)}


def test_index_out_of_range(rel):
    with pytest.raises(SchemaError):
        rel.index_on((5,))


def test_bad_positions_raise_on_every_probe(rel):
    # The range check runs only when an index is built; a bad index is
    # never cached, so every probe with it raises, not just the first.
    rel.insert((1, 2, 3))
    assert rel.lookup((0,), (1,)) == {(1, 2, 3)}
    for positions in ((5,), (-1,), (0, 3)):
        for _ in range(2):
            with pytest.raises(SchemaError):
                rel.lookup(positions, (1,))
    assert set(rel._indexes) == {(0,)}


def test_projection(rel):
    rel.insert_many([(1, 2, 3), (1, 2, 4), (5, 6, 7)])
    assert rel.projection((0, 1)) == {(1, 2), (5, 6)}


def test_copy_is_independent(rel):
    rel.insert((1, 2, 3))
    clone = rel.copy()
    clone.insert((4, 5, 6))
    assert (4, 5, 6) not in rel
    assert (1, 2, 3) in clone
    assert clone.lookup((0,), (4,)) == {(4, 5, 6)}


def test_tuples_frozen_snapshot(rel):
    rel.insert((1, 2, 3))
    snapshot = rel.tuples
    rel.insert((4, 5, 6))
    assert snapshot == frozenset({(1, 2, 3)})


def test_iteration(rel):
    rel.insert_many([(1, 2, 3), (4, 5, 6)])
    assert set(rel) == {(1, 2, 3), (4, 5, 6)}
