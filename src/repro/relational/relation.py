"""Relation instances: sets of ground tuples with on-demand hash indexes.

A :class:`Relation` is the unit of storage in the current state ``R``.
It keeps its tuples in a set (a relation is a set of ground tuples) and
builds hash indexes over attribute-position subsets lazily, because the
constraint checker and the query evaluator repeatedly probe the same
projections (functional-dependency left-hand sides, inclusion-dependency
target columns, join columns).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import SchemaError
from repro.relational.schema import RelationSchema


def project(values: tuple, positions: tuple[int, ...]) -> tuple:
    """Project a ground tuple onto the given 0-based positions."""
    return tuple(values[i] for i in positions)


class Relation:
    """A mutable set of ground tuples conforming to a relation schema.

    Insertion is the only update (blockchain databases are append-only).
    Indexes are dictionaries ``projected-key -> set of tuples`` keyed by
    the tuple of positions they cover; they are created on first use and
    maintained on every subsequent insert.
    """

    __slots__ = ("schema", "_tuples", "_indexes")

    def __init__(self, schema: RelationSchema, tuples: Iterable[tuple] = ()):
        self.schema = schema
        self._tuples: set[tuple] = set()
        self._indexes: dict[tuple[int, ...], dict[tuple, set[tuple]]] = {}
        for t in tuples:
            self.insert(t)

    @property
    def name(self) -> str:
        return self.schema.name

    def insert(self, values: tuple) -> bool:
        """Insert a ground tuple; return True if it was new."""
        values = self.schema.validate_tuple(tuple(values))
        if values in self._tuples:
            return False
        self._tuples.add(values)
        for positions, index in self._indexes.items():
            index.setdefault(project(values, positions), set()).add(values)
        return True

    def insert_many(self, tuples: Iterable[tuple]) -> int:
        """Insert several tuples; return the number that were new."""
        return sum(1 for t in tuples if self.insert(t))

    def __contains__(self, values: tuple) -> bool:
        return tuple(values) in self._tuples

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    @property
    def tuples(self) -> frozenset[tuple]:
        return frozenset(self._tuples)

    def index_on(self, positions: tuple[int, ...]) -> dict[tuple, set[tuple]]:
        """Return (building if needed) the hash index over *positions*.

        Positions are range-checked only when the index is built: an
        out-of-range tuple raises before anything is cached, so a probe
        that hits the cache already passed the check once.
        """
        index = self._indexes.get(positions)
        if index is None:
            if not all(0 <= p < self.schema.arity for p in positions):
                raise SchemaError(
                    f"index positions {positions} out of range for {self.name}"
                )
            index = {}
            for t in self._tuples:
                index.setdefault(project(t, positions), set()).add(t)
            self._indexes[positions] = index
        return index

    def lookup(self, positions: tuple[int, ...], key: tuple) -> set[tuple]:
        """Return all tuples whose projection on *positions* equals *key*."""
        return self.index_on(positions).get(key, set())

    def projection(self, positions: tuple[int, ...]) -> set[tuple]:
        """Return the set of distinct projections onto *positions*."""
        return set(self.index_on(positions))

    def copy(self) -> "Relation":
        """Return an independent copy (indexes are rebuilt on demand)."""
        clone = Relation(self.schema)
        clone._tuples = set(self._tuples)
        return clone

    def __repr__(self) -> str:
        return f"Relation({self.name}, {len(self._tuples)} tuples)"
