"""The ``Covers(R, T', q)`` constant-coverage test of OptDCSat.

A connected component of the ind-q-transaction graph is only worth
exploring when, together with the current state, its transactions can
supply a matching tuple for every constant pattern appearing in the
query's positive atoms (Section 6.2)."""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator

from repro.core.workspace import Workspace
from repro.query.analysis import ConstantPattern, constant_patterns
from repro.query.ast import AggregateQuery, ConjunctiveQuery


def uncovered_contributors(
    workspace: Workspace,
    patterns: tuple[ConstantPattern, ...],
) -> Iterator[AbstractSet[str]]:
    """For each pattern ``R`` has no match for, its pending contributors.

    Such a pattern is covered only through one of those transactions;
    an empty set means nothing pending can cover it.
    """
    for pattern in patterns:
        if workspace.base[pattern.relation].lookup(pattern.positions, pattern.values):
            continue
        yield workspace.pending_projections(
            pattern.relation, pattern.positions
        ).get(pattern.values, frozenset())


def covers(
    workspace: Workspace,
    component: Iterable[str],
    patterns: tuple[ConstantPattern, ...],
) -> bool:
    """Does ``(R, component)`` cover every constant pattern?"""
    component_set = None
    for contributors in uncovered_contributors(workspace, patterns):
        if not contributors:
            return False
        if component_set is None:
            component_set = set(component)
        if not (contributors & component_set):
            return False
    return True


def covers_query(
    workspace: Workspace,
    component: Iterable[str],
    query: ConjunctiveQuery | AggregateQuery,
) -> bool:
    """Convenience wrapper deriving the patterns from the query."""
    return covers(workspace, component, constant_patterns(query))
