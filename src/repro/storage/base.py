"""The backend protocol: what the DCSat engine needs from storage.

``evaluate`` answers one world; ``evaluate_many`` answers a whole batch
of worlds.  A backend that answers a batch in one round trip declares
``multi_world = True`` and a ``member_budget`` (how many world members
one round trip binds), and :class:`~repro.core.engine.SyncEngine` then
feeds it its sweeps in chunks; other backends can delegate
``evaluate_many`` to :func:`evaluate_many_fallback`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from repro.query.ast import AggregateQuery, ConjunctiveQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.workspace import Workspace
    from repro.relational.transaction import Transaction


def evaluate_many_fallback(
    backend: "Backend",
    query: ConjunctiveQuery | AggregateQuery,
    actives: Sequence[frozenset[str]],
) -> list[bool]:
    """The default batch path: one ``evaluate`` round trip per world."""
    return [backend.evaluate(query, active) for active in actives]


@runtime_checkable
class Backend(Protocol):
    """Storage/evaluation backend used by :class:`~repro.core.checker.DCSatChecker`.

    The engine drives world construction (constraint checks, cliques)
    against the in-memory workspace; backends are responsible for the
    query-evaluation side — selecting the tuples of the active world and
    evaluating denial constraints over them.
    """

    #: True when :meth:`evaluate_many` answers a batch in one round trip.
    multi_world: bool

    def attach(self, workspace: "Workspace") -> None:
        """Bind to a workspace and load its current contents."""

    def evaluate(
        self,
        query: ConjunctiveQuery | AggregateQuery,
        active: frozenset[str],
    ) -> bool:
        """Evaluate the query over the world ``R ∪ {facts of active}``."""

    def evaluate_many(
        self,
        query: ConjunctiveQuery | AggregateQuery,
        actives: Sequence[frozenset[str]],
    ) -> list[bool]:
        """Evaluate the query over each world, positionally aligned."""

    def on_issue(self, tx: "Transaction") -> None:
        """A transaction was added to the pending set."""

    def on_commit(self, tx: "Transaction") -> None:
        """A pending transaction was committed into the current state."""

    def on_forget(self, tx: "Transaction") -> None:
        """A pending transaction was dropped without committing."""

    def close(self) -> None:
        """Release any resources held by the backend."""
