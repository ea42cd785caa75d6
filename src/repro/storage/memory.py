"""The in-memory backend: evaluate straight off the overlay workspace."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import StorageError
from repro.query.ast import AggregateQuery, ConjunctiveQuery
from repro.query.evaluator import evaluate
from repro.storage.base import evaluate_many_fallback

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.workspace import Workspace
    from repro.relational.transaction import Transaction


class MemoryBackend:
    """Evaluates denial constraints with the Python evaluator over the
    workspace; the active set plays the role of the ``current`` column,
    so world switches are O(1)."""

    multi_world = False

    def __init__(self):
        self._workspace: "Workspace | None" = None

    def attach(self, workspace: "Workspace") -> None:
        self._workspace = workspace

    def _require_workspace(self) -> "Workspace":
        if self._workspace is None:
            raise StorageError("backend is not attached to a workspace")
        return self._workspace

    def evaluate(
        self,
        query: ConjunctiveQuery | AggregateQuery,
        active: frozenset[str],
    ) -> bool:
        workspace = self._require_workspace()
        workspace.set_active(active)
        return evaluate(query, workspace)

    def evaluate_many(
        self,
        query: ConjunctiveQuery | AggregateQuery,
        actives: Sequence[frozenset[str]],
    ) -> list[bool]:
        # World switches are O(1) here; there is nothing to amortize.
        return evaluate_many_fallback(self, query, actives)

    def on_issue(self, tx: "Transaction") -> None:
        pass  # the workspace already indexes pending transactions

    def on_commit(self, tx: "Transaction") -> None:
        pass

    def on_forget(self, tx: "Transaction") -> None:
        pass

    def close(self) -> None:
        self._workspace = None
