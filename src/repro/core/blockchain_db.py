"""The blockchain database triple ``D = (R, I, T)`` (Section 4)."""

from __future__ import annotations

from typing import Iterable, KeysView

from repro.errors import IntegrityViolationError, ReproError
from repro.relational.checking import find_violations
from repro.relational.constraints import ConstraintSet
from repro.relational.database import Database
from repro.relational.transaction import Transaction


class BlockchainDatabase:
    """A blockchain database: current state, constraints, pending transactions.

    * ``current`` — the relations already committed to the chain (``R``);
      must satisfy the constraints (``R |= I``), which is validated on
      construction unless ``validate=False``.
    * ``constraints`` — the integrity constraints ``I``.
    * ``pending`` — the pending transactions ``T = {T1, ..., Tk}``, each
      an immutable set of ground tuples.  Pending transactions need *not*
      be mutually consistent — that is the whole point of the model.
    """

    def __init__(
        self,
        current: Database,
        constraints: ConstraintSet,
        pending: Iterable[Transaction] = (),
        validate: bool = True,
    ):
        if constraints.schema is not current.schema:
            # Schemas are compared by identity first (the common case) and
            # structurally otherwise, so independently built but equal
            # schemas are accepted.
            current_rels = {r.name: r for r in current.schema}
            constraint_rels = {r.name: r for r in constraints.schema}
            if current_rels != constraint_rels:
                raise ReproError(
                    "current state and constraints use different schemas"
                )
        self.current = current
        self.constraints = constraints
        self._pending: dict[str, Transaction] = {}
        for tx in pending:
            self.add_pending(tx)
        if validate:
            violations = find_violations(current, constraints)
            if violations:
                raise IntegrityViolationError(
                    f"current state violates {len(violations)} constraint(s); "
                    f"first: {violations[0]}",
                    violations,
                )

    @property
    def pending(self) -> tuple[Transaction, ...]:
        return tuple(self._pending.values())

    @property
    def pending_ids(self) -> tuple[str, ...]:
        return tuple(self._pending)

    @property
    def pending_id_view(self) -> KeysView[str]:
        """Live, copy-free view of the pending ids (O(1) membership)."""
        return self._pending.keys()

    def transaction(self, tx_id: str) -> Transaction:
        try:
            return self._pending[tx_id]
        except KeyError:
            raise ReproError(f"no pending transaction {tx_id!r}") from None

    def add_pending(self, tx: Transaction) -> None:
        """Issue a transaction: add it to the pending set ``T``."""
        if tx.tx_id in self._pending:
            raise ReproError(f"duplicate pending transaction id {tx.tx_id!r}")
        for rel in tx.relation_names:
            if rel not in self.current:
                raise ReproError(
                    f"transaction {tx.tx_id!r} targets unknown relation {rel!r}"
                )
            schema = self.current[rel].schema
            for values in tx.tuples(rel):
                schema.validate_tuple(values)
        self._pending[tx.tx_id] = tx

    def remove_pending(self, tx_id: str) -> Transaction:
        """Drop a pending transaction (e.g. it was committed, or the
        simulation evicts it from the mempool)."""
        tx = self.transaction(tx_id)
        del self._pending[tx_id]
        return tx

    def __repr__(self) -> str:
        return (
            f"BlockchainDatabase({self.current.total_tuples()} committed tuples, "
            f"{len(self.constraints)} constraints, {len(self._pending)} pending)"
        )
