"""The steady-state DCSat engine (Section 6.3).

:class:`DCSatChecker` owns the precomputed structures the paper keeps
between checks — the merged store with its ``current`` cursor, the
per-transaction "can be included in R" status (the workspace's
IND-support index, :mod:`repro.core.ind_support`), the fd-transaction graph
and the Θ_I side of the ind-q-transaction graph — maintains them as
transactions are issued and committed, and answers denial-constraint
satisfaction with the algorithm of the caller's choice:

* ``"naive"`` — NaiveDCSat (Figure 4), monotone queries;
* ``"opt"`` — OptDCSat (Figure 5), monotone *connected* queries;
* ``"assign"`` — the assignment-driven sound-and-complete solver;
* ``"tractable"`` — the PTIME fragment solvers of Theorems 1–2;
* ``"brute"`` — exhaustive possible-world enumeration (any query, small
  pending sets);
* ``"auto"`` — pick for the caller: opt when applicable, naive for other
  monotone queries, a tractable solver or brute force otherwise.

Every check first evaluates ``q`` over the current state alone (if the
state already violates the constraint no algorithm is needed), then —
for monotone queries — applies the paper's short-circuit: if ``q`` is
false even over ``R ∪ T``, it is false in every possible world.
"""

from __future__ import annotations

import time

from repro.core.assignment import assignment_dcsat
from repro.core.blockchain_db import BlockchainDatabase
from repro.core.brute import DEFAULT_PENDING_LIMIT, brute_dcsat
from repro.core.engine import SyncEngine
from repro.core.fd_graph import FdTransactionGraph
from repro.core.ind_graph import IndQTransactionGraph
from repro.core.naive import naive_dcsat
from repro.core.opt import opt_dcsat
from repro.core.results import DCSatResult, DCSatStats
from repro.core.tractable import (
    dcsat_aggregate_fd,
    dcsat_aggregate_ind,
    dcsat_fd_only,
    dcsat_ind_only,
)
from repro.core.workspace import Workspace
from repro.errors import AlgorithmError
from repro.obs.trace import span as obs_span
from repro.query.analysis import CompiledConstraint, compile_constraint
from repro.query.ast import AggregateQuery, ConjunctiveQuery
from repro.query.parser import parse_query
from repro.relational.transaction import Transaction
from repro.storage import Backend, make_backend

ALGORITHMS = ("auto", "naive", "opt", "assign", "tractable", "brute")


class DCSatChecker:
    """Denial-constraint satisfaction over a blockchain database."""

    def __init__(
        self,
        db: BlockchainDatabase,
        backend: str | Backend | None = None,
        assume_nonnegative_sums: bool = False,
    ):
        self.db = db
        self.workspace = Workspace(db)
        self.fd_graph = FdTransactionGraph(self.workspace)
        self.ind_graph = IndQTransactionGraph(self.workspace)
        self.assume_nonnegative_sums = assume_nonnegative_sums
        #: Monotone state-change counter.  Bumped by every issue / commit
        #: / forget / absorb, so callers holding derived state (e.g. the
        #: solver pool's worker snapshots) can detect staleness cheaply.
        self.epoch = 0
        # ``None`` defers to the REPRO_BACKEND environment variable
        # (default: memory) — how CI runs the whole suite over sqlite
        # without editing tests.
        self.backend: Backend = (
            backend
            if not (backend is None or isinstance(backend, str))
            else make_backend(backend)
        )
        self.backend.attach(self.workspace)
        #: The evaluation engine deciding *how* candidate worlds reach
        #: the backend (docs/ENGINES.md).
        self.engine = SyncEngine(self.backend)

    # ------------------------------------------------------------------
    # Steady-state maintenance

    def issue(self, tx: Transaction) -> None:
        """A user issued a new transaction: add it to the pending set."""
        self.workspace.issue(tx)
        self.fd_graph.add_transaction(tx.tx_id)
        self.ind_graph.issue(tx.tx_id)
        self.backend.on_issue(tx)
        self.epoch += 1

    def commit(self, tx_id: str) -> Transaction:
        """A pending transaction was accepted into the blockchain."""
        tx = self.workspace.commit(tx_id)
        self.fd_graph.remove_transaction(tx_id)
        self.fd_graph.refresh_after_commit()
        self.ind_graph.remove(tx_id)
        self.backend.on_commit(tx)
        self.epoch += 1
        return tx

    def forget(self, tx_id: str) -> Transaction:
        """Drop a pending transaction without committing it."""
        tx = self.workspace.forget(tx_id)
        self.fd_graph.remove_transaction(tx_id)
        self.ind_graph.remove(tx_id)
        self.backend.on_forget(tx)
        self.epoch += 1
        return tx

    def absorb(self, tx: Transaction) -> None:
        """Insert externally committed facts directly into the state.

        For facts that were never in the pending set — e.g. a mined
        block's coinbase rows, or transactions first heard about inside
        a block.  Pending transactions now clashing with the new facts
        become never-appendable, as with :meth:`commit`.
        """
        self.workspace.absorb(tx)
        self.fd_graph.refresh_after_commit()
        self.ind_graph.absorb()
        self.backend.on_commit(tx)
        self.epoch += 1

    # ------------------------------------------------------------------
    # Checking

    def evaluate_world(
        self, query: ConjunctiveQuery | AggregateQuery, active: frozenset[str]
    ) -> bool:
        """Evaluate *query* over the world ``R ∪ {facts of active}``."""
        return self.engine.evaluate(query, active)

    def _parse(self, query) -> ConjunctiveQuery | AggregateQuery:
        if isinstance(query, str):
            return parse_query(query)
        return query

    def compile(
        self,
        query: ConjunctiveQuery | AggregateQuery | CompiledConstraint | str,
        normalize: bool = True,
    ) -> CompiledConstraint:
        """Parse, normalize and wrap *query* for repeated checks; a
        compiled constraint is returned as is."""
        return compile_constraint(
            self._parse(query), normalize, self.assume_nonnegative_sums
        )

    def check(
        self,
        query: ConjunctiveQuery | AggregateQuery | CompiledConstraint | str,
        algorithm: str = "auto",
        short_circuit: bool = True,
        use_coverage: bool = True,
        pivot: bool = True,
        pending_limit: int = DEFAULT_PENDING_LIMIT,
        normalize: bool = True,
    ) -> DCSatResult:
        """Decide ``D |= ¬q``: is the denial constraint safe?

        Returns a :class:`~repro.core.results.DCSatResult`; when the
        constraint can be violated, ``result.witness`` holds the pending
        transactions of a violating possible world.  With ``normalize``
        (default) the query is first simplified; a provably
        unsatisfiable query is answered without touching the data.  A
        :class:`~repro.query.analysis.CompiledConstraint` (from
        :meth:`compile`) carries its own normalization and analyses.
        """
        if algorithm not in ALGORITHMS:
            raise AlgorithmError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        constraint = self.compile(query, normalize)
        stats = DCSatStats(algorithm=algorithm if algorithm != "auto" else "")
        if constraint.unsatisfiable:
            stats.algorithm = "rewrite"
            return DCSatResult(satisfied=True, stats=stats)
        started = time.perf_counter()
        with obs_span("dcsat.check", requested=algorithm) as sp:
            try:
                return self._check(
                    constraint, algorithm, short_circuit, use_coverage, pivot,
                    pending_limit, stats,
                )
            finally:
                stats.elapsed_seconds = time.perf_counter() - started
                sp.fold_stats(stats)
                self.workspace.clear_active()

    def _check(
        self,
        constraint: CompiledConstraint,
        algorithm: str,
        short_circuit: bool,
        use_coverage: bool,
        pivot: bool,
        pending_limit: int,
        stats: DCSatStats,
    ) -> DCSatResult:
        query = constraint.query
        monotone = constraint.monotone

        decided = self.fast_paths(query, monotone, short_circuit, stats)
        if decided is not None:
            return decided

        if algorithm == "auto":
            algorithm = self._pick_algorithm(constraint)
            stats.algorithm = algorithm

        if algorithm == "naive":
            self._require_monotone(query, monotone, "NaiveDCSat")
            return naive_dcsat(
                self.workspace, self.fd_graph, query, self.engine,
                pivot=pivot, stats=stats,
            )
        if algorithm == "opt":
            self._require_monotone(query, monotone, "OptDCSat")
            return opt_dcsat(
                self.workspace, self.fd_graph, self.ind_graph, constraint,
                self.engine, pivot=pivot, use_coverage=use_coverage,
                stats=stats,
            )
        if algorithm == "assign":
            return assignment_dcsat(
                self.workspace, self.fd_graph, self.ind_graph, query,
                self.evaluate_world, pivot=pivot, stats=stats,
            )
        if algorithm == "tractable":
            return self._tractable(query, stats)
        return brute_dcsat(
            self.workspace, query, self.engine,
            pending_limit=pending_limit, stats=stats,
        )

    def fast_paths(
        self,
        query: ConjunctiveQuery | AggregateQuery,
        monotone: bool,
        short_circuit: bool,
        stats: DCSatStats,
    ) -> DCSatResult | None:
        """The two solver-free decision paths, or ``None`` if undecided.

        Shared by :meth:`_check` and the parallel solver pool so the
        parallel path answers the easy cases without touching workers.
        """
        with obs_span("fast_paths") as sp:
            # The current state is itself a possible world: if it already
            # satisfies the underlying query, no algorithm is needed.
            stats.evaluations += 1
            if self.evaluate_world(query, frozenset()):
                stats.algorithm = stats.algorithm or "state-check"
                sp.set(decided="state-check")
                return DCSatResult(
                    satisfied=False, witness=frozenset(), stats=stats
                )

            # The paper's monotone short-circuit: q false over R ∪ T implies
            # q false over every possible world (each is a subset).
            if monotone and short_circuit:
                stats.evaluations += 1
                all_active = frozenset(self.db.pending_ids)
                if not self.evaluate_world(query, all_active):
                    stats.short_circuit_used = True
                    stats.short_circuit_result = True
                    stats.algorithm = stats.algorithm or "short-circuit"
                    sp.set(decided="short-circuit")
                    return DCSatResult(satisfied=True, stats=stats)
                stats.short_circuit_used = True
                stats.short_circuit_result = False
            sp.set(decided="")
        return None

    def _require_monotone(self, query, monotone: bool, name: str) -> None:
        if not monotone:
            raise AlgorithmError(
                f"{name} is only sound for monotone denial constraints; "
                f"{query!s} is not (or cannot be verified) monotone"
            )

    def _pick_algorithm(self, constraint: CompiledConstraint) -> str:
        query = constraint.query
        if constraint.monotone:
            if constraint.connected:
                return "opt"
            return "naive"
        constraints = self.db.constraints
        if isinstance(query, ConjunctiveQuery):
            if constraints.only_keys_and_fds() or constraints.only_inds():
                return "tractable"
        else:
            if constraints.only_keys_and_fds() and query.is_positive:
                if (query.func == "max" and query.op in (">", ">=")) or (
                    query.op in ("<", "<=")
                ):
                    return "tractable"
        return "brute"

    def _tractable(
        self, query: ConjunctiveQuery | AggregateQuery, stats: DCSatStats
    ) -> DCSatResult:
        constraints = self.db.constraints
        if isinstance(query, ConjunctiveQuery):
            if constraints.only_keys_and_fds():
                return dcsat_fd_only(self.workspace, self.fd_graph, query, stats)
            if constraints.only_inds():
                return dcsat_ind_only(self.workspace, query, stats)
            raise AlgorithmError(
                "no tractable fragment applies: conjunctive queries need a "
                "{key, fd}-only or {ind}-only database (Theorem 1)"
            )
        if constraints.only_keys_and_fds():
            return dcsat_aggregate_fd(self.workspace, self.fd_graph, query, stats)
        if constraints.only_inds():
            return dcsat_aggregate_ind(
                self.workspace, query,
                assume_nonnegative=self.assume_nonnegative_sums, stats=stats,
            )
        raise AlgorithmError(
            "no tractable fragment applies to this aggregate query"
        )

    # ------------------------------------------------------------------
    # Batch checking

    def check_batch(
        self,
        queries: list[ConjunctiveQuery | AggregateQuery | str],
        short_circuit: bool = True,
        pivot: bool = True,
    ) -> list[DCSatResult]:
        """Check several monotone denial constraints in one world sweep.

        Far cheaper than sequential :meth:`check` calls when several
        constraints are undecided by the fast paths: the maximal-clique
        enumeration and world construction are shared.
        """
        from repro.core.batch import batch_dcsat

        parsed = [self._parse(query) for query in queries]
        return batch_dcsat(
            self.workspace,
            self.fd_graph,
            parsed,
            self.engine,
            assume_nonnegative_sums=self.assume_nonnegative_sums,
            short_circuit=short_circuit,
            pivot=pivot,
        )

    # ------------------------------------------------------------------
    # Weighted worlds (future work §8)

    def violation_probability(
        self,
        query: ConjunctiveQuery | AggregateQuery | str,
        model,
        samples: int = 1000,
        seed: int = 0,
        exact: bool | None = None,
    ):
        """Estimate ``P(q is violated)`` under an inclusion model.

        ``model`` maps pending transaction ids to inclusion
        probabilities (see :mod:`repro.likelihood.model`).  With
        ``exact=None`` the method enumerates exactly when the pending
        set is small and falls back to Monte-Carlo otherwise.
        """
        from repro.likelihood.estimator import (
            estimate_violation_probability,
            exact_violation_probability,
        )

        query = self._parse(query)
        if exact is None:
            exact = len(self.db.pending_ids) <= 8
        if exact:
            return exact_violation_probability(self.db, query, model)
        return estimate_violation_probability(
            self.db, query, model, samples=samples, seed=seed
        )

    # ------------------------------------------------------------------
    # Dry runs (Example 4's workflow)

    def dry_run(
        self,
        tx: Transaction,
        query: ConjunctiveQuery | AggregateQuery | str,
        **check_kwargs,
    ) -> DCSatResult:
        """Hypothetically issue *tx*, check the denial constraint, retract.

        This is the paper's intended usage: before broadcasting a
        transaction, verify that no possible world (with the new
        transaction among the pending ones) violates the constraint.
        """
        self.issue(tx)
        try:
            return self.check(query, **check_kwargs)
        finally:
            self.forget(tx.tx_id)

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "DCSatChecker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DCSatChecker({self.db!r}, fd_graph={self.fd_graph!r})"
        )
