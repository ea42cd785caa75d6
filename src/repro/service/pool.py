"""A parallel per-component solver pool for OptDCSat and batch checks.

OptDCSat's work splits into independent connected components of the
ind-q-transaction graph (Proposition 2), and a batch of monotone
constraints splits into independent query groups — both embarrassingly
parallel.  :class:`SolverPool` fans those units out across a
``concurrent.futures`` process pool:

* **Worker snapshots.**  Each worker process is initialized once with a
  serialized snapshot of the blockchain database and rebuilds its own
  :class:`~repro.core.workspace.Workspace` + fd-transaction graph.
  Steady-state changes (issue / commit / forget / absorb) are recorded
  in an op log; every task carries the log tail, and workers replay the
  ops they have not seen before solving.  When the log outgrows
  ``resync_ops``, the pool *compacts*: it re-snapshots the database
  into the sync payload and resets the log, and each warm worker
  rebuilds its context from the fresh snapshot on its next task — no
  executor teardown, so long-lived services never replay unbounded
  logs and never pay worker re-fork latency.

* **Striped groups.**  Components are striped round-robin into at
  most ``max_workers`` groups before dispatch, so group 0 starts with
  the lowest index.  The observed makespan imbalance of each dispatch
  is recorded on the ``parallel_dispatch`` span and in the
  ``repro_pool_group_imbalance`` gauge.

* **Determinism.**  Groups hold ascending component indices and the
  verdict is taken from the *lowest-index* violating component across
  all groups, so ``satisfied`` / ``witness`` are identical to the
  sequential path however components are grouped (Proposition 2
  makes them independent; workers inherit the parent's hash seed
  under the default ``fork`` start method, keeping clique enumeration
  order aligned).

* **Early stop.**  A worker stops inside its own group at the first
  violating component (everything after it in the group has a higher
  index).  Across groups, the coordinator publishes each new best
  witness index, tagged with the dispatch's id, in a shared-memory
  *stop word*; every worker reads the word before each component and
  returns early once its next component's index is above the
  published one.  Groups that have not started and whose lowest index
  exceeds the best witness are cancelled outright.  The coordinator
  still waits for running groups — they end at their next component
  boundary — so abandoned sweeps never compete with the next request
  for the CPU.

:class:`PooledDCSatChecker` is a drop-in :class:`DCSatChecker` that
routes eligible checks through the pool, so a
:class:`~repro.core.monitor.ConstraintMonitor` (and the TCP server
above it) parallelizes without code changes.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from repro import serialize
from repro.core.batch import batch_dcsat
from repro.core.blockchain_db import BlockchainDatabase
from repro.core.checker import DCSatChecker
from repro.core.engine import SyncEngine
from repro.core.fd_graph import FdTransactionGraph
from repro.core.opt import component_survivors, solve_component, sweep_components
from repro.core.results import DCSatResult, DCSatStats
from repro.core.workspace import Workspace
from repro.errors import AlgorithmError, ServiceError
from repro.obs.log import get_logger
from repro.obs.trace import default_tracer
from repro.obs.trace import span as obs_span
from repro.query.analysis import CompiledConstraint, is_monotone
from repro.query.ast import AggregateQuery, ConjunctiveQuery
from repro.relational.transaction import Transaction
from repro.service.metrics import default_registry
from repro.storage import make_backend, resolve_backend_name

Query = ConjunctiveQuery | AggregateQuery

log = get_logger("service.pool")


# ----------------------------------------------------------------------
# Worker-process side.  One module-level context per worker, built by the
# initializer and advanced incrementally by the op log.

_WORKER_CTX: dict | None = None

#: The pool's shared stop word (a ``multiprocessing`` signed 64-bit
#: value), installed by the initializer.  It holds ``-1`` or a packed
#: ``(dispatch id, best witness index)``; see :func:`_pack_stop`.
_STOP_WORD = None

#: Low bits of the stop word that carry the best witness index; the
#: dispatch id takes the remaining bits of the non-negative range.
_STOP_INDEX_BITS = 24
_STOP_INDEX_MASK = (1 << _STOP_INDEX_BITS) - 1
_STOP_DISPATCH_LIMIT = 1 << (63 - _STOP_INDEX_BITS)


def _pack_stop(dispatch_id: int, index: int) -> int | None:
    """The stop word announcing a witness at *index* in *dispatch_id*.

    ``None`` when either field does not fit its bits: a truncated field
    could alias another dispatch or a lower index and stop a worker
    that still matters, while publishing nothing only loses the
    speed-up.  Ids are never reused, and no word ever carries an id at
    or past the limit, so such dispatches never match a word either.
    """
    if index > _STOP_INDEX_MASK or dispatch_id >= _STOP_DISPATCH_LIMIT:
        return None
    return dispatch_id << _STOP_INDEX_BITS | index


def _stop_reached(dispatch_id: int, index: int) -> bool:
    """Has this dispatch published a witness below component *index*?"""
    word = _STOP_WORD.value
    return word >> _STOP_INDEX_BITS == dispatch_id and index > (
        word & _STOP_INDEX_MASK
    )


def _transaction_to_wire(tx: Transaction) -> dict:
    return {
        "id": tx.tx_id,
        "facts": {
            rel: sorted([list(values) for values in tx.tuples(rel)])
            for rel in sorted(tx.relation_names)
        },
    }


def _transaction_from_wire(payload: dict) -> Transaction:
    return Transaction(
        {
            rel: [tuple(values) for values in rows]
            for rel, rows in payload["facts"].items()
        },
        tx_id=payload["id"],
    )


def _build_worker_ctx(db_payload: dict, backend_name: str, base_epoch: int) -> dict:
    db = serialize.database_from_dict(db_payload, validate=False)
    workspace = Workspace(db)
    fd_graph = FdTransactionGraph(workspace)
    backend = make_backend(backend_name)
    backend.attach(workspace)
    return {
        "workspace": workspace,
        "fd_graph": fd_graph,
        "backend": backend,
        "engine": SyncEngine(backend),
        "backend_name": backend_name,
        "epoch": base_epoch,
        "base_epoch": base_epoch,
    }


def _init_worker(
    db_payload: dict,
    backend_name: str,
    base_epoch: int,
    stop_word,
) -> None:
    global _WORKER_CTX, _STOP_WORD
    _WORKER_CTX = _build_worker_ctx(db_payload, backend_name, base_epoch)
    _STOP_WORD = stop_word


def _sync_worker(
    target_epoch: int,
    base_epoch: int,
    ops: tuple,
    snapshot: dict | None = None,
) -> dict:
    """Replay the op-log tail this worker has not seen yet.

    When the coordinator compacted its op log (``snapshot`` present and
    the worker's base predates it), the warm worker rebuilds its whole
    context from the shipped snapshot instead of erroring out.
    """
    global _WORKER_CTX
    ctx = _WORKER_CTX
    if ctx is None:
        raise ServiceError("solver worker used before initialization")
    if ctx["base_epoch"] != base_epoch and (
        snapshot is not None and ctx["base_epoch"] < base_epoch
    ):
        ctx["backend"].close()
        ctx = _WORKER_CTX = _build_worker_ctx(
            snapshot, ctx["backend_name"], base_epoch
        )
    if ctx["base_epoch"] != base_epoch or ctx["epoch"] > target_epoch:
        raise ServiceError(
            "solver worker snapshot diverged from the coordinator "
            f"(worker at {ctx['epoch']}/{ctx['base_epoch']}, "
            f"coordinator wants {target_epoch}/{base_epoch})"
        )
    workspace: Workspace = ctx["workspace"]
    fd_graph: FdTransactionGraph = ctx["fd_graph"]
    backend = ctx["backend"]
    for op, payload in ops[ctx["epoch"] - base_epoch : target_epoch - base_epoch]:
        if op == "issue":
            tx = _transaction_from_wire(payload)
            workspace.issue(tx)
            fd_graph.add_transaction(tx.tx_id)
            backend.on_issue(tx)
        elif op == "commit":
            tx = workspace.commit(payload)
            fd_graph.remove_transaction(payload)
            fd_graph.refresh_after_commit()
            backend.on_commit(tx)
        elif op == "forget":
            tx = workspace.forget(payload)
            fd_graph.remove_transaction(payload)
            backend.on_forget(tx)
        elif op == "absorb":
            tx = _transaction_from_wire(payload)
            workspace.absorb(tx)
            fd_graph.refresh_after_commit()
            backend.on_commit(tx)
        else:  # pragma: no cover - defensive
            raise ServiceError(f"unknown op-log entry {op!r}")
        ctx["epoch"] += 1
    return ctx


def _solve_component_group_task(
    sync: tuple[int, int, tuple, dict | None],
    query: Query,
    group: tuple[tuple[int, tuple[str, ...]], ...],
    pivot: bool,
    dispatch_id: int,
) -> list[tuple[int, frozenset[str] | None, DCSatStats, list[dict]]]:
    """One planned group of per-component checks, run inside a worker.

    *group* holds ``(index, candidates)`` pairs in ascending index
    order.  Solving stops at the first violating component: everything
    after it in the group has a higher index, so it can never yield the
    deterministic (lowest-index) witness.  For the same reason it stops
    before any component whose index is above a witness another group
    of dispatch *dispatch_id* found (the stop word).  Each solved component
    returns its witness, its own work counters (timed individually, so
    the coordinator can measure each group's load), and the spans it
    produced — traced locally in this worker process and serialized so
    the coordinator can re-parent them under the submitting span.
    """
    ctx = _sync_worker(*sync)
    workspace: Workspace = ctx["workspace"]
    tracer = default_tracer()
    records: list[tuple[int, frozenset[str] | None, DCSatStats, list[dict]]] = []
    for index, candidates in group:
        if _stop_reached(dispatch_id, index):
            break
        stats = DCSatStats(
            algorithm="opt-pool",
            parallel_tasks=1,
            max_component_size=len(candidates),
        )
        root = tracer.start_trace(
            "solve_component", component=index, worker_pid=os.getpid()
        )
        started = time.perf_counter()
        try:
            with tracer.use(root):
                witness = solve_component(
                    workspace,
                    ctx["fd_graph"],
                    query,
                    set(candidates),
                    ctx["engine"],
                    pivot=pivot,
                    stats=stats,
                )
        finally:
            stats.elapsed_seconds = time.perf_counter() - started
            root.fold_stats(stats)
            captured = tracer.finish(root)
            workspace.clear_active()
        records.append((index, witness, stats, captured["spans"]))
        if witness is not None:
            break
    return records


def _solve_batch_task(
    sync: tuple[int, int, tuple, dict | None],
    queries: list[Query],
    pivot: bool,
    assume_nonnegative_sums: bool,
) -> tuple[list[DCSatResult], list[dict]]:
    """One batch query group (shared clique sweep), run inside a worker."""
    ctx = _sync_worker(*sync)
    workspace: Workspace = ctx["workspace"]
    tracer = default_tracer()
    root = tracer.start_trace(
        "batch_group", queries=len(queries), worker_pid=os.getpid()
    )
    try:
        with tracer.use(root):
            results = batch_dcsat(
                workspace,
                ctx["fd_graph"],
                queries,
                ctx["engine"],
                # The coordinator's flag, not a hard-coded True: the worker
                # must apply exactly the monotonicity assumptions the
                # coordinator validated with, or pooled verdicts could
                # diverge from the sequential path.
                assume_nonnegative_sums=assume_nonnegative_sums,
                short_circuit=False,  # coordinator already ran the fast paths
                pivot=pivot,
            )
    finally:
        captured = tracer.finish(root)
    for result in results:
        result.stats.algorithm = "batch-pool"
        result.stats.parallel_tasks = 1
    return results, captured["spans"]


# ----------------------------------------------------------------------
# Coordinator side.


def group_imbalance(loads: list[float]) -> float:
    """Makespan imbalance of per-group loads: ``(max - mean) / mean``.

    0.0 means perfectly balanced; 1.0 means the heaviest group carries
    twice the average — the workers assigned lighter groups idle for
    half the heaviest group's runtime.
    """
    if not loads:
        return 0.0
    mean = sum(loads) / len(loads)
    if mean <= 0.0:
        return 0.0
    return (max(loads) - mean) / mean


def stripe_groups(units: list, workers: int) -> list[tuple]:
    """Stripe *units* round-robin into at most *workers* groups.

    Group ``g`` holds ``units[g::count]``, so each group keeps the order
    of *units* — ascending component indices when *units* is — and group
    0 starts with the lowest index.
    """
    count = min(workers, len(units))
    return [tuple(units[offset::count]) for offset in range(count)]


class SolverPool:
    """Fans per-component and per-group solver tasks across processes.

    The pool observes the checker's ``epoch`` counter; record state
    changes with :meth:`record_op` (done automatically by
    :class:`PooledDCSatChecker`) so worker snapshots can be advanced
    instead of rebuilt.  A one-worker pool never forks: it solves
    in-process.
    """

    def __init__(
        self,
        checker: DCSatChecker,
        max_workers: int = 1,
        backend: str | None = None,
        start_method: str | None = None,
        resync_ops: int = 256,
        min_components: int = 2,
    ):
        self.checker = checker
        self.max_workers = max_workers
        self._backend_name = resolve_backend_name(backend)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._start_method = start_method
        self.resync_ops = resync_ops
        self.min_components = min_components
        self._executor: ProcessPoolExecutor | None = None
        #: Shared with the workers of the current executor; a new
        #: executor gets a new word (see :func:`_pack_stop`).
        self._stop_word = None
        #: Dispatch ids tag stop words, so a witness published for one
        #: dispatch never stops a group of another.
        self._dispatch_ids = itertools.count(1)
        self._base_epoch = 0
        self._oplog: list[tuple[str, object]] = []
        #: Fresh snapshot shipped with the sync payload after a
        #: compaction, until workers can be assumed rebuilt from it
        #: (i.e. until the next executor restart clears it).
        self._snapshot: dict | None = None
        #: How many times the op log was compacted (observable, and the
        #: bounded-payload test's hook).
        self.compactions = 0

    # -- snapshot / op-log management ----------------------------------

    def record_op(self, op: str, payload: object) -> None:
        """Note a state change so workers can replay it lazily."""
        if self._executor is None:
            return  # next executor starts from a fresh snapshot anyway
        self._oplog.append((op, payload))
        if len(self._oplog) > self.resync_ops:
            self._compact()

    def _compact(self) -> None:
        """Reset the op log against a fresh database snapshot.

        Warm workers stay up: the snapshot rides along in each task's
        sync payload and a worker whose base epoch predates it rebuilds
        in place (see :func:`_sync_worker`).  This keeps the per-task
        sync payload bounded by ``resync_ops`` for the lifetime of the
        pool instead of growing with every recorded state change.
        """
        log.debug(
            "op log outgrew resync_ops; compacting into a fresh snapshot",
            extra={"ctx": {"ops": len(self._oplog), "limit": self.resync_ops}},
        )
        self._snapshot = serialize.database_to_dict(self.checker.db)
        self._base_epoch = self.checker.epoch
        self._oplog = []
        self.compactions += 1

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            payload = serialize.database_to_dict(self.checker.db)
            ctx = multiprocessing.get_context(self._start_method)
            self._base_epoch = self.checker.epoch
            self._oplog = []
            self._snapshot = None
            # Only the coordinator writes the word, one aligned 64-bit
            # store per publish, so it needs no lock.
            self._stop_word = ctx.Value("q", -1, lock=False)
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(
                    payload, self._backend_name, self._base_epoch,
                    self._stop_word,
                ),
            )
        return self._executor

    def _prepare(
        self,
    ) -> tuple[ProcessPoolExecutor, tuple[int, int, tuple, dict | None]]:
        """A live executor plus the sync args for the current epoch."""
        executor = self._ensure_executor()
        if self._base_epoch + len(self._oplog) != self.checker.epoch:
            # A state change bypassed record_op (e.g. direct checker use):
            # the op log cannot reproduce it, so fall back to re-snapshot.
            log.warning(
                "op log diverged from checker epoch; re-snapshotting workers",
                extra={
                    "ctx": {
                        "epoch": self.checker.epoch,
                        "base_epoch": self._base_epoch,
                        "logged_ops": len(self._oplog),
                    }
                },
            )
            self.shutdown()
            executor = self._ensure_executor()
        return executor, (
            self.checker.epoch, self._base_epoch, tuple(self._oplog),
            self._snapshot,
        )

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._oplog = []
        self._snapshot = None

    def __enter__(self) -> "SolverPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- parallel OptDCSat ---------------------------------------------

    def check(
        self,
        query: Query | CompiledConstraint | str,
        short_circuit: bool = True,
        use_coverage: bool = True,
        pivot: bool = True,
        normalize: bool = True,
    ) -> DCSatResult:
        """Parallel OptDCSat: identical verdicts to the sequential path.

        Requires a monotone, connected query (the OptDCSat scope).
        """
        checker = self.checker
        constraint = checker.compile(query, normalize)
        query = constraint.query
        stats = DCSatStats(algorithm="opt-pool")
        if constraint.unsatisfiable:
            stats.algorithm = "rewrite"
            return DCSatResult(satisfied=True, stats=stats)
        monotone = constraint.monotone
        if not monotone:
            raise AlgorithmError(
                "the solver pool runs OptDCSat, which is only sound for "
                f"monotone denial constraints; {query!s} is not"
            )
        if not constraint.connected:
            raise AlgorithmError(
                "OptDCSat requires a connected conjunctive query; "
                f"{query!s} is not connected"
            )
        started = time.perf_counter()
        with obs_span("dcsat.check", requested="opt-pool") as sp:
            try:
                decided = checker.fast_paths(query, monotone, short_circuit, stats)
                if decided is not None:
                    return decided
                survivors = component_survivors(
                    checker.workspace,
                    checker.fd_graph,
                    checker.ind_graph,
                    constraint,
                    use_coverage=use_coverage,
                    stats=stats,
                )
                resolved = self.solve_components(
                    query, list(enumerate(survivors)), pivot, stats
                )
                violated = [
                    index
                    for index, witness in resolved.items()
                    if witness is not None
                ]
                if violated:
                    return DCSatResult(
                        satisfied=False,
                        witness=resolved[min(violated)],
                        stats=stats,
                    )
                return DCSatResult(satisfied=True, stats=stats)
            finally:
                checker.workspace.clear_active()
                if stats.elapsed_seconds == 0.0:
                    stats.elapsed_seconds = time.perf_counter() - started
                sp.fold_stats(stats)

    def solve_components(
        self,
        query: Query,
        items: list[tuple[int, set[str]]],
        pivot: bool = True,
        stats: DCSatStats | None = None,
    ) -> dict[int, frozenset[str] | None]:
        """Solve ``(index, candidates)`` units, fanning out when worth it.

        *items* holds ``(index, candidates)`` pairs in ascending index
        order: all survivors for :meth:`check`, only the *dirty*
        components for the monitor's verdict ledger, which keeps its
        reused components off the workers entirely
        (docs/INCREMENTAL.md).  Fewer than ``max(2, min_components)``
        units, or a one-worker pool, sweep in-process.  Returns a mapping
        from component index to witness for every component actually
        solved; indices above the lowest-index witness may be absent
        (early stop), exactly the components a sequential solve would
        not have reached either.
        """
        stats = stats if stats is not None else DCSatStats()
        if len(items) < max(2, self.min_components) or self.max_workers <= 1:
            # Too few units to pay for fan-out: sweep in-process.
            return sweep_components(
                self.checker.workspace,
                self.checker.fd_graph,
                query,
                items,
                self.checker.engine,
                pivot=pivot,
                stats=stats,
            )
        return self._dispatch_components(query, items, pivot, stats)

    def _dispatch_components(
        self,
        query: Query,
        items: list[tuple[int, set[str]]],
        pivot: bool,
        stats: DCSatStats,
    ) -> dict[int, frozenset[str] | None]:
        """Fan ``(index, candidates)`` units across the worker pool.

        The parallel path of :meth:`solve_components`: stripe the units
        round-robin into groups, dispatch, merge stats and spans, and
        stop work above the best witness found so far: publish it in the
        stop word for running groups, cancel groups not yet started.
        Returns ``{index: witness}`` for every solved component.
        """
        executor, sync = self._prepare()
        dispatch_id = next(self._dispatch_ids)
        tracer = default_tracer()
        units = [(index, tuple(sorted(candidates))) for index, candidates in items]
        groups = stripe_groups(units, self.max_workers)
        resolved: dict[int, frozenset[str] | None] = {}
        with obs_span(
            "parallel_dispatch",
            components=len(items),
            workers=self.max_workers,
            groups=len(groups),
        ) as dispatch:
            futures = {}
            for group_index, group in enumerate(groups):
                future = executor.submit(
                    _solve_component_group_task, sync, query, group, pivot,
                    dispatch_id,
                )
                futures[future] = group_index
            best_index: int | None = None
            cancelled = skipped = 0
            group_elapsed: dict[int, float] = {}
            pending = set(futures)
            try:
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        if future.cancelled():
                            continue
                        records = future.result()
                        group_index = futures[future]
                        if not records or records[-1][1] is None:
                            # Unless the group ended at its own witness,
                            # the stop word cut every component it left.
                            skipped += len(groups[group_index]) - len(records)
                        elapsed = 0.0
                        for index, witness, task_stats, spans in records:
                            stats.merge(task_stats)
                            tracer.adopt(spans, dispatch)
                            elapsed += task_stats.elapsed_seconds
                            resolved[index] = witness
                            if witness is not None and (
                                best_index is None or index < best_index
                            ):
                                best_index = index
                        group_elapsed[group_index] = elapsed
                    if best_index is not None:
                        # Components above the best witness can no longer
                        # influence the verdict: running groups stop at
                        # their next component boundary, groups that have
                        # not started are cancelled.
                        word = _pack_stop(dispatch_id, best_index)
                        if word is not None:
                            self._stop_word.value = word
                        for future in list(pending):
                            first_index = groups[futures[future]][0][0]
                            if first_index > best_index and future.cancel():
                                pending.discard(future)
                                cancelled += 1
            finally:
                for future in pending:
                    future.cancel()
                dispatch.set(cancelled=cancelled, skipped=skipped)
                registry = default_registry()
                registry.counter(
                    "repro_pool_components_skipped_total",
                    "Components of running worker groups left unsolved "
                    "because a lower-index witness was already found.",
                ).inc(skipped)
                if group_elapsed:
                    observed = group_imbalance(list(group_elapsed.values()))
                    dispatch.set(observed_imbalance=round(observed, 4))
                    registry.gauge(
                        "repro_pool_group_imbalance",
                        "Observed makespan imbalance of the last parallel "
                        "dispatch: (max - mean) / mean of per-group solve "
                        "seconds.",
                    ).set(observed)
        return resolved

    # -- parallel batch checking ---------------------------------------

    def check_batch(
        self,
        queries: list[Query | str],
        short_circuit: bool = True,
        pivot: bool = True,
    ) -> list[DCSatResult]:
        """Fan a monotone constraint battery out as worker query groups.

        The coordinator runs the per-query fast paths (state check and
        monotone short-circuit), round-robins the still-undecided
        queries into ``max_workers`` groups, and each worker runs the
        shared clique sweep of :func:`repro.core.batch.batch_dcsat` for
        its group.  Results align positionally with *queries*.
        """
        checker = self.checker
        parsed = [checker._parse(query) for query in queries]
        for query in parsed:
            if not is_monotone(query, checker.assume_nonnegative_sums):
                raise AlgorithmError(
                    f"batch checking requires monotone queries; {query!s} is not"
                )
        results: list[DCSatResult | None] = [None] * len(parsed)
        open_indexes: list[int] = []
        for index, query in enumerate(parsed):
            stats = DCSatStats(algorithm="batch-pool")
            decided = checker.fast_paths(query, True, short_circuit, stats)
            if decided is not None:
                results[index] = decided
            else:
                open_indexes.append(index)
        checker.workspace.clear_active()
        if open_indexes:
            if self.max_workers <= 1 or len(open_indexes) == 1:
                solved = batch_dcsat(
                    checker.workspace,
                    checker.fd_graph,
                    [parsed[i] for i in open_indexes],
                    checker.engine,
                    assume_nonnegative_sums=checker.assume_nonnegative_sums,
                    short_circuit=False,
                    pivot=pivot,
                )
                for index, result in zip(open_indexes, solved):
                    results[index] = result
            else:
                groups: list[list[int]] = [
                    open_indexes[offset :: self.max_workers]
                    for offset in range(self.max_workers)
                ]
                groups = [group for group in groups if group]
                executor, sync = self._prepare()
                tracer = default_tracer()
                with obs_span(
                    "batch_dispatch", groups=len(groups),
                    queries=len(open_indexes),
                ) as dispatch:
                    futures = [
                        executor.submit(
                            _solve_batch_task, sync, [parsed[i] for i in group],
                            pivot, checker.assume_nonnegative_sums,
                        )
                        for group in groups
                    ]
                    for group, future in zip(groups, futures):
                        solved, spans = future.result()
                        tracer.adopt(spans, dispatch)
                        for index, result in zip(group, solved):
                            results[index] = result
        assert all(result is not None for result in results)
        return [result for result in results if result is not None]


class PooledDCSatChecker(DCSatChecker):
    """A :class:`DCSatChecker` whose opt / batch paths run on a pool.

    Checks that fall outside the pool's scope (non-monotone queries,
    explicitly requested algorithms other than ``"opt"``, tractable /
    brute fallbacks) take the sequential path of the base class.
    """

    def __init__(
        self,
        db: BlockchainDatabase,
        backend: str | None = None,
        assume_nonnegative_sums: bool = False,
        max_workers: int = 1,
        start_method: str | None = None,
        resync_ops: int = 256,
    ):
        super().__init__(
            db,
            backend=backend,
            assume_nonnegative_sums=assume_nonnegative_sums,
        )
        # Workers need a picklable backend *name*, not an instance:
        # resolve the same default the coordinator resolved so both
        # sides agree.
        self.pool = SolverPool(
            self,
            max_workers=max_workers,
            backend=resolve_backend_name(backend),
            start_method=start_method,
            resync_ops=resync_ops,
        )

    # -- op-log hooks ---------------------------------------------------

    def issue(self, tx: Transaction) -> None:
        super().issue(tx)
        self.pool.record_op("issue", _transaction_to_wire(tx))

    def commit(self, tx_id: str) -> Transaction:
        tx = super().commit(tx_id)
        self.pool.record_op("commit", tx_id)
        return tx

    def forget(self, tx_id: str) -> Transaction:
        tx = super().forget(tx_id)
        self.pool.record_op("forget", tx_id)
        return tx

    def absorb(self, tx: Transaction) -> None:
        super().absorb(tx)
        self.pool.record_op("absorb", _transaction_to_wire(tx))

    # -- pooled checking ------------------------------------------------

    def check(self, query, algorithm: str = "auto", **kwargs) -> DCSatResult:
        if self.pool.max_workers > 1 and algorithm in ("auto", "opt"):
            pool_kwargs_ok = set(kwargs) <= {
                "short_circuit", "use_coverage", "pivot", "normalize",
            }
            if pool_kwargs_ok:
                query = self.compile(query, kwargs.get("normalize", True))
                if query.monotone and query.connected:
                    return self.pool.check(query, **kwargs)
        return super().check(query, algorithm=algorithm, **kwargs)

    def check_batch(self, queries, short_circuit=True, pivot=True):
        if self.pool.max_workers > 1:
            return self.pool.check_batch(
                queries, short_circuit=short_circuit, pivot=pivot
            )
        return super().check_batch(
            queries, short_circuit=short_circuit, pivot=pivot
        )

    def close(self) -> None:
        self.pool.shutdown()
        super().close()
