"""An asyncio JSON-lines TCP server around a :class:`ConstraintMonitor`.

Architecture (one process)::

    clients ──► asyncio event loop ──► bounded queue ──► solver thread
               (reads, deadlines,      (backpressure)    (monitor ops,
                metrics, rejects)                         one at a time)

The monitor — and the checker, graphs and workspace below it — is
single-threaded by design, so every state-touching operation is
serialized through one solver thread; the event loop itself never
blocks, which keeps deadline enforcement, metrics scrapes and
backpressure rejections responsive while a heavy check runs.  When the
monitor sits on a :class:`~repro.service.pool.PooledDCSatChecker`, the
solver thread becomes a lightweight coordinator and the real clique
work fans out across the worker processes.

Flow control:

* **Backpressure** — the solve queue is bounded (``queue_limit``).
  When it is full, the request is rejected immediately with code
  ``busy`` and a ``retry_after`` hint instead of queueing unboundedly.
* **Deadlines** — every request carries (or inherits) a deadline; if
  the verdict is not ready in time the client gets code ``deadline``.
  The underlying operation still completes in the solver thread —
  mutations are never half-applied — only the response is abandoned.
* **Graceful shutdown** — on SIGINT/SIGTERM (or the ``shutdown`` op)
  the server stops accepting connections, rejects new work with code
  ``shutting-down``, drains queued and in-flight operations for up to
  ``drain_timeout`` seconds, then closes.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable

from repro.core.monitor import ConstraintMonitor
from repro.errors import ReproError, ServiceError
from repro.obs.http import ObservabilityEndpoint
from repro.obs.log import get_logger
from repro.obs.perf import build_info
from repro.obs.trace import Span, Tracer, default_tracer
from repro.service import protocol
from repro.service.metrics import MetricsRegistry, default_registry

if TYPE_CHECKING:
    from repro.fabric.router import FabricMonitor

log = get_logger("service.server")

DEFAULT_QUEUE_LIMIT = 64
DEFAULT_DEADLINE = 30.0
DEFAULT_DRAIN_TIMEOUT = 10.0


# The service accepts anything monitor-shaped: a ConstraintMonitor (one
# checker) or the fabric's FabricMonitor (no local checker; its shard
# servers solve).  These helpers bridge the two surfaces.


def _monitor_checkers(monitor) -> list:
    checkers = getattr(monitor, "checkers", None)
    if callable(checkers):
        return list(checkers())
    return [monitor.checker]


def _monitor_pending_count(monitor) -> int:
    pending_count = getattr(monitor, "pending_count", None)
    if callable(pending_count):
        return pending_count()
    return len(monitor.checker.db.pending_ids)


def _monitor_epoch(monitor) -> int:
    epoch = getattr(monitor, "epoch", None)
    if epoch is not None:
        return epoch
    return getattr(getattr(monitor, "checker", None), "epoch", 0)


class ConstraintService:
    """The serving surface: monitor operations behind a TCP endpoint."""

    def __init__(
        self,
        monitor: ConstraintMonitor | FabricMonitor,
        metrics: MetricsRegistry | None = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        default_deadline: float = DEFAULT_DEADLINE,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        retry_after: float = 0.05,
        before_op: Callable[[str, dict], None] | None = None,
        tracer: Tracer | None = None,
    ):
        self.monitor = monitor
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or default_tracer()
        self.queue_limit = queue_limit
        self.default_deadline = default_deadline
        self.drain_timeout = drain_timeout
        self.retry_after = retry_after
        #: Test/diagnostics hook, run in the solver thread before every
        #: queued operation (e.g. an injected delay).
        self.before_op = before_op
        #: Wall-clock service start, for ``/healthz`` uptime reporting.
        self._started_at = time.time()

        self._queue: asyncio.Queue | None = None
        self._solver = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-solver"
        )
        self._stopping = False
        self._stop_requested: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        self._server: asyncio.AbstractServer | None = None
        self._http: ObservabilityEndpoint | None = None
        self.http_host: str | None = None
        self.http_port: int | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._request_tasks: set[asyncio.Task] = set()
        self._inflight = 0

        m = self.metrics
        self._requests = {
            op: m.counter(
                "repro_requests_total", "Requests received, by operation.",
                labels={"op": op},
            )
            for op in protocol.QUEUED_OPS | protocol.IMMEDIATE_OPS
        }
        self._errors = m.counter(
            "repro_request_errors_total", "Requests answered with an error."
        )
        self._rejected = m.counter(
            "repro_rejected_busy_total",
            "Requests rejected by backpressure (queue full).",
        )
        self._deadline_timeouts = m.counter(
            "repro_deadline_timeouts_total",
            "Requests whose deadline elapsed before the verdict.",
        )
        self._subsumption_answers = m.counter(
            "repro_monitor_subsumption_answers_total",
            "Status verdicts answered for free via denial subsumption.",
        )
        self._queue_depth = m.gauge(
            "repro_queue_depth", "Operations waiting in the solve queue."
        )
        self._inflight_gauge = m.gauge(
            "repro_inflight", "Operations executing in the solver thread."
        )
        self._queue_wait = m.histogram(
            "repro_queue_wait_seconds",
            "Time between enqueue and solver-thread pickup.",
        )
        self._solve_time = m.histogram(
            "repro_solve_seconds",
            "Time spent executing an operation in the solver thread.",
        )

    # ------------------------------------------------------------------
    # Monitor operations (executed in the solver thread)

    def _run_op(self, op: str, args: dict) -> dict:
        if self.before_op is not None:
            self.before_op(op, args)
        monitor = self.monitor
        if op == "register":
            entry = monitor.register(
                args["name"], args["query"], **args.get("check_kwargs", {})
            )
            return {
                "registered": entry.name,
                "relations": sorted(entry.relations),
            }
        if op == "unregister":
            monitor.unregister(args["name"])
            # The labelled latency series dies with the constraint, or a
            # register/unregister churn workload grows the exposition
            # (and every scrape) without bound.
            self.metrics.remove_series(
                "repro_constraint_check_seconds",
                {"constraint": args["name"]},
            )
            return {"unregistered": args["name"]}
        if op == "issue":
            tx = protocol.transaction_from_wire(args["tx"])
            return {
                "tx_id": tx.tx_id,
                "invalidated": monitor.issue(tx),
                "dirty_components": dict(
                    getattr(monitor, "last_dirty_components", {})
                ),
            }
        if op == "commit":
            return {
                "tx_id": args["tx_id"],
                "invalidated": monitor.commit(args["tx_id"]),
                "dirty_components": dict(
                    getattr(monitor, "last_dirty_components", {})
                ),
            }
        if op == "forget":
            return {
                "tx_id": args["tx_id"],
                "invalidated": monitor.forget(args["tx_id"]),
                "dirty_components": dict(
                    getattr(monitor, "last_dirty_components", {})
                ),
            }
        if op == "absorb":
            tx = protocol.transaction_from_wire(args["tx"])
            return {
                "tx_id": tx.tx_id,
                "invalidated": monitor.absorb(tx),
                "dirty_components": dict(
                    getattr(monitor, "last_dirty_components", {})
                ),
            }
        if op == "status":
            name = args["name"]
            entry = monitor.entry(name)
            cached = entry.result is not None
            started = time.perf_counter()
            result = monitor.status(
                name, use_subsumption=args.get("use_subsumption", True)
            )
            # The per-constraint latency sample carries the request's
            # trace id as its exemplar, so ``/metrics`` links straight
            # into ``/tracez``.
            elapsed = time.perf_counter() - started
            self.metrics.histogram(
                "repro_constraint_check_seconds",
                "Time to answer a status request, by constraint.",
                labels={"constraint": name},
            ).observe(elapsed, exemplar=self.tracer.current_trace_id())
            current = self.tracer.current()
            if current is not None:
                current.set(check_seconds=round(elapsed, 6))
            if not cached and result.stats.algorithm.startswith("subsumed-by:"):
                self._subsumption_answers.inc()
            payload = protocol.result_to_wire(result)
            payload["cached"] = cached
            return payload
        if op == "status_all":
            verdicts = monitor.status_all()
            return {
                name: protocol.result_to_wire(result)
                for name, result in verdicts.items()
            }
        if op == "violated":
            return {
                name: protocol.result_to_wire(result)
                for name, result in monitor.violated().items()
            }
        if op == "rebalance":
            rebalance = getattr(monitor, "rebalance", None)
            if not callable(rebalance):
                raise ServiceError(
                    "rebalance needs a fabric router monitor", code="bad-request"
                )
            return rebalance()
        raise ServiceError(f"unknown operation {op!r}", code="bad-request")

    def _traced_run_op(self, root: Span | None, op: str, args: dict) -> dict:
        """Run one queued operation in the solver thread, under its
        request trace.  The root is finished *here*, before the response
        future resolves, so the trace is already in ``/tracez`` when the
        client reads its trace id off the wire."""
        if root is None:
            return self._run_op(op, args)
        try:
            with self.tracer.use(root):
                with self.tracer.span("solve", op=op):
                    return self._run_op(op, args)
        finally:
            self.tracer.finish(root)

    # ------------------------------------------------------------------
    # Immediate operations (answered on the event loop)

    def _refresh_monitor_gauges(self) -> None:
        entries = [self.monitor.entry(name) for name in self.monitor.names]
        m = self.metrics
        m.gauge(
            "repro_registered_constraints", "Registered denial constraints."
        ).set(len(entries))
        m.gauge(
            "repro_cached_verdicts", "Constraints with a cached verdict."
        ).set(sum(1 for e in entries if e.result is not None))
        m.gauge(
            "repro_monitor_checks_run", "Solver checks run across entries."
        ).set(sum(e.checks_run for e in entries))
        m.gauge(
            "repro_monitor_cache_hits", "Verdicts served from cache."
        ).set(sum(e.cache_hits for e in entries))
        m.gauge(
            "repro_pending_transactions", "Pending transactions in the db."
        ).set(_monitor_pending_count(self.monitor))
        ledger_stats = getattr(self.monitor, "ledger_stats", None)
        if callable(ledger_stats):
            snapshot = ledger_stats()
            m.gauge(
                "repro_ledger_entries",
                "Component sub-verdicts held in the verdict ledger.",
            ).set(snapshot.get("entries", 0))
            for key, value in (snapshot.get("counters") or {}).items():
                m.gauge(
                    "repro_ledger_events",
                    "Verdict-ledger lifecycle counters, by event.",
                    labels={"event": key},
                ).set(value)
        ind_graph = getattr(getattr(self.monitor, "checker", None), "ind_graph", None)
        if ind_graph is not None:
            m.gauge(
                "repro_ind_partitions",
                "Component partitions the ind-graph maintains across writes.",
            ).set(ind_graph.partition_count)
        export_gauges = getattr(self.monitor, "export_gauges", None)
        if callable(export_gauges):
            export_gauges(m)

    def _immediate(self, op: str, args: dict) -> dict:
        if op == "ping":
            return {
                "pong": True,
                "epoch": _monitor_epoch(self.monitor),
                "stopping": self._stopping,
            }
        if op == "metrics":
            return {"text": self._metrics_text()}
        if op == "constraints":
            return {
                name: {
                    "query": str(self.monitor.entry(name).query),
                    "cached": self.monitor.entry(name).result is not None,
                    "checks_run": self.monitor.entry(name).checks_run,
                    "cache_hits": self.monitor.entry(name).cache_hits,
                }
                for name in self.monitor.names
            }
        if op == "shards":
            describe = getattr(self.monitor, "describe", None)
            if callable(describe):
                return describe()
            return {"sharded": False, "shards": 1}
        if op == "shutdown":
            self.request_stop()
            return {"stopping": True}
        raise ServiceError(f"unknown operation {op!r}", code="bad-request")

    # ------------------------------------------------------------------
    # Queue dispatcher

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            enqueued_at, op, args, future, root = await self._queue.get()
            self._queue_depth.set(self._queue.qsize())
            wait = time.perf_counter() - enqueued_at
            self._queue_wait.observe(wait)
            if root is not None:
                self.tracer.record_span("queue_wait", root, wait)
            self._inflight += 1
            self._inflight_gauge.set(self._inflight)
            started = time.perf_counter()
            try:
                result = await loop.run_in_executor(
                    self._solver, self._traced_run_op, root, op, args
                )
            except Exception as error:  # delivered to the waiting handler
                if not future.cancelled():
                    future.set_exception(error)
                else:  # pragma: no cover - abandoned request
                    pass
            else:
                if not future.cancelled():
                    future.set_result(result)
            finally:
                self._solve_time.observe(time.perf_counter() - started)
                self._inflight -= 1
                self._inflight_gauge.set(self._inflight)
                self._queue.task_done()

    # ------------------------------------------------------------------
    # Connection handling

    async def _respond(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(protocol.encode_line(payload))
        try:
            await writer.drain()
        except ConnectionError:  # pragma: no cover - peer vanished
            log.debug(
                "peer vanished before the response could be written",
                extra={"ctx": {"id": payload.get("id")}},
            )

    async def _handle_request(
        self, writer: asyncio.StreamWriter, payload: dict
    ) -> None:
        request_id = payload.get("id")
        op = payload.get("op")
        args = payload.get("args") or {}
        counter = self._requests.get(op)
        if counter is not None:
            counter.inc()
        trace_id: str | None = None
        try:
            if not isinstance(op, str) or not isinstance(args, dict):
                raise ServiceError(
                    'requests need a string "op" and an object "args"',
                    code="bad-request",
                )
            if op in protocol.IMMEDIATE_OPS:
                await self._respond(
                    writer, protocol.ok_response(request_id, self._immediate(op, args))
                )
                return
            if op not in protocol.QUEUED_OPS:
                raise ServiceError(f"unknown operation {op!r}", code="bad-request")
            if self._stopping:
                raise ServiceError(
                    "server is shutting down", code="shutting-down"
                )
            assert self._queue is not None
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            root = self.tracer.start_trace(
                "request", trace_id=payload.get("trace"), op=op
            )
            trace_id = root.trace_id
            try:
                self._queue.put_nowait(
                    (time.perf_counter(), op, args, future, root)
                )
            except asyncio.QueueFull:
                self._rejected.inc()
                self.tracer.finish(root.set(rejected="busy"))
                raise ServiceError(
                    f"solve queue full ({self.queue_limit} waiting)",
                    code="busy",
                    retry_after=self.retry_after,
                ) from None
            self._queue_depth.set(self._queue.qsize())
            deadline = payload.get("deadline", self.default_deadline)
            try:
                result = await asyncio.wait_for(
                    asyncio.shield(future), timeout=deadline
                )
            except asyncio.TimeoutError:
                self._deadline_timeouts.inc()
                # The operation still runs to completion in the solver
                # thread (mutations are never half-applied); retrieve its
                # eventual outcome so nothing warns about being unawaited.
                future.add_done_callback(self._log_abandoned_outcome)
                raise ServiceError(
                    f"deadline of {deadline}s elapsed before the verdict",
                    code="deadline",
                ) from None
            spans = None
            if payload.get("export_spans"):
                # The trace is already finished (the root closes before
                # the response future resolves), so it is in the ring.
                spans = self.tracer.wire_spans(trace_id)
            await self._respond(
                writer,
                protocol.ok_response(
                    request_id, result, trace=trace_id, spans=spans
                ),
            )
        except ServiceError as error:
            self._errors.inc()
            await self._respond(
                writer,
                protocol.error_response(
                    request_id, str(error), code=error.code,
                    retry_after=error.retry_after, trace=trace_id,
                ),
            )
        except ReproError as error:
            self._errors.inc()
            await self._respond(
                writer,
                protocol.error_response(request_id, str(error), trace=trace_id),
            )
        except (KeyError, TypeError) as error:
            # A structurally valid request missing (or mistyping) an
            # argument: answer, don't strand the client waiting.
            self._errors.inc()
            await self._respond(
                writer,
                protocol.error_response(
                    request_id,
                    f"missing or invalid argument: {error}",
                    code="bad-request",
                    trace=trace_id,
                ),
            )
        except Exception as error:
            self._errors.inc()
            log.warning(
                "request failed unexpectedly",
                extra={"ctx": {"op": op, "error": str(error)}},
                exc_info=True,
            )
            await self._respond(
                writer,
                protocol.error_response(
                    request_id, f"internal error: {error}", code="internal",
                    trace=trace_id,
                ),
            )

    @staticmethod
    def _log_abandoned_outcome(future: asyncio.Future) -> None:
        """A deadline elapsed but the operation kept running; record how
        it eventually ended instead of dropping the outcome silently."""
        if future.cancelled():
            return
        error = future.exception()
        if error is not None:
            log.warning(
                "operation abandoned at its deadline later failed",
                extra={"ctx": {"error": str(error)}},
            )
        else:
            log.debug("operation abandoned at its deadline later completed")

    @staticmethod
    async def _discard_oversized_line(
        reader: asyncio.StreamReader, overrun: asyncio.LimitOverrunError
    ) -> bool:
        """Resync after an oversized frame: consume through its newline.

        ``readuntil`` leaves the data buffered; ``overrun.consumed``
        bytes are known to precede the separator (or to be separator-free
        entirely), so they can be discarded without eating the next
        frame.  Returns False on EOF.
        """
        try:
            while True:
                try:
                    await reader.readuntil(b"\n")
                    return True
                except asyncio.LimitOverrunError as error:
                    await reader.readexactly(max(1, error.consumed))
        except (asyncio.IncompleteReadError, ConnectionError):
            return False

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as error:
                    line = error.partial  # EOF mid-line; process the tail
                except ConnectionError:
                    break
                except asyncio.LimitOverrunError as error:
                    # One oversized frame must not kill the connection:
                    # answer with a structured error, discard bytes up
                    # to the frame's newline, and keep serving.
                    self._errors.inc()
                    await self._respond(
                        writer,
                        protocol.error_response(
                            None,
                            f"request line exceeds "
                            f"{protocol.MAX_LINE_BYTES} bytes",
                            code="bad-request",
                        ),
                    )
                    if await self._discard_oversized_line(reader, error):
                        continue
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    payload = protocol.decode_line(line)
                except ServiceError as error:
                    self._errors.inc()
                    await self._respond(
                        writer,
                        protocol.error_response(None, str(error), code=error.code),
                    )
                    continue
                # One task per request: a slow check must not stop this
                # connection from pipelining pings or further requests.
                task = asyncio.create_task(self._handle_request(writer, payload))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer vanished
                pass

    # ------------------------------------------------------------------
    # Observability endpoint providers

    def _metrics_text(self) -> str:
        self._refresh_monitor_gauges()
        text = self.metrics.render_text()
        shared = default_registry()
        if shared is not self.metrics:
            # Library-level series (the engines' per-engine world
            # counter) live in the process-wide registry; fold them into
            # the scrape after the server's own families.
            text += shared.render_text()
        return text

    def _perfz(self) -> tuple[int, dict]:
        """``GET /perfz``: the perf telemetry plane in one payload —
        quantile summaries of every latency histogram (service-local
        and process-wide), the serving build for correlation with
        committed bench artifacts, and the verdict ledger's counters."""
        summaries = self.metrics.histogram_summaries()
        shared = default_registry()
        if shared is not self.metrics:
            for name, rows in shared.histogram_summaries().items():
                summaries.setdefault(name, rows)
        payload = {
            "histograms": summaries,
            "build": self._build_payload(),
        }
        ledger_stats = getattr(self.monitor, "ledger_stats", None)
        if callable(ledger_stats):
            # Reuse / sweep counters for the incremental verdict
            # ledger (docs/INCREMENTAL.md) — the perf story of a churn
            # workload is the reused:swept ratio, not the raw latency.
            payload["ledger"] = ledger_stats()
        return 200, payload

    def _build_payload(self) -> dict:
        """Build identity + uptime: the correlation key between a scrape
        and the exact revision (and process) that served it."""
        payload = build_info()
        payload["uptime_seconds"] = round(time.time() - self._started_at, 3)
        return payload

    def _health(self) -> tuple[int, dict]:
        """Liveness payload for ``GET /healthz`` (503 while stopping)."""
        payload: dict = {
            "status": "stopping" if self._stopping else "ok",
            "build": self._build_payload(),
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "queue_limit": self.queue_limit,
            "inflight": self._inflight,
            "epoch": _monitor_epoch(self.monitor),
            "pending_transactions": _monitor_pending_count(self.monitor),
            "constraints": len(self.monitor.names),
        }
        describe = getattr(self.monitor, "describe", None)
        if callable(describe):
            payload["shards"] = describe()
        pools = []
        for checker in _monitor_checkers(self.monitor):
            pool = getattr(checker, "pool", None)
            if pool is not None:
                pools.append(
                    {
                        "max_workers": pool.max_workers,
                        # The executor is lazy: None means idle (workers
                        # spawn on the next parallel check), not dead.
                        "workers_started": pool._executor is not None,
                    }
                )
        if pools:
            payload["pools"] = pools
        fleet_health = getattr(self.monitor, "fleet_health", None)
        if callable(fleet_health):
            fleet = fleet_health()
            payload["fleet"] = fleet
            if fleet.get("dead") or fleet.get("broken"):
                # A dead shard degrades the router: clients still get
                # answers (the next op revives it), but probes must see
                # the fleet is not whole — and which shards are down.
                # A circuit-broken shard is worse: the watchdog gave up
                # respawning it, so probes report it until an operator
                # intervenes (``reset_shard``) instead of masking a
                # crash loop behind endless restarts.
                payload["status"] = "degraded"
                payload["dead_shards"] = fleet.get("dead", [])
                if fleet.get("broken"):
                    payload["broken_shards"] = fleet["broken"]
                return 503, payload
        return (503 if self._stopping else 200), payload

    # ------------------------------------------------------------------
    # Lifecycle

    def request_stop(self) -> None:
        """Ask the server to shut down gracefully (signal-handler safe)."""
        if self._stop_requested is not None and not self._stop_requested.is_set():
            self._stop_requested.set()

    async def run(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        ready: Callable[[str, int], None] | None = None,
        install_signal_handlers: bool = False,
        http_host: str = "127.0.0.1",
        http_port: int | None = None,
    ) -> None:
        """Serve until :meth:`request_stop`, then drain and exit.

        With *http_port* set (0 picks a free port), an
        :class:`~repro.obs.http.ObservabilityEndpoint` serves
        ``/metrics``, ``/healthz``, ``/tracez`` and ``/perfz``
        alongside the JSON protocol; its bound address lands in
        ``self.http_host`` / ``self.http_port`` before *ready* fires.
        """
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._stop_requested = asyncio.Event()
        self._stopping = False
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, host, port,
            limit=protocol.MAX_LINE_BYTES,
        )
        bound_host, bound_port = self._server.sockets[0].getsockname()[:2]
        self.host, self.port = bound_host, bound_port
        if http_port is not None:
            extra = {}
            if callable(getattr(self.monitor, "fleet_health", None)):
                # A fabric router in front: expose its topology, journal
                # depths and per-shard liveness as one scrapeable route.
                extra["/fabricz"] = lambda: (200, self.monitor.describe())
            self._http = ObservabilityEndpoint(
                metrics_text=self._metrics_text,
                health=self._health,
                tracer=self.tracer,
                extra=extra,
                perf=self._perfz,
            )
            self.http_host, self.http_port = await self._http.start(
                host=http_host, port=http_port
            )
            log.info(
                "observability endpoint listening",
                extra={
                    "ctx": {"host": self.http_host, "port": self.http_port}
                },
            )
        if install_signal_handlers:
            import signal

            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, self.request_stop)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    log.debug(
                        "could not install signal handler",
                        extra={"ctx": {"signal": signum}},
                    )
        if ready is not None:
            ready(bound_host, bound_port)
        try:
            await self._stop_requested.wait()
        finally:
            await self._shutdown()

    async def _shutdown(self) -> None:
        """Stop accepting work, drain in-flight checks, release resources."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Drain: let queued + in-flight operations finish (bounded).
        if self._queue is not None:
            try:
                await asyncio.wait_for(
                    self._queue.join(), timeout=self.drain_timeout
                )
            except asyncio.TimeoutError:  # pragma: no cover - stuck solver
                log.warning(
                    "drain timeout elapsed with operations still queued",
                    extra={
                        "ctx": {
                            "timeout": self.drain_timeout,
                            "queued": self._queue.qsize(),
                            "inflight": self._inflight,
                        }
                    },
                )
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        # Let the drained operations' response tasks flush their writes
        # before the sockets go away.
        if self._request_tasks:
            await asyncio.wait(set(self._request_tasks), timeout=self.drain_timeout)
        for writer in list(self._writers):
            writer.close()
        if self._http is not None:
            await self._http.stop()
            self._http = None
        self._solver.shutdown(wait=True)
        for checker in _monitor_checkers(self.monitor):
            pool = getattr(checker, "pool", None)
            if pool is not None:
                pool.shutdown()


class ServiceHandle:
    """A service running on a background thread (tests, embedding)."""

    def __init__(self, service: ConstraintService, host: str, port: int):
        self.service = service
        self.host = host
        self.port = port
        self.http_host: str | None = None
        self.http_port: int | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    def stop(self, join_timeout: float = 30.0) -> None:
        """Request shutdown and wait for the serving thread; idempotent."""
        if self._loop is not None and not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self.service.request_stop)
            except RuntimeError:  # loop closed between the check and the call
                pass
        if self._thread is not None:
            self._thread.join(timeout=join_timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(
    service: ConstraintService,
    host: str = "127.0.0.1",
    port: int = 0,
    http_host: str = "127.0.0.1",
    http_port: int | None = None,
) -> ServiceHandle:
    """Run *service* on a daemon thread; returns once it is accepting.

    With *http_port* set, the observability endpoint's bound address is
    available as ``handle.http_host`` / ``handle.http_port``.
    """
    ready = threading.Event()
    bound: dict = {}

    def on_ready(bound_host: str, bound_port: int) -> None:
        bound["host"], bound["port"] = bound_host, bound_port
        ready.set()

    handle = ServiceHandle(service, "", 0)

    def target() -> None:
        loop = asyncio.new_event_loop()
        handle._loop = loop
        try:
            loop.run_until_complete(
                service.run(
                    host, port, ready=on_ready,
                    http_host=http_host, http_port=http_port,
                )
            )
        finally:
            try:
                leftovers = asyncio.all_tasks(loop)
                for task in leftovers:
                    task.cancel()
                if leftovers:
                    loop.run_until_complete(
                        asyncio.gather(*leftovers, return_exceptions=True)
                    )
            finally:
                loop.close()
                ready.set()  # unblock the caller on startup failure

    thread = threading.Thread(target=target, name="repro-service", daemon=True)
    handle._thread = thread
    thread.start()
    if not ready.wait(timeout=30.0) or "port" not in bound:
        raise ServiceError("service failed to start")
    handle.host, handle.port = bound["host"], bound["port"]
    handle.http_host, handle.http_port = service.http_host, service.http_port
    return handle
