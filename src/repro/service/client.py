"""A blocking JSON-lines client for the constraint-checking service.

Small and dependency-free on purpose: one socket, one request at a
time, responses matched by id.  Backpressure rejections surface as
:class:`~repro.errors.ServiceError` with ``code == "busy"`` and a
``retry_after`` hint; :meth:`ServiceClient.call_with_retry` implements
the obvious honor-the-hint loop.

Transient-failure robustness: connects retry with exponential backoff
plus jitter (bounded by ``connect_timeout``), and a connection that
dies mid-call is re-established and the request resent — but only when
that is safe: always when the request bytes never left this process,
and otherwise only for read-style operations (:data:`IDEMPOTENT_OPS`);
a mutation whose fate is unknown surfaces the error instead of risking
a double apply.  Every recovery increments :attr:`ServiceClient.retries`.
An explicit per-call ``deadline`` bounds the whole attempt loop, not
each attempt.

::

    with ServiceClient("127.0.0.1", 7411) as client:
        client.register("no-double-spend", "q() <- TxIn(...), TxIn(...)")
        client.issue(tx)                       # -> invalidated names
        verdict = client.status("no-double-spend")
        print(verdict["satisfied"], verdict["witness"])
        print(client.metrics_text())
"""

from __future__ import annotations

import itertools
import json
import random
import socket
import time
from typing import Any

from repro.errors import ServiceError
from repro.relational.transaction import Transaction
from repro.service import protocol

#: Operations safe to resend after a connection died mid-flight (the
#: canonical classification lives in :mod:`repro.service.protocol`;
#: re-exported here for backward compatibility).
IDEMPOTENT_OPS = protocol.IDEMPOTENT_OPS

#: First backoff sleep; doubles per attempt up to :data:`BACKOFF_CAP`.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0


def backoff_delay(attempt: int, rng: random.Random | None = None) -> float:
    """Exponential backoff with full jitter: uniform in
    ``(0, min(cap, base * 2**attempt)]`` — herds of reconnecting clients
    (a router fanning over a fleet) must not stampede in lockstep."""
    ceiling = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** attempt))
    return ((rng or random).random() or 0.01) * ceiling


class ServiceClient:
    """A synchronous connection to a :class:`ConstraintService`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7411,
        timeout: float | None = 60.0,
        connect_timeout: float = 10.0,
        max_attempts: int = 4,
    ):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._connect_timeout = connect_timeout
        self.max_attempts = max(1, max_attempts)
        self._rng = random.Random()
        self._sock: socket.socket | None = None
        self._file = None
        self._ids = itertools.count(1)
        #: Transparent recoveries (reconnect or resend) performed so far.
        self.retries = 0
        #: Trace id of the most recent queued call, if the server traced
        #: it — correlate with ``GET /tracez?trace_id=...``.
        self.last_trace_id: str | None = None
        #: Wire spans the server exported with the most recent response
        #: (requests sent with ``export_spans=True``), ready for
        #: :meth:`~repro.obs.trace.Tracer.adopt`.
        self.last_spans: list[dict] | None = None
        self._connect(deadline_at=time.monotonic() + connect_timeout)

    # ------------------------------------------------------------------
    # Transport

    def _connect(self, deadline_at: float) -> None:
        """Dial with bounded, jittered retries until *deadline_at*."""
        attempt = 0
        while True:
            try:
                self._sock = socket.create_connection(
                    (self._host, self._port),
                    timeout=max(0.001, min(self._connect_timeout,
                                           deadline_at - time.monotonic())),
                )
                self._sock.settimeout(self._timeout)
                self._file = self._sock.makefile("rb")
                return
            except OSError as error:
                self._teardown()
                attempt += 1
                delay = backoff_delay(attempt, self._rng)
                if (
                    attempt >= self.max_attempts
                    or time.monotonic() + delay >= deadline_at
                ):
                    raise ServiceError(
                        f"could not connect to {self._host}:{self._port} "
                        f"after {attempt} attempts: {error}",
                        code="unavailable",
                    ) from error
                self.retries += 1
                time.sleep(delay)

    def _teardown(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - already dead
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - already dead
                pass
            self._sock = None

    def call(
        self,
        op: str,
        deadline: float | None = None,
        trace: str | None = None,
        export_spans: bool = False,
        **args: Any,
    ) -> dict:
        """Send one request; return its ``result`` or raise ServiceError.

        *deadline* rides to the server (bounding its solve) and bounds
        this client's whole attempt loop, reconnects included.
        """
        deadline_at = time.monotonic() + (
            deadline if deadline is not None
            else (self._timeout or self._connect_timeout)
        )
        attempt = 0
        while True:
            sent = False
            try:
                if self._sock is None:
                    self._connect(deadline_at=deadline_at)
                return self._call_once(op, deadline, trace, export_spans, args)
            except ServiceError:
                raise
            except (ConnectionError, TimeoutError, OSError) as error:
                sent = getattr(error, "_repro_sent", False)
                self._teardown()
                attempt += 1
                retriable = (not sent) or protocol.is_idempotent(op)
                delay = backoff_delay(attempt, self._rng)
                if (
                    not retriable
                    or attempt >= self.max_attempts
                    or time.monotonic() + delay >= deadline_at
                ):
                    raise ServiceError(
                        f"connection to {self._host}:{self._port} failed "
                        f"during {op!r}: {error}",
                        code="unavailable",
                    ) from error
                self.retries += 1
                time.sleep(delay)

    def _call_once(
        self,
        op: str,
        deadline: float | None,
        trace: str | None,
        export_spans: bool,
        args: dict,
    ) -> dict:
        request_id = next(self._ids)
        request: dict = {"id": request_id, "op": op, "args": args}
        if deadline is not None:
            request["deadline"] = deadline
        if trace is not None:
            request["trace"] = trace
        if export_spans:
            request["export_spans"] = True
        assert self._sock is not None and self._file is not None
        try:
            self._sock.sendall(protocol.encode_line(request))
        except (ConnectionError, TimeoutError, OSError) as error:
            # sendall into a dead peer: the request may sit in a kernel
            # buffer, but the server never processed and answered it —
            # flag it unsent-equivalent only if nothing left the socket.
            # We cannot know how much left, so be conservative: a reset
            # on send counts as *sent* unless it was a clean EPIPE-free
            # refusal; resends are then gated on IDEMPOTENT_OPS.
            error._repro_sent = True  # type: ignore[attr-defined]
            raise
        while True:
            try:
                line = self._file.readline()
            except (ConnectionError, TimeoutError, OSError) as error:
                # The request reached the wire before the read failed
                # (a timeout here included): the server may have applied
                # the op and lost only the reply — ambiguous, never a
                # free resend.
                error._repro_sent = True  # type: ignore[attr-defined]
                raise
            if not line:
                error = ConnectionResetError("server closed the connection")
                error._repro_sent = True  # type: ignore[attr-defined]
                raise error
            if not line.endswith(b"\n"):
                # readline() returned a partial line at EOF: the
                # connection died mid-reply.  Same ambiguity as above.
                error = ConnectionResetError("server reply truncated")
                error._repro_sent = True  # type: ignore[attr-defined]
                raise error
            try:
                response = json.loads(line)
            except json.JSONDecodeError as decode_error:
                error = ConnectionResetError(
                    f"unparseable server reply: {decode_error}"
                )
                error._repro_sent = True  # type: ignore[attr-defined]
                raise error from decode_error
            if response.get("id") != request_id:
                continue  # stale response from an abandoned request
            if "trace" in response:
                self.last_trace_id = response["trace"]
            self.last_spans = response.get("spans")
            if response.get("ok"):
                return response["result"]
            raise ServiceError(
                response.get("error", "request failed"),
                code=response.get("code", "error"),
                retry_after=response.get("retry_after"),
            )

    def call_with_retry(
        self,
        op: str,
        deadline: float | None = None,
        max_attempts: int = 8,
        **args: Any,
    ) -> dict:
        """Like :meth:`call`, but honors ``busy`` retry-after hints."""
        last: ServiceError | None = None
        for _ in range(max_attempts):
            try:
                return self.call(op, deadline=deadline, **args)
            except ServiceError as error:
                if error.code != "busy":
                    raise
                last = error
                time.sleep(error.retry_after or 0.05)
        assert last is not None
        raise last

    # ------------------------------------------------------------------
    # Operations

    def ping(self) -> dict:
        return self.call("ping")

    def register(
        self, name: str, query: str, deadline: float | None = None, **check_kwargs
    ) -> dict:
        args: dict = {"name": name, "query": query}
        if check_kwargs:
            args["check_kwargs"] = check_kwargs
        return self.call("register", deadline=deadline, **args)

    def unregister(self, name: str) -> dict:
        return self.call("unregister", name=name)

    def issue(
        self, tx: Transaction | dict, deadline: float | None = None
    ) -> list[str]:
        wire = protocol.transaction_to_wire(tx) if isinstance(tx, Transaction) else tx
        return self.call("issue", deadline=deadline, tx=wire)["invalidated"]

    def commit(self, tx_id: str, deadline: float | None = None) -> list[str]:
        return self.call("commit", deadline=deadline, tx_id=tx_id)["invalidated"]

    def forget(self, tx_id: str, deadline: float | None = None) -> list[str]:
        return self.call("forget", deadline=deadline, tx_id=tx_id)["invalidated"]

    def absorb(
        self, tx: Transaction | dict, deadline: float | None = None
    ) -> list[str]:
        """Insert externally committed facts (the mined-block path)."""
        wire = protocol.transaction_to_wire(tx) if isinstance(tx, Transaction) else tx
        return self.call("absorb", deadline=deadline, tx=wire)["invalidated"]

    def status(
        self,
        name: str,
        use_subsumption: bool = True,
        deadline: float | None = None,
    ) -> dict:
        return self.call(
            "status", deadline=deadline, name=name, use_subsumption=use_subsumption
        )

    def status_all(self, deadline: float | None = None) -> dict:
        return self.call("status_all", deadline=deadline)

    def violated(self, deadline: float | None = None) -> dict:
        return self.call("violated", deadline=deadline)

    def constraints(self) -> dict:
        return self.call("constraints")

    def shards(self) -> dict:
        """Shard placement and routing state (``{"sharded": False, ...}``
        when the server runs a single monitor)."""
        return self.call("shards")

    def rebalance(self, deadline: float | None = None) -> dict:
        """Migrate constraints between fleet shards by recorded cost
        (fabric router only; plain servers answer ``bad-request``)."""
        return self.call("rebalance", deadline=deadline)

    def metrics_text(self) -> str:
        return self.call("metrics")["text"]

    def shutdown_server(self) -> dict:
        return self.call("shutdown")

    # ------------------------------------------------------------------
    # Lifecycle

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
