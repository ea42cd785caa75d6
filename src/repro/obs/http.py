"""A minimal asyncio HTTP/1.1 endpoint for scrapes and probes.

Serves four read-only routes next to the JSON-lines service port,
dependency-free (hand-rolled request parsing — GET only, no bodies):

* ``GET /metrics`` — the Prometheus text exposition
  (:meth:`~repro.service.metrics.MetricsRegistry.render_text`);
* ``GET /healthz`` — liveness JSON (status code 200, or 503 while the
  service drains);
* ``GET /tracez`` — the recent-trace ring as JSON (``?limit=N`` caps
  the count, ``?trace_id=...`` selects one trace);
* ``GET /perfz`` — the perf telemetry plane: latency-histogram
  quantile summaries, the serving build and the verdict ledger's
  counters.

The endpoint is provider-driven: the constructor takes callables, not
service objects, so it composes with anything (and tests can feed it
stubs).  Responses always carry ``Content-Length`` and
``Connection: close``; each connection serves exactly one request.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from repro.obs.log import get_logger
from repro.obs.trace import Tracer, default_tracer

log = get_logger("obs.http")

MAX_REQUEST_BYTES = 16 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    503: "Service Unavailable",
}


def _response(
    status: int, body: str, content_type: str = "text/plain; charset=utf-8"
) -> bytes:
    payload = body.encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + payload


class ObservabilityEndpoint:
    """``/metrics`` + ``/healthz`` + ``/tracez`` over plain HTTP.

    ``metrics_text`` returns the exposition body; ``health`` and
    ``perf`` return ``(status_code, payload_dict)``; ``tracer``
    supplies the recent traces.  All are optional — a missing provider
    turns its route into a 404.  ``extra`` adds JSON routes
    generically: a map of path (``"/fabricz"``) to a
    ``() -> (status_code, payload_dict)`` provider, rendered exactly
    like ``/healthz``.
    """

    def __init__(
        self,
        metrics_text: Callable[[], str] | None = None,
        health: Callable[[], tuple[int, dict]] | None = None,
        tracer: Tracer | None = None,
        extra: dict[str, Callable[[], tuple[int, dict]]] | None = None,
        perf: Callable[[], tuple[int, dict]] | None = None,
    ):
        self.metrics_text = metrics_text
        self.health = health
        self.perf = perf
        self.tracer = tracer if tracer is not None else default_tracer()
        self.extra = dict(extra) if extra else {}
        self._server: asyncio.AbstractServer | None = None
        self.host: str | None = None
        self.port: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=MAX_REQUEST_BYTES
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Request handling

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request_line = await asyncio.wait_for(
                    reader.readline(), timeout=10.0
                )
                # Drain headers up to the blank line; their content is
                # irrelevant to the three routes.
                while True:
                    header = await asyncio.wait_for(
                        reader.readline(), timeout=10.0
                    )
                    if header in (b"\r\n", b"\n", b""):
                        break
            except (asyncio.TimeoutError, ConnectionError, ValueError) as error:
                log.debug("dropping unreadable http request: %s", error)
                return
            writer.write(self._route(request_line))
            try:
                await writer.drain()
            except ConnectionError:  # pragma: no cover - peer vanished
                log.debug("http peer vanished mid-response")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer vanished
                pass

    def _route(self, request_line: bytes) -> bytes:
        try:
            method, target, _version = (
                request_line.decode("ascii").strip().split(" ", 2)
            )
        except (UnicodeDecodeError, ValueError):
            return _response(400, "malformed request line\n")
        if method != "GET":
            return _response(405, "only GET is supported\n")
        parts = urlsplit(target)
        query = parse_qs(parts.query)
        try:
            if parts.path == "/metrics" and self.metrics_text is not None:
                return _response(
                    200,
                    self.metrics_text(),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            if parts.path == "/healthz" and self.health is not None:
                status, payload = self.health()
                return _response(
                    status,
                    json.dumps(payload, default=str) + "\n",
                    content_type="application/json",
                )
            if parts.path == "/perfz" and self.perf is not None:
                status, payload = self.perf()
                return _response(
                    status,
                    json.dumps(payload, default=str) + "\n",
                    content_type="application/json",
                )
            if parts.path == "/tracez":
                return _response(
                    200,
                    self._tracez(query) + "\n",
                    content_type="application/json",
                )
            provider = self.extra.get(parts.path)
            if provider is not None:
                status, payload = provider()
                return _response(
                    status,
                    json.dumps(payload, default=str) + "\n",
                    content_type="application/json",
                )
        except Exception as error:
            # A scrape must never take the service down with it.
            log.warning(
                "error serving %s: %s", parts.path, error, exc_info=True
            )
            return _response(500, "internal error\n")
        return _response(404, f"no route for {parts.path}\n")

    def _tracez(self, query: dict[str, list[str]]) -> str:
        trace_id = query.get("trace_id", [None])[0]
        if trace_id:
            found = self.tracer.find(trace_id)
            return json.dumps(
                {"traces": [found] if found else []}, default=str
            )
        limit = None
        raw = query.get("limit", [None])[0]
        if raw is not None:
            try:
                limit = max(0, int(raw))
            except ValueError:
                limit = None
        return self.tracer.export_json(limit)


_REASONS[500] = "Internal Server Error"

__all__ = ["ObservabilityEndpoint", "MAX_REQUEST_BYTES"]
