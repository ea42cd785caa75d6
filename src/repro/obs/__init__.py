"""repro.obs — dependency-free observability for the DCSat stack.

Five pieces, usable separately or together:

* :mod:`~repro.obs.trace` — a contextvar-based span tracer with
  monotonic-clock timing, per-span attributes folded from
  :class:`~repro.core.results.DCSatStats`, a bounded ring of recent
  traces, JSON export and an ASCII tree/flame renderer.  The solver
  stack (checker, OptDCSat, monitor, pool, shards, server) is
  instrumented with it end to end; spans produced inside pool fork
  workers are serialized back and re-parented under the submitting
  span.
* :mod:`~repro.obs.http` — an asyncio HTTP endpoint serving
  ``GET /metrics`` (Prometheus text), ``GET /healthz``,
  ``GET /tracez`` and ``GET /perfz`` next to the JSON-lines port
  (``repro serve --http-port``).
* :mod:`~repro.obs.log` — structured JSON logging correlated with the
  active trace/span (``repro serve --log-level/--log-json``).
* :mod:`~repro.obs.perf` — :func:`~repro.obs.perf.build_info`, the
  revision / version / python identity ``/healthz`` and ``/perfz``
  carry.
* :mod:`~repro.obs.bench` — committed bench-artifact trend reports and
  the CI regression gate (``repro bench report`` / ``repro bench
  diff``).

See ``docs/OBSERVABILITY.md`` for the span model, endpoint reference
and log schema.
"""

from repro.obs.http import ObservabilityEndpoint
from repro.obs.log import JsonFormatter, TextFormatter, configure_logging, get_logger
from repro.obs.perf import build_info
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    current,
    current_trace_id,
    default_tracer,
    render_tree,
    span,
    trace,
)

__all__ = [
    "ObservabilityEndpoint",
    "build_info",
    "JsonFormatter",
    "TextFormatter",
    "configure_logging",
    "get_logger",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "current",
    "current_trace_id",
    "default_tracer",
    "render_tree",
    "span",
    "trace",
]
