"""repro.service — the long-running concurrent checking service.

Turns the library into a serving system (the standing-monitor
deployment of *Database Perspectives on Blockchains*):

* :mod:`~repro.service.pool` — a process pool that fans OptDCSat's
  per-component clique checks and batch query groups out across
  workers, with op-log snapshot sync and an any-violation early-cancel
  path; :class:`PooledDCSatChecker` is the drop-in parallel checker.
* :mod:`~repro.service.server` — an asyncio JSON-lines TCP server
  wrapping a :class:`~repro.core.monitor.ConstraintMonitor`, with
  per-request deadlines, bounded-queue backpressure and graceful
  drain-on-shutdown.
* :mod:`~repro.service.client` — the matching blocking client.
* :mod:`~repro.service.metrics` — in-process counters, gauges and
  latency histograms with a Prometheus-style plain-text dump.
* :mod:`~repro.service.protocol` — the wire format shared by both ends
  (see ``docs/SERVICE.md``).

Run it from the command line with ``repro serve``.
"""

from repro.service.client import ServiceClient
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.pool import PooledDCSatChecker, SolverPool
from repro.service.server import ConstraintService, ServiceHandle, serve_in_thread

__all__ = [
    "ServiceClient",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PooledDCSatChecker",
    "SolverPool",
    "ConstraintService",
    "ServiceHandle",
    "serve_in_thread",
]
