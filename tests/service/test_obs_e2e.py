"""End-to-end observability: a check through the service client returns
a trace id whose ``/tracez`` entry holds the whole nested span tree —
queue wait, solve, monitor, solver internals, and spans produced inside
pool fork workers — while ``/metrics`` and ``/healthz`` answer over the
same HTTP endpoint.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing

import pytest

from repro.core.monitor import ConstraintMonitor
from repro.service.client import ServiceClient
from repro.service.metrics import MetricsRegistry
from repro.service.pool import PooledDCSatChecker
from repro.service.server import ConstraintService, serve_in_thread

from tests.fabric.conftest import thread_fabric
from tests.service.conftest import Q_CONFLICT, Q_TWO_A, component_db, r_tx

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool span capture exercises fork workers",
)


def http_get(host: str, port: int, target: str) -> tuple[int, str]:
    conn = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def fetch_trace(handle, trace_id: str) -> dict:
    status, body = http_get(
        handle.http_host, handle.http_port, f"/tracez?trace_id={trace_id}"
    )
    assert status == 200
    traces = json.loads(body)["traces"]
    assert len(traces) == 1, f"trace {trace_id} not in the ring"
    return traces[0]


def span_names(trace: dict) -> set[str]:
    return {span["name"] for span in trace["spans"]}


@needs_fork
class TestPooledEndToEnd:
    @pytest.fixture(scope="class")
    def server(self):
        checker = PooledDCSatChecker(
            component_db(components=4, keys=2), max_workers=2
        )
        monitor = ConstraintMonitor(checker)
        service = ConstraintService(monitor, metrics=MetricsRegistry())
        handle = serve_in_thread(service, http_port=0)
        yield handle
        handle.stop()
        checker.close()

    @pytest.fixture()
    def client(self, server):
        with ServiceClient(server.host, server.port) as client:
            yield client
            for name in list(client.constraints()):
                client.unregister(name)

    def test_check_returns_a_fully_nested_trace(self, server, client):
        client.register("conflict", Q_CONFLICT)
        verdict = client.status("conflict")
        assert verdict["satisfied"] is True
        assert client.last_trace_id is not None

        trace = fetch_trace(server, client.last_trace_id)
        names = span_names(trace)
        # The event-loop / solver-thread side of the request...
        assert {"request", "queue_wait", "solve", "monitor.status"} <= names
        # ...the checker internals...
        assert {"dcsat.check", "parallel_dispatch"} <= names
        # ...and the spans captured inside the pool's fork workers.
        assert {"solve_component", "clique_sweep"} <= names

        by_name: dict[str, list[dict]] = {}
        for span in trace["spans"]:
            by_name.setdefault(span["name"], []).append(span)
        ids = {span["span_id"]: span for span in trace["spans"]}
        root = by_name["request"][0]
        assert root["attributes"]["op"] == "status"
        assert by_name["queue_wait"][0]["parent_id"] == root["span_id"]
        assert by_name["solve"][0]["parent_id"] == root["span_id"]
        # Worker-origin spans are re-parented under the dispatch span
        # and prove their origin with the worker's pid.
        dispatch = by_name["parallel_dispatch"][0]
        for component in by_name["solve_component"]:
            assert component["parent_id"] == dispatch["span_id"]
            assert component["attributes"]["worker_pid"] > 0
        for sweep in by_name["clique_sweep"]:
            parent = ids[sweep["parent_id"]]
            assert parent["name"] == "solve_component"

    def test_metrics_has_per_constraint_latency_series(self, server, client):
        client.register("two-a", Q_TWO_A)
        client.status("two-a")
        status, body = http_get(server.http_host, server.http_port, "/metrics")
        assert status == 200
        assert (
            'repro_constraint_check_seconds_bucket{constraint="two-a",le='
            in body
        )
        assert (
            'repro_constraint_check_seconds_count{constraint="two-a"} 1'
            in body
        )
        assert "repro_queue_depth" in body

    def test_healthz_reports_queue_and_pool(self, server, client):
        client.ping()
        status, body = http_get(server.http_host, server.http_port, "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["queue_limit"] == server.service.queue_limit
        assert payload["pools"][0]["max_workers"] == 2

    def test_perfz_serves_histograms_build_and_ledger_end_to_end(
        self, server, client
    ):
        client.register("perf-conflict", Q_CONFLICT)
        client.status("perf-conflict")
        status, body = http_get(server.http_host, server.http_port, "/perfz")
        assert status == 200
        payload = json.loads(body)
        assert set(payload) == {"histograms", "build", "ledger"}
        assert "cost_model" not in payload
        assert {"constraints", "entries", "counters"} <= set(payload["ledger"])
        # Histogram summaries carry derived quantiles for the hot paths.
        for summary in payload["histograms"].values():
            for series in summary.values():
                assert {"count", "sum", "p50", "p95"} <= set(series)
        # And the build stamp ties the scrape to a revision.
        assert payload["build"]["git_rev"]
        assert payload["build"]["version"]
        assert payload["build"]["uptime_seconds"] >= 0

    def test_healthz_carries_the_build_stamp(self, server, client):
        client.ping()
        status, body = http_get(server.http_host, server.http_port, "/healthz")
        assert status == 200
        build = json.loads(body)["build"]
        assert set(build) == {"git_rev", "version", "python", "uptime_seconds"}

    def test_client_supplied_trace_id_is_honored(self, server, client):
        client.register("supplied", Q_CONFLICT)
        client.status("supplied", deadline=30.0)
        result = client.call("status", trace="my-correlation-id", name="supplied")
        assert result["cached"] is True
        assert client.last_trace_id == "my-correlation-id"
        trace = fetch_trace(server, "my-correlation-id")
        assert {"request", "solve", "monitor.status"} <= span_names(trace)

    def test_error_responses_carry_the_trace_id(self, server, client):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            client.status("never-registered")
        assert client.last_trace_id is not None
        trace = fetch_trace(server, client.last_trace_id)
        assert "request" in span_names(trace)


class TestShardedEndToEnd:
    @pytest.fixture(scope="class")
    def server(self):
        monitor = thread_fabric(
            lambda: component_db(components=4, keys=2), shards=2
        )
        service = ConstraintService(monitor, metrics=MetricsRegistry())
        handle = serve_in_thread(service, http_port=0)
        yield handle
        handle.stop()
        monitor.close()

    def test_routing_and_solve_spans_cross_the_shards(self, server):
        with ServiceClient(server.host, server.port) as client:
            client.register("conflict", Q_CONFLICT)
            client.issue(r_tx("fresh", 0, 0, "c"))
            issue_trace = fetch_trace(server, client.last_trace_id)
            assert "fabric.route" in span_names(issue_trace)
            route = next(
                span
                for span in issue_trace["spans"]
                if span["name"] == "fabric.route"
            )
            assert route["attributes"]["kind"] == "issue"
            assert (
                route["attributes"]["applied"]
                + route["attributes"]["skipped"]
                == 2
            )

            client.status("conflict")
            status_trace = fetch_trace(server, client.last_trace_id)
            # The shard server's spans are adopted under fabric.call.
            assert {
                "fabric.call",
                "monitor.status",
                "dcsat.check",
                "clique_sweep",
            } <= span_names(status_trace)


class TestEngineObservability:
    """Engine-tagged metrics and trace exemplars through the service."""

    @pytest.fixture(scope="class")
    def server(self):
        from repro.core.checker import DCSatChecker

        checker = DCSatChecker(component_db(components=2, keys=2))
        monitor = ConstraintMonitor(checker)
        service = ConstraintService(monitor, metrics=MetricsRegistry())
        handle = serve_in_thread(service, http_port=0)
        yield handle
        handle.stop()
        checker.close()

    def test_exemplar_links_the_scrape_to_tracez(self, server):
        with ServiceClient(server.host, server.port) as client:
            client.register("conflict", Q_CONFLICT)
            client.status("conflict")
            trace_id = client.last_trace_id
            status, body = http_get(
                server.http_host, server.http_port, "/metrics"
            )
        assert status == 200
        assert (
            '# EXEMPLAR repro_constraint_check_seconds'
            f'{{constraint="conflict"}} trace_id="{trace_id}"'
        ) in body
        # The linked trace exists and its solve span carries the same
        # latency the histogram observed.
        trace = fetch_trace(server, trace_id)
        solve = next(
            span for span in trace["spans"] if span["name"] == "solve"
        )
        assert solve["attributes"]["check_seconds"] >= 0

    def test_scrape_includes_default_registry_series(self, server):
        with ServiceClient(server.host, server.port) as client:
            client.register("sweep", Q_TWO_A)
            client.status("sweep")
            status, body = http_get(
                server.http_host, server.http_port, "/metrics"
            )
        assert status == 200
        # The engine's world counter lives in the process-wide default
        # registry; the server folds it into the same scrape.
        assert 'repro_worlds_evaluated_total{engine="sync"}' in body
