"""Client/server round trips, targeted invalidation, subsumption, and
the failure modes the protocol promises: deadlines, backpressure, and
graceful shutdown that drains in-flight work.

Interleavings are made deterministic by driving every mutation through
the server's single solver thread and, where timing matters, by
injecting a ``before_op`` hook that slows the solver down on cue.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.checker import DCSatChecker
from repro.core.monitor import ConstraintMonitor
from repro.errors import ServiceError
from repro.relational.constraints import ConstraintSet, FunctionalDependency
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction
from repro.service.client import ServiceClient
from repro.service.metrics import MetricsRegistry
from repro.service.server import ConstraintService, serve_in_thread

Q_R_CONFLICT = "q() <- R(c, k, 'a'), R(c, k, 'b')"
Q_R_TWO_A = "q() <- R(c, k1, 'a'), R(c, k2, 'a'), k1 != k2"
Q_R_ABSENT = "q() <- R(c, k, 'zz')"
Q_R_ABSENT_SPECIFIC = "q() <- R(c, 5, 'zz')"
Q_S_BOOM = "q() <- S('boom')"


def two_relation_db() -> BlockchainDatabase:
    schema = make_schema({"R": ["cid", "k", "v"], "S": ["x"]})
    constraints = ConstraintSet(
        schema, [FunctionalDependency("R", ["cid", "k"], ["v"])]
    )
    state = Database.from_dict(schema, {"R": [], "S": []})
    pending = [
        Transaction({"R": [(0, 0, "a")]}, tx_id="R00a"),
        Transaction({"R": [(0, 0, "b")]}, tx_id="R00b"),
        Transaction({"R": [(0, 1, "a")]}, tx_id="R01a"),
        Transaction({"S": [("quiet",)]}, tx_id="S0"),
    ]
    return BlockchainDatabase(state, constraints, pending)


def running_service(before_op=None, **service_kwargs):
    checker = DCSatChecker(two_relation_db())
    monitor = ConstraintMonitor(checker)
    service = ConstraintService(
        monitor,
        metrics=MetricsRegistry(),
        before_op=before_op,
        **service_kwargs,
    )
    handle = serve_in_thread(service)
    return checker, service, handle


class TestRoundTrip:
    @pytest.fixture(scope="class")
    def server(self):
        checker, service, handle = running_service()
        yield handle
        handle.stop()
        checker.close()

    @pytest.fixture()
    def client(self, server):
        with ServiceClient(server.host, server.port) as client:
            yield client
            for name in list(client.constraints()):
                client.unregister(name)

    def test_ping(self, client):
        assert client.ping()["pong"] is True

    def test_register_status_and_cache(self, client):
        relations = client.register("conflict", Q_R_CONFLICT)["relations"]
        assert relations == ["R"]
        first = client.status("conflict")
        assert first["satisfied"] is True
        assert first["cached"] is False
        second = client.status("conflict")
        assert second["satisfied"] is True
        assert second["cached"] is True
        client.unregister("conflict")

    def test_violated_reports_witness(self, client):
        client.register("two-a", Q_R_TWO_A)
        violated = client.violated()
        assert set(violated) == {"two-a"}
        assert violated["two-a"]["witness"] == ["R00a", "R01a"]

    def test_issue_invalidates_only_touching_constraints(self, client):
        client.register("on-r", Q_R_CONFLICT)
        client.register("on-s", Q_S_BOOM)
        client.status_all()  # warm both cached verdicts

        invalidated = client.issue(
            Transaction({"R": [(7, 7, "a")]}, tx_id="T-R")
        )
        assert invalidated == ["on-r"]
        assert client.status("on-s")["cached"] is True
        assert client.status("on-r")["cached"] is False

        client.status_all()
        invalidated = client.issue(Transaction({"S": [("boom",)]}, tx_id="T-S"))
        assert invalidated == ["on-s"]
        assert client.status("on-s")["satisfied"] is False

        # commit / forget invalidate with the same targeting
        client.status_all()
        assert client.forget("T-S") == ["on-s"]
        client.status_all()
        assert client.commit("T-R") == ["on-r"]
        client.unregister("on-r")
        client.unregister("on-s")

    def test_subsumption_answers_through_server(self, client):
        client.register("absent-gen", Q_R_ABSENT)
        assert client.status("absent-gen")["satisfied"] is True
        client.register("absent-spec", Q_R_ABSENT_SPECIFIC)
        verdict = client.status("absent-spec")
        assert verdict["satisfied"] is True
        assert verdict["stats"]["algorithm"] == "subsumed-by:absent-gen"
        text = client.metrics_text()
        assert "repro_monitor_subsumption_answers_total 1" in text
        client.unregister("absent-gen")
        client.unregister("absent-spec")

    def test_constraints_listing(self, client):
        client.register("listed", Q_R_CONFLICT)
        listing = client.constraints()
        assert "listed" in listing
        assert listing["listed"]["query"].startswith("q()")
        client.unregister("listed")

    def test_metrics_exposition(self, client):
        client.ping()
        text = client.metrics_text()
        assert 'repro_requests_total{op="ping"}' in text
        assert "repro_queue_depth" in text
        assert "repro_solve_seconds_bucket" in text
        assert "repro_registered_constraints" in text

    def test_domain_error_reaches_client(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("ghost")
        assert excinfo.value.code == "error"
        assert "ghost" in str(excinfo.value)

    def test_unknown_op_is_bad_request(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.call("frobnicate")
        assert excinfo.value.code == "bad-request"

    def test_pipelined_requests_one_connection(self, client):
        client.register("pipelined", Q_R_CONFLICT)
        for _ in range(3):
            assert client.status("pipelined")["satisfied"] is True
        client.unregister("pipelined")

    def test_absorb_commits_straight_to_state(self, client):
        client.register("boom", Q_S_BOOM)
        assert client.status("boom")["satisfied"] is True
        invalidated = client.absorb(Transaction({"S": [("boom",)]}, tx_id="ABS"))
        assert invalidated == ["boom"]
        verdict = client.status("boom")
        assert verdict["cached"] is False
        assert verdict["satisfied"] is False
        client.unregister("boom")

    def test_shards_describe_single_monitor(self, client):
        assert client.shards() == {"sharded": False, "shards": 1}


class TestShardedService:
    def test_round_trip_through_sharded_monitor(self):
        from tests.fabric.conftest import thread_fabric

        monitor = thread_fabric(two_relation_db, shards=2)
        service = ConstraintService(monitor, metrics=MetricsRegistry())
        handle = serve_in_thread(service)
        try:
            with ServiceClient(handle.host, handle.port) as client:
                client.register("on-r", Q_R_CONFLICT)
                client.register("on-s", Q_S_BOOM)
                described = client.shards()
                assert described["sharded"] is True
                assert described["shards"] == 2
                assert {
                    len(d["constraints"]) for d in described["detail"]
                } == {1}

                assert client.status("on-r")["satisfied"] is True
                assert client.status("on-s")["satisfied"] is True
                invalidated = client.issue(
                    Transaction({"S": [("boom",)]}, tx_id="T-S")
                )
                assert invalidated == ["on-s"]
                assert client.status("on-s")["satisfied"] is False
                assert client.commit("T-S") == ["on-s"]
                assert client.absorb(
                    Transaction({"R": [(3, 3, "a")]}, tx_id="ABS")
                ) == ["on-r"]
                assert client.ping()["pong"] is True
                text = client.metrics_text()
                assert 'repro_fabric_shard_constraints{shard="0"} 1' in text
                assert 'repro_fabric_shard_constraints{shard="1"} 1' in text
        finally:
            handle.stop()
            monitor.close()


class TestDeadlines:
    def test_deadline_expires_but_operation_completes(self):
        release = threading.Event()

        def slow_issue(op, args):
            if op == "issue":
                release.wait(timeout=5.0)

        checker, service, handle = running_service(before_op=slow_issue)
        try:
            with ServiceClient(handle.host, handle.port) as client:
                thread_error: list[ServiceError] = []

                def issue_with_deadline():
                    try:
                        client.issue(
                            Transaction({"R": [(9, 9, "a")]}, tx_id="SLOW"),
                            deadline=0.05,
                        )
                    except ServiceError as error:
                        thread_error.append(error)

                worker = threading.Thread(target=issue_with_deadline)
                worker.start()
                worker.join(timeout=10.0)
                assert thread_error and thread_error[0].code == "deadline"
                release.set()

            with ServiceClient(handle.host, handle.port) as client:
                # The mutation was applied despite the expired deadline:
                # forgetting the transaction succeeds.
                assert client.forget("SLOW") == []
                text = client.metrics_text()
                assert "repro_deadline_timeouts_total 1" in text
        finally:
            handle.stop()
            checker.close()


class TestBackpressure:
    def test_busy_rejection_carries_retry_after(self):
        release = threading.Event()
        in_flight = threading.Event()

        def slow_status(op, args):
            if op == "status":
                in_flight.set()
                release.wait(timeout=5.0)

        checker, service, handle = running_service(
            before_op=slow_status, queue_limit=1, retry_after=0.02
        )
        try:
            with ServiceClient(handle.host, handle.port) as setup:
                setup.register("slow", Q_R_CONFLICT)

            outcomes: list[str] = []
            lock = threading.Lock()

            def hammer():
                with ServiceClient(handle.host, handle.port) as client:
                    try:
                        client.status("slow", deadline=10.0)
                        result = "ok"
                    except ServiceError as error:
                        result = error.code
                        if error.code == "busy":
                            assert error.retry_after == 0.02
                with lock:
                    outcomes.append(result)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            # The first request must reach the solver before the others
            # arrive, or two of them race for the one queue slot.
            threads[0].start()
            assert in_flight.wait(timeout=5.0)
            for thread in threads[1:]:
                thread.start()
            # Let all four requests land before releasing the solver:
            # 1 in flight + 1 queued; the other two must bounce.
            deadline = time.time() + 5.0
            while time.time() < deadline:
                with lock:
                    if len(outcomes) >= 2:
                        break
                time.sleep(0.01)
            release.set()
            for thread in threads:
                thread.join(timeout=10.0)

            assert outcomes.count("busy") == 2
            assert outcomes.count("ok") == 2
            with ServiceClient(handle.host, handle.port) as client:
                assert "repro_rejected_busy_total 2" in client.metrics_text()
        finally:
            release.set()
            handle.stop()
            checker.close()

    def test_call_with_retry_rides_out_busy(self):
        slow = {"delay": 0.15}

        def slow_once(op, args):
            if op == "status":
                time.sleep(slow.get("delay", 0))
                slow["delay"] = 0.0

        checker, service, handle = running_service(
            before_op=slow_once, queue_limit=1, retry_after=0.02
        )
        try:
            with ServiceClient(handle.host, handle.port) as setup:
                setup.register("slow", Q_R_CONFLICT)

            def occupy():
                with ServiceClient(handle.host, handle.port) as client:
                    client.call_with_retry(
                        "status", name="slow", max_attempts=50, deadline=10.0
                    )

            blockers = [threading.Thread(target=occupy) for _ in range(2)]
            for thread in blockers:
                thread.start()
            time.sleep(0.05)  # both in the pipe: 1 solving + 1 queued
            with ServiceClient(handle.host, handle.port) as client:
                verdict = client.call_with_retry(
                    "status", name="slow", max_attempts=50, deadline=10.0
                )
                assert verdict["satisfied"] is True
            for thread in blockers:
                thread.join(timeout=10.0)
        finally:
            handle.stop()
            checker.close()


class TestGracefulShutdown:
    def test_stop_drains_in_flight_requests(self):
        entered = threading.Event()
        release = threading.Event()

        def slow_status(op, args):
            if op == "status":
                entered.set()
                release.wait(timeout=5.0)

        checker, service, handle = running_service(
            before_op=slow_status, drain_timeout=10.0
        )
        try:
            with ServiceClient(handle.host, handle.port) as setup:
                setup.register("slow", Q_R_CONFLICT)

            answers: list[dict] = []

            def in_flight():
                with ServiceClient(handle.host, handle.port) as client:
                    answers.append(client.status("slow", deadline=10.0))

            worker = threading.Thread(target=in_flight)
            worker.start()
            assert entered.wait(timeout=5.0)

            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            time.sleep(0.05)
            release.set()
            worker.join(timeout=10.0)
            stopper.join(timeout=10.0)

            # The in-flight verdict was computed and delivered, not dropped.
            assert answers and answers[0]["satisfied"] is True

            # And the listener is really gone.
            with pytest.raises(OSError):
                socket.create_connection(
                    (handle.host, handle.port), timeout=1.0
                ).close()
        finally:
            release.set()
            handle.stop()
            checker.close()


class TestUnregisterObservability:
    def test_unregister_drops_labelled_series_and_ledger_state(self):
        """Regression: register/unregister churn must not leak the
        per-constraint latency series or the constraint's ledger
        entries (both are keyed by the constraint's name)."""
        checker, service, handle = running_service()
        try:
            with ServiceClient(handle.host, handle.port) as client:
                client.register("churny", Q_R_CONFLICT)
                client.status("churny")
                text = service.metrics.render_text()
                assert 'constraint="churny"' in text
                assert service.monitor.ledger.entry_count >= 1
                client.unregister("churny")
                text = service.metrics.render_text()
                assert 'constraint="churny"' not in text
                assert service.monitor.ledger.entry_count == 0
                # Other constraints' series survive the removal.
                client.register("keeper", Q_R_ABSENT)
                client.status("keeper")
                client.register("gone", Q_R_TWO_A)
                client.status("gone")
                client.unregister("gone")
                text = service.metrics.render_text()
                assert 'constraint="keeper"' in text
                assert 'constraint="gone"' not in text
        finally:
            handle.stop()
            checker.close()
