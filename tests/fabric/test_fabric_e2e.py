"""End-to-end: real shard subprocesses behind a wire-served router.

The full fabric stack — ``repro serve`` subprocesses spawned by a
:class:`FleetSupervisor`, a :class:`FabricMonitor` router served over
the JSON-lines protocol, a stock :class:`ServiceClient` in front — plus
the chaos path: SIGKILL a shard mid-trace and require verdict parity
with a single in-process monitor, ``/healthz`` truthfully degrading to
503 while the shard is down, and ``/tracez`` showing shard-subprocess
spans grafted under the router's trace.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro import serialize
from repro.core.checker import DCSatChecker
from repro.core.monitor import ConstraintMonitor
from repro.errors import FabricError
from repro.fabric import FabricMonitor, FleetSupervisor, ShardSpec
from repro.fabric.supervisor import READY_PREFIX, _repro_pythonpath
from repro.relational.transaction import Transaction
from repro.service.client import ServiceClient
from repro.service.server import ConstraintService, serve_in_thread

from tests.fabric.conftest import two_relation_db

pytestmark = pytest.mark.slow


Q_A = "q() <- A(k, 'x'), A(k, 'y')"
Q_B = "q() <- B(k, 'x'), B(k, 'y')"


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    db = two_relation_db()
    db_path = str(tmp_path_factory.mktemp("fabric") / "seed.json")
    serialize.dump(db, db_path)
    fleet = FleetSupervisor(ShardSpec(db_path=db_path), shards=2)
    fabric = FabricMonitor(two_relation_db(), fleet)
    handle = serve_in_thread(ConstraintService(fabric), http_port=0)
    client = ServiceClient(handle.host, handle.port, timeout=120.0)
    single = ConstraintMonitor(DCSatChecker(two_relation_db()))
    try:
        yield fabric, fleet, client, handle, single
    finally:
        client.close()
        handle.stop()
        fabric.close()


def http_get(handle, path):
    url = f"http://{handle.http_host}:{handle.http_port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def assert_parity(client, single):
    got = client.status_all()
    want = single.status_all()
    assert set(got) == set(want)
    for name, wire in got.items():
        assert wire["satisfied"] == want[name].satisfied, name
        witness = want[name].witness
        wire_witness = wire["witness"]
        assert (wire_witness is None) == (witness is None), name
        if witness is not None:
            assert set(wire_witness) == set(witness), name


def test_fleet_chaos_roundtrip(stack):
    fabric, fleet, client, handle, single = stack

    for name, query in (("a1", Q_A), ("b1", Q_B)):
        client.register(name, query)
        single.register(name, query)

    # Healthy fleet: /healthz is 200 and names no dead shards.
    status, payload = http_get(handle, "/healthz")
    assert status == 200
    assert payload["fleet"]["dead"] == []
    assert len(payload["fleet"]["shards"]) == 2

    # The router's extra scrape route: topology + liveness in one JSON.
    status, payload = http_get(handle, "/fabricz")
    assert status == 200
    assert payload["fabric"] is True
    assert {item["shard"] for item in payload["detail"]} == {0, 1}

    for i, (rel, value) in enumerate(
        [("A", "x"), ("A", "y"), ("B", "x"), ("B", "y")]
    ):
        got = client.issue(Transaction({rel: [(1, value)]}, tx_id=f"T{i}"))
        want = single.issue(Transaction({rel: [(1, value)]}, tx_id=f"T{i}"))
        assert got == want
    assert_parity(client, single)

    # SIGKILL one shard mid-trace.  The router must report it dead
    # (degraded /healthz, 503) until an op lazily revives it.
    victim = fabric.topology.slot_of("a1")
    fleet.kill(victim)
    status, payload = http_get(handle, "/healthz")
    assert status == 503
    assert payload["status"] == "degraded"
    assert payload["dead_shards"] == [victim]

    # The next touching op respawns the shard and replays its journal;
    # verdicts and invalidation lists stay identical to the single
    # monitor that never died.
    got = client.commit("T0")
    want = single.commit("T0")
    assert got == want
    status, payload = http_get(handle, "/healthz")
    assert status == 200
    assert payload["fleet"]["shards"][victim]["restarts"] == 1
    assert_parity(client, single)

    got = client.commit("T1")
    want = single.commit("T1")
    assert got == want
    assert_parity(client, single)
    assert not client.status("a1")["satisfied"]


def test_status_all_trace_spans_cross_processes(stack):
    fabric, fleet, client, handle, single = stack
    client.status_all()
    trace_id = client.last_trace_id
    assert trace_id is not None
    status, payload = http_get(handle, f"/tracez?trace_id={trace_id}")
    assert status == 200
    (trace,) = payload["traces"]
    spans = trace["spans"]
    names = {span["name"] for span in spans}
    assert "fabric.call" in names
    # Span ids embed the creating pid: the shard subprocesses' spans
    # keep theirs, proving the trace really crossed process boundaries.
    router_prefix = f"s{os.getpid():x}-"
    foreign = [s for s in spans if not s["span_id"].startswith(router_prefix)]
    assert foreign, "no shard-subprocess spans were adopted"
    shard_pids = {
        f"s{item['pid']:x}-" for item in fabric.fleet_health()["shards"]
    }
    assert {
        s["span_id"].split("-")[0] + "-" for s in foreign
    } <= shard_pids

    calls = {s["span_id"] for s in spans if s["name"] == "fabric.call"}
    adopted_roots = [s for s in foreign if s["parent_id"] in calls]
    assert adopted_roots, "shard spans were not re-parented under fabric.call"


def test_rebalance_over_the_wire(stack):
    fabric, fleet, client, handle, single = stack
    moved = client.rebalance()
    assert moved["shards"] == 2
    assert isinstance(moved["migrated"], list)
    assert_parity(client, single)


# ----------------------------------------------------------------------
# Router crash + --recover, end to end through the CLI.


def spawn_router(db_path, journal_dir, recover=False, timeout=120.0):
    """Launch ``repro fabric`` as a real subprocess and wait for its
    ready line.  Returns ``(process, host, port, pre_ready_lines)``."""
    argv = [
        sys.executable, "-m", "repro",
        "--log-level", "warning",
        "fabric", db_path,
        "--host", "127.0.0.1",
        "--port", "0",
        "--shards", "2",
        "--journal-dir", journal_dir,
        "--fsync", "always",
        "--watchdog-interval", "0",
    ]
    if recover:
        argv.append("--recover")
    env = dict(os.environ)
    env["PYTHONPATH"] = _repro_pythonpath()
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
        start_new_session=True,
    )
    fd = process.stdout.fileno()
    deadline = time.monotonic() + timeout
    buffered, lines = "", []
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or process.poll() is not None:
            process.kill()
            process.wait()
            raise AssertionError(
                f"router never became ready; output so far: {lines!r}"
            )
        readable, _, _ = select.select([fd], [], [], min(remaining, 0.25))
        if not readable:
            continue
        chunk = os.read(fd, 4096).decode("utf-8", "replace")
        if not chunk:
            process.kill()
            process.wait()
            raise AssertionError(
                f"router closed stdout before ready: {lines!r}"
            )
        buffered += chunk
        while "\n" in buffered:
            line, buffered = buffered.split("\n", 1)
            lines.append(line)
            if line.startswith(READY_PREFIX):
                address = line[len(READY_PREFIX):].split(" ", 1)[0]
                host, _, port = address.rpartition(":")
                return process, host, int(port), lines


def read_remaining_output(process, timeout=30.0):
    """Everything *process* writes to stdout from here until EOF."""
    fd = process.stdout.fileno()
    deadline = time.monotonic() + timeout
    chunks = []
    while time.monotonic() < deadline:
        readable, _, _ = select.select([fd], [], [], 0.25)
        if not readable:
            continue
        chunk = os.read(fd, 4096)
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks).decode("utf-8", "replace")


def test_router_sigkill_then_recover_matches_single_monitor(tmp_path):
    """The acceptance scenario: SIGKILL the router mid-workload, restart
    it with ``--recover``, and every verdict — plus the whole
    ``status_all`` surface — matches a single uninterrupted monitor."""
    db_path = str(tmp_path / "seed.json")
    serialize.dump(two_relation_db(), db_path)
    journal_dir = str(tmp_path / "journal")
    single = ConstraintMonitor(DCSatChecker(two_relation_db()))

    router, host, port, _ = spawn_router(db_path, journal_dir)
    survivor = None
    try:
        with ServiceClient(host, port, timeout=120.0) as client:
            for name, query in (("a1", Q_A), ("b1", Q_B)):
                client.register(name, query)
                single.register(name, query)
            for i, (rel, value) in enumerate(
                [("A", "x"), ("A", "y"), ("B", "x"), ("B", "y")]
            ):
                tx = Transaction({rel: [(1, value)]}, tx_id=f"T{i}")
                assert client.issue(tx) == single.issue(tx)
            assert client.commit("T0") == single.commit("T0")
            assert_parity(client, single)

        # Mid-workload murder: no drain, no flush beyond what the
        # journal already forced (fsync=always), shard subprocesses
        # orphaned in their own sessions.
        os.kill(router.pid, signal.SIGKILL)
        router.wait()

        survivor, host, port, lines = spawn_router(
            db_path, journal_dir, recover=True
        )
        assert any("reaped" in line for line in lines), lines
        assert any("recovered" in line for line in lines), lines

        with ServiceClient(host, port, timeout=120.0) as client:
            # Everything journaled before the kill is back.
            assert_parity(client, single)
            # And the recovered router keeps agreeing as work continues.
            assert client.commit("T1") == single.commit("T1")
            assert client.status("a1")["satisfied"] is False
            tx = Transaction({"B": [(2, "x")]}, tx_id="T9")
            assert client.issue(tx) == single.issue(tx)
            assert client.forget("T9") == single.forget("T9")
            assert_parity(client, single)
            client.shutdown_server()
        output = read_remaining_output(survivor)
        survivor.wait(timeout=60.0)
        assert survivor.returncode == 0
        # The same clean-exit line `repro serve` prints after a drain.
        assert "repro-fabric stopped (drained)" in output, output
        survivor = None
    finally:
        for process in (router, survivor):
            if process is not None and process.poll() is None:
                process.kill()
                process.wait()
        from repro.fabric import FabricJournal, reap_stale

        reap_stale(FabricJournal(journal_dir).fleet_state_path)


def test_fabric_serve_round_trip_and_sigint_drain(tmp_path):
    """``repro fabric`` serves one op script across two shard processes
    and drains cleanly on SIGINT, the way ``repro serve`` does."""
    db_path = str(tmp_path / "seed.json")
    serialize.dump(two_relation_db(), db_path)
    journal_dir = str(tmp_path / "journal")
    router, host, port, _ = spawn_router(db_path, journal_dir)
    try:
        with ServiceClient(host, port, timeout=120.0) as client:
            assert client.ping()["pong"] is True
            client.register("a-conflict", Q_A)
            client.register("quiet-b", "q() <- B(1, 'boom')")
            described = client.shards()
            assert described["sharded"] is True
            assert described["shards"] == 2
            assert client.status("a-conflict")["satisfied"] is True
            assert client.status("quiet-b")["satisfied"] is True
            assert client.issue(
                Transaction({"B": [(1, "boom")]}, tx_id="T-B")
            ) == ["quiet-b"]
            assert client.status("quiet-b")["satisfied"] is False
            assert client.commit("T-B") == ["quiet-b"]
            assert client.absorb(
                Transaction({"A": [(1, "x")]}, tx_id="ABS")
            ) == ["a-conflict"]
            text = client.metrics_text()
            assert 'repro_fabric_shard_constraints{shard="0"} 1' in text
            assert 'repro_fabric_shard_constraints{shard="1"} 1' in text

        router.send_signal(signal.SIGINT)
        output = read_remaining_output(router)
        router.wait(timeout=60.0)
        assert router.returncode == 0, output
        assert "repro-fabric stopped (drained)" in output, output
    finally:
        if router.poll() is None:
            router.kill()
            router.wait()
        from repro.fabric import FabricJournal, reap_stale

        reap_stale(FabricJournal(journal_dir).fleet_state_path)


def test_fabric_rejects_stale_journal_without_recover_flag(tmp_path):
    """Restarting over an existing journal without ``--recover`` must
    refuse loudly instead of silently shadowing durable state."""
    db_path = str(tmp_path / "seed.json")
    serialize.dump(two_relation_db(), db_path)
    journal_dir = str(tmp_path / "journal")
    from repro.fabric import FabricJournal

    FabricJournal(journal_dir, shards=2).close()
    env = dict(os.environ)
    env["PYTHONPATH"] = _repro_pythonpath()
    done = subprocess.run(
        [
            sys.executable, "-m", "repro", "fabric", db_path,
            "--port", "0", "--shards", "2", "--journal-dir", journal_dir,
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60.0,
    )
    assert done.returncode == 2
    assert "--recover" in done.stdout


# ----------------------------------------------------------------------
# Spawn-failure hardening: a shard that dies, goes mute, or floods
# stdout before its ready line must surface as a FabricError carrying
# its stderr — never a hang until the spawn timeout.


class ScriptSpec(ShardSpec):
    """A shard spec whose argv is an arbitrary ``python -c`` script."""

    def __init__(self, code):
        super().__init__(db_path="unused")
        self.code = code

    def argv(self):
        return [sys.executable, "-u", "-c", self.code]


class TestSpawnFailure:
    def test_shard_exiting_before_ready_raises_with_stderr(self, tmp_path):
        missing = str(tmp_path / "no-such-db.json")
        fleet = FleetSupervisor(
            ShardSpec(db_path=missing), shards=1, spawn_timeout=60.0
        )
        start = time.monotonic()
        with pytest.raises(FabricError) as excinfo:
            fleet.start()
        assert time.monotonic() - start < 30.0  # reaped, not timed out
        assert excinfo.value.code == "spawn-failed"
        # EOF and exit race: either diagnosis is truthful, both carry
        # the stderr tail.
        message = str(excinfo.value)
        assert "exited with status" in message or "closed stdout" in message
        # The child's traceback rode along for the post-mortem.
        assert excinfo.value.stderr
        assert "no-such-db.json" in excinfo.value.stderr

    def test_shard_closing_stdout_before_ready_is_reaped(self):
        spec = ScriptSpec(
            "import sys, time, os; print('boom', file=sys.stderr); "
            "sys.stderr.flush(); os.close(1); time.sleep(60)"
        )
        fleet = FleetSupervisor(spec, shards=1, spawn_timeout=60.0)
        start = time.monotonic()
        with pytest.raises(FabricError) as excinfo:
            fleet.start()
        assert time.monotonic() - start < 30.0
        assert excinfo.value.code == "spawn-failed"
        assert "closed stdout" in str(excinfo.value)
        assert "boom" in (excinfo.value.stderr or "")
        assert not fleet.alive(0)  # the sleeping child was killed

    def test_shard_flooding_stdout_is_cut_off(self):
        spec = ScriptSpec(
            "while True:\n print('x' * 1024)"
        )
        fleet = FleetSupervisor(spec, shards=1, spawn_timeout=60.0)
        start = time.monotonic()
        with pytest.raises(FabricError) as excinfo:
            fleet.start()
        assert time.monotonic() - start < 30.0
        assert excinfo.value.code == "spawn-failed"
        assert "without a ready line" in str(excinfo.value)
        assert not fleet.alive(0)
