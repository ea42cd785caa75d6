"""End-to-end ``repro serve``: a real subprocess, a real socket, and a
SIGINT that must drain cleanly (exit 0, "stopped (drained)" on stdout).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro import serialize
from repro.relational.transaction import Transaction
from repro.service.client import ServiceClient
from tests.service.conftest import Q_CONFLICT, Q_TWO_A, component_db


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "chain.json"
    serialize.dump(component_db(components=3), str(path))
    return str(path)


def start_server(db_path, *extra_args):
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            db_path,
            "--port",
            "0",
            "--pool-size",
            "2",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        # Own process group: the pool's fork workers inherit the stdout
        # pipe, so cleanup must be able to kill the whole group or a
        # failed assertion would hang communicate() forever.
        start_new_session=True,
    )
    banner = process.stdout.readline()
    if not banner:
        kill_group(process)
        raise AssertionError(f"no banner; stderr: {process.stderr.read()}")
    # "repro-service listening on 127.0.0.1:PORT (pool=2 workers, ...)"
    assert "repro-service listening on " in banner
    address = banner.split("listening on ", 1)[1].split(" ", 1)[0]
    host, port = address.rsplit(":", 1)
    return process, host, int(port)


def kill_group(process):
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=10)


def test_serve_round_trip_and_sigint_drain(db_path):
    process, host, port = start_server(db_path)
    try:
        with ServiceClient(host, port) as client:
            assert client.ping()["pong"] is True
            client.register("conflict", Q_CONFLICT)
            client.register("two-a", Q_TWO_A)
            assert client.status("conflict")["satisfied"] is True
            assert client.status("two-a")["satisfied"] is False
            invalidated = client.issue(
                Transaction({"R": [(0, 9, "a")]}, tx_id="NEW")
            )
            assert sorted(invalidated) == ["conflict", "two-a"]
            client.status("conflict")  # re-warm one cached verdict
            assert client.commit("NEW") == ["conflict"]
            text = client.metrics_text()
            assert 'repro_requests_total{op="register"} 2' in text
            assert "repro_registered_constraints 2" in text

        process.send_signal(signal.SIGINT)
        stdout, stderr = process.communicate(timeout=30)
        assert process.returncode == 0, stderr
        assert "repro-service stopped (drained)" in stdout
    finally:
        if process.poll() is None:
            kill_group(process)


def test_serve_imports_no_fabric_module():
    # One in-process monitor: serving never loads the subprocess fleet.
    probe = (
        "import sys, repro.cli, repro.service.server; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.fabric')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"


def test_serve_sigint_with_request_in_flight(db_path):
    process, host, port = start_server(db_path, "--deadline", "60")
    try:
        with ServiceClient(host, port) as client:
            client.register("conflict", Q_CONFLICT)
            # Interrupt while the connection is open and a verdict was
            # just served: the drain must still complete promptly.
            assert client.status("conflict")["satisfied"] is True
            process.send_signal(signal.SIGINT)
            deadline = time.time() + 30
            while process.poll() is None and time.time() < deadline:
                time.sleep(0.05)
        stdout, stderr = process.communicate(timeout=30)
        assert process.returncode == 0, stderr
        assert "stopped (drained)" in stdout
    finally:
        if process.poll() is None:
            kill_group(process)
