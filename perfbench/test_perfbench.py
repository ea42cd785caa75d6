"""Checks of the service benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

Covers the determinism the benchmark rests on (one seed, byte-identical
inputs; wire work counters that repeat exactly between two runs), the
self-time accounting of the timing bootstrap, and the refusal to run
without the program's sources.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def digest(directory: Path) -> str:
    """SHA-256 over the generated files."""
    hasher = hashlib.sha256()
    for name in ("db.json", "trace.json"):
        hasher.update((directory / name).read_bytes())
    return hasher.hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = workloads.ensure_inputs(tmp_path / "a", workload, 7)
    second = workloads.ensure_inputs(tmp_path / "b", workload, 7)
    assert digest(first) == digest(second)
    other = workloads.ensure_inputs(tmp_path / "c", workload, 8)
    assert digest(other) != digest(first)


def test_mempool_traces_keep_the_pending_set_level(tmp_path):
    for workload in ("churn", "mempool_flood"):
        directory = workloads.ensure_inputs(tmp_path, workload, 3)
        ops = json.loads((directory / "trace.json").read_text())["ops"]
        writes = [op["op"] for op in ops if op["cls"] == "write"][:800]
        assert writes.count("issue") == writes.count("commit") + writes.count("forget")
        assert writes.count("commit") * 10 == len(writes)


def test_flood_resweeps_exactly_one_status_in_ten(tmp_path):
    directory = workloads.ensure_inputs(tmp_path, "mempool_flood", 3)
    ops = json.loads((directory / "trace.json").read_text())["ops"]
    after_status = [
        ops[index + 1]["op"] for index, op in enumerate(ops[:-1]) if op["op"] == "status"
    ]
    assert len(after_status) >= 200
    assert after_status[:200].count("commit") == 20


@pytest.mark.parametrize("workload", [
    "churn",
    pytest.param("paper_queries", marks=pytest.mark.xfail(
        strict=False,
        reason="q_p3 fans its components out to the solver pool, which "
        "cancels unstarted groups once a witness is in: the tasks, cliques "
        "and worlds it counts depend on which worker finishes first",
    )),
])
def test_wire_work_counters_repeat_between_runs(workload):
    directory = workloads.ensure_inputs(run.HERE, workload, 5)
    trace = json.loads((directory / "trace.json").read_text())
    lines = [run.encode(i + 1, op["op"], op["args"]) for i, op in enumerate(trace["ops"])]
    counters = []
    for attempt in range(2):
        phase = run.measured_phase(
            workload, trace, directory / "db.json", lines, seconds=15.0,
            traced=False, setups=1, tag=f"test{attempt}",
        )
        assert phase.failed == 0 and phase.clean_exit
        assert len(phase.stats) == sum(
            op["op"] == "status" for op in trace["ops"][: run.COUNTER_PREFIX[workload]]
        )
        counters.append(run.work_counters(phase))
    assert counters[0] == counters[1]
    assert counters[0]["engine.worlds_per_status"] > 0


def test_bootstrap_charges_callee_time_to_the_callee():
    import serve_traced

    inner = serve_traced._timed(lambda: time.sleep(0.02), "t.inner")
    outer = serve_traced._timed(lambda: inner(), "t.outer")

    def numbers():
        time.sleep(0.01)
        yield from range(3)

    steps = serve_traced._timed_generator(numbers, "t.steps")
    serve_traced._reset()
    outer()
    assert list(steps()) == [0, 1, 2]
    snapshot = serve_traced._snapshot()
    assert snapshot["t.inner"][0] >= 0.02 and snapshot["t.inner"][1] == 1
    assert snapshot["t.outer"][0] < 0.01 and snapshot["t.outer"][1] == 1
    assert snapshot["t.steps"][0] >= 0.01 and snapshot["t.steps"][1] == 1
    serve_traced._reset()
    assert serve_traced._snapshot() == {}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
