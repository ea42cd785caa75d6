"""End-to-end service benchmark: drives a real ``repro serve`` over TCP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py steadiness --runs 10 --seconds 45 [--workload churn] [--first-seed 1]

One run generates (or reuses) the seeded inputs of the workload, starts
``repro serve --pool-size 2`` as a subprocess, replays the workload's op
trace from one client over one connection for ``--seconds`` seconds,
checks every verdict, stops the server and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` prints the end-to-end metrics, measured from outside the
server: the client's clock and the server's ``/proc`` counters.
``--trace 1`` runs the workload twice, untraced and then through
``perfbench/serve_traced.py`` (timing wrappers around each layer), and
prints the per-layer metrics; see ``perfbench/README.md``.

``steadiness`` runs each workload ``--runs`` times with seeds s..s+k-1 and
prints, per end-to-end metric, the median, quartiles and (Q3 - Q1) /
median against the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layers import LAYERS, ROWS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"

#: Server start-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Ops from the start of each trace over which the wire work counters
#: are summed (whole shuffled blocks, reached by every run), so the
#: counters repeat exactly between runs of one seed.
COUNTER_PREFIX = {"churn": 1400, "paper_queries": 720}
POOL_SIZE = "2"
READY_TIMEOUT = 120.0
REPLY_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0
#: Environment variables the server resolves its planner, backend and
#: engine from; removed so the defaults are what gets measured.
SCRUBBED_ENV = ("REPRO_BITSET", "REPRO_BACKEND", "REPRO_ENGINE")

END_TO_END_UNITS = {
    "setup_s": "s",
    "status_p50_ms": "ms",
    "status_p95_ms": "ms",
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
    "ops_per_s": "1/s",
    "server_cpu_ms_per_op": "ms",
    "server_peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The run could not be carried out (not a wrong verdict)."""


# ----------------------------------------------------------------------
# Server processes


def _server_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class Server:
    """One ``repro serve`` subprocess (its own process group)."""

    def __init__(self, db: Path, server_args: list[str], traced: bool, log: Path):
        entry = [str(HERE / "serve_traced.py")] if traced else ["-m", "repro", "serve"]
        cmd = [sys.executable, *entry, str(db), "--port", "0",
               "--pool-size", POOL_SIZE, *server_args]
        self.log = log
        with open(log, "wb") as stderr:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=_server_env(), stdout=subprocess.PIPE,
                stderr=stderr, start_new_session=True,
            )
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + READY_TIMEOUT
        try:
            while time.monotonic() < deadline:
                if not selector.select(timeout=0.5):
                    continue
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if not line:
                    break
                if line.startswith("repro-service listening on "):
                    address = line.split()[3]
                    return int(address.rsplit(":", 1)[1])
        finally:
            selector.close()
        self.kill()
        raise BenchError(f"server never became ready; see {self.log}")

    def stop(self) -> bool:
        """SIGTERM, wait for the drain; True on a clean exit 0."""
        clean = False
        try:
            self.proc.send_signal(signal.SIGTERM)
            code = self.proc.wait(timeout=STOP_TIMEOUT)
            tail = self.proc.stdout.read().decode("utf-8", "replace")
            clean = code == 0 and "stopped (drained)" in tail
        except subprocess.TimeoutExpired:
            pass
        finally:
            self.kill()
        if clean and b"Traceback" in self.log.read_bytes():
            clean = False
        return clean

    def kill(self) -> None:
        """Kill whatever is left of the process group and reap it."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:  # pragma: no cover - unkillable
            pass
        self.proc.stdout.close()
        # Forked pool workers are grandchildren: wait until none is left.
        deadline = time.monotonic() + STOP_TIMEOUT
        while _group_alive(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)

    # -- /proc counters --------------------------------------------------

    def processes(self) -> list[int]:
        """The server and its descendants (the pool workers)."""
        parents: dict[int, int] = {}
        for entry in Path("/proc").iterdir():
            if entry.name.isdigit():
                stat = _read_stat(int(entry.name))
                if stat is not None:
                    parents[int(entry.name)] = int(stat[1])
        found = [self.proc.pid]
        for pid in found:
            found.extend(child for child, parent in parents.items() if parent == pid)
        return found

    def cpu_seconds(self) -> dict[int, float]:
        ticks = os.sysconf("SC_CLK_TCK")
        result = {}
        for pid in self.processes():
            stat = _read_stat(pid)
            if stat is not None:
                result[pid] = (int(stat[11]) + int(stat[12])) / ticks
        return result

    def peak_rss_mb(self) -> float:
        total_kb = 0
        for pid in self.processes():
            try:
                text = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in text.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0


def _read_stat(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name (state first)."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


# ----------------------------------------------------------------------
# The client


class Client:
    """One connection, newline-delimited JSON, requests by id.

    Replies are awaited by spinning on a non-blocking read, never by
    sleeping in the kernel: on a small VM the wake-up of a sleeping
    client (and of a halted vCPU) added 0.3-1.6 ms of jitter to every
    request, more than the variation of the server's own work.  Each
    empty read yields the CPU, so the spin hands its vCPU to the server
    or a pool worker whenever one is runnable.
    """

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # A socket with a timeout is non-blocking underneath, so a plain
        # read on its descriptor returns at once when nothing is there.
        self._fd = self.sock.fileno()
        self._buffer = b""
        self._ids = 10_000_000

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)

    def poll(self) -> bytes | None:
        """One complete reply line if one has arrived, else None."""
        end = self._buffer.find(b"\n")
        if end < 0:
            try:
                chunk = os.read(self._fd, 1 << 20)
            except BlockingIOError:
                os.sched_yield()
                return None
            if not chunk:
                raise BenchError("server closed the connection")
            self._buffer += chunk
            end = self._buffer.find(b"\n")
            if end < 0:
                return None
        line, self._buffer = self._buffer[: end + 1], self._buffer[end + 1:]
        return line

    def receive(self) -> bytes:
        give_up = time.perf_counter() + REPLY_TIMEOUT
        while True:
            line = self.poll()
            if line is not None:
                return line
            if time.perf_counter() > give_up:
                raise BenchError(f"no reply within {REPLY_TIMEOUT:.0f}s")

    def call(self, op: str, **args) -> dict:
        """An out-of-trace request (control pings, metrics, setup)."""
        self._ids += 1
        self.send(encode(self._ids, op, args))
        response = json.loads(self.receive())
        if not response.get("ok"):
            raise BenchError(f"{op} failed: {response.get('error')}")
        return response["result"]

    def close(self) -> None:
        self.sock.close()


def encode(request_id: int, op: str, args: dict) -> bytes:
    return json.dumps({"id": request_id, "op": op, "args": args},
                      separators=(",", ":")).encode() + b"\n"


def verdict_ok(op: dict, response: dict) -> bool:
    """An ok response, and for ``status`` the generator's verdict."""
    if not response.get("ok"):
        return False
    if op["op"] == "status":
        return response["result"].get("satisfied") is op["expect"]
    return True


def histogram_totals(text: str) -> dict[str, float]:
    """``_sum`` / ``_count`` of the server's queue-wait and solve
    histograms from a ``metrics`` scrape."""
    wanted = ("repro_queue_wait_seconds", "repro_solve_seconds")
    totals = {}
    for line in text.splitlines():
        name, _, value = line.partition(" ")
        for family in wanted:
            if name in (family + "_sum", family + "_count"):
                totals[name] = float(value)
    return totals


class Phase:
    """What one server launch measured."""

    def __init__(self):
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.samples: list[tuple[str, str | None, float, float, float]] = []
        self.stats: list[dict] = []
        self.engines: set[str] = set()
        self.elapsed = 0.0
        self.cpu = 0.0
        self.rss_mb = 0.0
        self.histograms: dict[str, float] = {}
        self.layers: dict | None = None
        self.clean_exit = True

    def check(self, op: dict, response: dict) -> bool:
        self.attempted += 1
        ok = verdict_ok(op, response)
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"# failed {op['op']} {op['args'].get('name', '')}: "
                      f"{json.dumps(response)[:300]}", flush=True)
        return ok


def run_setup(phase: Phase, server_started: float, client: Client, trace: dict) -> None:
    for index, op in enumerate(trace["setup"]):
        client.send(encode(index + 1, op["op"], op["args"]))
        phase.check({"expect": None, **op}, json.loads(client.receive()))
    phase.setups.append(time.perf_counter() - server_started)


def launch(db: Path, trace: dict, traced: bool, log: Path, phase: Phase):
    started = time.perf_counter()
    server = Server(db, trace["server_args"], traced, log)
    try:
        client = Client(server.port)
        run_setup(phase, started, client, trace)
    except BaseException:
        server.kill()
        raise
    return server, client


def drive(workload: str, trace: dict, lines: list[bytes], client: Client,
          seconds: float, phase: Phase) -> None:
    """Replay the trace for *seconds*; record (class, family, due, sent,
    received) per op, checking every response."""
    ops = trace["ops"]
    prefix = COUNTER_PREFIX.get(workload, len(ops))
    t0 = time.perf_counter()
    if trace["loop"] == "open":
        # One thread sends each request at its due time and collects
        # replies in between, so neither waits on the other.
        count = min(len(ops), round(trace["rate"] * seconds))
        dues = [t0 + op["due"] for op in ops[:count]]
        sent = [0.0] * count
        received: dict[int, tuple[float, dict]] = {}
        next_index = 0
        give_up = dues[-1] + REPLY_TIMEOUT
        while len(received) < count:
            now = time.perf_counter()
            if next_index < count and now >= dues[next_index]:
                sent[next_index] = now
                client.send(lines[next_index])
                next_index += 1
                continue
            line = client.poll()
            if line is None:
                if now > give_up:
                    raise BenchError("replies stopped arriving")
                continue
            at = time.perf_counter()
            response = json.loads(line)
            received[response["id"] - 1] = (at, response)
        last = t0
        for index in range(count):
            at, response = received[index]
            op = ops[index]
            if phase.check(op, response):
                phase.samples.append(
                    (op["cls"], op.get("family"), dues[index], sent[index], at))
                collect_stats(phase, op, response, index < prefix)
            last = max(last, at)
        phase.elapsed = last - t0
        return
    deadline = t0 + seconds
    previous = t0
    for index, op in enumerate(ops):
        if previous >= deadline:
            break
        sent_at = time.perf_counter()
        client.send(lines[index])
        line = client.receive()
        at = time.perf_counter()
        response = json.loads(line)
        if phase.check(op, response):
            phase.samples.append((op["cls"], op.get("family"), previous, sent_at, at))
            collect_stats(phase, op, response, index < prefix)
        previous = at
    phase.elapsed = previous - t0


def collect_stats(phase: Phase, op: dict, response: dict, counted: bool) -> None:
    if op["op"] != "status":
        return
    result = response["result"]
    stats = result.get("stats") or {}
    if stats.get("engine"):
        phase.engines.add(stats["engine"])
    if counted:
        phase.stats.append({} if result.get("cached") else stats)


def measured_phase(workload: str, trace: dict, db: Path, lines: list[bytes],
                   seconds: float, traced: bool, setups: int, tag: str) -> Phase:
    """Start the server *setups* times (setup time each), then measure
    the workload on the last one and stop it cleanly."""
    phase = Phase()
    logs = CACHE / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    for attempt in range(setups):
        log = logs / f"{workload}-{trace['seed']}-{tag}-{attempt}.log"
        server, client = launch(db, trace, traced, log, phase)
        if attempt < setups - 1:
            client.close()
            phase.clean_exit &= server.stop()
            continue
        try:
            if traced:
                client.call("ping", perfbench="reset")
            before = histogram_totals(client.call("metrics")["text"])
            cpu_before = server.cpu_seconds()
            # The client's own garbage collector must not pause inside a
            # timed request: the trace alone is ~10^5 tracked objects.
            gc.collect()
            gc.freeze()
            gc.disable()
            try:
                drive(workload, trace, lines, client, seconds, phase)
            finally:
                gc.enable()
                gc.unfreeze()
            cpu_after = server.cpu_seconds()
            after = histogram_totals(client.call("metrics")["text"])
            if traced:
                phase.layers = client.call("ping", perfbench="snapshot")["perfbench"]
            phase.rss_mb = server.peak_rss_mb()
        except BaseException:
            client.close()
            server.kill()
            raise
        client.close()
        phase.clean_exit &= server.stop()
    phase.cpu = sum(cpu_after[pid] - cpu_before.get(pid, 0.0) for pid in cpu_after)
    phase.histograms = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
    return phase


# ----------------------------------------------------------------------
# Metrics


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency(sample, open_loop: bool) -> float:
    """Client latency of one op: from its due time on an open loop,
    from its send time on a closed loop."""
    _, _, due, sent, received = sample
    return (received - (due if open_loop else sent)) * 1e3


def end_to_end(phase: Phase, open_loop: bool) -> dict[str, float]:
    by_class: dict[str, list[float]] = {"status": [], "write": []}
    for sample in phase.samples:
        by_class[sample[0]].append(latency(sample, open_loop))
    completed = len(phase.samples)
    for cls, values in by_class.items():
        if len(values) < 200:
            raise BenchError(f"only {len(values)} {cls} samples; p95 needs 200")
    return {
        "setup_s": statistics.median(phase.setups),
        "status_p50_ms": percentile(by_class["status"], 0.50),
        "status_p95_ms": percentile(by_class["status"], 0.95),
        "write_p50_ms": percentile(by_class["write"], 0.50),
        "write_p95_ms": percentile(by_class["write"], 0.95),
        "ops_per_s": completed / phase.elapsed,
        "server_cpu_ms_per_op": phase.cpu * 1e3 / completed,
        "server_peak_rss_mb": phase.rss_mb,
    }


def work_counters(phase: Phase) -> dict[str, float]:
    """Per-status work from the wire ``stats`` over the counter prefix."""
    statuses = max(1, len(phase.stats))

    def total(key: str) -> int:
        return sum(int(stats.get(key, 0)) for stats in phase.stats)

    survivors = total("components_total") - total("components_pruned")
    return {
        "planner.cliques_per_status": total("cliques_enumerated") / statuses,
        "engine.worlds_per_status": total("worlds_checked") / statuses,
        "engine.evaluations_per_status": total("evaluations") / statuses,
        "pool.parallel_tasks_per_status": total("parallel_tasks") / statuses,
        "ledger.reused_per_status": total("components_reused") / statuses,
        "ledger.reuse_ratio": total("components_reused") / survivors if survivors else 0.0,
        "opt.prune_ratio": (
            total("components_pruned") / total("components_total")
            if total("components_total") else 0.0
        ),
    }


def per_layer(untraced: Phase, traced: Phase, open_loop: bool) -> tuple[dict, list]:
    ops = len(traced.samples)
    traced_ms = sum(latency(s, open_loop) for s in traced.samples) / ops
    untraced_ms = sum(latency(s, open_loop) for s in untraced.samples) / len(untraced.samples)
    snapshot = traced.layers["layers"]
    row_of = {detail: row for row, detail, _, _ in LAYERS}
    rows = {row: 0.0 for row in ROWS}
    detail_rows = []
    for _, detail, _, _ in LAYERS:
        seconds, calls = snapshot.get(detail, (0.0, 0))
        rows[row_of[detail]] += seconds * 1e3 / ops
        detail_rows.append((detail, seconds * 1e3 / ops, calls / ops))
    metrics = {f"{row}.self_ms": value for row, value in rows.items()}
    metrics["other.self_ms"] = traced_ms - sum(rows.values())
    metrics["e2e.traced_ms"] = traced_ms
    metrics["e2e.untraced_ms"] = untraced_ms
    metrics["trace.overhead_ms"] = traced_ms - untraced_ms
    # Service-level numbers need no wrappers: take them untraced.
    h = untraced.histograms
    solve_ms = 1e3 * h["repro_solve_seconds_sum"] / max(1.0, h["repro_solve_seconds_count"])
    wait_ms = 1e3 * h["repro_queue_wait_seconds_sum"] / max(
        1.0, h["repro_queue_wait_seconds_count"])
    rtt_ms = statistics.fmean((s[4] - s[3]) * 1e3 for s in untraced.samples)
    metrics["service.rtt_ms"] = rtt_ms
    metrics["service.solve_ms"] = solve_ms
    metrics["service.queue_wait_ms"] = wait_ms
    metrics["service.overhead_ms"] = rtt_ms - solve_ms
    # How late the client sent: behind schedule on the open loop, the
    # turnaround after the previous reply on a closed loop.
    metrics["loadgen.late_p95_ms"] = percentile(
        [(s[3] - s[2]) * 1e3 for s in untraced.samples], 0.95)
    metrics.update(work_counters(untraced))
    metrics["pool.compactions"] = traced.layers["pool_compactions"]
    return metrics, detail_rows


# ----------------------------------------------------------------------
# One run


def metadata(phases: list[Phase]) -> dict:
    from repro.obs.perf import git_rev

    engines = sorted(set().union(*(p.engines for p in phases)))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "engine": ",".join(engines) or "none",
        "pool_size": int(POOL_SIZE),
    }


def run(workload: str, seed: int, seconds: float, trace_mode: bool) -> tuple[dict, int]:
    sys.path.insert(0, str(SRC))
    directory = workloads.ensure_inputs(HERE, workload, seed)
    trace = json.loads((directory / "trace.json").read_text())
    db = directory / "db.json"
    lines = [encode(index + 1, op["op"], op["args"]) for index, op in enumerate(trace["ops"])]
    open_loop = trace["loop"] == "open"
    # A traced run splits its time between an untraced and a traced
    # phase, so it costs what an untraced run costs.
    phase_seconds = seconds / 2 if trace_mode else seconds
    untraced = measured_phase(
        workload, trace, db, lines, phase_seconds, traced=False,
        setups=1 if trace_mode else SETUPS, tag="plain")
    phases = [untraced]
    if trace_mode:
        traced = measured_phase(
            workload, trace, db, lines, phase_seconds, traced=True, setups=1,
            tag="traced")
        phases.append(traced)
        if work_counters(traced) != work_counters(untraced):
            print("# warning: work counters differ between traced and untraced runs")
        metrics, detail_rows = per_layer(untraced, traced, open_loop)
        units = {name: unit_of(name) for name in metrics}
        print("# layer detail (ms per op, calls per op):")
        for detail, ms, calls in detail_rows:
            print(f"#   {detail:34s} {ms:10.4f} {calls:10.3f}")
    else:
        metrics = end_to_end(untraced, open_loop)
        units = END_TO_END_UNITS
    print_report(workload, trace, untraced, open_loop)
    print("# meta " + json.dumps(metadata(phases), sort_keys=True))
    attempted = sum(p.attempted for p in phases) + sum(not p.clean_exit for p in phases)
    failed = sum(p.failed for p in phases) + sum(not p.clean_exit for p in phases)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    return result, 0 if failed == 0 else 1


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def print_report(workload: str, trace: dict, phase: Phase, open_loop: bool) -> None:
    """Human-readable lines above the JSON result."""
    print(f"# {workload} seed={trace['seed']} loop={trace['loop']} "
          f"ops={len(phase.samples)} elapsed={phase.elapsed:.2f}s "
          f"failed={phase.failed}/{phase.attempted}")
    families = sorted({s[1] for s in phase.samples if s[1]})
    for family in families:
        values = [latency(s, open_loop) for s in phase.samples
                  if s[1] == family and s[0] == "status"]
        print(f"#   status p50 {family:4s} {statistics.median(values):8.3f} ms "
              f"(n={len(values)})")
    for name, value in work_counters(phase).items():
        print(f"#   {name:32s} {value:.4f}")


# ----------------------------------------------------------------------
# Steadiness report


def steadiness(runs: int, seconds: int, only: list[str] | None, first_seed: int) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = only or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in names:
        values: dict[str, list[float]] = {}
        for seed in range(first_seed, first_seed + runs):
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if completed.returncode != 0:
                print(f"{workload} seed {seed}: run failed\n"
                      f"{completed.stdout}{completed.stderr}")
                return 1
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
            ), flush=True)
        print(f"\n{workload} ({runs} runs x {seconds}s)")
        print(f"  {'metric':22s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            flag = "" if spread <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:22s} {median:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{spread:7.3f} {bounds[name]:6.2f}{flag}", flush=True)
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}", flush=True)
    return 0


# ----------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    if argv[:1] == ["steadiness"]:
        parser = argparse.ArgumentParser(prog="run.py steadiness")
        parser.add_argument("--runs", type=int, default=10)
        parser.add_argument("--seconds", type=int, default=45)
        parser.add_argument("--first-seed", type=int, default=1)
        parser.add_argument("--workload", action="append")
        args = parser.parse_args(argv[1:])
        return steadiness(args.runs, args.seconds, args.workload, args.first_seed)
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, code = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
