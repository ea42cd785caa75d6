"""Shard process lifecycle: spawn, ready-probe, liveness, respawn.

A fleet shard is just ``repro serve`` over the seed database with a
single monitor — one interpreter, one GIL, one solver thread, its own
optional fork pool.  :class:`FleetSupervisor` spawns those subprocesses
(``sys.executable -m repro serve ... --port 0``), parses the ready line
for the ephemeral port, answers liveness questions from ``poll()``, and
respawns dead shards on demand.  It knows nothing about constraints or
routing: the router (:class:`~repro.fabric.router.FabricMonitor`) owns
the op journal and replays it into a respawned shard.

:class:`ThreadFleet` implements the same surface over in-process
servers on daemon threads (:func:`~repro.service.server.serve_in_thread`)
— the router logic is then testable without paying a subprocess spawn
per shard, and embedders get a single-process fleet for free.  Only the
subprocess fleet survives a SIGKILL test, of course.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.errors import FabricError, ServiceError
from repro.obs.log import get_logger

log = get_logger("fabric.supervisor")

#: What ``repro serve`` prints once it is accepting connections.
READY_PREFIX = "repro-service listening on "

#: A shard that prints this much without a ready line is talking
#: garbage (wrong binary, import-time spew): reap it, don't wait out
#: the spawn timeout.
MAX_PRE_READY_BYTES = 64 * 1024

#: How much captured stderr rides along on a spawn-failure FabricError.
STDERR_TAIL_BYTES = 4 * 1024


@dataclass
class ShardSpec:
    """How to build one shard server (shared by every shard of a fleet)."""

    db_path: str
    host: str = "127.0.0.1"
    backend: str | None = None
    pool_size: int = 1  # 1 = sequential solver, no nested fork pool
    queue_limit: int = 64
    deadline: float = 30.0
    log_level: str = "warning"

    def argv(self) -> list[str]:
        argv = [
            sys.executable, "-m", "repro",
            "--log-level", self.log_level,
            "serve", self.db_path,
            "--host", self.host,
            "--port", "0",
            "--pool-size", str(self.pool_size),
            "--queue-limit", str(self.queue_limit),
            "--deadline", str(self.deadline),
        ]
        if self.backend:
            argv += ["--backend", self.backend]
        return argv


class SubprocessShard:
    """One running shard server subprocess."""

    def __init__(
        self,
        index: int,
        process: subprocess.Popen,
        host: str,
        port: int,
        stderr_file=None,
    ):
        self.index = index
        self.process = process
        self.host = host
        self.port = port
        #: Anonymous temp file collecting the child's stderr, read back
        #: when a spawn fails (and freed with the handle).
        self.stderr_file = stderr_file

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.poll() is None

    def _close_files(self) -> None:
        if self.process.stdout is not None:
            self.process.stdout.close()
        if self.stderr_file is not None:
            try:
                self.stderr_file.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self.stderr_file = None

    def kill(self) -> None:
        """SIGKILL — the failure-injection path; no drain, no goodbye."""
        if self.alive():
            self.process.kill()
        self.process.wait()

    def stop(self, grace: float = 5.0) -> None:
        """SIGTERM and wait; escalate to SIGKILL after *grace* seconds."""
        if self.alive():
            self.process.terminate()
            try:
                self.process.wait(timeout=grace)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck shard
                self.process.kill()
                self.process.wait()
        else:
            self.process.wait()
        self._close_files()


def _repro_pythonpath() -> str:
    """A PYTHONPATH under which ``-m repro`` resolves to *this* package
    (the parent of the package directory, prepended to any existing)."""
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH")
    return package_root + (os.pathsep + existing if existing else "")


class FleetSupervisor:
    """Spawns and respawns the shard server subprocesses of one fleet."""

    def __init__(
        self,
        spec: ShardSpec,
        shards: int,
        spawn_timeout: float = 30.0,
        state_path: str | None = None,
    ):
        if shards < 1:
            raise ServiceError(f"need at least one shard, got {shards}")
        self.spec = spec
        self.count = shards
        self.spawn_timeout = spawn_timeout
        #: When set, every spawn/stop rewrites this JSON file with the
        #: live shard pids — what :func:`reap_stale` reads after a
        #: router crash to kill orphaned shard subprocesses (they run in
        #: their own sessions and survive the router's SIGKILL).
        self.state_path = state_path
        self.handles: list[SubprocessShard | None] = [None] * shards
        self.restarts: list[int] = [0] * shards

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> None:
        try:
            for index in range(self.count):
                self.handles[index] = self._spawn(index)
        except Exception:
            self.stop()
            raise
        self._write_state()

    def stop(self) -> None:
        for handle in self.handles:
            if handle is not None:
                handle.stop()
        self._write_state()

    def _write_state(self) -> None:
        if self.state_path is None:
            return
        state = {
            "shards": [
                {
                    "index": handle.index,
                    "pid": handle.pid,
                    "port": handle.port,
                }
                for handle in self.handles
                if handle is not None and handle.alive()
            ]
        }
        tmp = self.state_path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as out:
                json.dump(state, out)
                out.write("\n")
            os.replace(tmp, self.state_path)
        except OSError:  # pragma: no cover - state file is best-effort
            log.warning(
                "could not write fleet state file",
                extra={"ctx": {"path": self.state_path}},
            )

    def handle(self, index: int) -> SubprocessShard:
        handle = self.handles[index]
        if handle is None:
            raise ServiceError(f"shard {index} was never started")
        return handle

    def alive(self, index: int) -> bool:
        handle = self.handles[index]
        return handle is not None and handle.alive()

    def restart(self, index: int) -> SubprocessShard:
        """Respawn a (dead or live) shard; its state starts from the
        seed database — the router replays its journal on top."""
        old = self.handles[index]
        if old is not None:
            old.kill()
            old._close_files()
        handle = self._spawn(index)
        self.handles[index] = handle
        self.restarts[index] += 1
        self._write_state()
        log.info(
            "shard respawned",
            extra={"ctx": {"shard": index, "pid": handle.pid, "port": handle.port}},
        )
        return handle

    def kill(self, index: int) -> None:
        """Failure injection: SIGKILL the shard, leave the slot dead."""
        handle = self.handles[index]
        if handle is not None:
            handle.kill()
            self._write_state()

    # ------------------------------------------------------------------
    # Spawning

    def _spawn(self, index: int) -> SubprocessShard:
        env = dict(os.environ)
        env["PYTHONPATH"] = _repro_pythonpath()
        env["PYTHONUNBUFFERED"] = "1"
        stderr_file = tempfile.TemporaryFile()
        process = subprocess.Popen(
            self.spec.argv(),
            stdout=subprocess.PIPE,
            stderr=stderr_file,
            env=env,
            text=True,
            # Its own process group: a Ctrl-C at the router's terminal
            # must not tear the shards down before the drain does.
            start_new_session=True,
        )
        try:
            host, port = self._await_ready(process, index, stderr_file)
        except Exception:
            if process.poll() is None:
                process.kill()
            process.wait()
            stderr_file.close()
            raise
        log.info(
            "shard listening",
            extra={"ctx": {"shard": index, "pid": process.pid, "port": port}},
        )
        return SubprocessShard(index, process, host, port, stderr_file)

    @staticmethod
    def _stderr_tail(stderr_file) -> str:
        """The captured stderr tail of a failed child, best-effort."""
        try:
            stderr_file.seek(0, os.SEEK_END)
            size = stderr_file.tell()
            stderr_file.seek(max(0, size - STDERR_TAIL_BYTES))
            return stderr_file.read().decode("utf-8", "replace").strip()
        except (OSError, ValueError):  # pragma: no cover - file torn down
            return ""

    def _await_ready(
        self, process: subprocess.Popen, index: int, stderr_file
    ) -> tuple[str, int]:
        """Block until the child prints its ready line; parse the port.

        A child that exits, closes stdout, or floods it with garbage
        before the ready line is reaped and surfaced as a
        :class:`FabricError` carrying its captured stderr — never a
        silent hang until the spawn timeout.
        """

        def fail(reason: str) -> FabricError:
            stderr = self._stderr_tail(stderr_file)
            message = f"shard {index} {reason}"
            if stderr:
                message += f"; stderr tail:\n{stderr}"
            return FabricError(
                message, code="spawn-failed", shard=index, stderr=stderr or None
            )

        assert process.stdout is not None
        deadline = time.monotonic() + self.spawn_timeout
        buffered = ""
        seen = 0
        fd = process.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise fail(
                    f"did not become ready within {self.spawn_timeout}s"
                )
            if process.poll() is not None:
                raise fail(
                    f"exited with status {process.returncode} before ready"
                )
            readable, _, _ = select.select([fd], [], [], min(remaining, 0.25))
            if not readable:
                continue
            chunk = os.read(fd, 4096).decode("utf-8", "replace")
            if not chunk:
                raise fail("closed stdout before ready")
            buffered += chunk
            seen += len(chunk)
            while "\n" in buffered:
                line, buffered = buffered.split("\n", 1)
                if line.startswith(READY_PREFIX):
                    address = line[len(READY_PREFIX):].split(" ", 1)[0]
                    host, _, port = address.rpartition(":")
                    return host, int(port)
            if seen > MAX_PRE_READY_BYTES:
                raise fail(
                    f"wrote {seen} bytes of output without a ready line"
                )


def reap_stale(state_path: str) -> list[int]:
    """Kill orphaned shard subprocesses left by a crashed router.

    Shards run in their own sessions (``start_new_session=True``), so a
    SIGKILLed router leaves them alive, holding ports and CPU.  Before
    a ``--recover`` start, this reads the fleet state file the previous
    supervisor maintained and kills each recorded pid — but only after
    confirming via ``/proc/<pid>/cmdline`` that the pid still belongs
    to a ``repro`` process (pids get recycled; never kill a stranger).
    Returns the pids actually killed.  On platforms without ``/proc``
    this does nothing: better leaked shards than a wrong SIGKILL.
    """
    try:
        with open(state_path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
    except (OSError, json.JSONDecodeError, ValueError):
        return []
    reaped: list[int] = []
    for item in state.get("shards", []):
        pid = item.get("pid")
        if not isinstance(pid, int) or pid <= 0:
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue  # gone already, or no /proc
        if b"repro" not in cmdline:
            continue  # pid recycled by something else
        try:
            os.kill(pid, SHARD_KILL_SIGNAL)
            reaped.append(pid)
        except OSError:  # pragma: no cover - raced its exit
            continue
    if reaped:
        log.warning(
            "reaped orphaned shard processes",
            extra={"ctx": {"pids": reaped, "state_path": state_path}},
        )
    try:
        os.unlink(state_path)
    except OSError:
        pass
    return reaped


class LivenessWatchdog:
    """Proactive shard liveness: probe, respawn, and circuit-break.

    PR 6's router only noticed a dead shard lazily, on the next op that
    happened to route there — a quiet fleet could sit half-dead for
    minutes.  The watchdog probes every ``interval`` seconds and
    respawns dead shards through the router's journal-replaying
    :meth:`~repro.fabric.router.FabricMonitor.revive_shard`, with
    exponential backoff between failed attempts.  A shard that crashes
    ``flap_limit`` times within ``flap_window`` seconds is crash-looping
    (bad seed file, poisoned op, OOM loop): the watchdog opens its
    circuit breaker via ``router.break_shard`` so ``/healthz`` and
    ``/fabricz`` degrade honestly instead of the fleet respawn-storming.

    *router* is duck-typed: ``shard_count``, ``is_broken(i)``,
    ``break_shard(i, reason)``, ``revive_shard(i)``, and ``_fleet``.
    :meth:`check_once` is the whole probe pass, public so tests drive
    it without threads or sleeps.
    """

    def __init__(
        self,
        router,
        interval: float = 2.0,
        backoff_base: float = 0.5,
        backoff_max: float = 30.0,
        flap_limit: int = 5,
        flap_window: float = 30.0,
        metrics=None,
    ):
        self._router = router
        self.interval = interval
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.flap_limit = max(1, flap_limit)
        self.flap_window = flap_window
        self._metrics = metrics
        count = router.shard_count
        #: Monotonic timestamps of recently observed crashes, per shard.
        self._crashes: list[deque] = [deque() for _ in range(count)]
        self._failures = [0] * count
        self._next_attempt = [0.0] * count
        self.respawns = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        if metrics is not None:
            # Pre-register every per-shard series so a healthy fleet
            # still exposes the counters at 0 — dashboards can alert on
            # "went up" without waiting for the first respawn to create
            # the series.
            for index in range(count):
                metrics.counter(
                    "repro_fabric_watchdog_respawns_total",
                    "Dead shards proactively respawned by the watchdog.",
                    labels={"shard": str(index)},
                )

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-fabric-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval + 5.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.check_once()
            except Exception:  # pragma: no cover - never kill the thread
                log.warning("watchdog pass failed", exc_info=True)

    def check_once(self, now: float | None = None) -> None:
        """One probe pass over every shard (the thread's loop body)."""
        router = self._router
        for index in range(router.shard_count):
            if router.is_broken(index):
                continue
            if router._fleet.alive(index):
                self._failures[index] = 0
                continue
            if now is None:
                now = time.monotonic()
            if now < self._next_attempt[index]:
                continue
            crashes = self._crashes[index]
            crashes.append(now)
            while crashes and now - crashes[0] > self.flap_window:
                crashes.popleft()
            if len(crashes) >= self.flap_limit:
                router.break_shard(
                    index,
                    f"{len(crashes)} crashes within {self.flap_window:g}s",
                )
                continue
            try:
                router.revive_shard(index)
            except (ConnectionError, ServiceError) as error:
                self._failures[index] += 1
                delay = min(
                    self.backoff_base * (2 ** (self._failures[index] - 1)),
                    self.backoff_max,
                )
                self._next_attempt[index] = now + delay
                log.warning(
                    "watchdog respawn failed; backing off",
                    extra={
                        "ctx": {
                            "shard": index,
                            "failures": self._failures[index],
                            "retry_in": delay,
                            "error": str(error),
                        }
                    },
                )
                continue
            self._failures[index] = 0
            self.respawns += 1
            if self._metrics is not None:
                self._metrics.counter(
                    "repro_fabric_watchdog_respawns_total",
                    "Dead shards proactively respawned by the watchdog.",
                    labels={"shard": str(index)},
                ).inc()


class ThreadShard:
    """An in-process shard server on a daemon thread (tests, embedding)."""

    def __init__(self, index: int, handle, service):
        self.index = index
        self._handle = handle
        self._service = service
        self.host = handle.host
        self.port = handle.port
        self.pid = os.getpid()
        self._dead = False

    def alive(self) -> bool:
        return not self._dead

    def kill(self) -> None:
        self.stop()

    def stop(self, grace: float = 5.0) -> None:
        if not self._dead:
            self._dead = True
            self._handle.stop(join_timeout=grace)
            monitor = self._service.monitor
            close = getattr(getattr(monitor, "checker", None), "close", None)
            if callable(close):
                close()


class ThreadFleet:
    """The supervisor surface over in-process servers (no subprocesses).

    ``monitor_factory()`` builds a fresh monitor-shaped object from the
    seed state for every (re)spawn — state reconstruction on restart is
    the router's journal replay, exactly as with real subprocesses.
    """

    def __init__(self, monitor_factory, shards: int):
        from repro.service.server import ConstraintService, serve_in_thread

        if shards < 1:
            raise ServiceError(f"need at least one shard, got {shards}")
        self._factory = monitor_factory
        self._serve = lambda: serve_in_thread(ConstraintService(self._factory()))
        self.count = shards
        self.handles: list[ThreadShard | None] = [None] * shards
        self.restarts: list[int] = [0] * shards

    def start(self) -> None:
        for index in range(self.count):
            self.handles[index] = self._spawn(index)

    def stop(self) -> None:
        for handle in self.handles:
            if handle is not None:
                handle.stop()

    def handle(self, index: int) -> ThreadShard:
        handle = self.handles[index]
        if handle is None:
            raise ServiceError(f"shard {index} was never started")
        return handle

    def alive(self, index: int) -> bool:
        handle = self.handles[index]
        return handle is not None and handle.alive()

    def restart(self, index: int) -> ThreadShard:
        old = self.handles[index]
        if old is not None:
            old.stop()
        handle = self._spawn(index)
        self.handles[index] = handle
        self.restarts[index] += 1
        return handle

    def kill(self, index: int) -> None:
        handle = self.handles[index]
        if handle is not None:
            handle.kill()

    def _spawn(self, index: int) -> ThreadShard:
        server_handle = self._serve()
        return ThreadShard(index, server_handle, server_handle.service)


# SIGKILL is what the chaos tests send; re-export so they need no
# platform-conditional import.
SHARD_KILL_SIGNAL = signal.SIGKILL if hasattr(signal, "SIGKILL") else signal.SIGTERM

__all__ = [
    "FleetSupervisor",
    "LivenessWatchdog",
    "ShardSpec",
    "SubprocessShard",
    "ThreadFleet",
    "ThreadShard",
    "SHARD_KILL_SIGNAL",
    "READY_PREFIX",
    "reap_stale",
]
