"""``repro serve`` with timing wrappers around each layer's functions.

Usage (from the repository root; takes the ``repro serve`` arguments)::

    python3 perfbench/serve_traced.py DB.json --port 0 --pool-size 2

Installs a wrapper around every function named in
:data:`layers.LAYERS` — at every place the function is looked up, so a
name imported into another module (``pool.py`` imports
``component_survivors`` and ``solve_component``) is timed too — and then
hands over to ``repro.cli.main(["serve", ...])``: the same process
layout as an untraced server.

Each wrapper records its call's *self* time: its duration minus the
time spent in wrapped callees, kept per thread (the event loop decodes
and encodes; the solver thread runs the monitor).  Generator functions
(the clique enumeration) are timed per ``next()`` step, so a sweep that
interleaves planning and evaluation charges each to its own layer.

The client controls the accumulators through ``ping``:
``{"op": "ping", "args": {"perfbench": "reset"}}`` zeroes them and
``{"perfbench": "snapshot"}`` returns them under ``result["perfbench"]``
as ``{detail: [self_seconds, calls]}``.  Pool workers are forked
processes; their time shows only as the coordinator's wait inside
``pool.*``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layers import LAYERS  # noqa: E402


class _ThreadState(threading.local):
    def __init__(self):
        # The bottom frame absorbs the time of top-level wrapped calls.
        self.stack: list[list[float]] = [[0.0]]
        self.totals: dict[str, list[float]] = {}
        with _registry_lock:
            _registry.append(self.totals)


_registry: list[dict[str, list[float]]] = []
_registry_lock = threading.Lock()
_state = _ThreadState()


def _record(
    state: _ThreadState, detail: str, elapsed: float, child: float, calls: int
) -> None:
    """Charge *elapsed* to the caller's children and its self part
    (*elapsed* minus the wrapped callees' *child* time) to *detail*."""
    state.stack[-1][0] += elapsed
    totals = state.totals.setdefault(detail, [0.0, 0])
    totals[0] += elapsed - child
    totals[1] += calls


def _timed(fn, detail: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = _state
        frame = [0.0]
        state.stack.append(frame)
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            state.stack.pop()
            _record(state, detail, elapsed, frame[0], 1)

    return wrapper


def _timed_generator(fn, detail: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _record(_state, detail, 0.0, 0.0, 1)
        return _steps(fn(*args, **kwargs), detail)

    return wrapper


def _steps(inner, detail: str):
    try:
        while True:
            state = _state
            frame = [0.0]
            state.stack.append(frame)
            started = perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                elapsed = perf_counter() - started
                state.stack.pop()
                _record(state, detail, elapsed, frame[0], 0)
            yield item
    finally:
        inner.close()


def _reset() -> None:
    with _registry_lock:
        for totals in _registry:
            totals.clear()


def _snapshot() -> dict[str, list[float]]:
    merged: dict[str, list[float]] = {}
    with _registry_lock:
        for totals in _registry:
            for detail, (seconds, calls) in list(totals.items()):
                entry = merged.setdefault(detail, [0.0, 0])
                entry[0] += seconds
                entry[1] += calls
    return merged


def install() -> None:
    """Wrap every function of :data:`LAYERS` wherever it is bound."""
    modules = {module for _, _, module, _ in LAYERS}
    for module in sorted(modules | {"repro.cli", "repro.service.server"}):
        importlib.import_module(module)
    loaded = [m for name, m in list(sys.modules.items()) if name.startswith("repro")]
    for _, detail, module_name, qualname in LAYERS:
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        make = _timed_generator if inspect.isgeneratorfunction(original) else _timed
        wrapped = make(original, detail)
        if path:  # a method: patch the class that defines it
            setattr(owner, attr, wrapped)
            continue
        for module in loaded:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
    _install_control()


def _install_control() -> None:
    """Answer ``ping`` requests carrying a ``perfbench`` command."""
    from repro.service.pool import SolverPool
    from repro.service.server import ConstraintService

    pools: list = []
    compactions_at_reset = [0]
    pool_init = SolverPool.__init__

    @functools.wraps(pool_init)
    def init(self, *args, **kwargs):
        pool_init(self, *args, **kwargs)
        pools.append(self)

    SolverPool.__init__ = init
    immediate = ConstraintService._immediate

    @functools.wraps(immediate)
    def control(self, op, args):
        result = immediate(self, op, args)
        command = args.get("perfbench") if op == "ping" else None
        if command == "reset":
            _reset()
            compactions_at_reset[0] = sum(p.compactions for p in pools)
            result["perfbench"] = {}
        elif command == "snapshot":
            compactions = sum(p.compactions for p in pools) - compactions_at_reset[0]
            result["perfbench"] = {"layers": _snapshot(), "pool_compactions": compactions}
        return result

    ConstraintService._immediate = control


def main(argv: list[str]) -> int:
    install()
    from repro.cli import main as cli_main

    return cli_main(["serve", *argv])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
