"""Storage backends for the DCSat engine.

The paper's implementation stores the chain and the mempool in Postgres,
marks the tuples of the possible world under consideration with a
Boolean ``current`` column, and evaluates denial constraints with SQL.
This package reproduces that architecture with two interchangeable
backends:

* :class:`MemoryBackend` — pure-Python evaluation over the overlay
  workspace (the active set *is* the ``current`` column);
* :class:`SqliteBackend` — a real SQL engine (stdlib sqlite3, standing
  in for Postgres): denial constraints are compiled to one
  world-correlated SQL statement that derives the ``current`` column
  per world from a bound active-set CTE, so any batch of worlds is
  answered in one round trip and evaluation never writes to the
  database (see ``docs/ENGINES.md``).
"""

import os

from repro.storage.base import Backend, evaluate_many_fallback
from repro.storage.memory import MemoryBackend
from repro.storage.sqlite_backend import SqliteBackend
from repro.storage.sql_compiler import compile_query_worlds

__all__ = [
    "Backend",
    "MemoryBackend",
    "SqliteBackend",
    "compile_query_worlds",
    "evaluate_many_fallback",
    "make_backend",
    "resolve_backend_name",
]


def resolve_backend_name(backend: str | None) -> str:
    """An explicit backend name, or the ``REPRO_BACKEND`` env default."""
    if backend is not None:
        return backend
    return os.environ.get("REPRO_BACKEND", "memory")


def make_backend(name: str | None = None) -> Backend:
    """Build a backend from its name (``"memory"`` or ``"sqlite"``).

    ``None`` falls back to the ``REPRO_BACKEND`` environment variable
    (default ``"memory"``) — the hook CI uses to run the whole suite
    over sqlite without touching each test.
    """
    name = resolve_backend_name(name)
    if name == "memory":
        return MemoryBackend()
    if name == "sqlite":
        return SqliteBackend()
    from repro.errors import StorageError

    raise StorageError(f"unknown backend {name!r} (expected 'memory' or 'sqlite')")
