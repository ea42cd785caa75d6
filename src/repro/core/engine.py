"""The evaluation engine: *how* candidate worlds are evaluated.

The paper's algorithms interleave two concerns that this module pulls
apart:

* **enumeration** — NaiveDCSat/OptDCSat walk maximal cliques (per
  surviving component) and build each clique's unique maximal world;
* **evaluation** — the query runs over ``R ∪ {facts of the world}``.

Enumeration produces an explicit *evaluation plan*: a stream of
candidate active-sets (plain frozensets of pending transaction ids,
with no side effects on solver statistics).  :class:`SyncEngine`
consumes the stream and drives the backend in one of two ways, chosen
by what the backend declares:

* a backend with a native multi-world round trip
  (``multi_world = True``: the sqlite backend) gets the plan in chunks
  of up to ``batch_size`` worlds, and up to the backend's
  ``member_budget`` world members, through ``Backend.evaluate_many`` —
  one SQL statement per chunk (see
  :meth:`repro.storage.sqlite_backend.SqliteBackend.evaluate_many`);
* every other backend gets one ``backend.evaluate`` call per world,
  with no look-ahead into the plan.

Statistics parity is part of the engine contract: the engine counts
``worlds_checked`` / ``evaluations`` (and ``cliques_enumerated`` when
the stream is a clique sweep) only up to and including the first
violating world, so a chunk's over-fetch never shows up in
:class:`~repro.core.results.DCSatStats` and both paths are
stats-identical on the same plan.  The engine also keeps the
fleet-level ``repro_worlds_evaluated_total{engine="sync"}`` counter in
the default metrics registry and tags its sweeps' spans with
``engine="sync"``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.results import DCSatStats
from repro.errors import AlgorithmError
from repro.query.ast import AggregateQuery, ConjunctiveQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.base import Backend

Query = ConjunctiveQuery | AggregateQuery
World = frozenset[str]

#: Worlds per ``evaluate_many`` round trip on a multi-world backend.
DEFAULT_BATCH_SIZE = 32


# engine name -> (registry it was resolved against, bound counter).  The
# registry identity is part of the key so a swapped default registry
# (tests) never receives charges through a stale counter.
_counter_cache: dict[str, tuple[object, object]] = {}


def _bound_counter(engine_name: str):
    """The ``repro_worlds_evaluated_total{engine=...}`` counter, cached.

    ``_count_worlds`` sits inside the sweep hot loop; re-importing the
    metrics module and re-resolving the labelled counter on every charge
    is measurable overhead for nothing — the binding is stable for the
    life of the default registry.
    """
    # Imported lazily: repro.core must stay importable without pulling
    # the service package in (workers import core before service).
    from repro.service.metrics import default_registry

    registry = default_registry()
    cached = _counter_cache.get(engine_name)
    if cached is not None and cached[0] is registry:
        return cached[1]
    counter = registry.counter(
        "repro_worlds_evaluated_total",
        "Worlds evaluated, by evaluation engine",
        labels={"engine": engine_name},
    )
    _counter_cache[engine_name] = (registry, counter)
    return counter


def _count_worlds(engine_name: str, worlds: int) -> None:
    if not worlds:
        return
    _bound_counter(engine_name).inc(worlds)


def _charge(
    stats: DCSatStats | None, engine_name: str, worlds: int, count_cliques: bool
) -> None:
    """Record *worlds* examined worlds on the stats and the metric."""
    if stats is not None:
        stats.engine = stats.engine or engine_name
        stats.worlds_checked += worlds
        stats.evaluations += worlds
        if count_cliques:
            stats.cliques_enumerated += worlds
    _count_worlds(engine_name, worlds)


class SyncEngine:
    """Evaluates plans produced by the enumeration side over a backend."""

    name = "sync"

    def __init__(self, backend: "Backend", batch_size: int = DEFAULT_BATCH_SIZE):
        if batch_size < 1:
            raise AlgorithmError(f"batch_size must be positive, got {batch_size}")
        self.backend = backend
        self.batch_size = batch_size
        #: Chunk sweeps through ``evaluate_many`` only where the backend
        #: answers many worlds in one round trip; elsewhere a chunk
        #: would only enumerate worlds the sweep may never need.
        self.multi_world = bool(getattr(backend, "multi_world", False))

    def evaluate(self, query: Query, active: World) -> bool:
        """Evaluate *query* over the world ``R ∪ {facts of active}``."""
        _count_worlds(self.name, 1)
        return self.backend.evaluate(query, active)

    def sweep(
        self,
        query: Query,
        worlds: Iterable[World],
        stats: DCSatStats | None = None,
        count_cliques: bool = False,
    ) -> World | None:
        """Evaluate the plan's worlds in order; return the first violator.

        Returns ``None`` when no world in the stream satisfies the
        query.  Counts stats only up to and including the violating
        world (the parity contract — see the module docstring).
        """
        if not self.multi_world:
            for world in worlds:
                _charge(stats, self.name, 1, count_cliques)
                if self.backend.evaluate(query, world):
                    return world
            return None
        for chunk in self._chunks(worlds):
            verdicts = self.backend.evaluate_many(query, chunk)
            for index, violated in enumerate(verdicts):
                if violated:
                    # Over-fetched worlds past the violator are never
                    # charged: stats match the one-world-at-a-time path.
                    _charge(stats, self.name, index + 1, count_cliques)
                    return chunk[index]
            _charge(stats, self.name, len(chunk), count_cliques)
        return None

    def _chunks(self, worlds: Iterable[World]) -> Iterator[list[World]]:
        """Split the plan into round trips of at most ``batch_size``
        worlds and, past a chunk's first world, at most the backend's
        ``member_budget`` world members.  A full chunk goes out at once,
        without enumerating the next world, and a sweep that stops early
        never pays for a second round trip of its chunk."""
        budget = self.backend.member_budget
        chunk: list[World] = []
        members = 0
        for world in worlds:
            if chunk and members + len(world) > budget:
                yield chunk
                chunk, members = [], 0
            chunk.append(world)
            members += len(world)
            if len(chunk) >= self.batch_size or members >= budget:
                yield chunk
                chunk, members = [], 0
        if chunk:
            yield chunk

    def __repr__(self) -> str:
        return f"{type(self).__name__}(backend={type(self.backend).__name__})"
