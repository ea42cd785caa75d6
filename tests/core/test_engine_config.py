"""Engine configuration and hot-loop metric binding."""

import pytest

from repro.core import engine as engine_mod
from repro.core.engine import SyncEngine, _bound_counter
from repro.errors import AlgorithmError
from repro.storage import MemoryBackend, SqliteBackend


class TestSyncEngineConfig:
    def test_chunked_path_follows_the_backend_declaration(self):
        assert not SyncEngine(MemoryBackend()).multi_world
        assert SyncEngine(SqliteBackend()).multi_world

    def test_batch_size_must_be_positive(self):
        with pytest.raises(AlgorithmError, match="batch_size"):
            SyncEngine(SqliteBackend(), batch_size=0)


class TestCounterCache:
    def test_charging_twice_hits_the_same_counter(self):
        first = _bound_counter("sync")
        assert _bound_counter("sync") is first
        # Distinct label values get distinct bindings.
        assert _bound_counter("batched") is not first

    def test_cache_tracks_registry_identity(self, monkeypatch):
        from repro.service import metrics as metrics_mod

        before = _bound_counter("sync")
        fresh = metrics_mod.MetricsRegistry()
        monkeypatch.setattr(metrics_mod, "_DEFAULT_REGISTRY", fresh)
        after = _bound_counter("sync")
        assert after is not before  # stale binding must not survive
        assert _bound_counter("sync") is after

    def test_charge_increments_through_the_cache(self):
        counter = _bound_counter("sync")
        base = counter.value
        engine_mod._count_worlds("sync", 3)
        assert counter.value == base + 3
