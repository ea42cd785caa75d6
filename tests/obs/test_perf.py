"""The perf telemetry plane: cost-model learning and prediction, the
solver pool's cost-aware group planning, and build-info stamping."""

from __future__ import annotations

import pytest

from repro.core.checker import DCSatChecker
from repro.obs.perf import (
    CostModel,
    bucket_label,
    build_info,
    default_cost_model,
    git_rev,
    size_bucket,
)
from repro.service.metrics import MetricsRegistry
from repro.service.pool import SolverPool, group_imbalance

from tests.service.conftest import component_db


class TestBuckets:
    def test_power_of_two_buckets(self):
        assert size_bucket(0) == 0
        assert size_bucket(1) == 1
        assert size_bucket(2) == 2
        assert size_bucket(3) == 2
        assert size_bucket(8) == 4
        assert size_bucket(12) == 4
        assert size_bucket(15) == 4
        assert size_bucket(16) == 5

    def test_labels(self):
        assert bucket_label(0) == "0"
        assert bucket_label(1) == "1"
        assert bucket_label(2) == "2-3"
        assert bucket_label(4) == "8-15"


class TestCostModel:
    def model(self, **kwargs) -> CostModel:
        kwargs.setdefault("export_metrics", False)
        return CostModel(**kwargs)

    def test_cold_model_predicts_nothing(self):
        model = self.model()
        assert model.predict(10) is None
        assert not model.warm
        assert model.observations == 0

    def test_first_observation_seeds_the_estimate(self):
        model = self.model()
        model.observe(0.5, 12)
        assert model.predict(12) == 0.5
        assert model.observations == 1

    def test_ewma_moves_toward_new_samples(self):
        model = self.model(alpha=0.5)
        model.observe(1.0, 12)
        model.observe(3.0, 12)
        assert model.predict(12) == pytest.approx(2.0)

    def test_warm_after_threshold(self):
        model = self.model(warm_after=3)
        for _ in range(2):
            model.observe(0.1, 4)
        assert not model.warm
        model.observe(0.1, 4)
        assert model.warm

    def test_prediction_scales_from_the_nearest_bucket(self):
        model = self.model()
        model.observe(1.0, 8)
        # No 64-bucket estimate: fall back to the 8-15 bucket, scaled
        # linearly by the size ratio.
        assert model.predict(64) == pytest.approx(8.0)
        # And downward, toward tiny components.
        assert model.predict(2) == pytest.approx(0.25)

    def test_snapshot_shape(self):
        model = self.model(warm_after=1)
        model.observe(0.25, 12, cliques=7)
        snap = model.snapshot()
        assert snap["observations"] == 1
        assert snap["warm"] is True
        assert snap["warm_after"] == 1
        row = snap["estimates"][0]
        assert row["size_bucket"] == "8-15"
        assert "mode" not in row
        assert "engine" not in row and "planner" not in row
        assert row["ewma_seconds"] == 0.25
        assert row["ewma_cliques"] == 7.0
        assert row["samples"] == 1

    def test_reset_drops_history(self):
        model = self.model(warm_after=1)
        model.observe(0.25, 12)
        model.reset()
        assert model.observations == 0
        assert model.predict(12) is None

    def test_observations_export_to_the_default_registry(self):
        from repro.service import metrics as metrics_module

        registry = MetricsRegistry()
        original = metrics_module._DEFAULT_REGISTRY
        metrics_module._DEFAULT_REGISTRY = registry
        try:
            model = CostModel(export_metrics=True)
            model.observe(0.5, 12)
        finally:
            metrics_module._DEFAULT_REGISTRY = original
        text = registry.render_text()
        assert (
            'repro_cost_model_estimate_seconds{bucket="8-15"} 0.5'
            in text
        )
        assert "repro_cost_model_observations_total 1" in text

    def test_default_cost_model_is_process_wide(self):
        assert default_cost_model() is default_cost_model()


class TestGroupImbalance:
    def test_balanced_is_zero(self):
        assert group_imbalance([1.0, 1.0, 1.0]) == 0.0
        assert group_imbalance([]) == 0.0
        assert group_imbalance([0.0, 0.0]) == 0.0

    def test_skew_measured_against_the_mean(self):
        # loads 3,1,1,1 -> mean 1.5, max 3 -> (3-1.5)/1.5 = 1.0
        assert group_imbalance([3.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0)


class TestPlanGroups:
    """Group planning is pure — no executor is ever built here."""

    @pytest.fixture()
    def pool(self):
        checker = DCSatChecker(component_db(components=1, keys=1))
        model = CostModel(export_metrics=False, warm_after=1)
        pool = SolverPool(checker, max_workers=4, cost_model=model)
        yield pool
        pool.shutdown()
        checker.close()

    @staticmethod
    def survivors(sizes):
        return [{f"t{i}-{j}" for j in range(size)} for i, size in enumerate(sizes)]

    def test_cold_model_round_robins(self, pool):
        pool.cost_model.reset()
        groups, strategy, loads = pool.plan_groups(self.survivors([2] * 8))
        assert strategy == "round-robin"
        assert groups == [[0, 4], [1, 5], [2, 6], [3, 7]]
        assert loads == [0.0] * 4

    def test_warm_model_packs_the_giant_alone(self, pool):
        # Teach the model that cost is roughly linear in size.
        for size in (2, 16, 64):
            pool.cost_model.observe(size / 10.0, size)
        # One giant (64) and six tiny (2) components: round-robin would
        # stripe two tinies alongside the giant; cost packing isolates it.
        groups, strategy, loads = pool.plan_groups(self.survivors([64] + [2] * 6))
        assert strategy == "cost"
        giant_group = next(group for group in groups if 0 in group)
        assert giant_group == [0]
        assert sorted(index for group in groups for index in group) == list(
            range(7)
        )
        assert group_imbalance(loads) < group_imbalance(
            [64 / 10.0 + 2 * 2 / 10.0, 2 * 2 / 10.0, 2 * 2 / 10.0, 0.0]
        )

    def test_groups_hold_ascending_indices(self, pool):
        for size in (2, 8, 32):
            pool.cost_model.observe(size / 10.0, size)
        groups, _, _ = pool.plan_groups(self.survivors([32, 2, 8, 2, 32, 8]))
        for group in groups:
            assert group == sorted(group)

    def test_forced_strategy_overrides_the_model(self, pool):
        pool.cost_model.observe(1.0, 4)
        groups, strategy, _ = pool.plan_groups(
            self.survivors([4] * 6), strategy="round-robin"
        )
        assert strategy == "round-robin"
        assert groups == [[0, 4], [1, 5], [2], [3]]

    def test_more_workers_than_components(self, pool):
        groups, _, _ = pool.plan_groups(self.survivors([2, 2]))
        assert groups == [[0], [1]]


class TestBuildInfo:
    def test_git_rev_in_this_checkout(self):
        rev = git_rev()
        assert rev != "unknown"
        assert len(rev) >= 7

    def test_git_rev_outside_a_checkout(self, tmp_path):
        assert git_rev(cwd=str(tmp_path)) == "unknown"

    def test_build_info_shape_and_caching(self):
        info = build_info()
        assert set(info) == {"git_rev", "version", "python"}
        assert info["version"]
        # Returns a copy: mutating one call must not leak into the next.
        info["git_rev"] = "mutated"
        assert build_info()["git_rev"] != "mutated"
