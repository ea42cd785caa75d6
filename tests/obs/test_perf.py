"""The perf telemetry plane: the pool's group-imbalance measure, its
round-robin group planning and build-info stamping."""

from __future__ import annotations

import pytest

from repro.obs.perf import build_info, git_rev
from repro.service.pool import group_imbalance, stripe_groups


class TestGroupImbalance:
    def test_balanced_is_zero(self):
        assert group_imbalance([1.0, 1.0, 1.0]) == 0.0
        assert group_imbalance([]) == 0.0
        assert group_imbalance([0.0, 0.0]) == 0.0

    def test_skew_measured_against_the_mean(self):
        # loads 3,1,1,1 -> mean 1.5, max 3 -> (3-1.5)/1.5 = 1.0
        assert group_imbalance([3.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0)


class TestPlanGroups:
    """Group planning is pure — no executor is ever built here.  With no
    cost model to consult, the pool always stripes round-robin."""

    def test_cold_model_round_robins(self):
        assert stripe_groups(list(range(8)), 4) == [(0, 4), (1, 5), (2, 6), (3, 7)]
        assert stripe_groups(list(range(6)), 4) == [(0, 4), (1, 5), (2,), (3,)]
        assert stripe_groups([0, 1], 4) == [(0,), (1,)]
        assert stripe_groups([], 4) == []

    def test_groups_hold_ascending_indices(self):
        units = [(index, ("t",)) for index in (0, 2, 3, 5, 8, 9, 11)]
        groups = stripe_groups(units, 3)
        assert [group[0][0] for group in groups] == [0, 2, 3]
        for group in groups:
            indices = [index for index, _ in group]
            assert indices == sorted(indices)
        assert sorted(unit for group in groups for unit in group) == units


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
