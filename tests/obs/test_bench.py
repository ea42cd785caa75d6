"""Bench trend reports and the regression gate: row alignment, deltas,
noise floor, metadata drift, rendering, and CLI exit codes."""

from __future__ import annotations

import json

import pytest

from repro.obs import bench


def artifact(rows, rev="base", **meta):
    payload = {
        "schema": 2,
        "rev": rev,
        "created": "2026-01-01T00:00:00Z",
        "python": "3.12.0",
        "platform": "linux-test",
        "cpu_count": 8,
        "benchmarks": rows,
    }
    payload.update(meta)
    return payload


def row(name, seconds, gate=False, **dims):
    entry = {"name": name, "seconds": seconds, **dims}
    if gate:
        entry["gate"] = True
    return entry


class TestRowIdentity:
    def test_key_uses_name_and_dimensions(self):
        a = row("engines.sweep", 1.0, engine="sync", backend="memory")
        b = row("engines.sweep", 2.0, engine="batched", backend="memory")
        assert bench.row_key(a) != bench.row_key(b)
        assert bench.row_key(a) == bench.row_key(dict(a, seconds=9.0))

    def test_describe_key_names_the_dims(self):
        key = bench.row_key(row("x", 1.0, engine="sync", planner="set"))
        assert bench.describe_key(key) == "x[engine=sync,planner=set]"
        assert bench.describe_key(bench.row_key(row("bare", 1.0))) == "bare"


class TestSampleQuantiles:
    def test_interpolated(self):
        q = bench.sample_quantiles([1.0, 2.0, 3.0, 4.0])
        assert q["p50"] == 2.5
        assert q["p95"] == pytest.approx(3.85)

    def test_empty_and_invalid(self):
        assert bench.sample_quantiles([]) == {}
        with pytest.raises(ValueError):
            bench.sample_quantiles([1.0], qs=(1.5,))


class TestDiff:
    def test_parity_is_ok(self):
        base = artifact([row("a", 1.0, gate=True), row("b", 0.5)])
        diff = bench.diff_artifacts(base, artifact([row("a", 1.0), row("b", 0.5)]))
        assert diff.ok
        assert all(r.status == "ok" for r in diff.rows)

    def test_gated_regression_fails_and_is_named(self):
        base = artifact([row("hot", 1.0, gate=True), row("cold", 1.0)])
        cur = artifact([row("hot", 1.3), row("cold", 1.3)], rev="cur")
        diff = bench.diff_artifacts(base, cur, gate_pct=25.0)
        assert not diff.ok
        assert [r.label for r in diff.failures] == ["hot"]
        hot = next(r for r in diff.rows if r.label == "hot")
        assert hot.status == "regression"
        assert hot.delta_pct == pytest.approx(30.0)
        # The un-gated row regressed identically but is informational.
        cold = next(r for r in diff.rows if r.label == "cold")
        assert cold.status == "regression" and not cold.gated

    def test_within_threshold_passes(self):
        base = artifact([row("hot", 1.0, gate=True)])
        diff = bench.diff_artifacts(
            base, artifact([row("hot", 1.2)]), gate_pct=25.0
        )
        assert diff.ok

    def test_improvement_is_not_a_failure(self):
        base = artifact([row("hot", 1.0, gate=True)])
        diff = bench.diff_artifacts(
            base, artifact([row("hot", 0.5)]), gate_pct=25.0
        )
        assert diff.ok
        assert diff.rows[0].status == "improved"

    def test_noise_floor_suppresses_tiny_rows(self):
        # 1ms -> 2ms is +100% but both sides sit under the 5ms floor.
        base = artifact([row("tiny", 0.001, gate=True)])
        diff = bench.diff_artifacts(base, artifact([row("tiny", 0.002)]))
        assert diff.ok
        assert diff.rows[0].noisy
        assert diff.rows[0].status == "ok"

    def test_missing_gated_row_fails(self):
        base = artifact([row("hot", 1.0, gate=True)])
        diff = bench.diff_artifacts(base, artifact([]))
        assert not diff.ok
        assert diff.rows[0].status == "missing"

    def test_new_and_untimed_rows_are_informational(self):
        base = artifact([{"name": "counted", "worlds": 12}])
        cur = artifact([{"name": "counted", "worlds": 99}, row("fresh", 1.0)])
        diff = bench.diff_artifacts(base, cur)
        statuses = {r.label: r.status for r in diff.rows}
        assert statuses == {"counted": "untimed", "fresh": "new"}
        assert diff.ok

    def test_metadata_drift_warns(self):
        base = artifact([row("a", 1.0)])
        cur = artifact([row("a", 1.0)], python="3.13.1", cpu_count=2)
        diff = bench.diff_artifacts(base, cur)
        assert any("python differs" in w for w in diff.warnings)
        assert any("cpu_count differs" in w for w in diff.warnings)
        assert diff.ok  # drift warns, it does not fail the gate

    def test_env_threshold_override(self, monkeypatch):
        monkeypatch.setenv(bench.GATE_PCT_ENV, "50")
        base = artifact([row("hot", 1.0, gate=True)])
        diff = bench.diff_artifacts(base, artifact([row("hot", 1.4)]))
        assert diff.gate_pct == 50.0
        assert diff.ok
        monkeypatch.setenv(bench.GATE_PCT_ENV, "not-a-number")
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            bench.diff_artifacts(base, artifact([row("hot", 1.4)]))


class TestRendering:
    def test_diff_markdown_has_rows_and_verdict(self):
        base = artifact([row("hot", 1.0, gate=True, engine="sync")])
        cur = artifact([row("hot", 2.0, engine="sync")], rev="cur")
        text = bench.render_diff(bench.diff_artifacts(base, cur))
        assert "FAIL" in text
        assert "hot[engine=sync]" in text
        assert "+100.0%" in text
        assert "Gated regressions:" in text

    def test_report_markdown_derives_quantiles(self):
        art = artifact(
            [dict(row("r", 0.2), samples=[0.1, 0.2, 0.3], gate=True)]
        )
        text = bench.render_report(art)
        assert "| r |" in text
        assert "200.00ms" in text  # p50 of the samples
        assert "✓" in text


class TestCli:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_diff_gate_exit_codes(self, tmp_path, capsys):
        base = self.write(
            tmp_path, "base.json", artifact([row("hot", 1.0, gate=True)])
        )
        same = self.write(tmp_path, "same.json", artifact([row("hot", 1.0)]))
        slow = self.write(tmp_path, "slow.json", artifact([row("hot", 2.0)]))
        assert bench.main(["diff", base, same, "--gate"]) == 0
        assert bench.main(["diff", base, slow, "--gate"]) == 1
        assert "bench gate FAILED: hot" in capsys.readouterr().err
        # Without --gate the regression is reported but not fatal.
        assert bench.main(["diff", base, slow]) == 0

    def test_diff_writes_markdown_out(self, tmp_path, capsys):
        base = self.write(tmp_path, "b.json", artifact([row("a", 1.0)]))
        out = tmp_path / "trend.md"
        assert bench.main(["diff", base, base, "--out", str(out)]) == 0
        assert "Bench diff" in out.read_text()
        capsys.readouterr()

    def test_report_json_mode(self, tmp_path, capsys):
        art = self.write(
            tmp_path, "r.json",
            artifact([dict(row("a", 0.2), samples=[0.1, 0.2, 0.3])]),
        )
        assert bench.main(["report", art, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmarks"][0]["p50"] == 0.2

    def test_malformed_artifact_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        good = self.write(tmp_path, "g.json", artifact([]))
        assert bench.main(["diff", str(bad), good]) == 2
        assert bench.main(["diff", str(tmp_path / "absent.json"), good]) == 2
        not_artifact = self.write(tmp_path, "n.json", {"rows": []})
        assert bench.main(["report", not_artifact]) == 2
        capsys.readouterr()

    def test_repro_cli_bench_subcommand(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        base = self.write(
            tmp_path, "base.json", artifact([row("hot", 1.0, gate=True)])
        )
        slow = self.write(tmp_path, "slow.json", artifact([row("hot", 1.5)]))
        assert repro_main(["bench", "diff", base, slow, "--gate"]) == 1
        assert repro_main(["bench", "report", base]) == 0
        capsys.readouterr()
