"""The in-process metrics registry and its text exposition."""

import threading

import pytest

from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestPrimitives:
    def test_counter_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_up_and_down(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc()
        gauge.dec(4)
        assert gauge.value == 7

    def test_histogram_buckets_cumulative(self):
        histogram = Histogram(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(56.05)
        buckets = dict(histogram.cumulative_buckets())
        assert buckets["0.1"] == 1
        assert buckets["1"] == 3
        assert buckets["10"] == 4
        assert buckets["+Inf"] == 5

    def test_histogram_boundary_is_inclusive(self):
        histogram = Histogram(buckets=(1.0,))
        histogram.observe(1.0)
        assert dict(histogram.cumulative_buckets())["1"] == 1


class TestRegistry:
    def test_same_series_is_shared(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_requests_total", labels={"op": "status"})
        b = registry.counter("repro_requests_total", labels={"op": "status"})
        other = registry.counter("repro_requests_total", labels={"op": "issue"})
        assert a is b and a is not other

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x")
        with pytest.raises(ValueError):
            registry.gauge("repro_x")

    def test_render_text_format(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_requests_total", "Requests.", labels={"op": "status"}
        ).inc(3)
        registry.gauge("repro_queue_depth", "Depth.").set(2)
        registry.histogram(
            "repro_solve_seconds", "Solve.", buckets=(0.5, 1.0)
        ).observe(0.7)
        text = registry.render_text()
        assert '# TYPE repro_requests_total counter' in text
        assert 'repro_requests_total{op="status"} 3' in text
        assert "# HELP repro_queue_depth Depth." in text
        assert "repro_queue_depth 2" in text
        assert 'repro_solve_seconds_bucket{le="0.5"} 0' in text
        assert 'repro_solve_seconds_bucket{le="1"} 1' in text
        assert 'repro_solve_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_solve_seconds_count 1" in text
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        # Constraint names are user-supplied and become label values; a
        # backslash, quote or newline must not corrupt the exposition.
        registry = MetricsRegistry()
        registry.counter(
            "repro_checks_total",
            "Checks.",
            labels={"constraint": 'back\\slash "quoted"\nsecond line'},
        ).inc()
        text = registry.render_text()
        expected = (
            'repro_checks_total{constraint='
            '"back\\\\slash \\"quoted\\"\\nsecond line"} 1'
        )
        assert expected in text
        # The raw newline never leaks into the output mid-sample.
        assert '"quoted"\nsecond line' not in text

    def test_numeric_label_values_coerced(self):
        registry = MetricsRegistry()
        registry.gauge("repro_fabric_pending", labels={"shard": 3}).set(7)
        assert 'repro_fabric_pending{shard="3"} 7' in registry.render_text()

    def test_remove_series_drops_one_labelling(self):
        registry = MetricsRegistry()
        registry.histogram(
            "repro_constraint_check_seconds", "t", labels={"constraint": "a"}
        ).observe(0.1)
        registry.histogram(
            "repro_constraint_check_seconds", "t", labels={"constraint": "b"}
        ).observe(0.2)
        assert registry.remove_series(
            "repro_constraint_check_seconds", {"constraint": "a"}
        )
        text = registry.render_text()
        assert 'constraint="a"' not in text
        assert 'constraint="b"' in text
        # Idempotent: a second removal (or an unknown family) is a no-op.
        assert not registry.remove_series(
            "repro_constraint_check_seconds", {"constraint": "a"}
        )
        assert not registry.remove_series("no_such_family", {"x": "y"})
        # The family survives, so re-registering restarts a fresh series.
        registry.histogram(
            "repro_constraint_check_seconds", "t", labels={"constraint": "a"}
        ).observe(0.3)
        assert 'constraint="a"' in registry.render_text()

    def test_concurrent_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_hits_total")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000

    def test_labelled_histogram_rendering(self):
        # Per-constraint latency series: the le bucket label must merge
        # with the series labels inside one brace group, while _sum and
        # _count keep the plain label set.
        registry = MetricsRegistry()
        registry.histogram(
            "repro_constraint_check_seconds",
            "Latency.",
            labels={"constraint": "no-double-spend"},
            buckets=(0.5, 1.0),
        ).observe(0.7)
        registry.histogram(
            "repro_constraint_check_seconds",
            labels={"constraint": "hot-wallet"},
            buckets=(0.5, 1.0),
        ).observe(0.1)
        text = registry.render_text()
        assert (
            'repro_constraint_check_seconds_bucket'
            '{constraint="no-double-spend",le="0.5"} 0' in text
        )
        assert (
            'repro_constraint_check_seconds_bucket'
            '{constraint="no-double-spend",le="1"} 1' in text
        )
        assert (
            'repro_constraint_check_seconds_bucket'
            '{constraint="hot-wallet",le="0.5"} 1' in text
        )
        assert (
            'repro_constraint_check_seconds_sum{constraint="hot-wallet"}'
            in text
        )
        assert (
            'repro_constraint_check_seconds_count'
            '{constraint="no-double-spend"} 1' in text
        )

    def test_labelled_histogram_escaping_in_merged_labels(self):
        registry = MetricsRegistry()
        registry.histogram(
            "repro_constraint_check_seconds",
            labels={"constraint": 'odd "name"\\here'},
            buckets=(1.0,),
        ).observe(0.5)
        text = registry.render_text()
        assert (
            'repro_constraint_check_seconds_bucket'
            '{constraint="odd \\"name\\"\\\\here",le="1"} 1' in text
        )


class TestSnapshots:
    def test_getters_are_locked_and_snapshot_consistent(self):
        histogram = Histogram(buckets=(0.5,))
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                histogram.observe(1.0)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(2000):
                total, count = histogram.snapshot()
                # Every observation adds exactly 1.0, so a consistent
                # pair always satisfies sum == count; a torn read (new
                # sum with old count, or vice versa) breaks it.
                assert total == pytest.approx(float(count))
        finally:
            stop.set()
            thread.join()

    def test_export_is_self_consistent(self):
        histogram = Histogram(buckets=(0.5,))
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                histogram.observe(1.0)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(2000):
                buckets, total, count = histogram.export()
                assert dict(buckets)["+Inf"] == count
                assert total == pytest.approx(float(count))
        finally:
            stop.set()
            thread.join()


class TestExemplars:
    def test_observe_stores_latest_exemplar(self):
        histogram = Histogram(buckets=(1.0,))
        histogram.observe(0.5)
        assert histogram.exemplar() is None
        histogram.observe(0.25, exemplar="trace-one")
        histogram.observe(0.75, exemplar="trace-two")
        trace_id, value, unix_time = histogram.exemplar()
        assert trace_id == "trace-two"
        assert value == 0.75
        assert unix_time > 0

    def test_render_emits_exemplar_comment(self):
        registry = MetricsRegistry()
        registry.histogram(
            "repro_check_seconds", "t", labels={"constraint": "c1"}
        ).observe(0.1, exemplar="abc123")
        text = registry.render_text()
        assert (
            '# EXEMPLAR repro_check_seconds{constraint="c1"} '
            'trace_id="abc123" value=0.1 timestamp='
        ) in text
        # The comment sits after its series' count line.
        lines = text.splitlines()
        count_at = lines.index('repro_check_seconds_count{constraint="c1"} 1')
        assert lines[count_at + 1].startswith("# EXEMPLAR")

    def test_unexemplared_series_render_without_comment(self):
        registry = MetricsRegistry()
        registry.histogram("plain_seconds", "t").observe(0.1)
        assert "# EXEMPLAR" not in registry.render_text()

    def test_exemplar_trace_id_is_escaped(self):
        histogram = Histogram(buckets=(1.0,))
        histogram.observe(0.1, exemplar='tr"ace\nid')
        registry = MetricsRegistry()
        registry._series(
            "histogram", "h", "", None, lambda: histogram
        )
        assert 'trace_id="tr\\"ace\\nid"' in registry.render_text()
