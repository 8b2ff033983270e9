"""Metric families and the merged registry: semantics and rendering."""

import math

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    format_value,
    get_registry,
    merge,
    render,
    set_registry,
)
from repro.serve.client import parse_prometheus


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("jobs_total", "Jobs.")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_cannot_decrease(self):
        counter = Counter("jobs_total", "Jobs.")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_labelled_series_are_independent(self):
        counter = Counter("hits_total", "Hits.", ("kind",))
        counter.inc(kind="a")
        counter.inc(3, kind="b")
        assert counter.value(kind="a") == 1
        assert counter.value(kind="b") == 3

    def test_label_mismatch_raises(self):
        counter = Counter("hits_total", "Hits.", ("kind",))
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc(other="x")
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc()

    def test_render_has_header_and_zero_default(self):
        lines = Counter("jobs_total", "Jobs  seen.").render()
        assert lines[0] == "# HELP jobs_total Jobs seen."  # whitespace folded
        assert lines[1] == "# TYPE jobs_total counter"
        assert lines[2] == "jobs_total 0"  # unlabelled family always samples

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("0bad", "x")
        with pytest.raises(ValueError, match="invalid label name"):
            Counter("ok_total", "x", ("bad-label",))


class TestGauge:
    def test_set_inc_and_value(self):
        gauge = Gauge("depth", "Depth.")
        gauge.set(5)
        gauge.inc(-2)
        assert gauge.value() == 3

    def test_scrape_function(self):
        gauge = Gauge("backlog", "Backlog.", ("queue",))
        state = {"n": 7}
        gauge.set_function(lambda: state["n"], queue="q1")
        assert gauge.value(queue="q1") == 7
        state["n"] = 9
        assert 'backlog{queue="q1"} 9' in gauge.render()

    def test_broken_probe_renders_nan_not_raise(self):
        gauge = Gauge("flaky", "Flaky probe.")

        def probe():
            raise RuntimeError("probe died")

        gauge.set_function(probe)
        (sample,) = [
            line for line in gauge.render() if not line.startswith("#")
        ]
        assert sample == "flaky NaN"


class TestHistogram:
    def test_cumulative_buckets_and_inf(self):
        hist = Histogram("lat", "Latency.", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.7, 5.0, 50.0):
            hist.observe(value)
        lines = hist.render()
        assert 'lat_bucket{le="0.1"} 1' in lines
        assert 'lat_bucket{le="1"} 3' in lines
        assert 'lat_bucket{le="10"} 4' in lines
        assert 'lat_bucket{le="+Inf"} 5' in lines
        assert "lat_count 5" in lines
        assert hist.count() == 5

    def test_bucket_validation(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("h", "x", buckets=())
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("h", "x", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("h", "x", buckets=(2.0, 1.0))

    def test_labelled_series(self):
        hist = Histogram("lat", "Latency.", ("phase",), buckets=(1.0,))
        hist.observe(0.5, phase="queue")
        hist.observe(2.0, phase="queue")
        assert hist.count(phase="queue") == 2
        assert hist.count(phase="predict") == 0
        lines = hist.render()
        assert 'lat_bucket{phase="queue",le="1"} 1' in lines
        assert 'lat_bucket{phase="queue",le="+Inf"} 2' in lines


class TestFormatting:
    def test_escape_label_value(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
        assert escape_label_value("plain") == "plain"

    def test_format_value(self):
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"
        assert format_value(math.nan) == "NaN"
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"


class TestMetricsRegistry:
    def test_families_are_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("jobs_total", "Jobs.")
        again = registry.counter("jobs_total", "Jobs.")
        assert first is again

    def test_type_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "Jobs.")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("jobs_total", "Jobs.")

    def test_render_merges_families_and_sources(self):
        # Pushed families and families read from a record at scrape time
        # render into one exposition.
        registry = MetricsRegistry()
        registry.counter("native_total", "Native.").inc(4)
        record = {"n": 7}
        registry.counter("ext_total", "X.").set_function(lambda: record["n"])
        text = registry.render()
        assert "native_total 4" in text
        assert "ext_total 7" in text
        assert "# TYPE ext_total counter" in text
        assert text.endswith("\n")

    def test_failing_source_counted_not_fatal(self):
        registry = MetricsRegistry()

        def broken() -> float:
            raise RuntimeError("source died")

        registry.counter("sim", "Broken read.").set_function(broken)
        registry.counter("ok_total", "Healthy.").inc()
        text = registry.render()
        assert 'repro_obs_source_errors_total{source="sim"} 1' in text
        assert "ok_total 1" in text

    def test_source_replacement_and_removal(self):
        # Re-installing a series' read replaces it; reset() drops the
        # pushed series and keeps the reads.
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "G.", ("kind",))
        gauge.set_function(lambda: 1, kind="read")
        gauge.set_function(lambda: 2, kind="read")
        gauge.set(5, kind="pushed")
        text = registry.render()
        assert 'g{kind="read"} 2' in text and 'g{kind="read"} 1' not in text
        assert 'g{kind="pushed"} 5' in text
        gauge.reset()
        text = registry.render()
        assert 'g{kind="pushed"}' not in text
        assert 'g{kind="read"} 2' in text

    def test_default_registry_has_builtin_sources(self):
        registry = get_registry()
        assert get_registry() is registry  # cached
        text = registry.render()
        assert "# TYPE repro_engine_solves_total counter" in text
        assert "# TYPE repro_fit_fits_total counter" in text
        assert "repro_engine_solves_total" in text
        assert "repro_fit_fits_total" in text

    def test_set_registry_swaps_default(self):
        original = get_registry()  # materialize before swapping
        replacement = MetricsRegistry()
        assert set_registry(replacement) is original
        try:
            assert get_registry() is replacement
        finally:
            set_registry(original)
        assert get_registry() is original


class TestScrapeReads:
    def test_family_read_covers_label_sets_known_at_scrape_time(self):
        counter = Counter("batches_total", "Batches.", ("service",))
        seen = {"a": 2}
        counter.set_function(lambda: dict(seen))
        seen["b"] = 5
        samples = parse_prometheus("\n".join(counter.render()))
        assert samples == {
            'batches_total{service="a"}': 2.0,
            'batches_total{service="b"}': 5.0,
        }

    def test_histogram_read_bins_observed_value_counts(self):
        hist = Histogram("iters", "Iterations.", buckets=(10, 100))
        hist.set_function(lambda: {5: 3, 50: 1, 500: 2})
        samples = parse_prometheus("\n".join(hist.render()))
        assert samples['iters_bucket{le="10"}'] == 3
        assert samples['iters_bucket{le="100"}'] == 4
        assert samples['iters_bucket{le="+Inf"}'] == 6
        assert samples["iters_sum"] == 5 * 3 + 50 + 500 * 2

    def test_invisible_family_is_left_out(self):
        registry = MetricsRegistry()
        shown = {"on": False}
        registry.counter("maybe_total", "Maybe.", visible=lambda: shown["on"])
        assert "maybe_total" not in registry.render()
        shown["on"] = True
        assert "# TYPE maybe_total counter" in registry.render()


class TestMerge:
    def _worker(self, requests, p50, worker, observations=()):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests.", ("code",)).inc(
            requests, code="200"
        )
        registry.gauge("up", "Up.", ("worker",)).set(1, worker=worker)
        hist = registry.histogram(
            "lat_seconds", "Latency.", buckets=(0.01, 0.1), quantiles=(50,)
        )
        for value in observations:
            hist.observe(value)
        if p50 is not None:
            hist.observe(p50)
        return registry.collect()

    def test_counters_and_buckets_add_workers_stay_distinct(self):
        merged = parse_prometheus(
            render(
                merge(
                    [
                        self._worker(3, 0.005, "0"),
                        self._worker(4, 0.05, "1", observations=(0.5,)),
                    ]
                )
            )
        )
        assert merged['req_total{code="200"}'] == 7
        assert merged['up{worker="0"}'] == 1
        assert merged['up{worker="1"}'] == 1
        assert merged['lat_seconds_bucket{le="0.01"}'] == 1
        assert merged['lat_seconds_bucket{le="0.1"}'] == 2
        assert merged['lat_seconds_bucket{le="+Inf"}'] == 3
        assert merged["lat_seconds_count"] == 3
        assert merged["lat_seconds_sum"] == pytest.approx(0.555)

    def test_quantiles_take_the_worst_worker_skipping_nan(self):
        idle = self._worker(0, None, "0")
        busy = self._worker(1, 0.05, "1")
        calm = self._worker(1, 0.005, "2")
        merged = parse_prometheus(render(merge([idle, busy, calm])))
        assert merged["lat_seconds_p50"] == 0.05
        only_idle = parse_prometheus(render(merge([idle])))
        assert math.isnan(only_idle["lat_seconds_p50"])

    def test_snapshot_survives_json(self):
        import json

        snapshot = json.loads(json.dumps(self._worker(2, 0.005, "0")))
        assert render(merge([snapshot])) == render(self._worker(2, 0.005, "0"))
