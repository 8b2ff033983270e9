"""Tests for serving metrics and the Prometheus exposition."""

import math

import pytest

from repro.obs.registry import Histogram
from repro.serve.client import parse_prometheus
from repro.serve.metrics import ServingMetrics


def latency_histogram(buckets=(0.001, 0.01, 0.1), max_samples=100_000):
    """The request-latency shape: a histogram keeping a quantile window."""
    return Histogram(
        "lat", "Latency.", buckets=buckets, quantiles=(50, 95, 99),
        max_samples=max_samples,
    )


class TestLatencyHistogram:
    def test_counts_and_mean(self):
        hist = latency_histogram()
        for v in (0.001, 0.002, 0.003):
            hist.observe(v)
        assert hist.count() == 3
        (family, *_quantiles) = hist.collect()
        ((_labels, _counts, total),) = family["samples"]
        assert total == pytest.approx(0.006)
        assert hist.mean() == pytest.approx(0.002)

    def test_empty_percentile_is_nan(self):
        assert math.isnan(latency_histogram().percentile(50))

    def test_percentile_bounds(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            latency_histogram().percentile(101)

    def test_nearest_rank_percentiles(self):
        hist = latency_histogram()
        for v in range(1, 101):  # 1..100
            hist.observe(float(v))
        assert hist.percentile(50) == 50.0
        assert hist.percentile(95) == 95.0
        assert hist.percentile(99) == 99.0
        assert hist.percentile(100) == 100.0

    def test_bucketing(self):
        hist = latency_histogram(buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 50.0):
            hist.observe(v)
        (family, *_quantiles) = hist.collect()
        ((_labels, counts, _total),) = family["samples"]
        assert counts == [2, 1, 1]  # <=1, <=10, overflow

    def test_merge_requires_same_buckets(self):
        with pytest.raises(ValueError, match="different buckets"):
            latency_histogram(buckets=(1.0,)).merge(latency_histogram(buckets=(2.0,)))

    def test_merge_accumulates(self):
        a, b = latency_histogram(), latency_histogram()
        a.observe(0.001)
        b.observe(0.002)
        a.merge(b)
        assert a.count() == 2
        assert a.percentile(100) == 0.002

    def test_reset(self):
        hist = latency_histogram()
        hist.observe(1.0)
        hist.reset()
        assert hist.count() == 0
        assert math.isnan(hist.percentile(50))

    def test_sample_window_caps_memory(self):
        hist = latency_histogram(max_samples=10)
        for v in range(100):
            hist.observe(float(v))
        assert hist.count() == 100        # counters stay exact
        (series,) = hist._values.values()
        assert len(series.window) == 10   # window capped
        assert hist.percentile(100) == 99.0  # recent values retained

    def test_quantile_gauges_render_as_their_own_families(self):
        hist = latency_histogram()
        hist.observe(0.002)
        text = "\n".join(hist.render())
        for q in ("p50", "p95", "p99"):
            assert f"# TYPE lat_{q} gauge" in text
        assert parse_prometheus(text)["lat_p50"] == 0.002


class TestServingMetrics:
    def test_request_accounting(self):
        metrics = ServingMetrics()
        metrics.record_request("/v1/predict", 200, 0.001)
        metrics.record_request("/v1/predict", 200, 0.002)
        metrics.record_request("/healthz", 200, 0.0005)
        metrics.record_request("/v1/predict", 400, 0.0001)
        assert metrics.requests_total[("/v1/predict", 200)] == 2
        assert metrics.request_count == 4
        assert metrics.latency.count() == 4

    def test_error_and_prediction_counters(self):
        metrics = ServingMetrics()
        metrics.record_error("bad_request")
        metrics.record_error("bad_request")
        metrics.record_predictions(5)
        assert metrics.errors_total == {"bad_request": 2}
        assert metrics.predictions_total == 5

    def test_model_cache_hit_rate(self):
        metrics = ServingMetrics()
        assert metrics.model_cache_hit_rate == 0.0
        metrics.record_model_cache(hit=False)
        metrics.record_model_cache(hit=True)
        metrics.record_model_cache(hit=True)
        assert metrics.model_cache_hit_rate == pytest.approx(2 / 3)

    def test_merge(self):
        a, b = ServingMetrics(), ServingMetrics()
        a.record_request("/v1/predict", 200, 0.001)
        b.record_request("/v1/predict", 200, 0.002)
        b.record_error("internal")
        b.record_batch(4)
        a.merge(b)
        assert a.requests_total[("/v1/predict", 200)] == 2
        assert a.errors_total == {"internal": 1}
        assert a.batch_sizes.count() == 1

    def test_reset(self):
        metrics = ServingMetrics()
        metrics.record_request("/v1/predict", 200, 0.001)
        metrics.record_batch(2)
        metrics.reset()
        assert metrics.request_count == 0
        assert metrics.batch_sizes.count() == 0


class TestPrometheusRendering:
    @pytest.fixture
    def rendered(self):
        metrics = ServingMetrics()
        for _ in range(3):
            metrics.record_request("/v1/predict", 200, 0.002)
        metrics.record_request("/v1/predict", 404, 0.0001)
        metrics.record_error("unknown_model")
        metrics.record_predictions(3)
        metrics.record_model_cache(hit=False)
        metrics.record_model_cache(hit=True)
        metrics.record_batch(1)
        metrics.record_batch(3)
        return metrics.registry.render()

    def test_counter_lines(self, rendered):
        assert (
            'repro_serve_requests_total{endpoint="/v1/predict",status="200"} 3'
            in rendered
        )
        assert (
            'repro_serve_requests_total{endpoint="/v1/predict",status="404"} 1'
            in rendered
        )
        assert 'repro_serve_errors_total{reason="unknown_model"} 1' in rendered
        assert "repro_serve_predictions_total 3" in rendered
        assert "repro_serve_model_cache_hits_total 1" in rendered
        assert "repro_serve_model_cache_misses_total 1" in rendered

    def test_help_and_type_comments(self, rendered):
        assert "# TYPE repro_serve_requests_total counter" in rendered
        assert "# TYPE repro_serve_request_latency_seconds histogram" in rendered

    def test_histogram_buckets_cumulative(self, rendered):
        assert 'repro_serve_request_latency_seconds_bucket{le="+Inf"} 4' in rendered
        assert "repro_serve_request_latency_seconds_count 4" in rendered
        # Batch-size histogram: both flushes land at or below the le=4 bound.
        assert 'repro_serve_batch_size_bucket{le="4"} 2' in rendered
        assert "repro_serve_batch_size_count 2" in rendered

    def test_quantile_gauges_present(self, rendered):
        for line in rendered.splitlines():
            if line.startswith("repro_serve_request_latency_seconds_p50"):
                assert float(line.split()[-1]) == pytest.approx(0.002)
                break
        else:
            raise AssertionError("no p50 gauge rendered")
        assert "repro_serve_request_latency_seconds_p95" in rendered
        assert "repro_serve_request_latency_seconds_p99" in rendered

    def test_every_sample_line_parses(self, rendered):
        for line in rendered.splitlines():
            if not line or line.startswith("#"):
                continue
            name_and_labels, _sep, value = line.rpartition(" ")
            assert name_and_labels
            float(value)  # must parse

    def test_summary_mentions_key_figures(self):
        metrics = ServingMetrics()
        metrics.record_request("/v1/predict", 200, 0.001)
        metrics.record_predictions(1)
        metrics.record_batch(1)
        text = metrics.summary()
        assert "1 requests" in text
        assert "1 predictions" in text
        assert "p95" in text
