"""Regression tests for the client's label-aware Prometheus parser.

The historical parser split each sample on the last space and kept the
raw label block as part of the key, so label values containing commas,
``=``, or escaped quotes were mis-keyed (or collided).  These tests pin
the label-aware replacement: values round-trip through exposition
escaping, and keys are canonical (labels sorted, values re-escaped) no
matter how the server ordered them.
"""

import pytest

from repro.serve.client import parse_prometheus


class TestPlainSamples:
    def test_unlabelled_sample(self):
        assert parse_prometheus("up 1\n") == {"up": 1.0}

    def test_comments_and_blanks_skipped(self):
        text = "# HELP up Up.\n# TYPE up gauge\n\nup 1\n"
        assert parse_prometheus(text) == {"up": 1.0}

    def test_timestamped_sample_uses_value(self):
        # Exposition lines may carry a trailing timestamp field.
        assert parse_prometheus("up 0.5 1395066363000") == {"up": 0.5}

    def test_special_values(self):
        samples = parse_prometheus("a NaN\nb +Inf\nc -Inf\n")
        assert samples["a"] != samples["a"]  # NaN
        assert samples["b"] == float("inf")
        assert samples["c"] == float("-inf")

    def test_malformed_lines_skipped(self):
        text = "ok 1\nnot-a-number x\n{orphan=\"v\"} 2\nbroken{open=\"v\" 3\n"
        assert parse_prometheus(text) == {"ok": 1.0}


class TestLabelledSamples:
    def test_simple_labels(self):
        samples = parse_prometheus('requests{endpoint="/v1/predict",status="200"} 7')
        assert samples == {'requests{endpoint="/v1/predict",status="200"}': 7.0}

    def test_label_value_with_commas(self):
        samples = parse_prometheus('m{apps="cg,lu,mg"} 3')
        assert samples == {'m{apps="cg,lu,mg"}': 3.0}

    def test_label_value_with_equals(self):
        samples = parse_prometheus('m{expr="a=b=c"} 1')
        assert samples == {'m{expr="a=b=c"}': 1.0}

    def test_label_value_with_escaped_quotes(self):
        samples = parse_prometheus('m{q="say \\"hi\\""} 2')
        assert samples == {'m{q="say \\"hi\\""}': 2.0}

    def test_label_value_with_escaped_backslash_and_newline(self):
        samples = parse_prometheus('m{path="C:\\\\tmp",text="a\\nb"} 4')
        assert samples == {'m{path="C:\\\\tmp",text="a\\nb"}': 4.0}

    def test_label_value_containing_closing_brace(self):
        samples = parse_prometheus('m{v="x} y"} 5')
        assert samples == {'m{v="x} y"}': 5.0}

    def test_keys_are_canonical_sorted(self):
        # However the server orders labels, lookups use one canonical key.
        out_of_order = parse_prometheus('m{zeta="1",alpha="2"} 9')
        in_order = parse_prometheus('m{alpha="2",zeta="1"} 9')
        assert out_of_order == in_order == {'m{alpha="2",zeta="1"}': 9.0}

    def test_histogram_le_labels(self):
        text = (
            'lat_bucket{phase="queue",le="0.001"} 3\n'
            'lat_bucket{phase="queue",le="+Inf"} 5\n'
            'lat_count{phase="queue"} 5\n'
        )
        samples = parse_prometheus(text)
        assert samples['lat_bucket{le="0.001",phase="queue"}'] == 3.0
        assert samples['lat_bucket{le="+Inf",phase="queue"}'] == 5.0
        assert samples['lat_count{phase="queue"}'] == 5.0

    def test_spaces_around_label_parts(self):
        samples = parse_prometheus('m{ a = "1" , b = "2" } 6')
        assert samples == {'m{a="1",b="2"}': 6.0}


class TestAgainstRealExposition:
    def test_round_trip_with_serving_metrics(self):
        from repro.serve.metrics import ServingMetrics

        metrics = ServingMetrics()
        metrics.record_request("/v1/predict", 200, 0.004)
        metrics.record_phase("batch_wait", 0.001)
        samples = parse_prometheus(metrics.registry.render())
        assert (
            samples['repro_serve_requests_total{endpoint="/v1/predict",status="200"}']
            == 1.0
        )
        assert (
            samples['repro_serve_phase_latency_seconds_count{phase="batch_wait"}']
            == 1.0
        )
