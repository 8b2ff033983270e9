"""Rules the benchmark reports by.  Run with ``python -m pytest perfbench/tests``."""

import pytest

from perfbench import stats


class TestTail:
    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))
        assert stats.tail(values) == (99.0, 990)

    def test_falls_back_to_the_highest_supported_level(self):
        # 999 samples leave only 9 beyond the p99 rank.
        assert stats.tail(list(range(1, 1000))) == (95.0, 950)

    def test_order_of_samples_does_not_matter(self):
        values = list(range(1, 1001))
        assert stats.tail(values[::-1]) == stats.tail(values)

    def test_median_is_the_lowest_level(self):
        assert stats.tail(list(range(1, 21))) == (50.0, 10)

    def test_too_few_samples_report_the_maximum(self):
        assert stats.tail([3.0, 1.0, 2.0]) == (None, 3.0)
        assert stats.tail(list(range(1, 20))) == (None, 19)

    def test_no_samples(self):
        with pytest.raises(ValueError):
            stats.tail([])


class TestOpenLoopAccounting:
    def test_latency_counts_from_the_due_time(self):
        # Due at 0 but the connection was busy until 0.5: the stall is
        # the tier's, and it is in the latency, not in generator lateness.
        stalled = stats.Request(due=0.0, free=0.5, sent=0.5, done=0.6, ok=True)
        assert stalled.latency_s == pytest.approx(0.6)
        assert stalled.late_s == 0.0

    def test_generator_lateness_is_the_wait_after_due_and_free(self):
        late = stats.Request(due=1.0, free=0.9, sent=1.2, done=1.25, ok=True)
        assert late.late_s == pytest.approx(0.2)
        busy = stats.Request(due=1.0, free=1.1, sent=1.15, done=1.2, ok=True)
        assert busy.late_s == pytest.approx(0.05)

    def test_failed_requests_miss_the_limit(self):
        requests = [
            stats.Request(0.0, 0.0, 0.0, 0.005, True),
            stats.Request(0.0, 0.0, 0.0, 0.030, True),
            stats.Request(0.0, 0.0, 0.0, 0.001, False),
            stats.Request(0.0, 0.0, 0.0, 0.002, True),
        ]
        assert stats.within_share(requests, 20.0) == 0.5
        assert stats.latencies_ms(requests) == pytest.approx([5.0, 30.0, 2.0])

    def test_achieved_rate_counts_successes_over_the_schedule(self):
        requests = [
            stats.Request(i / 100, i / 100, i / 100, i / 100 + 0.01, i != 3)
            for i in range(100)
        ]
        # 99 successes from the first due time (0) to the last answer (1.0).
        assert stats.achieved_rps(requests) == pytest.approx(99.0)


class TestSelfTime:
    def test_children_are_subtracted_once_and_clipped(self):
        spans = [
            stats.SpanRecord("pass", "p", None, 0.0, 10.0),
            stats.SpanRecord("a", "a", "p", 1.0, 3.0),
            stats.SpanRecord("b", "b", "p", 2.0, 5.0),  # overlaps a
            stats.SpanRecord("c", "c", "p", 8.0, 12.0),  # ends after pass
        ]
        self_s = stats.self_times(spans)
        assert self_s["pass"] == pytest.approx(10.0 - 4.0 - 2.0)
        assert self_s["a"] == pytest.approx(2.0)
        assert self_s["c"] == pytest.approx(4.0)

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [
            stats.SpanRecord("pass", "p", None, 0.0, 10.0),
            stats.SpanRecord("call", "c", "p", 0.0, 6.0),
            stats.SpanRecord("inner", "i", "c", 1.0, 5.0),
        ]
        self_s = stats.self_times(spans)
        assert self_s == pytest.approx({"pass": 4.0, "call": 2.0, "inner": 4.0})

    def test_same_name_spans_add_up(self):
        spans = [
            stats.SpanRecord("scrape", "1", None, 0.0, 0.5),
            stats.SpanRecord("scrape", "2", None, 1.0, 1.25),
        ]
        assert stats.self_times(spans) == pytest.approx({"scrape": 0.75})


TIER_BEFORE = """
# HELP repro_router_request_latency_seconds Request latency.
# TYPE repro_router_request_latency_seconds histogram
repro_router_request_latency_seconds_sum 1.0
repro_router_request_latency_seconds_count 100
repro_serve_request_latency_seconds_sum 0.5
repro_serve_request_latency_seconds_count 100
repro_serve_phase_latency_seconds_sum{phase="queue"} 0.1
repro_serve_phase_latency_seconds_count{phase="queue"} 100
repro_serve_phase_latency_seconds_sum{phase="batch_wait"} 0.2
repro_serve_phase_latency_seconds_count{phase="batch_wait"} 100
repro_serve_batch_size_sum 100
repro_serve_batch_size_count 100
repro_serve_shed_total 0
repro_engine_solves_total 10
repro_engine_cache_hits_total 0
"""

TIER_AFTER = """
repro_router_request_latency_seconds_sum 3.0
repro_router_request_latency_seconds_count 300
repro_serve_request_latency_seconds_sum 1.5
repro_serve_request_latency_seconds_count 300
repro_serve_phase_latency_seconds_sum{phase="queue"} 0.3
repro_serve_phase_latency_seconds_count{phase="queue"} 300
repro_serve_phase_latency_seconds_sum{phase="batch_wait"} 0.6
repro_serve_phase_latency_seconds_count{phase="batch_wait"} 300
repro_serve_phase_latency_seconds_bucket{le="0.001",phase="batch_wait"} 7
repro_serve_batch_size_sum 150
repro_serve_batch_size_count 125
repro_serve_shed_total 4
repro_serve_errors_total{reason="bad_request"} 2
repro_serve_errors_total{reason="timeout"} 1
repro_router_errors_total{reason="worker_unreachable"} 1
repro_engine_solves_total 30
repro_engine_cache_hits_total 20
repro_engine_solve_iterations_sum 400
repro_engine_solve_iterations_count 20
"""


class TestMetricsParsing:
    def test_labels_with_commas_and_escaped_quotes(self):
        text = 'm{model="a,b",why="say \\"hi\\""} 2\nm 1\n# comment\nbad line'
        parsed = stats.parse_metrics(text)
        assert parsed[("m", (("model", "a,b"), ("why", 'say \\"hi\\"')))] == 2.0
        assert parsed[("m", ())] == 1.0
        assert len(parsed) == 2

    def test_delta_sums_matching_label_sets(self):
        scrape = stats.Scrape(
            stats.parse_metrics(TIER_BEFORE), stats.parse_metrics(TIER_AFTER)
        )
        assert scrape.delta("repro_serve_errors_total") == 3.0
        assert scrape.delta("repro_serve_errors_total", reason="timeout") == 1.0
        assert scrape.delta("repro_absent_total") == 0.0

    def test_serve_layers(self):
        scrape = stats.Scrape(
            stats.parse_metrics(TIER_BEFORE), stats.parse_metrics(TIER_AFTER)
        )
        layer = stats.serve_layer(scrape)
        assert layer["serve.phase.queue_ms"] == pytest.approx(1.0)
        assert layer["serve.phase.batch_wait_ms"] == pytest.approx(2.0)
        assert layer["serve.phase.predict_ms"] == 0.0
        assert layer["serve.batch.mean_rows"] == pytest.approx(2.0)
        assert layer["serve.shed"] == 4.0
        assert layer["serve.errors"] == 4.0
        # Router mean 10 ms, worker mean 5 ms over the interval.
        assert stats.router_hop_ms(scrape) == pytest.approx(5.0)

    def test_engine_layer(self):
        scrape = stats.Scrape(
            stats.parse_metrics(TIER_BEFORE), stats.parse_metrics(TIER_AFTER)
        )
        layer = stats.engine_layer(scrape)
        assert layer["sim.solves"] == 20.0
        assert layer["sim.cache_hit_ratio"] == pytest.approx(0.5)
        assert layer["sim.iterations_mean"] == pytest.approx(20.0)

    def test_sched_layer(self):
        before = stats.parse_metrics(
            "repro_sched_decision_latency_seconds_sum 0\n"
            "repro_sched_decision_latency_seconds_count 0\n"
        )
        after = stats.parse_metrics(
            "repro_sched_decision_latency_seconds_sum 0.5\n"
            "repro_sched_decision_latency_seconds_count 50\n"
            "repro_sched_predict_batches_total 40\n"
            "repro_sched_predict_rows_total 2400\n"
        )
        layer = stats.sched_layer(stats.Scrape(before, after))
        assert layer == pytest.approx(
            {
                "sched.rounds": 50.0,
                "sched.round_ms": 10.0,
                "sched.predict_batches": 40.0,
                "sched.rows_per_batch": 60.0,
            }
        )
