"""Exposition-format conformance for the whole merged scrape.

These tests hold the merged registry output — native families plus the
built-in engine/fit families and the serving instruments — to the
Prometheus text format 0.0.4
contract: every sample belongs to a family with ``# HELP`` and ``# TYPE``
lines, histogram buckets are cumulative and monotone with ``+Inf`` equal
to ``_count``, and label escaping round-trips through the client's
label-aware parser.
"""

import math

import pytest

from repro.core.fitstats import GLOBAL_FIT_STATS
from repro.obs.adapters import install_default_metrics
from repro.obs.registry import escape_label_value
from repro.serve.client import _parse_sample, parse_prometheus
from repro.serve.metrics import REQUEST_PHASES, ServingMetrics
from repro.sim.solve_cache import GLOBAL_ENGINE_STATS

NASTY = 'sp{ec"ial, v=1\\end\nline'


@pytest.fixture(scope="module")
def scrape() -> str:
    """One merged scrape with every family populated."""
    # The globals are process-wide and monotone; bumping them here only
    # adds to whatever earlier tests recorded.
    GLOBAL_ENGINE_STATS.record_solve(iterations=42)
    GLOBAL_ENGINE_STATS.record_hit()
    GLOBAL_FIT_STATS.record_fit(restarts=3, scg_iterations=120, wall_time_s=0.5)

    serving = ServingMetrics()
    serving.record_request("/v1/predict", 200, 0.004)
    serving.record_request("/v1/predict", 400, 0.001)
    serving.record_error("bad_request")
    serving.record_predictions(3)
    serving.record_batch(3)
    serving.record_model_cache(True)
    for phase in REQUEST_PHASES:
        serving.record_phase(phase, 0.002)

    registry = install_default_metrics(serving.registry)
    registry.counter("repro_test_jobs_total", "Native counter.").inc(2)
    gauge = registry.gauge("repro_test_info", "Nasty labels.", ("detail",))
    gauge.set(1.5, detail=NASTY)
    hist = registry.histogram(
        "repro_test_seconds", "Native histogram.", ("kind",), buckets=(0.01, 0.1)
    )
    hist.observe(0.005, kind="a")
    hist.observe(0.05, kind="a")
    hist.observe(5.0, kind="a")
    return registry.render()


def _comment_indexes(text: str) -> tuple[dict[str, str], dict[str, str]]:
    helps: dict[str, str] = {}
    types: dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name, _, rest = line[len("# HELP "):].partition(" ")
            helps[name] = rest
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            types[name] = kind.strip()
    return helps, types


def _family_of(name: str, types: dict[str, str]) -> str | None:
    """The family a sample name belongs to, honouring histogram suffixes."""
    if name in types:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        base = name[: -len(suffix)] if name.endswith(suffix) else None
        if base and types.get(base) == "histogram":
            return base
    return None


def _samples(text: str):
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        parsed = _parse_sample(line)
        assert parsed is not None, f"unparseable sample line: {line!r}"
        yield parsed


def test_scrape_ends_with_newline(scrape):
    assert scrape.endswith("\n")


def test_every_sample_has_help_and_type(scrape):
    helps, types = _comment_indexes(scrape)
    assert set(helps) == set(types), "HELP/TYPE lines must pair up"
    for name, _labels, _value in _samples(scrape):
        family = _family_of(name, types)
        assert family is not None, f"sample {name} has no # TYPE"
        assert family in helps, f"sample {name} has no # HELP"


def test_all_three_sources_present(scrape):
    for name in (
        "repro_engine_solves_total",      # simulation
        "repro_fit_fits_total",           # fitting
        "repro_serve_requests_total",     # serving
    ):
        assert name in parse_prometheus(scrape) or any(
            sample_name == name for sample_name, _l, _v in _samples(scrape)
        ), f"{name} missing from merged scrape"


def test_histograms_cumulative_with_inf_equal_to_count(scrape):
    _helps, types = _comment_indexes(scrape)
    buckets: dict[tuple, list[tuple[float, float]]] = {}
    counts: dict[tuple, float] = {}
    for name, labels, value in _samples(scrape):
        family = _family_of(name, types)
        if types.get(family) != "histogram":
            continue
        series = tuple(sorted(
            (k, v) for k, v in labels.items() if k != "le"
        ))
        if name.endswith("_bucket"):
            le = labels["le"]
            bound = math.inf if le == "+Inf" else float(le)
            buckets.setdefault((family, series), []).append((bound, value))
        elif name.endswith("_count"):
            counts[(family, series)] = value

    assert buckets, "scrape contains no histograms"
    for key, series_buckets in buckets.items():
        ordered = sorted(series_buckets)
        bounds = [b for b, _v in ordered]
        values = [v for _b, v in ordered]
        assert bounds[-1] == math.inf, f"{key} lacks a +Inf bucket"
        assert values == sorted(values), f"{key} buckets are not cumulative"
        assert key in counts, f"{key} lacks a _count sample"
        assert values[-1] == counts[key], f"{key} +Inf bucket != _count"


def test_label_escaping_round_trips_through_client_parser(scrape):
    escaped = escape_label_value(NASTY)
    assert "\\n" in escaped and '\\"' in escaped and "\\\\" in escaped
    key = 'repro_test_info{detail="' + escaped + '"}'
    samples = parse_prometheus(scrape)
    assert samples[key] == 1.5
    # And the parser recovered the original (unescaped) value.
    (parsed,) = [
        labels for name, labels, _v in _samples(scrape)
        if name == "repro_test_info"
    ]
    assert parsed["detail"] == NASTY


def test_serving_quantile_gauges_have_headers(scrape):
    _helps, types = _comment_indexes(scrape)
    for family in (
        "repro_serve_request_latency_seconds",
        "repro_serve_phase_latency_seconds",
    ):
        for quantile in ("p50", "p95", "p99"):
            assert types.get(f"{family}_{quantile}") == "gauge"


def test_phase_family_covers_every_phase(scrape):
    samples = parse_prometheus(scrape)
    for phase in REQUEST_PHASES:
        key = f'repro_serve_phase_latency_seconds_count{{phase="{phase}"}}'
        assert samples[key] == 1.0
