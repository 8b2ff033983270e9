"""Request-path observability for the prediction service.

:class:`ServingMetrics` declares a server's request-path families —
per-endpoint/status request counters, error counters, batch-size and
latency histograms with p50/p95/p99 gauges, and the model-cache
counters — as typed instruments on the server's
:class:`~repro.obs.registry.MetricsRegistry`, and keeps the
:class:`~repro.sim.solve_cache.EngineStats`-style surface on top:
``record_*`` methods, ``merge``/``reset``, read-only counts and a
human-readable ``summary()``.  ``GET /metrics`` renders the registry.
"""

from __future__ import annotations

from ..obs.registry import MetricsRegistry

__all__ = ["ServingMetrics"]

#: Request phases recorded by the server, in pipeline order.
REQUEST_PHASES = ("queue", "batch_wait", "predict", "serialize")

#: Bucket upper bounds (requests) for the batch-size histogram.
BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

#: Percentile gauges every request-path histogram exports.
QUANTILES = (50, 95, 99)


class ServingMetrics:
    """All request-path counters and histograms for one server.

    Mutated only from the server's event loop; ``GET /metrics`` renders
    ``registry``, the server's own registry the instruments live on.

    ``prefix`` names the exported families: the prediction server keeps
    the default ``repro_serve``, the registry artifact server uses
    ``repro_registry``, the router ``repro_router`` — same schema,
    distinct namespaces, so one scraper configuration covers them all.
    """

    def __init__(self, *, prefix: str = "repro_serve") -> None:
        self.prefix = p = prefix
        self.registry = r = MetricsRegistry()
        self.requests = r.counter(
            f"{p}_requests_total", "HTTP requests handled.", ("endpoint", "status")
        )
        self.errors = r.counter(
            f"{p}_errors_total", "Failed requests by reason.", ("reason",)
        )
        self.predictions = r.counter(
            f"{p}_predictions_total", "Prediction values returned."
        )
        self.cache_hits = r.counter(
            f"{p}_model_cache_hits_total", "Resident-model cache hits."
        )
        self.cache_misses = r.counter(
            f"{p}_model_cache_misses_total", "Resident-model cache misses."
        )
        #: End-to-end request handling latency, seconds.
        self.latency = r.histogram(
            f"{p}_request_latency_seconds",
            "End-to-end request handling latency.",
            quantiles=QUANTILES,
        )
        #: Rows per flushed micro-batch.
        self.batch_sizes = r.histogram(
            f"{p}_batch_size",
            "Rows per flushed micro-batch.",
            buckets=BATCH_BUCKETS,
            quantiles=QUANTILES,
        )
        #: Time spent per request phase, seconds, labelled ``phase`` (see
        #: :data:`REQUEST_PHASES` for the pipeline order).
        self.phase_latency = r.histogram(
            f"{p}_phase_latency_seconds",
            "Time each request spent per pipeline phase "
            "(queue, batch_wait, predict, serialize).",
            ("phase",),
            quantiles=QUANTILES,
            quantile_help="Phase latency percentile (over the retained "
            "sample window).",
        )
        self._instruments = (
            self.requests,
            self.errors,
            self.predictions,
            self.cache_hits,
            self.cache_misses,
            self.latency,
            self.batch_sizes,
            self.phase_latency,
        )

    # ------------------------------------------------------------ record
    def record_request(self, endpoint: str, status: int, seconds: float) -> None:
        """Count one handled HTTP request and its wall latency."""
        self.requests.inc(endpoint=endpoint, status=status)
        self.latency.observe(seconds)

    def record_error(self, reason: str) -> None:
        """Count one failed request by reason."""
        self.errors.inc(reason=reason)

    def record_predictions(self, n: int) -> None:
        """Count ``n`` prediction values returned to clients."""
        self.predictions.inc(int(n))

    def record_batch(self, size: int) -> None:
        """Count one flushed micro-batch of ``size`` rows."""
        self.batch_sizes.observe(size)

    def record_phase(self, phase: str, seconds: float) -> None:
        """Record time one request spent in one pipeline phase."""
        self.phase_latency.observe(seconds, phase=phase)

    def record_model_cache(self, hit: bool) -> None:
        """Count one resident-model cache lookup."""
        (self.cache_hits if hit else self.cache_misses).inc()

    # ------------------------------------------------------- derived
    @property
    def requests_total(self) -> dict[tuple[str, int], int]:
        """(endpoint, status code) -> served request count."""
        return {
            (endpoint, int(status)): int(n)
            for (endpoint, status), n in self.requests.samples().items()
        }

    @property
    def errors_total(self) -> dict[str, int]:
        """Error reason -> count (bad_request, unknown_model, ...)."""
        return {reason: int(n) for (reason,), n in self.errors.samples().items()}

    @property
    def predictions_total(self) -> int:
        """Predictions returned (a batch body counts each instance)."""
        return int(self.predictions.value())

    @property
    def model_cache_hits(self) -> int:
        return int(self.cache_hits.value())

    @property
    def model_cache_misses(self) -> int:
        return int(self.cache_misses.value())

    @property
    def request_count(self) -> int:
        """Total HTTP requests across endpoints and statuses."""
        return sum(self.requests_total.values())

    @property
    def model_cache_hit_rate(self) -> float:
        """Fraction of model lookups served from memory (0.0 when idle)."""
        total = self.model_cache_hits + self.model_cache_misses
        return self.model_cache_hits / total if total else 0.0

    def merge(self, other: "ServingMetrics") -> None:
        """Fold another record (e.g. a drained worker's) into this one."""
        for mine, theirs in zip(self._instruments, other._instruments):
            mine.merge(theirs)

    def reset(self) -> None:
        """Zero every counter and histogram."""
        for instrument in self._instruments:
            instrument.reset()

    def summary(self) -> str:
        """Human-readable one-stop summary (EngineStats style)."""
        errors = sum(self.errors_total.values())
        lines = [
            f"serving stats: {self.request_count} requests, "
            f"{self.predictions_total} predictions, {errors} errors, "
            f"{100.0 * self.model_cache_hit_rate:.1f}% model cache hit rate"
        ]
        if self.latency.count():
            lines.append(
                "request latency: "
                f"p50 {1e3 * self.latency.percentile(50):.3f} ms | "
                f"p95 {1e3 * self.latency.percentile(95):.3f} ms | "
                f"p99 {1e3 * self.latency.percentile(99):.3f} ms"
            )
        if self.batch_sizes.count():
            lines.append(
                f"micro-batches: {self.batch_sizes.count()} flushed, "
                f"mean size {self.batch_sizes.mean():.2f}, "
                f"max bucket p99 {self.batch_sizes.percentile(99):.0f}"
            )
        return "\n".join(lines)
