"""Unified observability: tracing, one metrics registry, structured logs.

Before this package, the pipeline's three stages each kept a private
observability island — :class:`~repro.sim.solve_cache.EngineStats` in the
simulator, :class:`~repro.core.fitstats.FitStats` in the fitting engine,
and :class:`~repro.serve.metrics.ServingMetrics` behind the server's
``/metrics`` — with no way to see one request's or one run's time
end-to-end.  ``repro.obs`` is the cross-cutting layer they all thread
through:

* :mod:`~repro.obs.trace` — ``Tracer``/``Span`` context managers with
  trace/span IDs, monotonic timing, attributes, a bounded in-process ring
  buffer, and a Chrome trace-event JSON exporter (open the file in
  Perfetto).  The process tracer defaults to a no-op ``NullTracer`` so
  instrumentation costs nearly nothing until enabled;
* :mod:`~repro.obs.registry` — one metrics model: every family is a
  typed instrument (counter, gauge, histogram, with labels) declared
  once on a ``MetricsRegistry``, rendering one Prometheus text
  exposition; the built-in families (:mod:`~repro.obs.adapters`) read
  the pre-existing stats records at scrape time, so a single scrape sees
  simulation, fitting, and serving together;
* :mod:`~repro.obs.log` — structured JSON logging that stamps every
  record with the active trace/span ID;
* :mod:`~repro.obs.summary` — offline rendering of a captured trace
  (top spans by total time, the span tree) for ``repro obs summary``.

Everything is standard library only.  See ``docs/observability.md``.
"""

from .adapters import install_default_metrics
from .log import ObsLogger, configure, get_logger
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    get_registry,
    set_registry,
)
from .summary import SpanNode, load_trace, render_summary, span_forest
from .trace import (
    NullTracer,
    Span,
    Tracer,
    current_span,
    current_trace_id,
    disable,
    enable,
    get_tracer,
    set_tracer,
)
from .otlp import load_otlp, records_to_otlp, write_otlp
from .stream import SpanSender, StreamingTracer


def __getattr__(name: str):
    # The collector runs on the serve package's HTTP base, and importing
    # repro.serve from here would recurse (sim.engine -> obs.trace pulls
    # this package in mid-way through repro's own import) — so the
    # collector classes resolve lazily on first attribute access.
    if name in ("CollectorServer", "CollectorThread"):
        from . import collector

        return getattr(collector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CollectorServer",
    "CollectorThread",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "ObsLogger",
    "Span",
    "SpanNode",
    "SpanSender",
    "StreamingTracer",
    "Tracer",
    "configure",
    "current_span",
    "current_trace_id",
    "disable",
    "enable",
    "escape_label_value",
    "get_logger",
    "get_registry",
    "get_tracer",
    "install_default_metrics",
    "load_otlp",
    "load_trace",
    "records_to_otlp",
    "render_summary",
    "set_registry",
    "set_tracer",
    "span_forest",
    "write_otlp",
]
