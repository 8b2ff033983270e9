"""The built-in families every scrape carries.

The simulator, the fitting engine, the suite runner and the tracer each
keep their own plain record —
:class:`~repro.sim.solve_cache.EngineStats`,
:class:`~repro.core.fitstats.FitStats`,
:class:`~repro.suite.stats.SuiteStats` and the tracer's drop counts.
Their families are declared here once, as instruments whose
``set_function`` reads the record at scrape time, so the records stay
free of any metrics dependency.

By default each family reads the process-wide aggregate
(``GLOBAL_ENGINE_STATS``, ``GLOBAL_FIT_STATS``, ``GLOBAL_SUITE_STATS``),
imported at scrape time so this module never drags the simulator into
processes that only serve models; pass a record to bind the families to
that record instead.
"""

from __future__ import annotations

from typing import Callable

from .registry import MetricsRegistry
from .trace import get_tracer

__all__ = [
    "bind_counters",
    "install_default_metrics",
    "install_engine_metrics",
    "install_fit_metrics",
    "install_obs_metrics",
    "install_suite_metrics",
]

#: Fixed-point iteration bucket bounds for the engine histogram.
ENGINE_ITERATION_BUCKETS = (25, 50, 100, 200, 400, 600)

#: (family, record field, help) of every :class:`EngineStats` counter.
ENGINE_COUNTERS = (
    ("repro_engine_solves_total", "solves", "Fixed-point solves performed."),
    ("repro_engine_cache_hits_total", "cache_hits", "Steady-state cache hits."),
    ("repro_engine_cache_misses_total", "cache_misses",
     "Steady-state cache misses."),
    ("repro_engine_cache_evictions_total", "cache_evictions",
     "Bounded solve-cache LRU evictions."),
    ("repro_engine_convergence_failures_total", "convergence_failures",
     "Solves that failed to converge."),
    ("repro_engine_batches_total", "batches",
     "Batched steady-state solves performed."),
    ("repro_engine_batched_scenarios_total", "batched_scenarios",
     "Scenarios requested across batched solves."),
    ("repro_engine_batch_dedupe_hits_total", "batch_dedupe_hits",
     "Scenarios served by deduplicating a repeated solve key within one "
     "batch."),
    ("repro_engine_frozen_iterations_saved_total", "frozen_iterations_saved",
     "Stacked iterations skipped by freezing converged scenarios."),
)

#: (family, record field, help) of every :class:`FitStats` counter.
FIT_COUNTERS = (
    ("repro_fit_fits_total", "fits", "Completed model fit calls."),
    ("repro_fit_restarts_total", "restarts",
     "SCG weight initializations optimized."),
    ("repro_fit_scg_iterations_total", "scg_iterations",
     "SCG iterations advanced."),
    ("repro_fit_function_evals_total", "function_evals", "Loss evaluations."),
    ("repro_fit_gradient_evals_total", "gradient_evals",
     "Gradient evaluations."),
    ("repro_fit_wall_seconds_total", "wall_time_s",
     "Wall seconds inside fit calls (sums per-process time under parallel "
     "validation)."),
)

#: (family, record field, help) of every :class:`SuiteStats` counter.
SUITE_COUNTERS = (
    ("repro_suite_runs_total", "runs", "Suite runs started."),
    ("repro_suite_nodes_run_total", "nodes_run", "Suite nodes executed."),
    ("repro_suite_nodes_skipped_total", "nodes_skipped",
     "Suite nodes resolved from the store."),
    ("repro_suite_nodes_failed_total", "nodes_failed",
     "Suite nodes that raised."),
    ("repro_suite_nodes_resumed_total", "nodes_resumed",
     "Store hits left by a prior run."),
    ("repro_suite_store_hits_total", "store_hits",
     "Artifact-store node manifest hits."),
    ("repro_suite_store_misses_total", "store_misses",
     "Artifact-store node manifest misses."),
    ("repro_suite_solve_cache_loaded_total", "solve_cache_entries_loaded",
     "Solve-cache entries loaded from the store."),
    ("repro_suite_solve_cache_saved_total", "solve_cache_entries_saved",
     "Solve-cache entries persisted to the store."),
)


def bind_counters(
    registry: MetricsRegistry, read: Callable[[], object], counters
) -> MetricsRegistry:
    """Declare ``(family, field, help)`` counters reading ``read().field``."""
    for name, field, help_text in counters:
        registry.counter(name, help_text).set_function(
            lambda field=field: getattr(read(), field)
        )
    return registry


def _global_engine_stats():
    from ..sim.solve_cache import GLOBAL_ENGINE_STATS

    return GLOBAL_ENGINE_STATS


def _global_fit_stats():
    from ..core.fitstats import GLOBAL_FIT_STATS

    return GLOBAL_FIT_STATS


def _global_suite_stats():
    from ..suite.stats import GLOBAL_SUITE_STATS

    return GLOBAL_SUITE_STATS


def install_engine_metrics(registry: MetricsRegistry, stats=None) -> MetricsRegistry:
    """The ``repro_engine_*`` families, reading ``stats`` (default: global)."""
    read = _global_engine_stats if stats is None else (lambda: stats)
    bind_counters(registry, read, ENGINE_COUNTERS)
    registry.histogram(
        "repro_engine_solve_iterations",
        "Fixed-point iterations per solve.",
        buckets=ENGINE_ITERATION_BUCKETS,
    ).set_function(lambda: read().iteration_counts)
    return registry


def install_fit_metrics(registry: MetricsRegistry, stats=None) -> MetricsRegistry:
    """The ``repro_fit_*`` families, reading ``stats`` (default: global)."""
    read = _global_fit_stats if stats is None else (lambda: stats)
    return bind_counters(registry, read, FIT_COUNTERS)


def install_suite_metrics(registry: MetricsRegistry, stats=None) -> MetricsRegistry:
    """The ``repro_suite_*`` families, reading ``stats`` (default: global)."""
    read = _global_suite_stats if stats is None else (lambda: stats)
    return bind_counters(registry, read, SUITE_COUNTERS)


def install_obs_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """The process tracer's own health: spans dropped, streamed, failed.

    The tracer ring buffer wraps and a streaming tracer's bounded queue
    sheds, both by design (tracing must never block a hot path); these
    families make the loss visible.  The streaming families appear only
    while the process tracer streams to a collector.
    """

    def sender():
        return getattr(get_tracer(), "sender", None)

    def streaming() -> bool:
        return sender() is not None

    dropped = registry.counter(
        "repro_obs_spans_dropped_total",
        "Spans lost by this process, by where they were shed.",
        ("reason",),
    )
    dropped.set_function(
        lambda: int(getattr(get_tracer(), "dropped", 0)), reason="ring_wrap"
    )
    dropped.set_function(
        lambda: int(getattr(sender(), "dropped", 0)), reason="stream_shed"
    )
    registry.counter(
        "repro_obs_spans_streamed_total",
        "Spans shipped to the trace collector.",
        visible=streaming,
    ).set_function(lambda: sender().sent)
    registry.counter(
        "repro_obs_span_send_errors_total",
        "Failed span batch POSTs (each costs one batch).",
        visible=streaming,
    ).set_function(lambda: sender().send_errors)
    return registry


def install_default_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Declare the engine, fit, tracer and suite families on ``registry``."""
    install_engine_metrics(registry)
    install_fit_metrics(registry)
    install_obs_metrics(registry)
    install_suite_metrics(registry)
    return registry
