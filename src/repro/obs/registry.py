"""One metrics model for the whole stack.

Every ``repro_*`` family is declared once, on the
:class:`MetricsRegistry` of the process or service that exports it, as a
typed instrument — :class:`Counter`, :class:`Gauge` or
:class:`Histogram` — with its name, help text and label names.  An
instrument either takes pushed values (``inc``/``set``/``observe`` from
the request or scheduler path) or reads a record at scrape time through
``set_function`` (the engine, fitting and suite aggregates, a batcher's
backlog, the tracer's drop counts).

A scrape is two steps.  :meth:`MetricsRegistry.collect` turns every
instrument into *family snapshots* — plain JSON-ready dicts — and
:func:`render` turns snapshots into the Prometheus text exposition
(version 0.0.4).  This module is the only place that formats exposition
text: one value formatter (:func:`format_value`), one label renderer,
one histogram shape.  The serving tier's router asks each worker for its
snapshots instead of its text, folds them with :func:`merge` and renders
once.

A read that raises never kills the scrape: a counter or gauge series
renders ``NaN``, a histogram series is left out, and the family is
counted in ``repro_obs_source_errors_total{source="<family>"}``.

The module-level :func:`get_registry` returns the process-default
registry with the built-in families installed (see
:mod:`repro.obs.adapters`); each service builds its own registry the same
way so its scrape stays self-contained.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from collections import deque
from typing import Callable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_label_value",
    "format_value",
    "get_registry",
    "merge",
    "render",
    "set_registry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket bounds (seconds, 100 µs to 2.5 s).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Size of the sample window a quantile-reporting histogram keeps.
DEFAULT_MAX_SAMPLES = 100_000


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_value(value: float) -> str:
    """Exposition-friendly number formatting (NaN/Inf spelled out)."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _render_labels(names, values, le: str | None = None) -> str:
    parts = [
        f'{name}="{escape_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    if le is not None:
        parts.append(f'le="{le}"')
    return "{" + ",".join(parts) + "}" if parts else ""


def render(families: list[dict]) -> str:
    """Family snapshots as one Prometheus text exposition.

    Histogram snapshots carry per-bucket (not cumulative) counts with the
    ``+Inf`` overflow last; they render as cumulative ``le`` buckets, a
    ``+Inf`` bucket equal to ``_count``, and ``_sum``/``_count`` series.
    """
    lines: list[str] = []
    for family in families:
        name, labelnames = family["name"], family["labels"]
        lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        if family["type"] != "histogram":
            for values, value in family["samples"]:
                labels = _render_labels(labelnames, values)
                lines.append(f"{name}{labels} {format_value(value)}")
            continue
        bounds = [format_value(b) for b in family["buckets"]] + ["+Inf"]
        for values, counts, total in family["samples"]:
            cumulative = 0
            for le, n in zip(bounds, counts):
                cumulative += n
                labels = _render_labels(labelnames, values, le)
                lines.append(f"{name}_bucket{labels} {format_value(cumulative)}")
            labels = _render_labels(labelnames, values)
            lines.append(f"{name}_sum{labels} {format_value(total)}")
            lines.append(f"{name}_count{labels} {format_value(cumulative)}")
    return "\n".join(lines) + "\n"


def _worst(a: float, b: float) -> float:
    """The larger of two quantile readings, skipping NaN (no samples)."""
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    return max(a, b)


def merge(snapshots: list[list[dict]]) -> list[dict]:
    """Fold several registries' family snapshots into one.

    The router answers ``GET /metrics`` for the whole tier this way.
    Identical series (same family, same label values) combine: counters,
    histogram buckets/sums and plain gauges add; quantile gauges take
    the worst reading, skipping ``NaN`` from registries that saw no
    samples.  Series with distinct labels — ``worker="0"`` and
    ``worker="1"`` — stay distinct.  Help text, type and family order
    follow the first snapshot that carried each family.
    """
    merged: dict[str, dict] = {}
    for families in snapshots:
        for family in families:
            mine = merged.get(family["name"])
            if mine is None:
                mine = merged[family["name"]] = {**family, "samples": []}
            index = {tuple(sample[0]): sample for sample in mine["samples"]}
            for values, *data in family["samples"]:
                have = index.get(tuple(values))
                if have is None:
                    mine["samples"].append([list(values), *data])
                elif mine["type"] == "histogram":
                    counts, total = data
                    if family["buckets"] == mine["buckets"]:
                        have[1] = [a + b for a, b in zip(have[1], counts)]
                        have[2] += total
                elif mine.get("merge") == "max":
                    have[1] = _worst(have[1], data[0])
                else:
                    have[1] += data[0]
    return list(merged.values())


class _Metric:
    """Shared plumbing: name/help validation, label keys, scrape reads."""

    type_name = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: tuple[str, ...] = (),
        *,
        visible: Callable[[], bool] | None = None,
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on {name}")
        self.name = name
        self.help_text = " ".join(str(help_text).split()) or name
        self.labelnames = tuple(labelnames)
        #: Optional scrape-time predicate: while it returns False the
        #: family is left out of the exposition altogether.
        self.visible = visible
        self._values: dict[tuple, object] = {}
        self._functions: dict[tuple | None, Callable] = {}
        self._lock = threading.Lock()

    def _key(self, labels: dict) -> tuple:
        names = self.labelnames
        if len(labels) == len(names):
            if not names:
                return ()
            try:
                return tuple([str(labels[name]) for name in names])
            except KeyError:
                pass
        raise ValueError(
            f"{self.name} expects labels {list(names)}, got {sorted(labels)}"
        )

    def set_function(self, fn: Callable, **labels) -> None:
        """Read a series from ``fn`` at every scrape instead of pushing it.

        Given the family's labels (or none, on an unlabelled family),
        ``fn`` returns that one series' value.  With no labels on a
        labelled family, ``fn`` returns every series at once, as a
        mapping of label values (a tuple, or a plain value for one label)
        to series values — for label sets only known at scrape time.
        """
        key = self._key(labels) if labels or not self.labelnames else None
        with self._lock:
            self._functions[key] = fn

    def _read(self, fn: Callable, failed: list[str]):
        try:
            return fn()
        except Exception:  # noqa: BLE001 - a broken read must not kill /metrics
            failed.append(self.name)
            return None

    def _family(self, samples: list, **extra) -> dict:
        return {
            "name": self.name,
            "type": self.type_name,
            "help": self.help_text,
            "labels": list(self.labelnames),
            "samples": samples,
            **extra,
        }

    def reset(self) -> None:
        """Drop every pushed series (scrape-time reads stay installed)."""
        with self._lock:
            self._values = {}

    def collect(self, failed: list[str] | None = None) -> list[dict]:
        """This instrument's family snapshots; failed reads go to ``failed``."""
        failed = [] if failed is None else failed
        if self.visible is not None and not self._read(self.visible, failed):
            return []
        return self._collect(failed)

    def _collect(self, failed: list[str]) -> list[dict]:
        raise NotImplementedError

    def render(self) -> list[str]:
        """This family alone, as exposition lines."""
        return render(self.collect()).splitlines()


class _Scalar(_Metric):
    """A counter or gauge: one number per label set."""

    def value(self, **labels) -> float:
        """Current value of the labelled series (0.0 if never set)."""
        key = self._key(labels)
        fn = self._functions.get(key)
        if fn is not None:
            return float(fn())
        return float(self._values.get(key, 0.0))

    def samples(self, failed: list[str] | None = None) -> dict[tuple, float]:
        """Every series, pushed and read: ``{label values: value}``."""
        failed = [] if failed is None else failed
        with self._lock:
            samples = dict(self._values)
            functions = list(self._functions.items())
        for key, fn in functions:
            got = self._read(fn, failed)
            if key is not None:
                samples[key] = math.nan if got is None else float(got)
                continue
            for values, value in (got or {}).items():
                if not isinstance(values, tuple):
                    values = (values,)
                samples[tuple(str(v) for v in values)] = float(value)
        if not samples and not self.labelnames:
            samples[()] = 0.0
        return samples

    def merge(self, other: "_Scalar") -> None:
        """Add another instrument's pushed series into this one."""
        with other._lock:
            theirs = dict(other._values)
        with self._lock:
            for key, value in theirs.items():
                self._values[key] = self._values.get(key, 0.0) + value

    def _collect(self, failed: list[str]) -> list[dict]:
        samples = self.samples(failed)
        return [self._family([[list(k), v] for k, v in sorted(samples.items())])]


class Counter(_Scalar):
    """Monotonically increasing counter with optional labels."""

    type_name = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Scalar):
    """Point-in-time value; pushed with ``set``/``inc`` or read at scrape."""

    type_name = "gauge"

    def set(self, value: float, **labels) -> None:
        """Set the labelled series to ``value``."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Adjust the labelled series by ``amount`` (may be negative)."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class _Series:
    """One histogram series: bucket counts, sum, recent-sample window."""

    __slots__ = ("counts", "total", "window")

    def __init__(self, n_buckets: int, max_samples: int) -> None:
        self.counts = [0] * (n_buckets + 1)
        self.total = 0.0
        self.window: deque[float] = deque(maxlen=max_samples)


class Histogram(_Metric):
    """Bucketed histogram with labels and optional quantile gauges.

    Counts and sums are exact over the full stream.  With ``quantiles``
    (percent ranks such as ``(50, 95, 99)``) each series also keeps the
    most recent ``max_samples`` observations, and every quantile renders
    as its own ``<name>_p<q>`` gauge family (nearest rank over that
    window, ``NaN`` before the first observation).

    A scrape-time read (``set_function`` with the series' labels) returns
    a mapping of observed value to how many times it was seen.
    """

    type_name = "histogram"

    def __init__(
        self,
        name,
        help_text,
        labelnames=(),
        *,
        buckets=DEFAULT_BUCKETS,
        quantiles: tuple[int, ...] = (),
        quantile_help: str | None = None,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        visible=None,
    ):
        super().__init__(name, help_text, labelnames, visible=visible)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram {name} buckets must strictly increase")
        self.buckets = bounds
        self.quantiles = tuple(quantiles)
        self.quantile_help = quantile_help or (
            f"Percentile of {name} (over the retained sample window)."
        )
        self.max_samples = max_samples

    def _new_series(self) -> _Series:
        window = self.max_samples if self.quantiles else 0
        return _Series(len(self.buckets), window)

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the labelled series."""
        value = float(value)
        key = self._key(labels)
        with self._lock:
            series = self._values.get(key)
            if series is None:
                series = self._values[key] = self._new_series()
            series.counts[bisect_left(self.buckets, value)] += 1
            series.total += value
            series.window.append(value)

    def _series(self, labels: dict) -> _Series:
        return self._values.get(self._key(labels)) or self._new_series()

    def count(self, **labels) -> int:
        """Total observations in the labelled series."""
        return sum(self._series(labels).counts)

    def mean(self, **labels) -> float:
        """Mean of the labelled series (0.0 when empty)."""
        series = self._series(labels)
        n = sum(series.counts)
        return series.total / n if n else 0.0

    def percentile(self, p: float, **labels) -> float:
        """Nearest-rank percentile over the retained window.

        ``p`` in [0, 100]; ``nan`` when nothing was observed.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        return self._nearest_rank(sorted(self._series(labels).window), p)

    @staticmethod
    def _nearest_rank(ordered: list[float], p: float) -> float:
        if not ordered:
            return math.nan
        return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram (with identical buckets) into this one."""
        if other.buckets != self.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        with other._lock:
            theirs = list(other._values.items())
        with self._lock:
            for key, series in theirs:
                mine = self._values.get(key)
                if mine is None:
                    mine = self._values[key] = self._new_series()
                mine.counts = [a + b for a, b in zip(mine.counts, series.counts)]
                mine.total += series.total
                mine.window.extend(series.window)

    def _collect(self, failed: list[str]) -> list[dict]:
        with self._lock:
            series = {
                key: (list(s.counts), s.total, list(s.window))
                for key, s in self._values.items()
            }
            functions = list(self._functions.items())
        for key, fn in functions:
            observed = self._read(fn, failed)
            if observed is None:
                continue
            counts, total = [0] * (len(self.buckets) + 1), 0.0
            for value, n in observed.items():
                counts[bisect_left(self.buckets, float(value))] += n
                total += float(value) * n
            series[key] = (counts, total, [])
        if not series and not self.labelnames:
            series[()] = ([0] * (len(self.buckets) + 1), 0.0, [])
        ordered = sorted(series.items())
        if self.quantiles:
            for _key, (_counts, _total, window) in ordered:
                window.sort()
        families = [
            self._family(
                [[list(k), counts, total] for k, (counts, total, _w) in ordered],
                buckets=list(self.buckets),
            )
        ]
        for q in self.quantiles:
            families.append(
                {
                    "name": f"{self.name}_p{q}",
                    "type": "gauge",
                    "help": self.quantile_help,
                    "labels": list(self.labelnames),
                    "merge": "max",
                    "samples": [
                        [list(k), self._nearest_rank(window, q)]
                        for k, (_c, _t, window) in ordered
                    ],
                }
            )
        return families


class MetricsRegistry:
    """The typed instruments one process or service exports.

    Families are created idempotently — asking for an existing name with
    the same type returns the existing family, so instrumentation can
    ``registry.counter(...)`` freely; a type clash raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _family(self, cls, name, help_text, labelnames, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.type_name}, not {cls.type_name}"
                    )
                return existing
            metric = cls(name, help_text, tuple(labelnames), **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str, labelnames=(), **kwargs) -> Counter:
        """Get or create a counter family."""
        return self._family(Counter, name, help_text, labelnames, **kwargs)

    def gauge(self, name: str, help_text: str, labelnames=(), **kwargs) -> Gauge:
        """Get or create a gauge family."""
        return self._family(Gauge, name, help_text, labelnames, **kwargs)

    def histogram(
        self, name: str, help_text: str, labelnames=(), **kwargs
    ) -> Histogram:
        """Get or create a histogram family (see :class:`Histogram`)."""
        return self._family(Histogram, name, help_text, labelnames, **kwargs)

    def collect(self) -> list[dict]:
        """Every family's snapshot, by name, plus this scrape's read errors."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        families: list[dict] = []
        failed: list[str] = []
        for _name, metric in metrics:
            families.extend(metric.collect(failed))
        if failed:
            families.append(
                {
                    "name": "repro_obs_source_errors_total",
                    "type": "counter",
                    "help": "Families whose scrape-time read failed this scrape.",
                    "labels": ["source"],
                    "samples": [[[name], 1] for name in dict.fromkeys(failed)],
                }
            )
        return families

    def render(self) -> str:
        """The full Prometheus text exposition."""
        return render(self.collect())


_REGISTRY: MetricsRegistry | None = None
_REGISTRY_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-default registry, with the built-in families installed."""
    global _REGISTRY
    with _REGISTRY_LOCK:
        if _REGISTRY is None:
            from .adapters import install_default_metrics

            _REGISTRY = install_default_metrics(MetricsRegistry())
        return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry | None:
    """Replace the process-default registry; returns the previous one."""
    global _REGISTRY
    with _REGISTRY_LOCK:
        previous = _REGISTRY
        _REGISTRY = registry
        return previous
