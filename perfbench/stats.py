"""Pure accounting helpers: percentiles, open-loop timing, self time, scrapes.

Everything here works on plain numbers and strings so the rules the
benchmark reports by are unit-tested on their own (``perfbench/tests``).
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass

#: Percentile levels the tail may be reported at, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def tail(values: list[float]) -> tuple[float | None, float]:
    """``(level, value)`` of the highest supported tail percentile.

    A level is supported when at least ten samples lie beyond its
    nearest-rank position, the ``ceil(level / 100 * n)``-th smallest.
    With too few samples for any level, the level is ``None`` and the
    value is the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("no samples")
    for level in TAIL_LEVELS:
        rank = max(1, math.ceil(level / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return level, ordered[rank - 1]
    return None, ordered[-1]


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def mean_per_key(samples: list[dict[str, float]]) -> dict[str, float]:
    """Mean of each key over a list of equally keyed dicts."""
    return {key: statistics.fmean(s[key] for s in samples) for key in samples[0]}


@dataclass
class Request:
    """One open-loop request, all times on one monotonic clock (seconds).

    ``due`` is when the schedule said to send it, ``free`` when its
    connection became free (the previous response on it arrived),
    ``sent`` when the generator actually sent it and ``done`` when the
    response (or error) arrived.  ``ok`` is false for a failed request or
    a wrong answer.
    """

    due: float
    free: float
    sent: float
    done: float
    ok: bool

    @property
    def latency_s(self) -> float:
        """Latency from the due time, so a stall also delays later requests."""
        return self.done - self.due

    @property
    def late_s(self) -> float:
        """How late the generator itself sent: the wait not caused by the tier."""
        return max(0.0, self.sent - max(self.due, self.free))


def latencies_ms(requests: list[Request]) -> list[float]:
    """Due-time latencies of the successful requests."""
    return [1e3 * r.latency_s for r in requests if r.ok]


def within_share(requests: list[Request], limit_ms: float) -> float:
    """Share of requests answered correctly within ``limit_ms`` of due.

    A failed request counts as missing the limit.
    """
    if not requests:
        return 0.0
    hits = sum(1 for r in requests if r.ok and 1e3 * r.latency_s <= limit_ms)
    return hits / len(requests)


def achieved_rps(requests: list[Request]) -> float:
    """Successful responses per second, from the first due time to the last answer."""
    if not requests:
        return 0.0
    span = max(r.done for r in requests) - min(r.due for r in requests)
    ok = sum(1 for r in requests if r.ok)
    return ok / span if span > 0 else 0.0


@dataclass(frozen=True)
class SpanRecord:
    name: str
    span_id: str
    parent_id: str | None
    start: float
    end: float


def self_times(spans: list[SpanRecord]) -> dict[str, float]:
    """Seconds of self time per span name.

    A span's self time is its duration minus the part of its interval
    covered by its children; overlapping children (threads) count once.
    """
    children: dict[str, list[SpanRecord]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    totals: dict[str, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        own = max(0.0, span.end - span.start - covered)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)")
_LABEL = re.compile(r'\s*([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"\s*,?')


def parse_metrics(text: str) -> dict[tuple[str, tuple], float]:
    """Prometheus text exposition -> ``{(name, sorted label pairs): value}``."""
    samples: dict[tuple[str, tuple], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, _braces, body, raw = match.groups()
        labels = tuple(sorted(_LABEL.findall(body or "")))
        try:
            samples[(name, labels)] = float(raw)
        except ValueError:
            continue
    return samples


class Scrape:
    """Counter deltas between two parsed ``/metrics`` scrapes."""

    def __init__(self, before: dict, after: dict) -> None:
        self.before = before
        self.after = after

    def delta(self, name: str, **labels: str) -> float:
        """Increase of every sample of ``name`` whose labels include ``labels``."""
        want = set(labels.items())
        total = 0.0
        for (sample, sample_labels), value in self.after.items():
            if sample == name and want <= set(sample_labels):
                total += value - self.before.get((sample, sample_labels), 0.0)
        return total

    def mean(self, family: str, **labels: str) -> float:
        """Mean of a histogram family over the interval (0.0 when empty)."""
        count = self.delta(family + "_count", **labels)
        return self.delta(family + "_sum", **labels) / count if count else 0.0


PHASES = ("queue", "batch_wait", "predict", "serialize")


def serve_layer(scrape: Scrape) -> dict[str, float]:
    """Per-layer numbers of one prediction server (or tier) from its scrapes."""
    out = {
        f"serve.phase.{phase}_ms": 1e3
        * scrape.mean("repro_serve_phase_latency_seconds", phase=phase)
        for phase in PHASES
    }
    out["serve.batch.mean_rows"] = scrape.mean("repro_serve_batch_size")
    out["serve.shed"] = scrape.delta("repro_serve_shed_total")
    out["serve.errors"] = scrape.delta("repro_serve_errors_total") + scrape.delta(
        "repro_router_errors_total"
    )
    return out


def router_hop_ms(scrape: Scrape) -> float:
    """Mean router request latency minus mean worker request latency."""
    return 1e3 * (
        scrape.mean("repro_router_request_latency_seconds")
        - scrape.mean("repro_serve_request_latency_seconds")
    )


def engine_layer(scrape: Scrape) -> dict[str, float]:
    """``sim.*`` counters of a process that exports ``repro_engine_*``."""
    solves = scrape.delta("repro_engine_solves_total")
    hits = scrape.delta("repro_engine_cache_hits_total")
    return {
        "sim.solves": solves,
        "sim.batches": scrape.delta("repro_engine_batches_total"),
        "sim.iterations_mean": scrape.mean("repro_engine_solve_iterations"),
        "sim.frozen_iterations_saved": scrape.delta(
            "repro_engine_frozen_iterations_saved_total"
        ),
        "sim.convergence_failures": scrape.delta(
            "repro_engine_convergence_failures_total"
        ),
        "sim.cache_hit_ratio": hits / (hits + solves) if hits + solves else 0.0,
    }


def sched_layer(scrape: Scrape) -> dict[str, float]:
    """``sched.*`` counters of a scheduler service."""
    batches = scrape.delta("repro_sched_predict_batches_total")
    rows = scrape.delta("repro_sched_predict_rows_total")
    return {
        "sched.rounds": scrape.delta("repro_sched_decision_latency_seconds_count"),
        "sched.round_ms": 1e3 * scrape.mean("repro_sched_decision_latency_seconds"),
        "sched.predict_batches": batches,
        "sched.rows_per_batch": rows / batches if batches else 0.0,
    }
