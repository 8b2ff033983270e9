"""The ``predict-serving`` workload: open-loop single-row predicts through a tier.

``repro serve --workers 2`` runs a router in front of two spawned
prediction workers.  The generator sends single-row neural/F predicts on
a fixed schedule (open loop) over two keep-alive connections, first at
the light rate and then at the heavy one, and times every request from
the moment it was due.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import NamedTuple

import numpy as np

from repro.core.feature_sets import FeatureSet
from repro.core.features import feature_matrix
from repro.core.methodology import ModelKind, PerformancePredictor
from repro.harness.collection import collect_training_data
from repro.machine import PROCESSOR_CATALOG
from repro.registry.local import LocalBackend
from repro.sim import SimulationEngine

from . import procs, stats
from .bench import NPROC, Context, overhead_pct, report_setup, rng_seeds

MODEL = "colo"
MODEL_SEED = 2015
#: (phase, requests per second, share of the measuring time).
PHASES = (("light", 50.0, 0.6), ("heavy", 200.0, 0.4))
#: Latency limit of the heavy phase's within-limit share.
LIMIT_MS = 20.0
SETUPS = 3
WARMUP_REQUESTS = 40


class Inputs:
    """The served model and the request rows.

    The model is the same in every run (neural/F fitted on a pinned
    E5649 dataset and split), so runs differ only in their requests: the
    workload seed orders the held-out rows the requests carry.
    """

    def __init__(self, ctx: Context, key: str = "e5649") -> None:
        engine = SimulationEngine(PROCESSOR_CATALOG[key])
        observations = list(
            collect_training_data(engine, rng=np.random.default_rng(MODEL_SEED))
        )
        X, y = feature_matrix(observations, FeatureSet.F.features)
        order = np.random.default_rng(MODEL_SEED).permutation(len(observations))
        n_test = int(round(0.3 * len(observations)))
        train, test = order[n_test:], order[:n_test]
        predictor = PerformancePredictor(ModelKind.NEURAL, FeatureSet.F, seed=MODEL_SEED)
        predictor.fit([observations[i] for i in train])
        self.registry = ctx.workdir / "registry"
        backend = LocalBackend(self.registry)
        backend.push(MODEL, predictor)
        # The served artifact is the pushed file: predict with what was loaded.
        served, _manifest = backend.get(MODEL)
        (request_seed,) = rng_seeds(ctx.seed, "requests", 1)
        rows = test[np.random.default_rng(request_seed).permutation(len(test))]
        names = [f.value for f in FeatureSet.F.features]
        self.bodies = [
            json.dumps({"model": MODEL, "features": dict(zip(names, map(float, X[i])))}).encode()
            for i in rows
        ]
        self.expected = [float(v) for v in served.predict_rows(X[rows])]
        self.actual = [float(y[i]) for i in rows]


class Outcome(NamedTuple):
    """What one request returned, for the output check and the error metric."""

    row: int
    prediction: float | None


def _connect(port: int) -> http.client.HTTPConnection:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def _predict(conn: http.client.HTTPConnection, body: bytes) -> float | None:
    conn.request("POST", "/v1/predict", body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    raw = response.read()
    if response.status != 200:
        return None
    return float(json.loads(raw)["prediction"])


def open_loop(port: int, inputs: Inputs, rate: float, duration_s: float, first_row: int):
    """Send ``rate × duration_s`` requests on schedule over ``NPROC`` connections.

    Request ``i`` is due at ``start + i / rate`` and goes out on
    connection ``i mod NPROC`` as soon as it is due and that connection
    is free.  Returns ``[(Request, Outcome)]`` in due order.
    """
    n = max(1, int(round(rate * duration_s)))
    results: list = [None] * n
    start = time.perf_counter() + 0.02

    def connection(lane: int) -> None:
        conn = None
        free = start
        for i in range(lane, n, NPROC):
            due = start + i / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            row = (first_row + i) % len(inputs.bodies)
            sent = time.perf_counter()
            try:
                conn = conn or _connect(port)
                prediction = _predict(conn, inputs.bodies[row])
            except (OSError, http.client.HTTPException, ValueError, KeyError):
                prediction = None
                if conn is not None:
                    conn.close()
                    conn = None
            done = time.perf_counter()
            ok = prediction is not None and prediction == inputs.expected[row]
            results[i] = (stats.Request(due, free, sent, done, ok), Outcome(row, prediction))
            free = done
        if conn is not None:
            conn.close()

    threads = [threading.Thread(target=connection, args=(lane,)) for lane in range(NPROC)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def _scrape(ctx: Context, port: int):
    with ctx.span("scrape"):
        return stats.parse_metrics(procs.metrics_text(port))


def _record_requests(ctx: Context, parent, results) -> None:
    """Retroactive request spans under a phase span (traced halves only)."""
    for request, _outcome in results:
        ctx.tracer.record_span(
            "request", start=request.sent, end=request.done, parent=parent,
            latency_ms=1e3 * request.latency_s, late_ms=1e3 * request.late_s,
        )


def measure(ctx: Context, port: int, inputs: Inputs, budget_s: float, first_row: int) -> dict:
    """Light then heavy phase; per-phase requests and the tier's counter deltas."""
    out: dict = {}
    for phase, rate, share in PHASES:
        before = _scrape(ctx, port)
        with ctx.span(f"phase.{phase}", rate=rate) as span:
            results = open_loop(port, inputs, rate, budget_s * share, first_row)
        after = _scrape(ctx, port)
        if ctx.tracing:
            _record_requests(ctx, span, results)
        first_row += len(results)
        out[phase] = (results, stats.Scrape(before, after))
    return out


def _check(ctx: Context, inputs: Inputs, phases: dict) -> list[float]:
    """Count every request; returns the served predictions' percentage errors."""
    errors = []
    for phase, (results, _scrape) in phases.items():
        for request, outcome in results:
            if outcome.prediction is None:
                ctx.op(ctx.expect(False, f"{phase}: request for row {outcome.row} failed"))
                continue
            ctx.op(
                ctx.expect(
                    request.ok,
                    f"{phase}: row {outcome.row} served {outcome.prediction!r}, "
                    f"in-process predict_rows gives {inputs.expected[outcome.row]!r}",
                )
            )
            actual = inputs.actual[outcome.row]
            errors.append(100.0 * abs(outcome.prediction - actual) / actual)
    return errors


def predict_serving(ctx: Context) -> None:
    inputs = Inputs(ctx)
    args = ["serve", "--registry", str(inputs.registry), "--port", "0", "--workers", str(NPROC)]
    halves = (False, True) if ctx.trace else (False,)
    with procs.Services() as services:
        walls, imports = [], []
        ctx.tracing = ctx.trace
        for k in range(SETUPS):
            with ctx.span("setup.launch"):
                tier = services.start(ctx.workdir, f"tier{k}", args, importtime=ctx.trace)
                walls.append(tier.wait_ready())
            if ctx.trace:
                imports.append(tier.import_s())
            if k < SETUPS - 1:
                tier.stop()
        report_setup(ctx, walls, [i for i in imports if i is not None])
        # Load the model into every worker before timing.
        warm = open_loop(tier.port, inputs, 200.0, WARMUP_REQUESTS / 200.0, 0)
        ctx.op(ctx.expect(all(r.ok for r, _o in warm), "warm-up requests failed"))
        measured = {}
        for traced in halves:
            ctx.tracing = traced
            measured[traced] = measure(
                ctx, tier.port, inputs, ctx.seconds / len(halves), WARMUP_REQUESTS
            )
        ctx.tracing = False
        rss = tier.peak_rss_mb()
        code = tier.stop()
        ctx.op(ctx.expect(code == 0, f"serving tier exited {code}"))

    errors = []
    for phases in measured.values():
        errors += _check(ctx, inputs, phases)
    # The end-to-end latency is the light phase's: at heavy load the
    # due-time latency follows the host's other tenants more than the tier.
    lat = _light_latencies(measured[False])
    ctx.put("p50_ms", stats.median(lat))
    ctx.put("peak_rss_mb", rss)
    ctx.put("error_pct", float(np.mean(errors)) if errors else float("nan"))
    if ctx.trace:
        _layers(ctx, measured[True])
        ctx.put("trace.overhead_pct", overhead_pct(lat, _light_latencies(measured[True])))


def _light_latencies(phases: dict) -> list[float]:
    return stats.latencies_ms([r for r, _o in phases["light"][0]]) or [float("nan")]


def _layers(ctx: Context, phases: dict) -> None:
    lateness = []
    for phase, (results, _scrape) in phases.items():
        requests = [r for r, _o in results]
        lat = stats.latencies_ms(requests) or [float("nan")]
        ctx.put(f"serve.{phase}.p50_ms", stats.median(lat))
        ctx.put(f"serve.{phase}.tail_ms", stats.tail(lat)[1])
        ctx.put(f"serve.{phase}.samples", len(requests))
        lateness += [1e3 * r.late_s for r in requests]
    heavy = [r for r, _o in phases["heavy"][0]]
    ctx.put("serve.heavy.within_20ms_share", stats.within_share(heavy, LIMIT_MS))
    ctx.put("serve.heavy.achieved_rps", stats.achieved_rps(heavy))
    ctx.put("serve.generator.late_tail_ms", stats.tail(lateness)[1])
    scrape = stats.Scrape(phases["light"][1].before, phases["heavy"][1].after)
    ctx.put("serve.router.hop_ms", stats.router_hop_ms(scrape))
    ctx.put_all(stats.serve_layer(scrape))
    ctx.put_all(stats.engine_layer(scrape))
    ctx.idle("sim.us_per_solve", "collect.", "eval.", "fit.", "sched.")
