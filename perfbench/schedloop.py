"""The ``sched-loop`` workload: a job burst through the scheduler service.

Each burst starts a fresh ``repro serve`` prediction server and a fresh
``repro sched serve --policy model`` that scores every placement round
through it, submits one seeded burst of jobs to a two-Xeon fleet with
fewer cores than jobs, and waits until every job has completed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.workloads.suite import all_applications

from . import procs, stats
from .bench import Context, overhead_pct, passes, report_setup, rng_seeds
from .serving import MODEL, Inputs

#: Two Xeon blocks, 4 x 6 + 2 x 12 = 48 cores: fewer cores than jobs.
FLEET = ("e5649:4", "e5-2697v2:2")
#: Every burst runs each of the 11 applications this many times, in a
#: seeded order: bursts differ in order, not in mix, so the mean slowdown
#: measures placement rather than the luck of the draw.
COPIES_PER_APP = 18
MIN_BURSTS = 3
POLL_S = 0.01
BURST_TIMEOUT_S = 60.0


def _burst(ctx: Context, inputs: Inputs, apps: list[str]) -> dict:
    """One burst on fresh services; returns its timings and counter deltas."""
    predict_port = procs.free_port()
    with procs.Services() as services:
        started = time.perf_counter()
        with ctx.span("setup.launch"):
            predictor = services.start(
                ctx.workdir, "predict",
                ["serve", "--registry", str(inputs.registry), "--port", str(predict_port)],
                importtime=ctx.trace,
            )
            args = ["sched", "serve", "--policy", "model", "--port", "0",
                    "--predictions", f"127.0.0.1:{predict_port}", "--model", MODEL]
            for block in FLEET:
                args += ["--machine", block]
            scheduler = services.start(ctx.workdir, "sched", args, importtime=ctx.trace)
            predictor.wait_ready()
            scheduler.wait_ready()
        setup_s = time.perf_counter() - started
        with ctx.span("scrape"):
            sched_before = stats.parse_metrics(procs.metrics_text(scheduler.port))
            pred_before = stats.parse_metrics(procs.metrics_text(predict_port))
        t0 = time.perf_counter()
        with ctx.span("submit", jobs=len(apps)):
            status, body = procs.http_json(scheduler.port, "POST", "/v1/jobs", {"apps": apps})
        submitted = ctx.expect(
            status == 200 and len(body["ids"]) == len(apps), f"submit answered {status}: {body}"
        )
        with ctx.span("wait"):
            deadline = t0 + BURST_TIMEOUT_S
            while True:
                _status, jobs = procs.http_json(scheduler.port, "GET", "/v1/jobs")
                if jobs["counts"].get("completed", 0) >= len(apps) or time.perf_counter() > deadline:
                    break
                time.sleep(POLL_S)
        wall = time.perf_counter() - t0
        with ctx.span("scrape"):
            sched_after = stats.parse_metrics(procs.metrics_text(scheduler.port))
            pred_after = stats.parse_metrics(procs.metrics_text(predict_port))
            _status, cluster = procs.http_json(scheduler.port, "GET", "/v1/cluster")
        rss = predictor.peak_rss_mb() + scheduler.peak_rss_mb()
        imports = [s.import_s() for s in (predictor, scheduler)] if ctx.trace else []
    completed = jobs["counts"].get("completed", 0)
    ok = ctx.expect(completed == len(apps), f"burst: {completed} of {len(apps)} jobs completed")
    ok &= ctx.expect(
        cluster["placements"] == len(apps),
        f"burst: {cluster['placements']} placements for {len(apps)} jobs",
    )
    ctx.op(submitted and ok)
    return {
        "setup_s": setup_s,
        "imports": [i for i in imports if i is not None],
        "wall_s": wall,
        "jobs": len(apps),
        "rss_mb": rss,
        "sched": stats.Scrape(sched_before, sched_after),
        "predict": stats.Scrape(pred_before, pred_after),
    }


def sched_loop(ctx: Context) -> None:
    inputs = Inputs(ctx)
    names = sorted(app.name for app in all_applications())
    bursts: list[tuple[bool, dict]] = []

    def one_burst(index: int) -> None:
        (stream_seed,) = rng_seeds(ctx.seed, f"burst-{index}", 1)
        apps = list(np.random.default_rng(stream_seed).permutation(names * COPIES_PER_APP))
        bursts.append((ctx.tracing, _burst(ctx, inputs, [str(a) for a in apps])))

    passes(ctx, ctx.seconds, one_burst, min_passes=MIN_BURSTS)
    untraced = [b for t, b in bursts if not t]
    report_setup(
        ctx,
        [b["setup_s"] for _t, b in bursts],
        [i for _t, b in bursts for i in b["imports"][:1]],
    )
    walls = [b["wall_s"] for b in untraced]
    ctx.samples["burst_s"] = walls
    ctx.put("p50_ms", 1e3 * stats.median(walls))
    ctx.put("peak_rss_mb", max(b["rss_mb"] for b in untraced))
    slowdowns = [
        b["sched"].mean("repro_sched_realized_degradation") for b in untraced
    ]
    ctx.put("error_pct", 100.0 * (float(np.mean(slowdowns)) - 1.0))
    if ctx.trace:
        _layers(ctx, [b for t, b in bursts if t], walls)


def _layers(ctx: Context, traced: list[dict], plain_walls: list[float]) -> None:
    samples = []
    for burst in traced:
        sched, predict = burst["sched"], burst["predict"]
        layer = stats.sched_layer(sched)
        layer.update(stats.engine_layer(sched))
        layer.update(stats.serve_layer(predict))
        layer["sched.decisions_per_s"] = burst["jobs"] / burst["wall_s"]
        layer["sched.mean_slowdown"] = sched.mean("repro_sched_realized_degradation")
        layer["sched.predict_server_ms"] = 1e3 * predict.mean(
            "repro_serve_request_latency_seconds"
        )
        samples.append(layer)
    ctx.put_all(stats.mean_per_key(samples))
    ctx.put("trace.overhead_pct", overhead_pct(plain_walls, [b["wall_s"] for b in traced]))
    ctx.idle("sim.us_per_solve", "collect.", "eval.", "fit.", "serve.")
