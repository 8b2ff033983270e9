"""The batch workloads: ``paper-protocol`` and ``collect-linear``.

Both call the program's public functions in this process, one pass at a
time, each pass on fresh engines so no pass reuses another's solves.
Every dataset either collects is checked against its golden digest.
"""

from __future__ import annotations

import hashlib
import json
import resource
from pathlib import Path

import numpy as np

from repro.core.feature_sets import FeatureSet
from repro.core.fitstats import FitStats
from repro.core.methodology import ModelKind, evaluate_models
from repro.core.neural import default_hidden_units
from repro.harness.baselines import collect_baselines
from repro.harness.collection import collect_training_data
from repro.machine import PROCESSOR_CATALOG
from repro.sim import SimulationEngine
from repro.sim.solve_cache import EngineStats
from repro.workloads.suite import all_applications

from . import stats
from .bench import MACHINES, NPROC, Context, batch_passes, overhead_pct, rng_seeds

GOLDEN = Path(__file__).resolve().parent / "golden_datasets.json"

#: paper-protocol: random partitions per model (the paper uses 100;
#: reduced so a pass fits a run, with neural fits still most of it).
PROTOCOL_PARTITIONS = 2
#: collect-linear: noise seeds collected per machine in one pass, drawn
#: from a pool whose dataset digests are stored in ``GOLDEN``.
LINEAR_NOISE_SEEDS = 3
LINEAR_PARTITIONS = 100
#: The paper's accuracy claims, checked on every pass.
NEURAL_F_MAX_MPE = 2.5
NEURAL_BEATS_LINEAR_ON = (FeatureSet.C, FeatureSet.D, FeatureSet.E, FeatureSet.F)

APPS = tuple(sorted(all_applications(), key=lambda a: a.name))


def dataset_digest(dataset) -> str:
    return hashlib.sha256(dataset.to_csv_string().encode()).hexdigest()


def matches_golden(ctx: Context, golden: dict, key: str, noise: int, dataset) -> bool:
    """Output check: the collected dataset's sha256 equals its golden digest."""
    return ctx.expect(
        dataset_digest(dataset) == golden["digests"][key][noise],
        f"{key} noise seed {noise}: dataset sha256 differs from the golden digest",
    )


def collect(key: str, noise_seeds: list[int], ctx: Context):
    """Baselines and one Table V dataset per noise seed on one fresh engine."""
    engine = SimulationEngine(PROCESSOR_CATALOG[key])
    with ctx.span("collect_baselines", machine=key):
        baselines = collect_baselines(engine, APPS)
    datasets = []
    with ctx.span("collect_training_data", machine=key, seeds=len(noise_seeds)):
        for noise in noise_seeds:
            datasets.append(
                collect_training_data(
                    engine, baselines=baselines, rng=np.random.default_rng(noise)
                )
            )
    return engine.stats, datasets


def _n_train(n: int, test_fraction: float = 0.3) -> int:
    """Training rows per partition, as ``repeated_random_subsampling`` splits them."""
    return n - min(max(int(round(n * test_fraction)), 2), n - 2)


def kernel_cost(n: int, d: int, h: int) -> tuple[int, int]:
    """Computed ``(flops, bytes)`` of one SCG loss+gradient evaluation.

    Counted from the shapes of the (n x d) -> h tanh network's kernel:
    the two (n, d, h) matmuls forward and back, about eleven (n, h)
    elementwise passes (bias, tanh counted as one flop, the 1 - H^2
    backprop chain, column sums) and O(n) + O(dh) vector work.  Bytes
    assume every pass streams its float64 operands once: seventeen
    (n, h) reads or writes, X read twice, small vectors.
    """
    flops = 4 * n * d * h + 11 * n * h + 6 * n + 4 * d * h + 4 * h
    words = 17 * n * h + 2 * n * d + 10 * n + 6 * d * h + 4 * h
    return flops, 8 * words


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pass_layers(
    engine_stats: list[EngineStats],
    walls: dict[str, float],
    scenarios: int,
    linear: FitStats,
    neural: FitStats,
    neural_flops: float,
    neural_bytes: float,
) -> dict[str, float]:
    """One traced pass's per-layer numbers from its spans and counters."""
    engine = EngineStats()
    for s in engine_stats:
        engine.merge(s)
    iterations = sum(k * v for k, v in engine.iteration_counts.items())
    collect_s = walls["collect_baselines"] + walls["collect_training_data"]
    linear_s = walls.get("evaluate_models.linear", 0.0)
    neural_s = walls.get("evaluate_models.neural", 0.0)
    evals = neural.function_evals
    return {
        "sim.solves": engine.solves,
        "sim.batches": engine.batches,
        "sim.iterations_mean": _ratio(iterations, engine.solves),
        "sim.frozen_iterations_saved": engine.frozen_iterations_saved,
        "sim.convergence_failures": engine.convergence_failures,
        "sim.us_per_solve": 1e6 * _ratio(collect_s, engine.solves),
        "sim.cache_hit_ratio": engine.cache_hit_rate,
        "collect.baselines_s": walls["collect_baselines"],
        "collect.dataset_s": walls["collect_training_data"],
        "collect.scenarios_per_s": _ratio(scenarios, walls["collect_training_data"]),
        "eval.linear_s": linear_s,
        "eval.linear_fits": linear.fits,
        "eval.linear_ms_per_fit": 1e3 * _ratio(linear_s, linear.fits),
        "eval.neural_s": neural_s,
        "eval.fit_busy_share": _ratio(neural.wall_time_s, NPROC * neural_s),
        "fit.fits": neural.fits,
        "fit.restarts": neural.restarts,
        "fit.scg_iterations": neural.scg_iterations,
        "fit.iterations_per_fit": neural.iterations_per_fit,
        "fit.function_evals": evals,
        "fit.us_per_eval": 1e6 * _ratio(neural.wall_time_s, evals),
        "fit.flops_per_eval": _ratio(neural_flops, evals),
        "fit.bytes_per_eval": _ratio(neural_bytes, evals),
        "fit.gflops": _ratio(neural_flops, neural.wall_time_s) / 1e9,
    }


def _trace_walls(ctx: Context, since: int) -> dict[str, float]:
    """Seconds per boundary span name among the spans recorded after ``since``."""
    out: dict[str, float] = {}
    for span in ctx.tracer.spans()[since:]:
        key = span.name
        if key == "evaluate_models":
            key += "." + span.attributes.get("kind", "")
        out[key] = out.get(key, 0.0) + span.duration_s
    return out


# ---------------------------------------------------------------- workloads


def paper_protocol(ctx: Context) -> None:
    """Baselines, Table V collection and the 12-model grid on both Xeons."""
    golden = json.loads(GOLDEN.read_text())
    mpes: list[float] = []
    layers: list[dict[str, float]] = []
    serial_check: tuple = ()

    def one_pass(index: int) -> None:
        nonlocal serial_check
        pick, split = rng_seeds(ctx.seed, f"protocol-{index}", 2)
        noise = pick % golden["pool"]
        mark = len(ctx.tracer.spans()) if ctx.tracing else 0
        engine_stats, linear, neural = [], FitStats(), FitStats()
        flops = bytes_ = 0.0
        scenarios = 0
        ok = True
        for key in MACHINES:
            stats_k, (dataset,) = collect(key, [noise], ctx)
            engine_stats.append(stats_k)
            scenarios += len(dataset)
            ok &= matches_golden(ctx, golden, key, noise, dataset)
            obs = list(dataset)
            with ctx.span("evaluate_models", kind="linear", machine=key):
                lin = evaluate_models(
                    obs, kinds=(ModelKind.LINEAR,), repetitions=PROTOCOL_PARTITIONS,
                    seed=split, workers=NPROC, stats=linear,
                )
            with ctx.span("evaluate_models", kind="neural", machine=key):
                neu = evaluate_models(
                    obs, kinds=(ModelKind.NEURAL,), repetitions=PROTOCOL_PARTITIONS,
                    seed=split, workers=NPROC, stats=neural,
                )
            n_train = _n_train(len(obs))
            for ev in neu:
                d = len(ev.feature_set.features)
                f, b = kernel_cost(n_train, d, default_hidden_units(d))
                flops += f * ev.result.fit_stats.function_evals
                bytes_ += b * ev.result.fit_stats.function_evals
            lin_mpe = {ev.feature_set: ev.result.mean_test_mpe for ev in lin}
            neu_mpe = {ev.feature_set: ev.result.mean_test_mpe for ev in neu}
            mpes.append(neu_mpe[FeatureSet.F])
            for fs in NEURAL_BEATS_LINEAR_ON:
                ok &= ctx.expect(
                    neu_mpe[fs] < lin_mpe[fs],
                    f"{key} pass {index}: neural/{fs.value} {neu_mpe[fs]:.3f}% "
                    f"does not beat linear {lin_mpe[fs]:.3f}%",
                )
            ok &= ctx.expect(
                neu_mpe[FeatureSet.F] <= NEURAL_F_MAX_MPE,
                f"{key} pass {index}: neural/F test MPE {neu_mpe[FeatureSet.F]:.3f}% "
                f"> {NEURAL_F_MAX_MPE}%",
            )
            serial_check = (obs, split, neu)
        ctx.op(ok)
        if ctx.tracing:
            walls = _trace_walls(ctx, mark)
            layers.append(
                _pass_layers(engine_stats, walls, scenarios, linear, neural, flops, bytes_)
            )

    plain, traced = batch_passes(ctx, one_pass)
    _check_serial_equals_parallel(ctx, *serial_check)
    _report(ctx, plain, traced, layers, float(np.mean(mpes)))


def _check_serial_equals_parallel(ctx: Context, obs, split: int, parallel_grid) -> None:
    """Neural/F per-partition errors of a serial run equal the fanned-out ones."""
    serial = evaluate_models(
        obs, kinds=(ModelKind.NEURAL,), feature_sets=(FeatureSet.F,),
        repetitions=PROTOCOL_PARTITIONS, seed=split, workers=1,
    )[0].result
    parallel = next(ev.result for ev in parallel_grid if ev.feature_set is FeatureSet.F)
    same = all(
        np.array_equal(getattr(serial, f), getattr(parallel, f))
        for f in ("train_mpe", "test_mpe", "train_nrmse", "test_nrmse")
    )
    ctx.op(ctx.expect(same, f"neural/F per-partition errors differ between workers={NPROC} and a serial run"))


def collect_linear(ctx: Context) -> None:
    """Collection over several noise seeds, then the 6 linear models, serially."""
    golden = json.loads(GOLDEN.read_text())
    mpes: list[float] = []
    layers: list[dict[str, float]] = []

    def one_pass(index: int) -> None:
        pick, split = rng_seeds(ctx.seed, f"linear-{index}", 2)
        noise_seeds = [
            int(s)
            for s in np.random.default_rng(pick).choice(
                golden["pool"], LINEAR_NOISE_SEEDS, replace=False
            )
        ]
        mark = len(ctx.tracer.spans()) if ctx.tracing else 0
        engine_stats, linear = [], FitStats()
        scenarios = 0
        ok = True
        for key in MACHINES:
            stats_k, datasets = collect(key, noise_seeds, ctx)
            engine_stats.append(stats_k)
            for noise, dataset in zip(noise_seeds, datasets):
                scenarios += len(dataset)
                ok &= matches_golden(ctx, golden, key, noise, dataset)
            with ctx.span("evaluate_models", kind="linear", machine=key):
                lin = evaluate_models(
                    list(datasets[0]), kinds=(ModelKind.LINEAR,),
                    repetitions=LINEAR_PARTITIONS, seed=split, workers=1, stats=linear,
                )
            mpes.append(next(ev.result.mean_test_mpe for ev in lin if ev.feature_set is FeatureSet.F))
        ctx.op(ok)
        if ctx.tracing:
            walls = _trace_walls(ctx, mark)
            layers.append(
                _pass_layers(engine_stats, walls, scenarios, linear, FitStats(), 0.0, 0.0)
            )

    plain, traced = batch_passes(ctx, one_pass)
    _report(ctx, plain, traced, layers, float(np.mean(mpes)))


def _report(ctx: Context, plain, traced, layers, error_pct: float) -> None:
    ctx.put("p50_ms", 1e3 * stats.median(plain))
    ctx.put("error_pct", error_pct)
    # The workload runs in this process (validation pool workers are forks).
    ctx.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if ctx.trace:
        ctx.put_all(stats.mean_per_key(layers))
        ctx.put("trace.overhead_pct", overhead_pct(plain, traced))
        ctx.idle("serve.", "sched.")
