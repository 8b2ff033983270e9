"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sched-loop --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer ones (and a
self-time table, the tracing overhead and the trace files).  Workloads
and metrics are described in ``perfbench/README.md``.  Exits 1 when an
output check failed, 2 when the program to measure is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-protocol", "collect-linear", "predict-serving", "sched-loop")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit that this run must print, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _print_self_times(ctx) -> None:
    self_s = ctx.self_times()
    if not self_s:
        return
    total = sum(self_s.values())
    print(f"{'span':<28}{'self_s':>10}{'share':>8}")
    for name, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"{name:<28}{seconds:>10.3f}{seconds / total:>8.1%}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    from perfbench import bench

    declared = _declared(bool(args.trace))
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    ctx = bench.Context(
        args.workload, args.seed, args.seconds, bool(args.trace), workdir,
        layer_names=tuple(_declared(True)),
    )
    started = time.perf_counter()
    try:
        if args.workload == "paper-protocol":
            from perfbench.batch import paper_protocol as run
        elif args.workload == "collect-linear":
            from perfbench.batch import collect_linear as run
        elif args.workload == "predict-serving":
            from perfbench.serving import predict_serving as run
        else:
            from perfbench.schedloop import sched_loop as run
        run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if ctx.trace:
        # The arithmetic floor next to the SCG kernel's achieved rate.
        gemm = bench.host_gemm_gflops()
        ctx.put("host.gemm_gflops", gemm)
        ctx.put("fit.gemm_share", ctx.metrics.get("fit.gflops", 0.0) / gemm)
    missing = sorted(set(declared) - set(ctx.metrics))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    for name in declared:
        if not math.isfinite(ctx.metrics[name]):
            # Nothing succeeded to measure it: a failure, not a number.
            ctx.op(ctx.expect(False, f"{name} could not be measured"))
            ctx.metrics[name] = 0.0
    metrics = {name: {"value": ctx.metrics[name], "unit": unit} for name, unit in declared.items()}

    ledger = bench.ledger(ctx)
    ledger["elapsed_s"] = time.perf_counter() - started
    if ctx.trace:
        _print_self_times(ctx)
        ledger["trace_files"] = ctx.export_trace(f"{args.workload}-{args.seed}")
    for name, entry in metrics.items():
        print(f"{name:<34}{entry['value']:>16.6g} {entry['unit']}")
    for failure in ctx.failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }
    bench.dump(
        work_root / "results" / f"{args.workload}-{args.seed}-trace{args.trace}.json",
        {"ledger": ledger, **result},
    )
    print("ledger " + json.dumps(ledger, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
