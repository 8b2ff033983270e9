"""Run context shared by the workloads: seed, clock budget, counts, tracing."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from repro.obs.trace import Tracer

from . import procs, stats

#: Worker processes and client connections: the workloads are defined
#: for a 2-CPU host, and stay the same work on a bigger one.
NPROC = 2

#: The two Xeons of the paper's Table IV, by catalog key.
MACHINES = ("e5649", "e5-2697v2")

#: Fewest CLI launches the batch workloads' ``setup_s`` is a median of.
MIN_LAUNCHES = 3


class Context:
    """State of one benchmark run.

    ``attempted``/``failed`` count operations (passes, requests, bursts,
    standalone checks); an operation whose output check fails is a
    failure.  When the run is traced, ``span`` records into a private
    :class:`repro.obs.Tracer` that is never installed as the process
    tracer, so the program's own spans stay off and only the benchmark's
    boundaries are timed.
    """

    def __init__(
        self,
        workload: str,
        seed: int,
        seconds: float,
        trace: bool,
        workdir: Path,
        layer_names: tuple[str, ...] = (),
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.layer_names = layer_names
        self.tracer = Tracer(service="perfbench") if trace else None
        #: Whether the current pass records spans (traced runs alternate).
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        #: Raw timings behind the medians, kept in the ledger.
        self.samples: dict[str, list[float]] = {}
        self.ticks_at_start = cpu_ticks()

    # ------------------------------------------------------------ counting
    def expect(self, ok: bool, what: str) -> bool:
        """One output check; records ``what`` when it fails."""
        if not ok and len(self.failures) < 20:
            self.failures.append(what)
        return bool(ok)

    def op(self, ok: bool) -> None:
        """Count one operation; it failed if it errored or a check on it failed."""
        self.attempted += 1
        self.failed += not ok

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def put_all(self, values: dict[str, float]) -> None:
        for name, value in values.items():
            self.put(name, value)

    def idle(self, *prefixes: str) -> None:
        """Report 0 for the per-layer metrics of layers this workload never runs."""
        for name in self.layer_names:
            if name not in self.metrics and name.startswith(prefixes):
                self.metrics[name] = 0.0

    # ------------------------------------------------------------- tracing
    def span(self, name: str, **attributes):
        if self.tracer is not None and self.tracing:
            return self.tracer.span(name, **attributes)
        return contextlib.nullcontext()

    def self_times(self) -> dict[str, float]:
        if self.tracer is None:
            return {}
        return stats.self_times(
            [
                stats.SpanRecord(s.name, s.span_id, s.parent_id, s.start, s.end)
                for s in self.tracer.spans()
            ]
        )

    def export_trace(self, stem: str) -> list[str]:
        """Write the trace as Chrome JSON and OTLP/JSON; returns the paths."""
        from repro.obs.otlp import write_otlp

        out_dir = procs.ROOT / ".perfbench" / "traces"
        out_dir.mkdir(parents=True, exist_ok=True)
        chrome = out_dir / f"{stem}.json"
        otlp = out_dir / f"{stem}.otlp.json"
        self.tracer.export_chrome(chrome)
        write_otlp(
            otlp,
            [self.tracer.serialize(s) for s in self.tracer.spans()],
            default_resource={"service": "perfbench"},
        )
        return [str(p.relative_to(procs.ROOT)) for p in (chrome, otlp)]


def passes(ctx: Context, budget_s: float, body, *, min_passes: int = 1, before=None):
    """Run ``body(index)`` while another pass still fits in ``budget_s``.

    A pass starts only if the mean pass so far would end it within the
    budget, so a run measures about ``budget_s`` whatever the pass size.
    ``before()``, if given, runs ahead of each pass, untimed but inside
    the budget.  In a traced run the passes alternate untraced and
    traced, starting untraced; ``body`` sees which through
    ``ctx.tracing``.  Returns ``(untraced walls, traced walls)``.
    """
    plain: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if index >= min_passes and elapsed + elapsed / index > budget_s:
            break
        if before is not None:
            before()
        ctx.tracing = ctx.trace and index % 2 == 1
        t0 = time.perf_counter()
        with ctx.span("pass", index=index):
            body(index)
        (traced if ctx.tracing else plain).append(time.perf_counter() - t0)
        index += 1
    ctx.tracing = False
    ctx.samples["pass_s"] = plain
    return plain, traced


def overhead_pct(plain: list[float], traced: list[float]) -> float:
    """Traced minus untraced median, as a percentage of the untraced one."""
    base = stats.median(plain)
    return 100.0 * (stats.median(traced) - base) / base


def batch_passes(ctx: Context, body):
    """The passes of a batch workload, each after one launch of the CLI.

    The launches give ``setup_s``: ``repro machines`` starts the
    interpreter, imports ``repro`` and the CLI, and prints the catalog,
    the start-up every CLI command pays.  One launch goes before each
    pass, so the launches sample the host over the whole run as the
    passes do: launched back to back at the start of a run, they read
    alike within the run and from 0.7 to 1.4 s across runs.  Launches
    are topped up to ``MIN_LAUNCHES``.  Returns what :func:`passes` does.
    """
    walls: list[float] = []
    imports: list[float] = []

    def launch() -> None:
        wall, imported = procs.run_cli_once(ctx.workdir, "machines", importtime=ctx.trace)
        walls.append(wall)
        if imported is not None:
            imports.append(imported)

    result = passes(ctx, ctx.seconds, body, min_passes=2 if ctx.trace else 1, before=launch)
    while len(walls) < MIN_LAUNCHES:
        launch()
    report_setup(ctx, walls, imports)
    return result


def report_setup(ctx: Context, walls: list[float], imports: list[float]) -> None:
    ctx.samples["setup_s"] = walls
    ctx.put("setup_s", stats.median(walls))
    if imports:
        imported = stats.median(imports)
        ctx.put("setup.import_s", imported)
        ctx.put("setup.ready_s", stats.median(walls) - imported)


def host_gemm_gflops(size: int = 384, budget_s: float = 0.3) -> float:
    """Measured float64 GEMM rate of this host through numpy (median of reps)."""
    a = np.random.default_rng(0).random((size, size))
    b = np.random.default_rng(1).random((size, size))
    out = np.empty((size, size))
    rates = []
    start = time.perf_counter()
    while time.perf_counter() - start < budget_s or len(rates) < 5:
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        rates.append(2 * size**3 / (time.perf_counter() - t0) / 1e9)
    return stats.median(rates)


def rng_seeds(seed: int, label: str, n: int) -> list[int]:
    """``n`` input seeds derived from the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return [int(v) for v in rng.integers(0, 2**31, size=n)]


def source_digest() -> str:
    """sha256 over the program's source files (the checkout may lack git)."""
    h = hashlib.sha256()
    for path in sorted(procs.SRC.rglob("*.py")):
        h.update(str(path.relative_to(procs.SRC)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_ticks() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (user, nice, system, idle, ..., steal)."""
    return [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]


def _steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests during the run."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if len(delta) > 7 and total else 0.0


def _git_commit() -> str | None:
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=procs.ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    # Only this checkout's own commit: a checkout without .git may sit
    # inside some other repository.
    return lines[1] if len(lines) == 2 and Path(lines[0]) == procs.ROOT else None


def ledger(ctx: Context) -> dict:
    """Host and input metadata recorded with every result."""
    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "host_steal_share": _steal_share(ctx.ticks_at_start, cpu_ticks()),
        "src_sha256": source_digest(),
        "samples": ctx.samples,
    }


def dump(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
