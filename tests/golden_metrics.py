"""Golden ``/metrics`` expositions of every service after a scripted load.

Each scenario below starts one service (or reads the process-default
registry), drives a fixed load through it and takes one scrape.  The
capture keeps, per scrape:

* every family's ``# TYPE`` and ``# HELP``;
* every sample's name and label set;
* the values the load fixes: counters, plus ``_count`` and bucket counts
  of the histograms that do not measure time.

``tests/test_golden_metrics.py`` re-runs each scenario and holds the
scrape to the capture, comparing values and ``le`` bounds as numbers, so
a change to how families are declared or rendered cannot rename, drop or
re-type a family, or change what a load counts.

Every scenario runs in a fresh interpreter: the engine, fitting and
suite families read process-wide aggregates, and a fresh process holds
exactly the work its scenario did.  Regenerate only for a change meant to
alter the families::

    PYTHONPATH=src python tests/golden_metrics.py --write
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_metrics.json")
SRC = Path(__file__).resolve().parents[1] / "src"

#: Target and co-runner applications of the small training collection.
TARGETS = ("canneal", "sp")
CO_APPS = ("cg",)

#: Micro-batch window of the served scenarios: wide enough that a
#: batch body's rows always share one flush, so batch sizes are fixed by
#: the load rather than by scheduling delays on a busy host.
MAX_WAIT_MS = 50.0


# ------------------------------------------------------------- parsing


def _time_family(name: str) -> bool:
    """Families whose values are wall-clock measurements."""
    return "_seconds" in name


def _canonical(name: str, labels: dict[str, str]) -> str:
    """A sample key with sorted labels and ``le`` compared as a number."""
    parts = []
    for key in sorted(labels):
        value = labels[key]
        if key == "le":
            value = repr(float(value))
        parts.append(f"{key}={value!r}")
    return name + "{" + ",".join(parts) + "}"


def summarize(text: str) -> dict:
    """One scrape -> families, sample keys and load-fixed values."""
    from repro.serve.client import _parse_sample

    families: dict[str, dict[str, str]] = {}
    samples: set[str] = set()
    values: dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name, _sep, help_text = line[len("# HELP "):].partition(" ")
            families.setdefault(name, {})["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            name, _sep, kind = line[len("# TYPE "):].partition(" ")
            families.setdefault(name, {})["type"] = kind.strip()
            continue
        if not line.strip() or line.startswith("#"):
            continue
        parsed = _parse_sample(line)
        if parsed is None:
            raise ValueError(f"unparseable sample line: {line!r}")
        name, labels, value = parsed
        key = _canonical(name, labels)
        samples.add(key)
        family = name
        for suffix in ("_bucket", "_count", "_sum"):
            base = name[: -len(suffix)]
            if name.endswith(suffix) and families.get(base, {}).get(
                "type"
            ) == "histogram":
                family = base
                if suffix == "_sum":
                    family = None  # sums of observations are not counts
                break
        if family is None or _time_family(family):
            continue
        kind = families.get(family, {}).get("type")
        if kind in ("counter", "histogram"):
            values[key] = value
    return {
        "families": dict(sorted(families.items())),
        "samples": sorted(samples),
        "values": dict(sorted(values.items())),
    }


# ------------------------------------------------------------- fixtures


def _small_dataset():
    import numpy as np

    from repro.harness.baselines import collect_baselines
    from repro.harness.collection import collect_training_data
    from repro.machine import XEON_E5649
    from repro.sim import SimulationEngine, SolveCache
    from repro.workloads import get_application

    engine = SimulationEngine(XEON_E5649, cache=SolveCache())
    targets = [get_application(n) for n in TARGETS]
    co_apps = [get_application(n) for n in CO_APPS]
    baselines = collect_baselines(engine, targets + co_apps)
    dataset = collect_training_data(
        engine,
        baselines=baselines,
        targets=targets,
        co_apps=co_apps,
        counts=(1, 3),
        rng=np.random.default_rng(11),
    )
    return baselines, list(dataset)


def _predictor(observations, seed: int):
    from repro.core.feature_sets import FeatureSet
    from repro.core.methodology import ModelKind, PerformancePredictor

    return PerformancePredictor(ModelKind.LINEAR, FeatureSet.F, seed=seed).fit(
        observations
    )


def _feature_dicts(observations, n: int) -> list[dict]:
    from repro.core.feature_sets import FeatureSet

    return [
        {f.value: float(obs.feature_value(f)) for f in FeatureSet.F.features}
        for obs in observations[:n]
    ]


def _registry(root: Path, observations):
    """A local registry holding ``point@1`` and ``point@2``."""
    from repro.registry import ModelRegistry

    registry = ModelRegistry(root)
    registry.push("point", _predictor(observations, 3))
    registry.push("point", _predictor(observations, 7))
    return registry


def _expect_error(call) -> None:
    from repro.serve.client import ClientError

    try:
        call()
    except ClientError:
        return
    raise AssertionError("the request was expected to fail")


def _predict_load(client, rows: list[dict]) -> None:
    """The request mix every prediction endpoint receives."""
    client.healthz()
    client.models()
    for row in rows[:4]:
        client.predict(row, model="point")
    client.predict(rows[4], model="point@1")
    client.predict_batch(rows[5:8], model="point@1")
    _expect_error(lambda: client.predict(rows[0], model="missing"))
    _expect_error(lambda: client.predict({"bogus": 1.0}, model="point@1"))


# ------------------------------------------------------------- scenarios


def scenario_prediction_server(tmp: Path) -> str:
    from repro.serve.client import PredictionClient
    from repro.serve.server import ServerThread

    _baselines, observations = _small_dataset()
    registry = _registry(tmp / "registry", observations)
    rows = _feature_dicts(observations, 8)
    with ServerThread(registry, max_batch=32, max_wait_ms=MAX_WAIT_MS) as handle:
        with PredictionClient("127.0.0.1", handle.port) as client:
            _predict_load(client, rows)
            return client.metrics_text()


def scenario_routed_tier(tmp: Path) -> str:
    from repro.serve.client import PredictionClient
    from repro.serve.router import ServingTier, parse_canary, parse_shadow

    _baselines, observations = _small_dataset()
    registry = _registry(tmp / "registry", observations)
    rows = _feature_dicts(observations, 8)
    with ServingTier(
        registry,
        workers=2,
        canary=(parse_canary("point@2:50"),),
        shadow=(parse_shadow("point@2"),),
        max_wait_ms=MAX_WAIT_MS,
    ) as tier:
        with PredictionClient("127.0.0.1", tier.port) as client:
            _predict_load(client, rows)
            return client.metrics_text()


def scenario_registry_server(tmp: Path) -> str:
    from repro.registry.client import HttpBackend
    from repro.registry.server import RegistryServerThread
    from repro.serve.client import PredictionClient

    _baselines, observations = _small_dataset()
    registry = _registry(tmp / "registry", observations)
    registry.tombstone("point@1", reason="golden")
    with RegistryServerThread(registry, token="s3cret") as handle:
        remote = HttpBackend(
            f"http://127.0.0.1:{handle.port}", tmp / "cache", token="s3cret"
        )
        remote.list()
        remote.get("point")
        remote.push("other", _predictor(observations, 5))
        with PredictionClient("127.0.0.1", handle.port) as client:
            client.healthz()
            _expect_error(lambda: client._json("GET", "/v1/models/nope/manifest"))
            return client.metrics_text()


def scenario_scheduler(tmp: Path) -> str:
    from repro.machine import XEON_E5649
    from repro.sched.fleet import FleetState, MachineConfig
    from repro.sched.queue import JobStatus
    from repro.sched.service import LocalScorer, SchedulerClient, SchedulerThread

    baselines, observations = _small_dataset()
    fleet = FleetState([MachineConfig(XEON_E5649, count=4, name_prefix="node")])
    burst = ["canneal", "sp", "cg", "canneal", "sp", "cg", "sp", "canneal"]
    with SchedulerThread(
        fleet,
        baselines,
        scorer=LocalScorer(_predictor(observations, 3)),
        policy="model",
    ) as handle:
        with SchedulerClient("127.0.0.1", handle.port) as client:
            ids = client.submit(burst)["ids"]
            _expect_error(lambda: client.submit("no-such-app"))
            deadline = time.monotonic() + 60.0
            queue = handle.server.queue
            while time.monotonic() < deadline:
                if all(
                    queue.get(i).status is JobStatus.COMPLETED for i in ids
                ):
                    break
                time.sleep(0.01)
            else:
                raise AssertionError("the burst did not complete")
            client.cluster()
            return client.metrics_text()


def scenario_collector(tmp: Path) -> str:
    from repro.obs.collector import CollectorThread
    from repro.serve.client import PredictionClient

    spans = [
        {
            "name": f"golden.{i}",
            "trace_id": "t1",
            "span_id": f"s{i}",
            "start_unix_s": 1.0 + i,
            "end_unix_s": 1.5 + i,
        }
        for i in range(5)
    ]
    with CollectorThread(max_spans=3) as handle:
        with PredictionClient("127.0.0.1", handle.port) as client:
            client._json(
                "POST",
                "/v1/spans",
                {"resource": {"service": "golden"}, "spans": spans, "dropped": 2},
            )
            client._json("POST", "/v1/spans", {"spans": spans[:1]})
            return client.metrics_text()


def scenario_default_registry(tmp: Path) -> str:
    from repro.core.feature_sets import FeatureSet
    from repro.core.methodology import ModelKind, evaluate_models
    from repro.obs.registry import get_registry

    _baselines, observations = _small_dataset()
    _predictor(observations, 3)
    evaluate_models(
        observations,
        kinds=(ModelKind.LINEAR,),
        feature_sets=(FeatureSet.A, FeatureSet.F),
        repetitions=3,
        seed=5,
    )
    evaluate_models(
        observations,
        kinds=(ModelKind.NEURAL,),
        feature_sets=(FeatureSet.B,),
        repetitions=2,
        seed=5,
    )
    return get_registry().render()


SCENARIOS = {
    "prediction_server": scenario_prediction_server,
    "routed_tier": scenario_routed_tier,
    "registry_server": scenario_registry_server,
    "scheduler": scenario_scheduler,
    "collector": scenario_collector,
    "default_registry": scenario_default_registry,
}


# ------------------------------------------------------------- driver


def run_scenario(name: str) -> dict:
    """Run one scenario in a fresh interpreter; its scrape's summary."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_TRACE", None)
    proc = subprocess.run(
        [sys.executable, __file__, "--scenario", name],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"scenario {name} failed ({proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--scenario":
        with tempfile.TemporaryDirectory() as tmp:
            text = SCENARIOS[argv[1]](Path(tmp))
        json.dump(summarize(text), sys.stdout)
        return 0
    if argv == ["--write"]:
        golden = {name: run_scenario(name) for name in SCENARIOS}
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
