"""Golden values pinning collected datasets and neural fits bit-for-bit.

Each value in ``golden.json`` is a sha256 (or exact float list) of a
pipeline output at a fixed seed: full Table V collection on both Xeons, a
reduced and a 30-scenario random collection, a baseline table and three
multi-restart neural fits.  The collection values were captured from the
per-scenario serial collection path and checked to be equal on the
stacked collection solver before the duplicate path was removed; the
neural values were re-captured when the loss/gradient kernel moved to its
``(h, n)`` layout, after ``tests/core/test_neural.py`` had checked it
against the earlier kernel.  A change that moves any collected time or
trained weight by one ulp fails the tests that read them.

The neural values depend on the BLAS's matmul accumulation order; they
were captured with numpy's bundled OpenBLAS on x86-64.  Regenerate only
for a change meant to alter the numbers::

    PYTHONPATH=src python tests/golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.neural import NeuralNetworkModel
from repro.harness.baselines import collect_baselines
from repro.harness.collection import (
    collect_random_training_data,
    collect_training_data,
)
from repro.machine import PROCESSOR_CATALOG, XEON_E5649
from repro.sim import SimulationEngine, SolveCache
from repro.workloads import get_application

GOLDEN_PATH = Path(__file__).with_name("golden.json")
MACHINES = ("e5649", "e5-2697v2")
NEURAL_SEEDS = (0, 7, 42)
TARGETS = ("canneal", "sp", "ep")
CO_APPS = ("cg", "ep")


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def table_v_digest(machine: str) -> str:
    """sha256 of one machine's full Table V dataset at the default seed."""
    dataset = collect_training_data(SimulationEngine(PROCESSOR_CATALOG[machine]))
    return sha256(dataset.to_csv_string())


def reduced_collection(workers: int = 1):
    """(engine, dataset) of a 3-target x 2-co-app x 2-count collection."""
    engine = SimulationEngine(XEON_E5649, cache=SolveCache())
    dataset = collect_training_data(
        engine,
        targets=[get_application(n) for n in TARGETS],
        co_apps=[get_application(n) for n in CO_APPS],
        counts=(1, 3),
        rng=np.random.default_rng(11),
        workers=workers,
    )
    return engine, dataset


def random_collection_digest() -> str:
    """sha256 of the 30-scenario random-sampling dataset."""
    dataset = collect_random_training_data(
        SimulationEngine(XEON_E5649, cache=SolveCache()),
        30,
        targets=[get_application(n) for n in TARGETS],
        co_apps=[get_application(n) for n in CO_APPS],
        rng=np.random.default_rng(7),
    )
    return sha256(dataset.to_csv_string())


def baselines_digest() -> str:
    """sha256 over every baseline profile's wall time and counter totals."""
    table = collect_baselines(
        SimulationEngine(XEON_E5649),
        [get_application(n) for n in ("cg", "canneal", "ep")],
    )
    rows = [
        f"{name}|{freq!r}|{p.wall_time_s!r}|"
        + ",".join(f"{k}={v!r}" for k, v in sorted(p.counts.items()))
        for (name, freq), p in sorted(table.profiles.items())
    ]
    return sha256("\n".join(rows))


def neural_values(seed: int) -> dict:
    """Restart losses and a predict digest of one 4-restart network fit."""
    data = np.random.default_rng(42)
    X = data.normal(size=(80, 3))
    y = np.sin(X[:, 0]) - 2.0 * X[:, 1] + X[:, 2] ** 2
    model = NeuralNetworkModel(hidden_units=8, n_restarts=4).fit(
        X, y, rng=np.random.default_rng(seed)
    )
    return {
        "restart_losses": [float(v) for v in model.restart_losses_],
        "predict_sha256": sha256(
            ",".join(repr(float(v)) for v in model.predict(X))
        ),
    }


def capture() -> dict:
    return {
        "table_v": {m: table_v_digest(m) for m in MACHINES},
        "reduced_collection": sha256(reduced_collection()[1].to_csv_string()),
        "random_collection": random_collection_digest(),
        "baselines": baselines_digest(),
        "neural": {str(s): neural_values(s) for s in NEURAL_SEEDS},
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
