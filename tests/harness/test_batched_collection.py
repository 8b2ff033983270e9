"""Batched collection: datasets pinned to the serial reference's output.

The expected digests in ``tests/golden.json`` were captured from the
per-scenario serial collection path (and checked against the stacked
solver) before that path was removed; see ``tests/golden.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.collection import collect_training_data
from repro.harness.parallel import map_scenario_batches
from repro.machine import XEON_E5649
from repro.sim import SimulationEngine, SolveCache
from repro.workloads import get_application
from tests import golden

TARGETS = golden.TARGETS
CO_APPS = golden.CO_APPS


def _times(dataset):
    return [o.actual_time_s for o in dataset.observations]


def test_batched_collection_bit_identical_to_serial():
    engine, dataset = golden.reduced_collection()
    assert (
        golden.sha256(dataset.to_csv_string())
        == golden.load()["reduced_collection"]
    )
    assert engine.stats.batches > 0
    assert engine.stats.batched_scenarios >= len(dataset)


def test_batched_collection_bit_identical_across_workers():
    _, one = golden.reduced_collection(workers=1)
    _, four = golden.reduced_collection(workers=4)
    assert _times(one) == _times(four)


def test_random_collection_bit_identical_batched_vs_serial():
    assert golden.random_collection_digest() == golden.load()["random_collection"]


def test_baselines_bit_identical_batched_vs_serial():
    assert golden.baselines_digest() == golden.load()["baselines"]


def test_warm_cache_collection_does_zero_solves():
    """A cache-warm second collection is pure lookups: no fixed point runs."""
    engine = SimulationEngine(XEON_E5649, cache=SolveCache())
    kwargs = dict(
        targets=[get_application(n) for n in TARGETS],
        co_apps=[get_application(n) for n in CO_APPS],
        counts=(1, 3),
    )
    first = collect_training_data(
        engine, rng=np.random.default_rng(11), **kwargs
    )
    solves = engine.stats.solves
    iteration_counts = dict(engine.stats.iteration_counts)
    second = collect_training_data(
        engine, rng=np.random.default_rng(11), **kwargs
    )
    assert engine.stats.solves == solves
    assert engine.stats.iteration_counts == iteration_counts
    times_first = [o.actual_time_s for o in first.observations]
    times_second = [o.actual_time_s for o in second.observations]
    assert times_first == times_second


def test_map_scenario_batches_orders_and_chunks():
    engine = SimulationEngine(XEON_E5649)

    def double_all(_engine, payloads):
        return [2 * p for p in payloads]

    payloads = list(range(23))
    assert map_scenario_batches(engine, double_all, payloads) == [
        2 * p for p in payloads
    ]
    assert map_scenario_batches(engine, double_all, []) == []
    with pytest.raises(ValueError, match="workers"):
        map_scenario_batches(engine, double_all, payloads, workers=0)
