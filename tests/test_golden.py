"""Full Table V datasets and neural fits match their golden values."""

from __future__ import annotations

import pytest

from tests import golden


@pytest.fixture(scope="module")
def values() -> dict:
    return golden.load()


@pytest.mark.parametrize("machine", golden.MACHINES)
def test_table_v_dataset(values, machine):
    assert golden.table_v_digest(machine) == values["table_v"][machine]


@pytest.mark.parametrize("seed", golden.NEURAL_SEEDS)
def test_neural_fit(values, seed):
    assert golden.neural_values(seed) == values["neural"][str(seed)]
