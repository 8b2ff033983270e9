"""Fixtures shared by the model-fitting tests."""

from __future__ import annotations

import pytest

from repro.core import validation


@pytest.fixture
def pools_built(monkeypatch) -> list:
    """Records every process pool the validation layer starts."""
    built: list = []

    class CountingPool(validation.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs) -> None:
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(validation, "ProcessPoolExecutor", CountingPool)
    return built
