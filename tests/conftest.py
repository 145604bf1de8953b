"""Fixtures shared by the test modules."""

import pytest

from droptrack import tracker


@pytest.fixture
def hungarian_runs(monkeypatch):
    """The weight-matrix shape of each assignment solver run, in order."""
    runs = []
    real = tracker._max_sum_assignment

    def counting(weights):
        runs.append((len(weights), len(weights[0])))
        return real(weights)
    monkeypatch.setattr(tracker, "_max_sum_assignment", counting)
    return runs
