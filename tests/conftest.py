"""Fixtures shared by the test modules."""

import pytest

from droptrack import tracker


@pytest.fixture
def hungarian_runs(monkeypatch):
    """The weight-matrix shape of each Hungarian solver run, in order."""
    runs = []
    real = tracker.linear_sum_assignment

    def counting(weights, maximize):
        runs.append(weights.shape)
        return real(weights, maximize=maximize)
    monkeypatch.setattr(tracker, "linear_sum_assignment", counting)
    return runs
