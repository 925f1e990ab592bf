"""Fixtures shared by the test modules."""

import pytest

from freeconv import hermitian


@pytest.fixture
def stage_count(monkeypatch):
    """A list that gains one entry per call of the homotopy ladder's stage."""
    calls = []
    real = hermitian._stage_solve

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(hermitian, "_stage_solve", counting)
    return calls
