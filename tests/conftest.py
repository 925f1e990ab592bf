"""Fixtures shared by the test modules."""

import pytest

from freeconv import hermitian, nonhermitian


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


@pytest.fixture(autouse=True)
def fresh_point_solves():
    """Start every test with an empty one-point solve memo, so that a solver
    constant or function the test patches reaches its one-point solves."""
    nonhermitian._point_solve.cache_clear()
