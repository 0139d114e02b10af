"""Shared fixtures."""

import pytest

from stabpair import exactgeom


@pytest.fixture
def hull_inputs(monkeypatch):
    """The point sets handed to `exactgeom._extreme_points`, one per hull computed."""
    calls = []
    real = exactgeom._extreme_points

    def counting(points):
        calls.append(tuple(points))
        return real(points)

    monkeypatch.setattr(exactgeom, "_extreme_points", counting)
    return calls
