"""Shared fixtures."""

import pytest

from stabpair import exactgeom


@pytest.fixture
def hull_inputs(monkeypatch):
    """The point sets handed to `exactgeom._hull`, one per hull computed."""
    calls = []
    real = exactgeom._hull

    def counting(points):
        calls.append(tuple(points))
        return real(points)

    monkeypatch.setattr(exactgeom, "_hull", counting)
    return calls
