"""Shared fixtures."""

import pytest

from tightbell import classical


@pytest.fixture
def enumerations(monkeypatch):
    """Arguments of every call to the classical enumeration pass, in order."""
    calls = []
    enumerate_ = classical._enumerate

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(classical, "_enumerate", counted)
    return calls
