"""Shared fixtures."""

import pytest

from tightbell import classical, exact, qsdp


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


@pytest.fixture
def ascent_starts(monkeypatch):
    """Row count of the start of every solver restart's coordinate ascent, in order."""
    calls = []
    ascent = qsdp._coordinate_ascent

    def counted(blocks, U, cfg):
        calls.append(len(U))
        return ascent(blocks, U, cfg)

    monkeypatch.setattr(qsdp, "_coordinate_ascent", counted)
    return calls


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Side of every matrix that the fraction-free elimination reads.

    Its callers are the exact rank's fallback, on a deflated Gram matrix,
    and the last step of the solver's advantage verdict, on ``S'``, which
    runs before any restart.
    """
    calls = []
    eliminate = exact._psd_rank

    def counted(S):
        calls.append(len(S))
        return eliminate(S)

    monkeypatch.setattr(exact, "_psd_rank", counted)
    return calls


@pytest.fixture
def gram_sides(monkeypatch):
    """Side of every deflated Gram matrix the exact rank proves or eliminates."""
    calls = []
    positive_definite = exact._positive_definite

    def counted(G):
        calls.append(len(G))
        return positive_definite(G)

    monkeypatch.setattr(exact, "_positive_definite", counted)
    return calls


@pytest.fixture
def infeasible_dual(monkeypatch):
    """Make every solver restart report ``min_eig = -1``, its dual infeasible."""
    evaluate = qsdp._evaluate

    def infeasible(blocks, U):
        t, xi_q, dual_value, gap, _, stalled = evaluate(blocks, U)
        return t, xi_q, dual_value, gap, -1.0, stalled

    monkeypatch.setattr(qsdp, "_evaluate", infeasible)
