"""Seeded random-instance generators, and fixed instances, shared by the tests."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from tightbell.game import DeterministicStrategy, XorGame, build_game
from tightbell.nlc import NlcSpec


def random_game(
    rng: np.random.Generator,
    max_a: int = 8,
    max_b: int = 8,
    min_a: int = 1,
    min_b: int = 1,
    max_weight: int = 12,
) -> XorGame:
    """Exhaustive random game: every prior entry positive, exact rationals."""
    m_a = int(rng.integers(min_a, max_a + 1))
    m_b = int(rng.integers(min_b, max_b + 1))
    w = rng.integers(1, max_weight + 1, size=(m_a, m_b))
    total = int(w.sum())
    q = [[Fraction(int(w[x, y]), total) for y in range(m_b)] for x in range(m_a)]
    f = [[int(b) for b in row] for row in rng.integers(0, 2, size=(m_a, m_b))]
    return build_game(q, f)


def tied_game(rng: np.random.Generator, m_a: int, m_b: int, max_weight: int = 3) -> XorGame:
    """Random game with prior weights in 0..max_weight (never all zero), so ties are common."""
    w = rng.integers(0, max_weight + 1, size=(m_a, m_b))
    if w.sum() == 0:
        w[int(rng.integers(0, m_a)), int(rng.integers(0, m_b))] = 1
    total = int(w.sum())
    q = [[Fraction(int(w[x, y]), total) for y in range(m_b)] for x in range(m_a)]
    f = [[int(b) for b in row] for row in rng.integers(0, 2, size=(m_a, m_b))]
    return build_game(q, f)


def random_nlc_spec(rng: np.random.Generator, n: int, max_weight: int = 8) -> NlcSpec:
    """Random shared-input spec; zero weights allowed, support never empty."""
    size = 1 << n
    w = rng.integers(0, max_weight + 1, size=size)
    if w.sum() == 0:
        w[int(rng.integers(0, size))] = 1
    total = int(w.sum())
    q_tilde = tuple(Fraction(int(v), total) for v in w)
    f_z = tuple(int(b) for b in rng.integers(0, 2, size=size))
    return NlcSpec(n=n, q_tilde=q_tilde, f_z=f_z)


def g0_spec(n: int) -> NlcSpec:
    """Spec of the game ``nlc.g0_dimension`` builds, whose optimal correlation face is g0(n)."""
    size = 1 << n
    q_tilde = (Fraction(1, 2),) + (Fraction(1, 2 * (size - 1)),) * (size - 1)
    return NlcSpec(n=n, q_tilde=q_tilde, f_z=(0,) + (1,) * (size - 1))


def random_strategy(rng: np.random.Generator, m_a: int, m_b: int) -> DeterministicStrategy:
    return DeterministicStrategy(
        alpha=tuple(int(v) for v in rng.choice([-1, 1], size=m_a)),
        beta=tuple(int(v) for v in rng.choice([-1, 1], size=m_b)),
    )
