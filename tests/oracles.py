"""Independent oracles the tests check the library against.

Deliberately written from the definitions, by different algorithms than the
library uses: the classical oracle enumerates BOTH players' sign vectors in a
full double loop (the library enumerates one side and derives the other), the
block-matmul reference expands every sign pattern and multiplies it through
the game matrix (the library adds split low-bit and high-bit tables), the
solver reference updates one row of the Gram factor at a time against the
full embedded matrix and extrapolates row by row (the library updates each
player's rows as one block and jumps the whole factor at once), the
affine-dimension oracle is division-based Gaussian elimination over Fractions
(the library uses a certified rank modulo a prime, falling back to
fraction-free integer elimination), the no-signalling oracle reconstructs the
full conditional table from first principles, and the game validation
reference sums the prior in Fractions (the library sums the integers that
``signed_matrix`` scales over the lcm of the denominators).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import lcm

import numpy as np

from tightbell.errors import NegativePrior, NotNormalized, ShapeMismatch
from tightbell.game import XorGame, as_int, as_rational

_REFERENCE_BLOCK = 1 << 14


def _scaled_phi(g) -> tuple[list[list[int]], int]:
    den = 1
    for row in g.q:
        for v in row:
            den = lcm(den, v.denominator)
    P = [
        [(-1 if g.f[x][y] else 1) * int(g.q[x][y] * den) for y in range(g.m_b)]
        for x in range(g.m_a)
    ]
    return P, den


def oracle_bias(g, collect_pairs: bool = False):
    """Max of <alpha|Phi|beta> over the full 2^(m_a+m_b) deterministic pairs.

    Returns (xi_c as Fraction, optimal pairs or None).  Exact integer
    arithmetic throughout.
    """
    P, den = _scaled_phi(g)
    best = None
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for alpha in itertools.product((1, -1), repeat=g.m_a):
        t = [sum(alpha[x] * P[x][y] for x in range(g.m_a)) for y in range(g.m_b)]
        for beta in itertools.product((1, -1), repeat=g.m_b):
            val = sum(beta[y] * t[y] for y in range(g.m_b))
            if best is None or val > best:
                best = val
                pairs = [(alpha, beta)]
            elif val == best and collect_pairs:
                pairs.append((alpha, beta))
    return Fraction(best, den), (pairs if collect_pairs else None)


def _reference_rows(g):
    """Every optimal sign pattern of the smaller side, by block matmul.

    Bit patterns are expanded block by block into rows S of +-1 signs (bit j
    = 0 means +1) and S.P gives their column sums, in int64 while that cannot
    overflow and in Python integers otherwise.  Returns (best scaled value,
    denominator, swapped, m, [(pattern, column sums)] in ascending pattern
    order).
    """
    P, den = _scaled_phi(g)
    swapped = g.m_a > g.m_b
    if swapped:
        P = [list(col) for col in zip(*P)]
    m, mb = len(P), len(P[0])
    big = m * mb * max(abs(v) for row in P for v in row) >= 1 << 62
    Pm = np.array(P, dtype=object if big else np.int64)
    best, rows = -1, []
    for lo in range(0, 1 << m, _REFERENCE_BLOCK):
        pats = np.arange(lo, min(lo + _REFERENCE_BLOCK, 1 << m), dtype=np.int64)
        S = 1 - 2 * ((pats[:, None] >> np.arange(m, dtype=np.int64)) & 1)
        T = (S.astype(object) if big else S).dot(Pm)
        vals = np.abs(T).sum(axis=1)
        top = int(vals.max())
        if top > best:
            best, rows = top, []
        if top == best:
            rows += [(lo + int(i), [int(v) for v in T[i]]) for i in np.flatnonzero(vals == top)]
    return best, den, swapped, m, rows


def _pattern_signs(pattern: int, m: int) -> tuple[int, ...]:
    return tuple(1 - 2 * ((pattern >> j) & 1) for j in range(m))


def reference_bias(g):
    """(xi_c, (alpha, beta), num_alpha_optimal, swapped) from the block scan.

    The witness is the first optimal pattern with tied responses set to +1.
    """
    best, den, swapped, m, rows = _reference_rows(g)
    pattern, col = rows[0]
    alpha = _pattern_signs(pattern, m)
    beta = tuple(1 if v >= 0 else -1 for v in col)
    pair = (beta, alpha) if swapped else (alpha, beta)
    return Fraction(best, den), pair, len(rows), swapped


def reference_vertices(g, cap: int):
    """(xi_c, [(alpha, beta)], truncated) from the block scan.

    Optimal patterns in ascending order, each followed by every sign choice
    on its tied responses (fill bit j = 0 means +1); stops once ``cap``
    vertices are stored and another is due.
    """
    best, den, swapped, m, rows = _reference_rows(g)
    out = []
    for pattern, col in rows:
        alpha = _pattern_signs(pattern, m)
        zeros = [y for y, v in enumerate(col) if v == 0]
        for fill in range(1 << len(zeros)):
            if len(out) >= cap:
                return Fraction(best, den), out, True
            beta = [1 if v >= 0 else -1 for v in col]
            for j, y in enumerate(zeros):
                beta[y] = 1 - 2 * ((fill >> j) & 1)
            out.append((tuple(beta), alpha) if swapped else (alpha, tuple(beta)))
    return Fraction(best, den), out, False


def reference_coordinate_ascent(blocks, U, cfg, extrapolate=True):
    """The solver's sweep as one row update at a time, over the full ``Phi~``.

    Same signature as ``qsdp._coordinate_ascent``; ``Phi~`` is rebuilt from
    the two blocks ``Phi/2`` and ``Phi^T/2``.  Row ``i`` becomes ``w / |w|``
    with ``w = Phi~_i U``, in order, and keeps its value when ``w = 0``;
    sweeps stop when no row moved by more than ``cfg.change_tol``.  With
    ``extrapolate``, sweep ``4j`` (counted within the call) is followed, when
    it did not stop, by the jump: with ``d_k`` the sum over rows of each
    row's squared move at sweep ``k``, ``rho = sqrt(d_4j / d_(4j-1))``, and
    if ``rho < 0.99`` every row ``u_i`` becomes ``v / |v|`` with
    ``v = u_i + rho / (1 - rho) (u_i - u_i_before)``, where ``u_i_before`` is
    the row before sweep ``4j``.  Returns (U, sweeps, converged).
    """
    half, half_t = blocks
    m_a, m_b = half.shape
    m = m_a + m_b
    pt = np.zeros((m, m))
    pt[:m_a, m_a:] = half
    pt[m_a:, :m_a] = half_t
    moved = [0.0] * 4  # moved[k % 4]: sum of squared row moves at sweep k
    for sweep in range(1, cfg.max_iters + 1):
        before = U.copy()
        for i in range(m):
            w = pt[i] @ U
            nw = math.sqrt(w @ w)
            if nw > 0.0:
                U[i] = w / nw
        D = U - before
        if float(np.abs(D).max()) <= cfg.change_tol:
            return U, sweep, True
        moved[sweep % 4] = sum(float(d @ d) for d in D)
        if not extrapolate or sweep % 4:
            continue
        rho = math.sqrt(moved[0] / moved[3])
        if rho < 0.99:
            for i in range(m):
                v = U[i] + rho / (1 - rho) * D[i]
                U[i] = v / math.sqrt(v @ v)
    return U, cfg.max_iters, False


def reference_plain_ascent(blocks, U, cfg):
    """``reference_coordinate_ascent`` without the jump: Gauss-Seidel sweeps only."""
    return reference_coordinate_ascent(blocks, U, cfg, extrapolate=False)


def oracle_affine_dim(points) -> int:
    """Affine dimension by ordinary Gaussian elimination over Fractions."""
    pts = [list(map(Fraction, p)) for p in points]
    base = pts[0]
    rows = [[a - b for a, b in zip(p, base)] for p in pts[1:]]
    pivots: list[list[Fraction]] = []
    for row in rows:
        row = list(row)
        for piv in pivots:
            lead = next(i for i, v in enumerate(piv) if v != 0)
            if row[lead] != 0:
                factor = row[lead] / piv[lead]
                row = [a - factor * b for a, b in zip(row, piv)]
        if any(v != 0 for v in row):
            pivots.append(row)
    return len(pivots)


def oracle_probability_table(beh):
    """Conditional table p(a, b | x, y) rebuilt from the moment parametrization."""
    table = {}
    for x, ax in enumerate(beh.alpha):
        for y, by in enumerate(beh.beta):
            for a in (0, 1):
                for b in (0, 1):
                    table[(a, b, x, y)] = Fraction(1, 4) * (
                        1
                        + (-1) ** a * ax
                        + (-1) ** b * by
                        + (-1) ** (a + b) * beh.c[x][y]
                    )
    return table


def oracle_is_no_signalling(beh) -> bool:
    """Exact marginal equalities on the reconstructed table, plus validity."""
    p = oracle_probability_table(beh)
    m_a, m_b = len(beh.alpha), len(beh.beta)
    for x in range(m_a):
        for y in range(m_b):
            if any(p[(a, b, x, y)] < 0 for a in (0, 1) for b in (0, 1)):
                return False
            if sum(p[(a, b, x, y)] for a in (0, 1) for b in (0, 1)) != 1:
                return False
    for x in range(m_a):
        for a in (0, 1):
            marginals = {
                sum(p[(a, b, x, y)] for b in (0, 1)) for y in range(m_b)
            }
            if len(marginals) != 1:
                return False
    for y in range(m_b):
        for b in (0, 1):
            marginals = {
                sum(p[(a, b, x, y)] for a in (0, 1)) for x in range(m_a)
            }
            if len(marginals) != 1:
                return False
    return True


def reference_build_game(q, f) -> XorGame:
    """``build_game``'s checks in their order, with the prior summed in Fractions.

    Each entry goes through the library's own ``as_rational`` and ``as_int``, so
    the per-entry errors are the library's; the shape, sign and sum checks are
    written out here.
    """
    qm = tuple(tuple(as_rational(v) for v in row) for row in q)
    if not qm or not qm[0]:
        raise ShapeMismatch("matrix must be nonempty")
    if any(len(row) != len(qm[0]) for row in qm):
        raise ShapeMismatch("matrix rows have unequal lengths")
    fm = tuple(tuple(as_int(v) for v in row) for row in f)
    if len(fm) != len(qm) or any(len(fr) != len(qr) for fr, qr in zip(fm, qm)):
        raise ShapeMismatch("q and f must have identical shapes")
    if any(bit not in (0, 1) for row in fm for bit in row):
        raise ShapeMismatch("predicate entries must be 0 or 1")
    if any(v < 0 for row in qm for v in row):
        raise NegativePrior("prior entries must be >= 0")
    total = sum(v for row in qm for v in row)
    if total != 1:
        raise NotNormalized(f"prior sums to {total}, expected exactly 1")
    return XorGame(m_a=len(qm), m_b=len(qm[0]), q=qm, f=fm)
