"""Correctness oracles that share no code with tightbell.

They read the game as plain data (the prior ``q`` as Fractions and the
predicate ``f`` as bits) and recompute what an answer claims with numpy and
integer arithmetic.  Each check raises :class:`CheckFailed` with the reason.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

GAP_TOL = 1e-7  # tightbell's default SolveConfig.gap_tol
FEAS_TOL = 1e-8  # tightbell's default SolveConfig.feas_tol
ADV_TOL = 1e-6  # tightbell's default SolveConfig.adv_tol
_SPLIT = 10  # low bits enumerated as one table
_CHUNK = 8  # high patterns per numpy step; keeps the checker's memory near 3 MB


class CheckFailed(Exception):
    """An answer disagrees with the benchmark's independent recomputation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def int_phi(q, f) -> tuple[np.ndarray, int]:
    """(P, L) with P = L * Phi an exact int64 matrix, Phi_xy = (-1)^f q."""
    L = 1
    for row in q:
        for v in row:
            L = lcm(L, Fraction(v).denominator)
    P = [[(-1 if b else 1) * int(Fraction(v) * L) for v, b in zip(qr, fr)]
         for qr, fr in zip(q, f)]
    return np.array(P, dtype=np.int64), L


def _signs(k: int) -> np.ndarray:
    pats = np.arange(1 << k, dtype=np.int64)
    return 1 - 2 * ((pats[:, None] >> np.arange(k, dtype=np.int64)) & 1)


def classical_truth(q, f) -> tuple[Fraction, int, int]:
    """(xi_c, optimal sign patterns of the smaller side, optimal vertices).

    Enumerates the smaller side with a split table: column sums of a pattern
    are a low-bit row plus a high-bit row.  Each optimal pattern contributes
    2^(zero column sums) vertices, one per sign choice on the ties.
    """
    P, L = int_phi(q, f)
    if P.shape[0] > P.shape[1]:
        P = P.T
    m = P.shape[0]
    k = min(m, _SPLIT)
    low = _signs(k) @ P[:k]
    high = _signs(m - k) @ P[k:]
    best, patterns, vertices = -1, 0, 0
    for start in range(0, len(high), _CHUNK):
        sums = low[None, :, :] + high[start:start + _CHUNK, None, :]
        vals = np.abs(sums).sum(axis=2)
        top = int(vals.max())
        if top < best:
            continue
        if top > best:
            best, patterns, vertices = top, 0, 0
        opt = sums[vals == top]
        patterns += len(opt)
        vertices += int((1 << (opt == 0).sum(axis=1)).sum())
    return Fraction(best, L), patterns, vertices


def strategy_bias(q, f, alpha, beta) -> Fraction:
    return sum(
        (-v if b else v) * a * bb
        for qr, fr, a in zip(q, f, alpha)
        for v, b, bb in zip(qr, fr, beta)
    )


def phi_tilde(q, f) -> np.ndarray:
    """[[0, Phi/2], [Phi^T/2, 0]] in float64."""
    phi = np.array([[(-float(v) if b else float(v)) for v, b in zip(qr, fr)]
                    for qr, fr in zip(q, f)])
    m_a, m_b = phi.shape
    out = np.zeros((m_a + m_b, m_a + m_b))
    out[:m_a, m_a:] = phi / 2.0
    out[m_a:, :m_a] = phi.T / 2.0
    return out


def certificate(q, f, t, xi_q: float, gap: float, vectors=None) -> tuple[float, float]:
    """Re-verify a dual certificate; return (sum(t), smallest eigenvalue).

    diag(t) - Phi~ must be PSD to -FEAS_TOL, so sum(t) bounds the quantum
    bias from above, and the gap sum(t) - xi_q must be at most GAP_TOL.
    With the Gram vectors, xi_q is recomputed as tr(U U^T Phi~).
    """
    pt = phi_tilde(q, f)
    t = np.asarray(t, dtype=float)
    expect(t.shape == (pt.shape[0],), f"t has shape {t.shape}, game side {pt.shape[0]}")
    dual = float(t.sum())
    min_eig = float(np.linalg.eigvalsh(np.diag(t) - pt)[0])
    expect(min_eig >= -FEAS_TOL, f"diag(t) - Phi~ has eigenvalue {min_eig:.3e}")
    if vectors is not None:
        U = np.asarray(vectors, dtype=float)
        norms = np.linalg.norm(U, axis=1)
        expect(float(np.abs(norms - 1.0).max()) <= 1e-9, "Gram vectors are not unit length")
        primal = float(np.sum(U * (pt @ U)))
        expect(abs(primal - xi_q) <= 1e-9, f"xi_q {xi_q!r} but tr(Q Phi~) = {primal!r}")
    mine = dual - xi_q
    expect(-1e-9 <= mine <= GAP_TOL, f"gap sum(t) - xi_q = {mine:.3e}")
    expect(abs(mine - gap) <= 1e-9, f"reported gap {gap:.3e}, recomputed {mine:.3e}")
    return dual, min_eig


def walsh_spectrum(q_tilde, f_z) -> list[Fraction]:
    """g^(u) = sum_z (-1)^(u.z) (-1)^f(z) q~(z), via the Sylvester matrix."""
    size = len(q_tilde)
    P, L = int_phi([q_tilde], [f_z])
    idx = np.arange(size)
    parity = np.vectorize(lambda v: bin(v).count("1") & 1)(idx[:, None] & idx[None, :])
    H = 1 - 2 * parity
    return [Fraction(int(v), L) for v in H @ P[0]]


def identity_face_dim(m_a: int, m_b: int, r: int) -> int:
    """dim_full of the optimal face of an r x r identity-like game padded to m_a x m_b.

    Unpadded, the face meets the Theorem 1 bound r + r(r-1)/2.  Padded, it
    meets the Theorem 2 codimension bound, which for an r x r reduced game is
    r + r(r+1)/2 whatever the padding.
    """
    if (m_a, m_b) == (r, r):
        return r + r * (r - 1) // 2
    return m_a * m_b + m_a + m_b - (r + r * (r + 1) // 2)
