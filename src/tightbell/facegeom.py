"""Exact face geometry of the local polytope for a given XOR game.

The optimal deterministic strategies of a game span a face of the polytope of
local behaviours; its dimension decides whether the game's inequality is
tight (a facet).  Facet verdicts are Boolean claims, so dimensions on the
classical side are exact.  Only the correlation rows ``vec(alpha beta^T)``
and the sign rows ``[alpha | beta]`` of the vertices are ranked: flipping
every answer keeps the bias, so the dimension in the full space of
``(alpha, beta, vec(alpha beta^T))`` follows from those two.  An affine
dimension is the rank over the rationals of the differences to the first
row, a certified modular rank: the rank of the Gram matrix modulo the prime
2^31 - 1 is a lower bound, and an integer certificate (the lifted echelon
form, checked against the differences exactly) proves the matching upper
bound.  Floating point is used only where every sum is an integer below
2^53, which is checked first.  When a bound fails, the prime is unlucky or
the certificate cannot be lifted, fraction-free (Bareiss) elimination on
Python integers gives the rank instead.  No tolerance either way.

Questions that are never asked are dropped before enumeration.  The face of
the original game is the reduced face times a cube of free signs, and its
dimensions follow from a few ranks of the reduced vertices by a closed
formula, so no lifted vertex is ever built.

The quantum-side face dimension is inherently numerical and is reported only
as a lower bound from sampled optima, with an explicit singular-value
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence

import numpy as np

from . import classical, qsdp
from .errors import (
    EmptyInput,
    InvalidDims,
    InvalidParameter,
    NotApplicable,
    ShapeMismatch,
    TooLarge,
    VerificationFailed,
)
from .game import DeterministicStrategy, XorGame, reduce_exhaustive

MEASURED = "measured"
LOWER_BOUND = "lower bound (truncated vertex set)"

_PRIME = (1 << 31) - 1
_RECON_BOUND = isqrt(_PRIME // 2)  # numerator and denominator cap of a lifted residue
_FLOAT_EXACT = 1 << 53  # float64 sums of integers below this are exact
_DIFF_LIMIT = 1 << 62  # int64 entries below this have int64 differences
_BLOCK_ENTRIES = 1 << 20  # float64 entries per row block of the rank certificate
# 2^27 strategy-coordinate entries: 10 x 11 (115 M) peaks at 558 MiB in 2.4 s
_TRIVIAL_FACET_BITS = 27


@dataclass(frozen=True)
class Theorem2Bounds:
    delta_full: int
    delta_corr: int


@dataclass(frozen=True)
class TrivialFacetReport:
    dim: int
    is_facet: bool


@dataclass(frozen=True)
class ProbeReport:
    dim_lower_bound: int
    thm3_bound: int
    samples_used: int
    base_xi_q: float


@dataclass(frozen=True)
class FaceReport:
    """Everything measured and bounded about one game's optimal face.

    Dimensions refer to the ORIGINAL index set (M_a, M_b) even when the game
    had never-asked questions, and ``num_vertices`` counts the optimal
    vertices of the original game.  ``provenance`` records per entry whether
    the number was measured exactly or is a lower bound from a truncated
    vertex set.  Facet verdicts are None when suppressed (truncated
    enumeration).
    """

    m_a: int
    m_b: int
    reduced_m_a: int
    reduced_m_b: int
    xi_c: Fraction
    xi_q: float
    classification: str
    num_vertices: int
    dim_full: int
    dim_corr: int
    codim_full: int
    codim_corr: int
    bound_thm1_dim: int
    bound_thm2_codim: int
    bound_thm2_codim_corr: int
    is_facet_full: bool | None
    is_facet_corr: bool | None
    truncated: bool
    provenance: dict
    quantum: qsdp.QuantumBiasResult

    @property
    def D(self) -> int:
        return self.m_a * self.m_b + self.m_a + self.m_b


def embed_vertex(v: DeterministicStrategy) -> tuple[int, ...]:
    """Integer coordinates (alpha, beta, row-major alpha beta^T) of a vertex.

    The length is D = m_a m_b + m_a + m_b; the correlation coordinates are
    the tail ``coords[m_a + m_b:]``.
    """
    return (*v.alpha, *v.beta, *(a * b for a in v.alpha for b in v.beta))


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, division-free pivoting.

    Classic fraction-free elimination: every interior division is exact, and
    intermediate entries are minors of the input, so growth stays polynomial.
    """
    M = [list(r) for r in rows]
    if not M:
        return 0
    n, ncols = len(M), len(M[0])
    rank, prev = 0, 1
    for col in range(ncols):
        piv = None
        for r in range(rank, n):
            if M[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        p = M[rank][col]
        pivot_row = M[rank]
        for r in range(rank + 1, n):
            row = M[r]
            mrc = row[col]
            for c in range(col, ncols):
                row[c] = (row[c] * p - mrc * pivot_row[c]) // prev
        prev = p
        rank += 1
        if rank == n:
            break
    return rank


def _rref_mod_p(A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a residue matrix modulo ``_PRIME``.

    Entries stay in ``[0, p)``, so every product fits in int64.
    """
    A = A.copy()
    pivots: list[int] = []
    for c in range(A.shape[1]):
        r = len(pivots)
        if r == A.shape[0]:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r, c:] = A[r, c:] * pow(int(A[r, c]), _PRIME - 2, _PRIME) % _PRIME
        col = A[:, c].copy()
        col[r] = 0
        A[:, c:] = (A[:, c:] - np.outer(col, A[r, c:]) % _PRIME) % _PRIME
        pivots.append(c)
    return A[: len(pivots)], pivots


def _rational(u: int) -> tuple[int, int] | None:
    """``a / b`` with ``a = b u (mod p)``, ``|a|, b <= _RECON_BOUND``, or None."""
    r0, r1, t0, t1 = _PRIME, u, 0, 1
    while r1 > _RECON_BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > _RECON_BOUND or gcd(r1, t1) != 1:
        return None
    return r1, t1


def _float_blocks(M: np.ndarray):
    """Row blocks of ``M`` as float64 copies of about ``_BLOCK_ENTRIES`` entries."""
    step = max(1, _BLOCK_ENTRIES // M.shape[1])
    for lo in range(0, M.shape[0], step):
        yield M[lo : lo + step].astype(np.float64)


def _certified_rank(M: np.ndarray) -> int | None:
    """Rank over Q of a nonzero int64 matrix, or None where no certificate is found.

    With ``M`` oriented so it has no more columns than rows, ``G = M^T M``
    is summed in float64 over row blocks, exact because every partial sum is
    an integer of size at most ``max|M|^2 * rows < 2^53``.  The rank ``r`` of
    ``G`` mod p is at most rank_Q(G) = rank_Q(M).  Below full column rank,
    the reduced echelon form of ``G`` is lifted to rationals with common
    denominator ``delta`` as an integer matrix ``N``, and
    ``delta * M == M[:, pivots] @ N`` is checked exactly, block by block
    (float64 again, bounds checked first): every column of ``M`` then lies
    in the span of ``r`` of its columns, so rank_Q(M) <= r as well.  Only
    one float block is held at a time, never a float copy of ``M``.
    """
    if M.shape[0] < M.shape[1]:
        M = M.T
    rows, cols = M.shape
    big = max(int(M.max()), -int(M.min()))
    if big * big * rows >= _FLOAT_EXACT:
        return None
    G = np.zeros((cols, cols))
    for F in _float_blocks(M):
        G += F.T @ F
    R, pivots = _rref_mod_p(G.astype(np.int64) % _PRIME)
    r = len(pivots)
    if r == cols:
        return r
    if r == 0:
        return None  # M is nonzero, so the prime divides all of G
    residues, where = np.unique(R, return_inverse=True)
    fractions = [_rational(int(u)) for u in residues]
    if None in fractions:
        return None
    delta = lcm(*(b for _, b in fractions))
    coeffs = [a * (delta // b) for a, b in fractions]
    n_big = max(abs(c) for c in coeffs)
    if delta * big >= _FLOAT_EXACT or r * big * n_big >= _FLOAT_EXACT:
        return None
    N = np.array(coeffs, dtype=np.float64)[where.reshape(R.shape)]
    for F in _float_blocks(M):
        if not np.array_equal(F * delta, F[:, pivots] @ N):
            return None
    return r


def _int64_differences(points) -> np.ndarray | None:
    """Differences to the first point as an int64 array; None beyond int64.

    numpy stores integers past int64 as objects or floats, so only an
    integer dtype with every entry below 2^62 is taken.
    """
    P = np.asarray(points)
    if P.dtype.kind not in "biu":
        return None
    if P.size and not (-_DIFF_LIMIT < P.min() and P.max() < _DIFF_LIMIT):
        return None
    D = P[1:].astype(np.int64)
    D -= P[0].astype(np.int64)
    return D


def affine_dimension_exact(points: Sequence[Sequence[int]] | np.ndarray) -> int:
    """Exact affine dimension of a set of integer vectors.

    Rank of the differences to the first point; invariant under permuting the
    input and under the choice of base point.  ``points`` may be a 2-D
    integer array.  The certified modular rank answers whenever its bounds
    and certificate hold; Bareiss elimination on Python integers answers
    otherwise, so the result is exact either way.  An entry that is not an
    integer (a float, even ``2.0``, or a Fraction) raises InvalidParameter.
    """
    if len(points) == 0:
        raise EmptyInput("affine dimension of an empty point set is undefined")
    if not isinstance(points, np.ndarray) and len({len(p) for p in points}) != 1:
        raise ShapeMismatch("all points must have the same length")
    M = _int64_differences(points)
    if M is not None:
        if not M.any():
            return 0
        rank = _certified_rank(M)
        if rank is not None:
            return rank
        rows = M.tolist()
    else:
        pts = points.tolist() if isinstance(points, np.ndarray) else points
        if not all(hasattr(type(x), "__index__") for p in pts for x in p):
            raise InvalidParameter("points must have integer entries")
        rows = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    return _bareiss_rank(rows)


def theorem1_dim_bound(m_a: int, m_b: int) -> int:
    """Dimension cap for the optimal face of a no-advantage exhaustive game."""
    if m_a < 1 or m_b < 1:
        raise InvalidDims("dimensions must be positive")
    m = min(m_a, m_b)
    return m + m * (m - 1) // 2


def theorem2_codim_bound(M_a: int, M_b: int, m_a: int, m_b: int) -> Theorem2Bounds:
    """Codimension lower bounds for reduced games, original index set.

    ``M`` are the unreduced input counts, ``m`` the exhaustive ones; sides are
    normalized so the smaller reduced side plays Alice.
    """
    if min(M_a, M_b, m_a, m_b) < 1 or m_a > M_a or m_b > M_b:
        raise InvalidDims(f"need 1 <= m <= M on both sides, got {(M_a, M_b, m_a, m_b)}")
    if m_a > m_b:
        M_a, M_b, m_a, m_b = M_b, M_a, m_b, m_a
    delta_full = m_b + M_a * (m_b - m_a) + m_a * (m_a + 1) // 2
    delta_corr = M_a * (m_b - m_a) + m_a * (m_a + 1) // 2
    return Theorem2Bounds(delta_full=delta_full, delta_corr=delta_corr)


def trivial_facet_check(m_a: int, m_b: int, x0: int, y0: int, sign: int) -> TrivialFacetReport:
    """Exact dimension of the correlation face ``{c : c_{x0,y0} = sign}``.

    Enumerates every deterministic strategy with ``alpha_x0 beta_y0 = sign``
    and measures the affine span of their correlators; the face is a facet
    exactly when that span has dimension m_a m_b - 1.  The strategies number
    2^(m_a + m_b - 1); beyond 2^27 correlator entries in all (10 x 11 is in,
    11 x 11 is not) TooLarge is raised before anything is allocated.
    """
    if m_a < 1 or m_b < 1 or not (0 <= x0 < m_a) or not (0 <= y0 < m_b):
        raise InvalidDims(f"bad dimensions or indices {(m_a, m_b, x0, y0)}")
    if sign not in (-1, 1):
        raise InvalidDims("sign must be +1 or -1")
    bits = m_a + m_b - 1  # the first test spares a huge shift
    if bits > _TRIVIAL_FACET_BITS or (m_a * m_b) << bits > 1 << _TRIVIAL_FACET_BITS:
        raise TooLarge(f"2^{bits} strategies x {m_a * m_b} correlators exceed the budget")
    # (alpha, beta) and (-alpha, -beta) share correlators, and distinct pairs
    # otherwise differ in them; alpha_x0 = +1 keeps one strategy of each pair
    alphas = np.insert(classical._signs(np.arange(1 << (m_a - 1)), m_a - 1), x0, 1, axis=1)
    betas = np.insert(classical._signs(np.arange(1 << (m_b - 1)), m_b - 1), y0, sign, axis=1)
    corr = alphas.astype(np.int8)[:, None, :, None] * betas.astype(np.int8)[None, :, None, :]
    dim = affine_dimension_exact(corr.reshape(-1, m_a * m_b))
    return TrivialFacetReport(dim=dim, is_facet=dim == m_a * m_b - 1)


def _face_dimensions(signs: np.ndarray, m_a: int, d_a: int, d_b: int) -> tuple[int, int]:
    """Exact (dim_full, dim_corr) of the face lifted over never-asked questions.

    The optimal vertices of a game with ``d_a`` never-asked rows and ``d_b``
    never-asked columns are ``V x {+-1}^d_a x {+-1}^d_b``: reduced vertices
    ``(a, b)``, the rows ``[a | b]`` of ``signs``, with free signs ``s`` and
    ``t`` on the dropped questions.  Every lifted correlator is a reduced
    function times one character of the sign cube, 1, ``s_i``, ``t_j`` or
    ``s_i t_j``; distinct characters are orthogonal over the cube, so with
    ``aff`` the affine dimension of the rows and ``rank`` their linear rank:

        dim_corr = aff{a b^T} + d_a rank{b} + d_b rank{a} + d_a d_b

    Flipping every answer keeps the bias, so a complete V is closed under
    ``v -> -v``.  With ``p_v = (a, b, a b^T)``, each ``p_v - p_-v = (2a, 2b, 0)``
    lies in the span S of the differences, so every ``p_v - p_w`` splits into
    ``(a_v - a_w, b_v - b_w, 0)`` and ``(0, 0, c_v - c_w)``, both in S.  The
    parts sit in disjoint coordinate blocks, so aff{p} = rank[a | b] +
    aff{a b^T}, affine dimension equalling linear rank on a flip-closed set;
    each free sign adds one more direction:

        dim_full = dim_corr + rank[a | b] + d_a + d_b

    Every term can only grow with V, so on a truncated set both are lower
    bounds on the true dimensions.
    """
    corr = (signs[:, :m_a, None] * signs[:, None, m_a:]).reshape(len(signs), -1)
    dim_corr = affine_dimension_exact(corr) + d_a * d_b
    signs = np.vstack([np.zeros_like(signs[:1]), signs])  # with the origin, aff = rank
    if d_a:
        dim_corr += d_a * affine_dimension_exact(signs[:, m_a:])
    if d_b:
        dim_corr += d_b * affine_dimension_exact(signs[:, :m_a])
    return dim_corr + affine_dimension_exact(signs) + d_a + d_b, dim_corr


def face_report(
    g: XorGame,
    *,
    enum_cap: int = classical.DEFAULT_ENUM_CAP,
    vertex_cap: int = classical.DEFAULT_VERTEX_CAP,
    solve_cfg: qsdp.SolveConfig | None = None,
) -> FaceReport:
    """Full pipeline: reduce, enumerate, embed, measure, bound, verdict.

    Dimensions refer to the original index set.  Never-asked questions are
    dropped before enumeration, and the dimensions of the original face follow
    exactly from the reduced vertices (:func:`_face_dimensions`), so
    ``vertex_cap`` bounds only the reduced enumeration.  A truncated reduced
    vertex set downgrades dimensions to lower bounds and suppresses facet
    verdicts.
    """
    reduced, rmap = reduce_exhaustive(g)
    vs = classical.optimal_vertices(reduced, cap=vertex_cap, enum_cap=enum_cap)
    qres = qsdp.solve_quantum_bias(reduced, solve_cfg, xi_c=vs.xi_c)

    M_a, M_b = rmap.original_dims
    D = M_a * M_b + M_a + M_b
    d_a = M_a - reduced.m_a
    d_b = M_b - reduced.m_b
    thm2 = theorem2_codim_bound(M_a, M_b, reduced.m_a, reduced.m_b)

    signs = np.array([v.alpha + v.beta for v in vs.vertices], dtype=np.int8)
    dim_full, dim_corr = _face_dimensions(signs, reduced.m_a, d_a, d_b)
    truncated = vs.truncated
    label = LOWER_BOUND if truncated else MEASURED

    return FaceReport(
        m_a=M_a,
        m_b=M_b,
        reduced_m_a=reduced.m_a,
        reduced_m_b=reduced.m_b,
        xi_c=vs.xi_c,
        xi_q=qres.xi_q,
        classification=qres.classification,
        num_vertices=len(vs.vertices) << (d_a + d_b),
        dim_full=dim_full,
        dim_corr=dim_corr,
        codim_full=D - dim_full,
        codim_corr=M_a * M_b - dim_corr,
        bound_thm1_dim=theorem1_dim_bound(reduced.m_a, reduced.m_b),
        bound_thm2_codim=thm2.delta_full,
        bound_thm2_codim_corr=thm2.delta_corr,
        is_facet_full=None if truncated else dim_full == D - 1,
        is_facet_corr=None if truncated else dim_corr == M_a * M_b - 1,
        truncated=truncated,
        provenance={"dim_full": label, "dim_corr": label},
        quantum=qres,
    )


def quantum_face_probe(
    g: XorGame,
    *,
    samples: int = 24,
    perturb_scale: float = 0.05,
    rank_tol: float = 1e-6,
    solve_cfg: qsdp.SolveConfig | None = None,
) -> ProbeReport:
    """Lower-bound the dimension of the optimal quantum correlator face.

    Collects correlator blocks from many certified optima (fresh restarts
    alternating with tangent perturbations of the base optimum re-optimized to
    the same certified value) and counts singular values of the differences
    above ``rank_tol``.  Only a LOWER bound: sampling cannot certify that more
    directions do not exist.  The reported comparison bound is
    ``m (m - 1) / 2`` with m the smaller input count.
    """
    cfg = solve_cfg or qsdp.SolveConfig()
    base = qsdp.solve_quantum_bias(g, cfg)
    if base.classification != qsdp.NO_ADVANTAGE:
        raise NotApplicable(
            f"face probe requires a no-advantage game, got {base.classification!r}"
        )
    m = min(g.m_a, g.m_b)
    thm3 = m * (m - 1) // 2
    C_base = base.gram.C
    diffs = []
    used = 0
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xFACE)))
    one_shot = replace(cfg, restarts=1)
    for k in range(samples):
        if k % 2 == 0:
            sample_cfg = replace(cfg, seed=(cfg.seed + 1 + k) % 2**64, restarts=2)
            res = qsdp.solve_quantum_bias(g, sample_cfg, xi_c=base.xi_c)
        else:
            U0 = base.gram.vectors + perturb_scale * rng.normal(
                size=base.gram.vectors.shape
            )
            res = qsdp.solve_quantum_bias(g, one_shot, xi_c=base.xi_c, initial=U0)
        if res.certified and abs(res.xi_q - base.xi_q) <= cfg.gap_tol:
            diffs.append((res.gram.C - C_base).ravel())
            used += 1
    if diffs:
        sv = np.linalg.svd(np.vstack(diffs), compute_uv=False)
        dim_lb = int(np.count_nonzero(sv > rank_tol))
    else:
        dim_lb = 0
    if dim_lb > thm3:
        raise VerificationFailed(
            f"probe found {dim_lb} directions, above the theoretical bound {thm3}"
        )
    return ProbeReport(
        dim_lower_bound=dim_lb,
        thm3_bound=thm3,
        samples_used=used,
        base_xi_q=base.xi_q,
    )


def face_report_to_dict(report: FaceReport) -> dict:
    """JSON-exportable face report with the solver certificate inline."""
    return {
        "m_a": report.m_a,
        "m_b": report.m_b,
        "reduced_m_a": report.reduced_m_a,
        "reduced_m_b": report.reduced_m_b,
        "D": report.D,
        "xi_c": str(report.xi_c),
        "xi_q": report.xi_q,
        "classification": report.classification,
        "num_vertices": report.num_vertices,
        "dim_full": report.dim_full,
        "dim_corr": report.dim_corr,
        "codim_full": report.codim_full,
        "codim_corr": report.codim_corr,
        "bound_thm1_dim": report.bound_thm1_dim,
        "bound_thm2_codim": report.bound_thm2_codim,
        "bound_thm2_codim_corr": report.bound_thm2_codim_corr,
        "is_facet_full": report.is_facet_full,
        "is_facet_corr": report.is_facet_corr,
        "truncated": report.truncated,
        "provenance": dict(report.provenance),
        "certificate": qsdp.certificate_to_dict(report.quantum),
    }
