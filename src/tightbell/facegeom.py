"""Exact face geometry of the local polytope for a given XOR game.

The optimal deterministic strategies of a game span a face of the polytope of
local behaviours; its dimension decides whether the game's inequality is
tight (a facet).  Facet verdicts are Boolean claims, so dimensions on the
classical side are exact.  Only the correlation rows ``vec(alpha beta^T)``
and the sign rows ``[alpha | beta]`` of the vertices are ranked: flipping
every answer keeps the bias, so the dimension in the full space of
``(alpha, beta, vec(alpha beta^T))`` follows from those two.  Every rank is
one exact routine, the rank over the rationals of an integer matrix in its
own dtype or of Python integers; an affine dimension is one less than the
rank of the points with a nonzero constant column appended.  The matrix is
read once, to form its exact integer Gram matrix G; the rest reads only G.
Zero columns and columns parallel to an earlier one cannot raise the rank;
at every scale they are dropped first, read off G exactly by the equality
case of Cauchy-Schwarz.  Full rank of the deflated G is proved by a
congruence: with C its float Cholesky factor and X = rint(2^s C^-1), the
integer matrix X G X^T is computed exactly, and if it is strictly
diagonally dominant with a positive diagonal, G is positive definite.
Otherwise its rank modulo the prime 2^31 - 1 is a lower bound: a full one
proves full rank, and below that an integer certificate (the lifted echelon
form, checked exactly on G) proves the matching upper bound.  G and the
certificate check follow one rule: float64 where every sum is an integer
below 2^53, which is checked first, else Python integers.  The congruence
is float64 only and proves nothing past 2^53.  When the prime is unlucky
or the certificate cannot be lifted, fraction-free (Bareiss) elimination
of the deflated G gives the rank.  No tolerance.

Questions that are never asked are dropped before enumeration.  The face of
the original game is the reduced face times a cube of free signs, and its
dimensions follow from a few ranks of the reduced vertices by a closed
formula, so no lifted vertex is ever built.

The quantum-side face dimension is inherently numerical and is reported only
as a lower bound from sampled optima, with an explicit singular-value
threshold.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from math import frexp, gcd, isqrt, lcm
from typing import Sequence

import numpy as np

from . import classical, qsdp
from .errors import (
    EmptyInput,
    InvalidDims,
    InvalidParameter,
    NotApplicable,
    ShapeMismatch,
    VerificationFailed,
)
from .game import XorGame, reduce_exhaustive
from .qsdp import _FLOAT_EXACT

MEASURED = "measured"
LOWER_BOUND = "lower bound (truncated vertex set)"

_PRIME = (1 << 31) - 1
_RECON_BOUND = isqrt(_PRIME // 2)  # numerator and denominator cap of a lifted residue
_SQUARE_LIMIT = 1 << 31  # int64 holds the square of an integer below this
_BLOCK_ENTRIES = 1 << 20  # float64 entries per row block of the Gram sum
_PROBE_SAMPLES = 24  # certified re-solves per quantum face probe
_PROBE_RANK_TOL = 1e-6  # singular values above this count as face directions


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


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of a square matrix of Python integers.

    Classic fraction-free elimination: every interior division is exact, and
    intermediate entries are minors of the input, so growth stays polynomial.
    """
    M = [list(r) for r in rows]
    n = len(M)
    rank, prev = 0, 1
    for col in range(n):
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
            for c in range(col, n):
                row[c] = (row[c] * p - mrc * pivot_row[c]) // prev
        prev = p
        rank += 1
    return rank


def _rref_mod_p(A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a residue matrix modulo ``_PRIME``.

    Entries stay in ``[0, p)``, so an entry minus a product of two fits in
    int64 and each pivot's update takes one remainder, in place.
    """
    A = A.copy()
    pivots: list[int] = []
    for c in range(A.shape[1]):
        r = len(pivots)
        if r == A.shape[0]:
            break
        if not A[r, c]:
            nz = np.flatnonzero(A[r:, c])
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            A[[r, i]] = A[[i, r]]
        T = A[:, c:]
        row = T[r]
        row *= pow(int(row[0]), -1, _PRIME)
        row %= _PRIME
        col = T[:, :1].copy()
        col[r] = 0
        T -= col * row
        T %= _PRIME
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


def _row_blocks(M: np.ndarray, dtype):
    """Row blocks of ``M`` as ``dtype`` copies of about ``_BLOCK_ENTRIES`` entries."""
    step = max(1, _BLOCK_ENTRIES // M.shape[1])
    for lo in range(0, M.shape[0], step):
        yield M[lo : lo + step].astype(dtype)


def _positive_definite(A: np.ndarray) -> bool:
    """Whether a congruence proves the symmetric integer matrix ``A`` positive definite.

    ``C`` is the float Cholesky factor, ``A ~ C C^T``, and ``X = rint(2^s
    C^-1)``.  With ``w`` the largest row sum of ``|X|`` and ``t`` the sum of
    all its entries, ``s`` is as large as keeps ``w t max|A| < 2^53``,
    checked on ``X`` itself: every partial sum of ``B = X A X^T``, in any
    order, and every row sum of ``|B|`` is then an integer below 2^53,
    exact in float64.  If every ``2 B_ii`` exceeds its row sum of ``|B|``,
    then ``B`` is strictly diagonally dominant with a positive diagonal, so
    ``B`` is positive definite; that forces ``X`` to be nonsingular, and
    ``A = X^-1 B X^-T`` is positive definite too.  ``False`` proves nothing:
    an indefinite or singular ``A`` usually fails the float factorisation
    itself, and an ill-conditioned one fails the check.  ``A`` is int64 or
    of Python integers (object dtype); ``max|A| >= 2^53`` is refused before
    the float64 copy, which would round it or overflow.
    """
    a_max = max(int(A.max()), -int(A.min()))
    if a_max >= _FLOAT_EXACT:
        return False
    F = A.astype(np.float64)
    try:
        X = np.linalg.inv(np.linalg.cholesky(F))
    except np.linalg.LinAlgError:
        return False
    rows = np.abs(X).sum(axis=1)
    # frexp(y)[1] - 1 = floor(log2 y); 2^2s <= y / 4 leaves room for the rounding
    y = _FLOAT_EXACT / (a_max * rows.max() * rows.sum())
    X = np.rint(np.ldexp(X, (frexp(y)[1] - 1) // 2 - 1))
    rows = np.abs(X).sum(axis=1)
    w, t = rows.max(), rows.sum()
    if not (t < _FLOAT_EXACT and int(w) * int(t) * a_max < _FLOAT_EXACT):
        return False  # also inf and NaN
    B = X @ F @ X.T
    return bool((2 * B.diagonal() > np.abs(B).sum(axis=1)).all())


def _span_certificate(S: np.ndarray) -> tuple[list[int], int, np.ndarray] | None:
    """Pivots ``P``, ``delta`` and ``N`` with ``delta S == S[:, P] N``, or None.

    ``S`` is a square matrix, int64 or of Python integers (object dtype),
    reduced mod p into int64 for the echelon.  Its rank ``r`` modulo p is at
    most its rank over Q, so a full ``r`` is returned at once, with ``delta
    = 1`` and ``N`` the int64 identity.  Otherwise the reduced echelon form
    of ``S`` mod p is lifted to rationals with common denominator ``delta``
    as the ``r``-row integer matrix ``N``, and the identity is checked
    exactly: in float64 while ``delta max|S|`` and ``r max|S| max|N|`` are
    below 2^53 (so ``S`` is read as float64 only when ``max|S| < 2^53``),
    else in Python integers.  ``N`` is int64, or of Python integers past
    that bound.  The identity puts every column of ``S`` in the span of the
    ``r`` pivot columns, so the rank over Q is ``r`` as well, and for each
    ``j`` the vector ``delta e_j`` minus ``N_j`` placed on the pivots is in
    the kernel of ``S``.  None only when a residue does not lift or the
    identity fails, as it does when the rank modulo p is below the rank
    over Q.
    """
    R, pivots = _rref_mod_p((S % _PRIME).astype(np.int64, copy=False))
    if len(pivots) == len(S):
        return pivots, 1, R  # R = I: full rank mod p is full rank over Q
    residues, where = np.unique(R, return_inverse=True)
    fractions = [_rational(int(u)) for u in residues]
    if None in fractions:
        return None
    delta = lcm(*(b for _, b in fractions))
    coeffs = [a * (delta // b) for a, b in fractions]
    n_big = max(map(abs, coeffs), default=0)
    s_max = max(int(S.max()), -int(S.min()))
    exact = delta * s_max < _FLOAT_EXACT and len(pivots) * s_max * n_big < _FLOAT_EXACT
    N = np.array(coeffs, dtype=np.int64 if exact else object)[where.reshape(R.shape)]
    F = S.astype(np.float64 if exact else object)
    return (pivots, delta, N) if np.array_equal(F * delta, F[:, pivots] @ N) else None


def _rank(M: np.ndarray) -> int:
    """Exact rank over Q of a 2-D array of integers, of integer or object dtype.

    With ``M`` oriented so it has no more columns than rows, the one pass
    over ``M`` forms the exact Gram matrix ``G = M^T M``, of the same rank,
    summed over row blocks: in float64 while ``max|M|^2 * rows < 2^53``
    (every partial sum is then an exact integer), else in Python integers.

    Columns that cannot raise the rank are dropped first, decided exactly on
    ``G``: column ``j`` is zero when ``G_jj = 0``, and parallel to column
    ``i`` when ``G_ij^2 = G_ii G_jj``, the equality case of Cauchy-Schwarz.
    Zero columns go, and so does every column parallel to an earlier
    nonzero one.  A zero column meets the equality with every column, so it
    is never a witness.  The squares are taken in int64 while every ``G_jj
    < 2^31``, since ``|G_ij|`` is at most the larger diagonal entry, and in
    Python integers beyond that.  The kept columns ``K`` span the column
    space of ``M``, so what follows reads ``G[K][:, K]``.

    A Gram matrix is positive definite exactly when it is nonsingular, so
    full rank, the usual case for face matrices once deflated, is proved by
    :func:`_positive_definite` with no elimination; it refuses entries of
    2^53 or more.  Otherwise :func:`_span_certificate` proves the rank, at
    any entry size.  Without either proof (an unlucky prime or an echelon
    form that does not lift), fraction-free (Bareiss) elimination of the
    deflated ``G`` gives it, at a cost cubic in its side.
    """
    if not M.any():
        return 0
    T = M.T if M.shape[0] < M.shape[1] else M
    rows, cols = T.shape
    big = max(int(T.max()), -int(T.min()))
    dtype = np.float64 if big * big * rows < _FLOAT_EXACT else object
    G = np.zeros((cols, cols), dtype)
    for B in _row_blocks(T, dtype):
        G += B.T @ B
    G = G.astype(np.int64) if dtype is np.float64 else G
    S = G if G.diagonal().max() < _SQUARE_LIMIT else G.astype(object, copy=False)
    diag = S.diagonal()
    # witness[i, j]: column i is nonzero and parallel to column j.  A nonzero
    # column witnesses itself and stays unless an earlier one witnesses it; a
    # zero column's first witness is the first nonzero one.
    witness = (S * S == np.multiply.outer(diag, diag)) & (diag > 0)[:, None]
    keep = np.flatnonzero(witness.argmax(axis=0) == np.arange(cols))
    G = G[keep[:, None], keep]
    if _positive_definite(G):
        return len(keep)
    certificate = _span_certificate(G)
    if certificate is not None:
        return len(certificate[0])
    return _bareiss_rank(G.tolist())


def affine_dimension_exact(points: Sequence[Sequence[int]] | np.ndarray) -> int:
    """Exact affine dimension of a set of integer vectors.

    One less than the rank of the points with a nonzero constant column
    appended; invariant under permuting the input and under the choice of
    base point.  ``points`` may be a 2-D integer array.  Every input is
    ranked by :func:`_rank`, so the result is exact at any size.  Integer
    arrays are ranked in their own dtype; any other input, such as integers
    past int64 or a list that numpy would read as float64, is ranked as
    Python integers.  An entry that is not an integer (a float, even
    ``2.0``, or a Fraction) raises InvalidParameter.

    For any ``c != 0`` the rows ``[p | c]`` have rank one more than this
    dimension.  Here ``c = max(1, max p, -1 - min p)``: it fits the dtype and
    matches the data's scale, where a column of ones next to large entries
    can defeat the full-rank proof.
    """
    if len(points) == 0:
        raise EmptyInput("affine dimension of an empty point set is undefined")
    # object dtype: a list's shape is checked without numpy rounding its integers
    A = points if isinstance(points, np.ndarray) else np.asarray(points, dtype=object)
    if A.ndim != 2:
        raise ShapeMismatch("points must be vectors of one common length")
    P = A if A is points else np.asarray(points)  # integers within int64 or uint64
    if P.dtype.kind not in "biu":
        try:
            P = np.frompyfunc(operator.index, 1, 1)(A)
        except TypeError:
            raise InvalidParameter("points must have integer entries") from None
    lo, hi = P.min(axis=0), P.max(axis=0)
    if np.array_equal(lo, hi):
        return 0  # coincident points, zero-width rows included
    c = max(1, int(hi.max()), -1 - int(lo.min()))
    return _rank(np.hstack([P, np.full((len(P), 1), c, dtype=P.dtype)])) - 1


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

    It is the optimal face of the game asking only ``(x0, y0)``: two reduced
    vertices ``+-(1, sign)`` and every other question never asked, measured
    exactly at any size by :func:`_face_dimensions`.  A facet has dimension
    m_a m_b - 1.
    """
    if m_a < 1 or m_b < 1 or not (0 <= x0 < m_a) or not (0 <= y0 < m_b):
        raise InvalidDims(f"bad dimensions or indices {(m_a, m_b, x0, y0)}")
    if sign not in (-1, 1):
        raise InvalidDims("sign must be +1 or -1")
    signs = np.array([[1, sign], [-1, -sign]], dtype=np.int8)
    _, dim = _face_dimensions(signs, 1, m_a - 1, m_b - 1)
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
    if d_a:
        dim_corr += d_a * _rank(signs[:, m_a:])
    if d_b:
        dim_corr += d_b * _rank(signs[:, :m_a])
    return dim_corr + _rank(signs) + d_a + d_b, dim_corr


def face_report(
    g: XorGame,
    *,
    enum_cap: int = classical.DEFAULT_ENUM_CAP,
    vertex_cap: int = classical.DEFAULT_VERTEX_CAP,
    solve_cfg: qsdp.SolveConfig | None = None,
) -> FaceReport:
    """Full pipeline: reduce, enumerate, measure, bound, verdict.

    Dimensions refer to the original index set.  Never-asked questions are
    dropped before enumeration, and the dimensions of the original face follow
    exactly from the reduced vertices (:func:`_face_dimensions`), so
    ``vertex_cap`` bounds only the reduced enumeration.  A truncated reduced
    vertex set downgrades dimensions to lower bounds and suppresses facet
    verdicts.  A ``vertex_cap`` below 1 raises InvalidParameter.
    """
    if vertex_cap < 1:
        raise InvalidParameter(f"vertex_cap must be positive, got {vertex_cap}")
    reduced = reduce_exhaustive(g)
    vs = classical.optimal_vertices(reduced, cap=vertex_cap, enum_cap=enum_cap)
    qres = qsdp.solve_quantum_bias(reduced, solve_cfg, xi_c=vs.xi_c)

    M_a, M_b = g.m_a, g.m_b
    D = M_a * M_b + M_a + M_b
    d_a, d_b = M_a - reduced.m_a, M_b - reduced.m_b
    thm2 = theorem2_codim_bound(M_a, M_b, reduced.m_a, reduced.m_b)

    dim_full, dim_corr = _face_dimensions(vs.signs, reduced.m_a, d_a, d_b)
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
        num_vertices=len(vs.signs) << (d_a + d_b),
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


def quantum_face_probe(g: XorGame, *, solve_cfg: qsdp.SolveConfig | None = None) -> ProbeReport:
    """Lower-bound the dimension of the optimal quantum correlator face.

    Probes :func:`reduce_exhaustive` of ``g``, as :func:`face_report` does:
    the vectors of a never-asked question are not pinned by the optimum, so
    they would add random directions.  Solves the reduced game once at
    ``solve_cfg`` for the base optimum, then 24 more times: sample ``k`` is a
    fresh two-restart solve at seed ``seed + 1 + k`` (mod 2^64).  The
    correlator blocks of the samples certified at the base value are
    differenced against the base, and the singular values of the differences
    above 1e-6 are counted.  Only a LOWER bound: sampling cannot certify that
    more directions do not exist.  The reported comparison bound is
    ``m (m - 1) / 2`` with m the smaller input count.  Both numbers refer to
    the reduced game.
    """
    cfg = solve_cfg or qsdp.SolveConfig()
    g = reduce_exhaustive(g)
    base = qsdp.solve_quantum_bias(g, cfg)
    if base.classification != qsdp.NO_ADVANTAGE:
        raise NotApplicable(
            f"face probe requires a no-advantage game, got {base.classification!r}"
        )
    m = min(g.m_a, g.m_b)
    thm3 = m * (m - 1) // 2
    C_base = base.gram.C
    diffs = []
    for k in range(_PROBE_SAMPLES):
        sample_cfg = replace(cfg, seed=(cfg.seed + 1 + k) % 2**64, restarts=2)
        res = qsdp.solve_quantum_bias(g, sample_cfg, xi_c=base.xi_c)
        if res.certified and abs(res.xi_q - base.xi_q) <= cfg.gap_tol:
            diffs.append((res.gram.C - C_base).ravel())
    if diffs:
        sv = np.linalg.svd(np.vstack(diffs), compute_uv=False)
        dim_lb = int(np.count_nonzero(sv > _PROBE_RANK_TOL))
    else:
        dim_lb = 0
    if dim_lb > thm3:
        raise VerificationFailed(
            f"probe found {dim_lb} directions, above the theoretical bound {thm3}"
        )
    return ProbeReport(
        dim_lower_bound=dim_lb,
        thm3_bound=thm3,
        samples_used=len(diffs),
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
