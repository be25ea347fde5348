"""Exact face dimensions, bounds, verdicts, and the quantum face probe."""

import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import isqrt, lcm

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tightbell import (
    affine_dimension_exact,
    exact,
    face_report,
    face_report_to_dict,
    facegeom,
    make_named,
    optimal_vertices,
    qsdp,
    quantum_face_probe,
    theorem1_dim_bound,
    theorem2_codim_bound,
    trivial_facet_check,
)
from tightbell.errors import (
    EmptyInput,
    InvalidDims,
    InvalidParameter,
    NotApplicable,
    ShapeMismatch,
    VerificationFailed,
)
from tightbell.facegeom import LOWER_BOUND, MEASURED
from tightbell.game import build_game, reduce_exhaustive

from .generators import random_game
from .oracles import (
    oracle_affine_dim,
    oracle_bias,
    oracle_rref,
    oracle_sampled_face_dim,
    reference_rref_mod_p,
)
from .test_qsdp import _witness_corpus

Q = Fraction(1, 4)


# ---------------------------------------------------------------------------
# exact affine dimension
# ---------------------------------------------------------------------------


def test_affine_dim_basics():
    assert affine_dimension_exact([(1, 1)]) == 0
    assert affine_dimension_exact([(1, 1), (1, -1), (-1, 1)]) == 2
    with pytest.raises(EmptyInput):
        affine_dimension_exact([])
    for bad in (
        [(1,), (1, 2)],
        [1, 2, 3],
        [[[1, 2], [3, 4]], [[1, 2], [3, 5]]],
        np.array([1, 2, 3]),
        np.zeros((2, 2, 2), dtype=int),
    ):
        with pytest.raises(ShapeMismatch):
            affine_dimension_exact(bad)


def test_affine_dim_identity1_face():
    pts, _ = _lifted_embeddings(make_named("identity", 1))
    assert affine_dimension_exact(pts) == 3  # m + m(m-1)/2 at m = 2


@settings(max_examples=60, deadline=None)
@given(
    n_pts=st.integers(2, 7),
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**31),
    scale=st.sampled_from([1, 2**30]),  # 2^30 breaks the float bound: Python-integer Gram
)
def test_affine_dim_invariances_and_oracle(n_pts, dim, seed, scale):
    rng = np.random.default_rng(seed)
    pts = [
        tuple(scale * int(v) for v in rng.integers(-3, 4, size=dim)) for _ in range(n_pts)
    ]
    d = affine_dimension_exact(pts)
    assert d == oracle_affine_dim(pts)
    perm = [pts[i] for i in rng.permutation(n_pts)]
    assert affine_dimension_exact(perm) == d  # permutation invariance
    rolled = pts[1:] + pts[:1]
    assert affine_dimension_exact(rolled) == d  # base-point invariance


@pytest.mark.parametrize(
    "pts,bareiss",
    [
        # the echelon coefficient 40009/40013 has a denominator above sqrt(p/2),
        # but the two point columns are parallel: deflation leaves a full rank
        ([(0, 0), (40013, 40009), (80026, 80018)], 0),
        # det = 46341^2 - 2 * 2317 = 2^31 - 1: full rank over Q, singular mod
        # p; the congruence proves its Gram matrix positive definite first
        ([(0, 0), (46341, 2), (2317, 46341)], 0),
        # det = 2^31 - 1 again, and the echelon form 1/32767 lifts: only the
        # exact identity check would refute the rank-1 certificate, but the
        # congruence proves the full rank first
        ([(0, 0), (1, -65538), (32768, -65537)], 0),
        # det = 2^31 - 1 once more, with nearly parallel columns around 2^25:
        # the Gram matrix, entries near 2^51, defeats the congruence too
        ([(0, 0), (33554433, 33554432), (33554368, 33554431)], 1),
        # max|M|^2 * rows reaches 2^53: the Gram matrix is summed in Python
        # integers, and its rank 3 mod p, full, proves full rank
        ([(0, 0, 0), (2**27, 0, 2**27), (0, 2**27, 2**27), (2**27, 2**27, 2 * 2**27)], 0),
        # beyond int64: the rank 2 mod p of the Python-integer Gram is full
        ([(0, 1), (2**70, 1), (2**71, 2)], 0),
        # numpy reads these as float64, where both rows round to (2^63, 2^63);
        # as Python integers the Gram has full rank 3 mod p
        ([(0, 0), (2**63 + 1, 2**63), (2**63, 2**63 - 1)], 0),
        # columns 40013 u, 40013 v and 40009 u + 40011 v for u = (0, 1, 0, 2, 1)
        # and v = (0, 0, 1, 1, 3): no two are parallel, the echelon coefficients
        # 40009/40013 and 40011/40013 do not lift, and Bareiss reads the
        # 4-sided Gram matrix
        ([(0, 0, 0), (40013, 0, 40009), (0, 40013, 40011), (80026, 40013, 120029),
          (40013, 120039, 160042)], 1),
        # entries near 10^200: Gram entries near 10^400 overflow float64, so
        # the congruence refuses before reading them as floats; the first and
        # last columns are parallel, and the deflated 3-sided Gram has full
        # rank mod p
        ([(0, 0, 0), (10**200, 2 * 10**200, 3), (2 * 10**200, 4 * 10**200 + 1, 6),
          (3 * 10**200, 6 * 10**200 + 1, 9)], 0),
    ],
    ids=[
        "reconstruction", "unlucky-prime", "lifted-unlucky-prime", "certificate-and-prime",
        "float-bound", "beyond-int64", "uint64-range", "reconstruction-unparallel", "near-1e200",
    ],
)
def test_affine_dim_fallback_matches_oracle(pts, bareiss, bareiss_calls):
    assert affine_dimension_exact(pts) == oracle_affine_dim(pts)
    assert len(bareiss_calls) == bareiss


def test_affine_dim_certificate_without_fallback(bareiss_calls):
    # rank-deficient with a non-integer echelon form: the lifted certificate
    # (denominator 5) proves the rank, Bareiss never runs
    pts = np.array([(0, 0, 0), (3, 1, 2), (6, 2, 4), (1, 2, 1), (4, 3, 3)])
    assert affine_dimension_exact(pts) == oracle_affine_dim(pts.tolist()) == 2
    assert bareiss_calls == []


def test_affine_dim_lifted_certificate_checked_in_python_integers(bareiss_calls):
    # columns 32749 u, 32719 w and 5 u + 7 w: rank 2, and the lifted echelon
    # coefficients times max G reach 2^53, so the exact identity check runs
    # in Python integers instead of float64, and Bareiss never runs
    u, w = np.array([300, -211, 157, 97]), np.array([-123, 250, 77, -199])
    cols = np.column_stack([32749 * u, 32719 * w, 5 * u + 7 * w])
    pts = np.vstack([np.zeros((1, 3), dtype=np.int64), cols])
    assert affine_dimension_exact(pts) == oracle_affine_dim(pts.tolist()) == 2
    assert bareiss_calls == []


@pytest.mark.parametrize(
    "pts",
    [
        np.array([(-128, 127), (127, -128), (0, 0), (-128, -128)], dtype=np.int8),
        np.array([(-128, -128, 5), (-128, -128, 5)], dtype=np.int8),
        np.array([(0, 255), (255, 0), (255, 255)], dtype=np.uint8),
        np.array([(2**64 - 1, 0), (2**63, 1), (2**63 + 1, 2)], dtype=np.uint64),
        np.array([(True, False), (False, True), (True, True), (False, False)]),
        np.zeros((3, 0), dtype=np.int8),
        np.array([(7, -3, 2)], dtype=np.int16),
    ],
    ids=["int8-extremes", "int8-coincident", "uint8", "uint64-high", "bool", "zero-width",
         "single-point"],
)
def test_affine_dim_constant_column_fits_the_dtype(pts):
    # the constant column max(1, max p, -1 - min p) is taken in the input's dtype
    assert affine_dimension_exact(pts) == oracle_affine_dim(pts.tolist())


def test_affine_dim_ranks_int8_points_without_widening():
    # 20000 x 256 int8 correlation rows (4.9 MiB): an int64 copy alone is 39 MiB
    rng = np.random.default_rng(2025)
    a, b = (rng.choice(np.array([-1, 1], dtype=np.int8), size=(20000, 16)) for _ in range(2))
    P = (a[:, :, None] * b[:, None, :]).reshape(20000, 256)
    tracemalloc.start()
    try:
        dim = affine_dimension_exact(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == 256
    assert peak < 30 << 20


def _planted_points(rng, n_pts, dim):
    """Integer points whose differences to the first repeat columns and rows.

    Planted columns: zero, constant, a copy, a negated and two scaled copies
    of random columns.  Planted points: the base point again, a copy, the
    reflection ``2 p0 - p`` and ``p0 + 3 (p - p0)``, whose differences are
    zero, repeated, negated and scaled rows.
    """
    P = rng.integers(-3, 4, size=(n_pts, dim))
    P[1, 0] = P[0, 0] + 1  # the differences are not all zero
    src = P[:, rng.integers(0, dim, size=4)]
    P = np.hstack([
        P, np.zeros((n_pts, 1), dtype=P.dtype), np.full((n_pts, 1), 5),
        src[:, :1], -src[:, 1:2], 3 * src[:, 2:3], -2 * src[:, 3:4],
    ])
    i, j, k = rng.integers(1, n_pts, size=3)
    P = np.vstack([P, P[0], P[i], 2 * P[0] - P[j], P[0] + 3 * (P[k] - P[0])])
    return P[:, rng.permutation(P.shape[1])]


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(seed=st.integers(0, 2**32 - 1), wide=st.booleans())
def test_deflation_keeps_the_rank(seed, wide, gram_sides):
    rng = np.random.default_rng(seed)
    if wide:  # fewer points than columns: ranked as the transpose
        n_pts, dim = int(rng.integers(2, 5)), int(rng.integers(6, 10))
    else:
        n_pts, dim = int(rng.integers(8, 14)), int(rng.integers(1, 4))
    P = _planted_points(rng, n_pts, dim)
    rows, cols = P.shape[0] - 1, P.shape[1]
    assert (rows < cols) == wide
    gram_sides.clear()
    assert affine_dimension_exact(P) == oracle_affine_dim(P.tolist())
    assert gram_sides[0] < min(rows, cols)  # planted columns were dropped


def test_deflation_zero_column_is_no_witness(bareiss_calls):
    from tightbell import g0_dimension

    # columns [0, v, w]: a zero column meets G_ij^2 = G_ii G_jj with every
    # column, so as a witness it would drop v and w
    pts = [(0, 0, 0), (0, 1, 2), (0, 3, 1), (0, 2, 5)]
    assert affine_dimension_exact(pts) == oracle_affine_dim(pts) == 2
    # the 64 Gram columns of g0(3) and the constant one shrink to 29 of
    # rank 21 (the 8 constant diagonal columns collapse into the constant);
    # the lifted certificate proves the rank
    assert g0_dimension(3).verified_value == 20
    assert bareiss_calls == []


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    deficiency=st.integers(0, 3),
    ill=st.booleans(),
    scale=st.sampled_from([1, 2**10, 2**20, None]),  # None: entries at the 2^53 bound
)
def test_positive_definite_never_proves_a_singular_gram(seed, deficiency, ill, scale):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(2, 11)), int(rng.integers(1, 9))
    inner = max(1, min(rows, cols) - deficiency)  # rank at most ``inner``
    M = rng.integers(-3, 4, size=(rows, inner)) @ rng.integers(-3, 4, size=(inner, cols))
    if ill:  # nearly parallel columns: multiples of the first, unscaled offsets
        offsets = rng.integers(-1, 2, size=M.shape) * (rng.random(M.shape) < 0.2)
        M = M[:, :1] * rng.integers(1, 4, size=cols)
    big = int(np.abs(M).max())
    assume(big > 0)
    if scale is None:  # rows * max|M|^2 just below 2^53, as the exact rank allows
        scale = isqrt(((1 << 53) - 1) // rows) // big
    M = M.astype(object) * scale
    if ill:
        M = M + offsets
    G = M.T @ M  # Python integers, exact
    points = [[0] * cols] + M.tolist()
    rank = oracle_affine_dim(points)
    if max(abs(v) for v in G.ravel()) < 1 << 53:
        assert not exact._positive_definite(G.astype(np.int64)) or rank == cols
    assert affine_dimension_exact(points) == rank


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(seed=st.integers(0, 2**32 - 1), shift=st.sampled_from([1e-9, 1e-3, 1.0, 1e3]))
def test_positive_definite_rejects_any_factor_of_a_singular_gram(seed, shift, monkeypatch):
    # singular Grams rarely get past the float factorisation; handed a factor
    # of G + shift I instead, lower triangular or not, the exact congruence
    # check must refuse
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(2, 11)), int(rng.integers(2, 9))
    inner = int(rng.integers(1, min(rows, cols)))  # rank below cols
    M = rng.integers(-3, 4, size=(rows, inner)) @ rng.integers(-3, 4, size=(inner, cols))
    assume(M.any())
    G = M.T @ M
    w, V = np.linalg.eigh(G + shift * np.eye(cols))
    K = V * np.sqrt(w)  # K K^T = G + shift I
    L = np.linalg.qr(K.T, mode="r").T  # lower triangular, L L^T = K K^T
    for factor in (L, K):
        with monkeypatch.context() as m:  # undone before the next example
            m.setattr(np.linalg, "cholesky", lambda F: factor)
            assert not exact._positive_definite(G)


_K = 2**26 - 1
_K2 = _K * _K  # entries near 2^52


@pytest.mark.parametrize(
    "A",
    [
        # v v^T for v = (k, k - 1, 0): singular, largest entries on the diagonal
        [[_K2, _K2 - _K, 0], [_K2 - _K, _K2 - 2 * _K + 1, 0], [0, 0, 0]],
        # u_i^T diag(1, -1) u_j for u = (k, 1), (k, -1), (0, 2): singular and
        # indefinite, largest entry off the diagonal
        [[_K2 - 1, _K2 + 1, -2], [_K2 + 1, _K2 - 1, 2], [-2, 2, -4]],
        # the first two of those rows: nonsingular and indefinite
        [[_K2 - 1, _K2 + 1], [_K2 + 1, _K2 - 1]],
        # a unit diagonal beside off-diagonal entries near 2^52
        [[1, _K2, 0], [_K2, 1, _K2], [0, _K2, 1]],
    ],
    ids=["singular-psd", "singular-indefinite", "indefinite", "off-diagonal"],
)
def test_positive_definite_refuses_at_the_float_bound(A, monkeypatch):
    A = np.array(A, dtype=np.int64)
    assert not exact._positive_definite(A)
    # handed factors of the positive definite V (|w| + 1) V^T, where A = V
    # diag(w) V^T, the exact check must refuse as well
    w, V = np.linalg.eigh(A.astype(np.float64))
    K = V * np.sqrt(np.abs(w) + 1)
    L = np.linalg.qr(K.T, mode="r").T
    for factor in (L, K):
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "cholesky", lambda F: factor)
            assert not exact._positive_definite(A)


def test_positive_definite_proves_entries_near_the_float_bound():
    # the refusals above are not for the size of the entries alone
    assert exact._positive_definite(np.array([[2**48, 1], [1, 2**48]]))
    assert exact._positive_definite(np.array([[2**48, 2**47], [2**47, 2**48]]))


def _raise(*args):
    raise AssertionError("the factor was read")


@pytest.mark.parametrize(
    "A",
    [
        [[5204154509990353]],  # about 2^52.2: rint(2^s / sqrt(a)) rounds to 0
        [[_K2, 1], [1, _K2]],
        [[_K2, _K2 // 2], [_K2 // 2, _K2]],
    ],
    ids=["1x1", "2x2", "2x2-half"],
)
def test_positive_definite_proves_dominant_grams_near_2_52(A, monkeypatch):
    # the float congruence has too little room for these and refuses all
    # three; X = I proves them
    monkeypatch.setattr(np.linalg, "cholesky", _raise)
    assert exact._positive_definite(np.array(A, dtype=np.int64))


def _symmetric(rng: random.Random, n: int, cap: int, dominant: bool) -> list[list[int]]:
    """A symmetric n x n matrix of Python integers with ``A[0][0] = cap = max|A|``.

    Dominant: off-diagonal entries up to ``cap // n``, each diagonal entry
    above its row sum of them.  Otherwise every entry is up to ``cap``.
    """
    off = cap // n if dominant else cap
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            A[i][j] = A[j][i] = rng.randint(-off, off)
    for i in range(n):
        low = sum(map(abs, A[i])) + 1 if dominant else -cap
        A[i][i] = rng.randint(low, cap)
    A[0][0] = cap
    return A


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    # max|A| * n just below 2^62 (int64), at or past it (Python integers),
    # entries up to 2^62 at every side, and past int64
    scale=st.sampled_from(["below", "at", "2^62", "2^70"]),
    dominant=st.booleans(),
    bad_diagonal=st.sampled_from([None, 0, -1]),
)
def test_positive_definite_is_sound(seed, n, scale, dominant, bad_diagonal):
    # whatever proves it, True means full rank by the exact elimination, and
    # a diagonal entry of 0 or less is never proved
    rng = random.Random(seed)
    guard = -(-(1 << 62) // n)  # the least cap with cap * n >= 2^62
    cap = {"below": guard - 1, "at": guard, "2^62": 1 << 62, "2^70": 1 << 70}[scale]
    A = _symmetric(rng, n, cap, dominant)
    if bad_diagonal is not None:
        k = rng.randrange(n)
        A[k][k] = bad_diagonal * rng.randint(0, cap)
    for dtype in (np.int64, object) if cap < 1 << 63 else (object,):
        proved = exact._positive_definite(np.array(A, dtype=dtype))
        if proved:
            assert exact._psd_rank(np.array(A, dtype=object)) == n
        if bad_diagonal is not None:
            assert not proved
        elif dominant:
            assert proved


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", [(0, 0), (2, 1)])
def test_positive_definite_refuses_a_factor_with_inf_or_nan(bad, where, monkeypatch):
    # positive definite (leading minors 2, 6, 16) but not diagonally
    # dominant, so the proof needs the factor
    A = np.array([[2, 2, 0], [2, 5, 1], [0, 1, 3]])
    assert exact._positive_definite(A)
    C = np.linalg.cholesky(A.astype(np.float64))
    C[where] = bad
    monkeypatch.setattr(np.linalg, "cholesky", lambda F: C)
    assert not exact._positive_definite(A)
    # a dominant matrix is proved by X = I, and never reads the factor
    monkeypatch.setattr(np.linalg, "cholesky", _raise)
    assert exact._positive_definite(np.array([[4, 2, 0], [2, 5, 1], [0, 1, 3]]))



@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    gram=st.booleans(),
    scale=st.sampled_from([1, 2**16, 2**32]),  # larger scales may check in Python integers
)
def test_span_certificate_spans_a_planted_kernel(seed, gram, scale):
    # S = B^T diag(d) B has ker B in its kernel; with d = 1 it is a Gram
    # matrix, otherwise d mixes signs and S is usually indefinite
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    k = int(rng.integers(1, n + 1))
    B = rng.integers(-4, 5, size=(k, n))
    d = np.ones(k, dtype=np.int64) if gram else rng.choice([-2, -1, 1, 3], size=k)
    S = (B.T * d) @ B * scale
    assume(S.any())
    R, pivots = oracle_rref(S.tolist())
    delta = lcm(*(v.denominator for row in R for v in row))
    N = [[int(v * delta) for v in row] for row in R]
    bound = exact._RECON_BOUND
    within = all(
        abs(v.numerator) <= bound and v.denominator <= bound for row in R for v in row
    )
    certificate, V = exact._span_certificate(S), exact._kernel_basis(S)
    assert (certificate is not None) == within
    if certificate is None:
        assert V is None
        return
    assert certificate[:2] == (pivots, delta)
    # int64 while the identity is checked in float64, else Python integers
    assert certificate[2].dtype in (np.int64, object) and certificate[2].tolist() == N
    # the columns delta e_j - N_j, N_j placed on the pivots, span ker S: each
    # is in it, and the non-pivot ones are n - rank S independent vectors
    K = delta * np.eye(n, dtype=object)
    K[pivots] -= np.array(N, dtype=object)
    assert not (S.astype(object) @ K).any()
    assert len(oracle_rref(K.tolist())[1]) == n - len(pivots)
    # the kernel basis is those non-pivot columns: in the kernel, as wide as
    # the nullity, and of full column rank
    assert V.tolist() == np.delete(K, pivots, axis=1).tolist()
    assert not (S.astype(object) @ V.astype(object)).any()
    assert V.shape[1] == n - exact._rank(S) == exact._rank(V)


def test_full_rank_needs_no_modular_elimination(monkeypatch):
    eliminated = []
    rref = exact._rref_mod_p

    def counted(A):
        eliminated.append(len(A))
        return rref(A)

    monkeypatch.setattr(exact, "_rref_mod_p", counted)
    # identity(3): the deflated 29 corr and 8 sign columns have full rank
    face_report(make_named("identity", 3))
    assert eliminated == []
    # appendix_d(3): 30 corr columns of rank 22, a Gram matrix that is not
    # positive definite
    face_report(make_named("appendix_d", 3))
    assert eliminated[0] == 30


@pytest.mark.parametrize(
    "n,rank,swap",
    [
        (1, 1, False), (4, 4, False), (7, 5, False), (28, 28, False), (28, 20, False),
        (64, 64, False), (64, 45, False),
        (2, 2, True), (7, 5, True), (28, 28, True), (64, 45, True),
    ],
)
def test_rref_mod_p_matches_reference(n, rank, swap):
    p = exact._PRIME
    rng = np.random.default_rng(1000 * n + 10 * rank + swap)
    A = rng.integers(0, p, size=(n, n))
    if swap:  # the first rows lead with 0, so the first pivot row is swapped up
        A[: rank // 2, 0] = 0
    # rows from ``rank`` on are combinations of the first ``rank``
    top = A[:rank].tolist()
    for i in range(rank, n):
        cs = rng.integers(0, p, size=rank).tolist()
        A[i] = [sum(c * row[j] for c, row in zip(cs, top)) % p for j in range(n)]
    R, pivots = exact._rref_mod_p(A)
    R_ref, pivots_ref = reference_rref_mod_p(A.tolist(), p)
    assert len(pivots) == rank
    assert (A[0, 0] == 0) == swap and pivots[0] == 0
    assert pivots == pivots_ref
    assert R.tolist() == R_ref


def test_rref_mod_p_rectangular_and_zero_columns():
    p = exact._PRIME
    rng = np.random.default_rng(7)
    for shape in [(3, 8), (8, 3), (5, 5)]:
        A = rng.integers(0, p, size=shape)
        A[:, 1] = 0
        R, pivots = exact._rref_mod_p(A)
        assert (R.tolist(), pivots) == reference_rref_mod_p(A.tolist(), p)
        assert 1 not in pivots


@pytest.mark.parametrize(
    "pts",
    [
        [[0.5, 0], [0, 0.5], [0, 0]],
        [[2.0, 0], [0, 1], [0, 0]],  # integral, but a float
        [[Fraction(1, 2), 0], [0, Fraction(1, 3)], [0, 0]],
        np.array([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]]),
    ],
    ids=["floats", "integral-float", "fractions", "float-array"],
)
def test_affine_dim_rejects_non_integers(pts):
    with pytest.raises(InvalidParameter):
        affine_dimension_exact(pts)


def test_affine_dim_takes_integer_objects_beyond_int64():
    pts = [(2**70, 0, 1), (0, 2**65 + 1, 1), (0, 0, 1), (2**70, 2**65 + 1, 1)]
    assert affine_dimension_exact(np.array(pts, dtype=object)) == oracle_affine_dim(pts) == 2


def test_certificates_take_python_integers():
    A = np.array([[4, 2, 0], [2, 5, 1], [0, 1, 3]], dtype=object)
    assert exact._positive_definite(A)
    S = np.array([[4, 2, 6], [2, 1, 3], [6, 3, 9]])
    assert exact._span_certificate(S.astype(object))[:2] == exact._span_certificate(S)[:2]
    # the float congruence refuses before float64 reads them: 2^53 would
    # round, 10^400 overflow.  Both have full rank mod p (det = big), which
    # proves full rank.  Made diagonally dominant, the same entries are
    # proved in Python integers by X = I
    for big in (2**53, 10**400):
        A = np.array([[big, big], [big, big + 1]], dtype=object)
        assert not exact._positive_definite(A)
        pivots, delta, N = exact._span_certificate(A)
        assert (pivots, delta, N.tolist()) == ([0, 1], 1, [[1, 0], [0, 1]])
        assert exact._positive_definite(np.array([[big, 1], [1, big]], dtype=object))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims,expected", [((2, 2), 3), ((1, 1), 1), ((4, 4), 10), ((7, 3), 6)])
def test_theorem1_bound(dims, expected):
    assert theorem1_dim_bound(*dims) == expected


@pytest.mark.parametrize("dims", [(0, 3), (3, 0), (-1, -1)])
def test_theorem1_bound_refuses_dimensions_below_one(dims):
    with pytest.raises(InvalidDims):
        theorem1_dim_bound(*dims)


def test_theorem2_bounds():
    b = theorem2_codim_bound(3, 3, 2, 2)
    assert b.delta_full == 2 + 3 * 0 + 3 == 5
    assert theorem2_codim_bound(2, 2, 2, 2).delta_full == 5
    assert theorem2_codim_bound(1, 1, 1, 1).delta_corr == 1
    # normalization swaps sides so the smaller reduced side counts as Alice
    assert theorem2_codim_bound(5, 4, 3, 2) == theorem2_codim_bound(4, 5, 2, 3)
    with pytest.raises(InvalidDims):
        theorem2_codim_bound(1, 1, 2, 1)
    with pytest.raises(InvalidDims):
        theorem2_codim_bound(0, 1, 0, 1)


# ---------------------------------------------------------------------------
# trivial facets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args,dim",
    [((2, 2, 0, 0, 1), 3), ((1, 1, 0, 0, -1), 0), ((2, 3, 1, 2, -1), 5),
     ((20, 20, 0, 0, 1), 399)],
)
def test_trivial_facet_examples(args, dim):
    rep = trivial_facet_check(*args)
    assert rep.dim == dim
    assert rep.is_facet


def test_trivial_facet_errors():
    with pytest.raises(InvalidDims):
        trivial_facet_check(2, 2, 2, 0, 1)
    with pytest.raises(InvalidDims):
        trivial_facet_check(2, 2, 0, 0, 2)


def test_trivial_facets_match_oracle_up_to_3x4():
    # the correlators of every strategy with alpha_x0 beta_y0 = sign, ranked
    # by the Fraction oracle, against the closed formula of the padded face
    for m_a in range(1, 4):
        for m_b in range(1, 5):
            strategies = [
                ([1 - 2 * (a >> i & 1) for i in range(m_a)], [1 - 2 * (b >> j & 1) for j in range(m_b)])
                for a in range(1 << m_a)
                for b in range(1 << m_b)
            ]
            for x0 in range(m_a):
                for y0 in range(m_b):
                    for sign in (1, -1):
                        corr = [
                            [x * y for x in alpha for y in beta]
                            for alpha, beta in strategies
                            if alpha[x0] * beta[y0] == sign
                        ]
                        dim = oracle_affine_dim(corr)
                        rep = trivial_facet_check(m_a, m_b, x0, y0, sign)
                        assert (rep.dim, rep.is_facet) == (dim, dim == m_a * m_b - 1)


# ---------------------------------------------------------------------------
# face reports
# ---------------------------------------------------------------------------


def test_face_report_chsh_is_facet():
    rep = face_report(make_named("chsh"))
    assert rep.xi_c == Fraction(1, 2)
    assert rep.classification == "advantage"
    assert rep.num_vertices == 8
    assert rep.dim_full == 7 == rep.D - 1
    assert rep.is_facet_full is True
    assert rep.dim_corr == 3 and rep.is_facet_corr is True
    assert rep.provenance == {"dim_full": MEASURED, "dim_corr": MEASURED}


def test_face_report_identity2_equality_case():
    rep = face_report(make_named("identity", 2))
    assert rep.dim_full == 10  # 2^n + 2^(n-1)(2^n - 1), attained with equality
    assert rep.D == 24 and rep.codim_full == 14
    assert rep.dim_corr == 6
    assert rep.is_facet_full is False and rep.is_facet_corr is False
    assert rep.classification == "no_advantage"
    assert rep.dim_full <= rep.bound_thm1_dim
    assert rep.codim_full == rep.bound_thm2_codim  # equality case


def test_face_report_appendix_d2():
    rep = face_report(make_named("appendix_d", 2))
    assert rep.dim_corr == 3  # 1 + 2^(n-1)(2^n - 3)
    assert rep.codim_corr == 13
    assert rep.classification == "no_advantage"
    assert rep.is_facet_corr is False


def test_face_report_single_entry_trivial_corr_facet():
    rep = face_report(make_named("single_entry"))
    assert rep.dim_corr == 0 and rep.is_facet_corr is True
    assert rep.is_facet_full is False


def test_face_report_padded_game_lifts_vertices():
    q = [[Q, Q, 0], [Q, Q, 0], [0, 0, 0]]
    f = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    rep = face_report(build_game(q, f))
    assert (rep.m_a, rep.m_b) == (3, 3) and (rep.reduced_m_a, rep.reduced_m_b) == (2, 2)
    assert rep.num_vertices == 8 * 4  # all completions of the dropped signs
    assert not rep.truncated
    # free coordinates add 1 (marginal) + 1 (marginal) + 5 (correlators) dims
    assert rep.dim_full > 7
    assert rep.provenance["dim_full"] == MEASURED


def test_face_report_thm2_fallback_no_advantage():
    # padded identity(1): 16 lifted vertices pass a cap of 10, but the cap
    # bounds only the 4 reduced ones, and the dimensions stay exact
    h = Fraction(1, 2)
    g = build_game([[h, 0, 0], [0, h, 0], [0, 0, 0]], [[0] * 3 for _ in range(3)])
    rep = face_report(g, vertex_cap=10)
    assert rep.provenance == {"dim_full": MEASURED, "dim_corr": MEASURED}
    assert not rep.truncated
    assert rep.num_vertices == 16
    assert (rep.dim_full, rep.dim_corr) == (10, 6)
    assert rep.is_facet_full is False and rep.is_facet_corr is False
    emb, corr = _lifted_embeddings(g)
    assert len(emb) == 16
    assert (rep.dim_full, rep.dim_corr) == (oracle_affine_dim(emb), oracle_affine_dim(corr))


def test_face_report_thm2_fallback_advantage_reports_reduced_dims():
    # padded CHSH at the same cap: a facet, measured exactly
    g = build_game([[Q, Q, 0], [Q, Q, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    rep = face_report(g, vertex_cap=10)
    assert rep.provenance["dim_full"] == MEASURED and not rep.truncated
    assert rep.dim_full == 14 == rep.D - 1
    assert rep.is_facet_full is True
    emb, _ = _lifted_embeddings(g)
    assert rep.dim_full == oracle_affine_dim(emb)


def _lifted_embeddings(g):
    """Embeddings (full, correlation) of every optimal vertex of ``g``, from the
    double-loop oracle on the unreduced game: it shares no code with the
    reduction, and enumerates every sign of the never-asked questions itself."""
    _, pairs = oracle_bias(g, collect_pairs=True)
    corr = [tuple(x * y for x in a for y in b) for a, b in pairs]
    return [a + b + c for (a, b), c in zip(pairs, corr)], corr


def _pad(core, rows, cols):
    """``core`` with never-asked questions inserted at the given original indices."""
    m_a, m_b = core.m_a + len(rows), core.m_b + len(cols)
    kept_r = [x for x in range(m_a) if x not in rows]
    kept_c = [y for y in range(m_b) if y not in cols]
    q = [[Fraction(0)] * m_b for _ in range(m_a)]
    f = [[0] * m_b for _ in range(m_a)]
    for i, x in enumerate(kept_r):
        for j, y in enumerate(kept_c):
            q[x][y], f[x][y] = core.q[i][j], core.f[i][j]
    return build_game(q, f)


@st.composite
def padded_games(draw):
    """Cores up to 3 x 3 with small weights (zero allowed, so ties and
    no-advantage games are common), padded with 0-3 never-asked questions a side."""
    m_a, m_b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    w = draw(st.lists(st.sampled_from([1, 2, 3, 0]), min_size=m_a * m_b, max_size=m_a * m_b))
    if not any(w):
        w[0] = 1
    bits = draw(st.integers(0, (1 << m_a * m_b) - 1))
    total = sum(w)
    core = build_game(
        [[Fraction(w[x * m_b + y], total) for y in range(m_b)] for x in range(m_a)],
        [[bits >> (x * m_b + y) & 1 for y in range(m_b)] for x in range(m_a)],
    )
    d_a, d_b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rows = draw(st.sets(st.integers(0, m_a + d_a - 1), min_size=d_a, max_size=d_a))
    cols = draw(st.sets(st.integers(0, m_b + d_b - 1), min_size=d_b, max_size=d_b))
    return _pad(core, rows, cols)


@settings(max_examples=40, deadline=None)
@given(g=padded_games())
def test_face_report_matches_the_lift_and_theorem2(g):
    rep = face_report(g)
    emb, corr = _lifted_embeddings(g)
    assert not rep.truncated
    assert rep.num_vertices == len(emb)
    assert rep.dim_full == oracle_affine_dim(emb)
    assert rep.dim_corr == oracle_affine_dim(corr)
    if rep.classification == "no_advantage":  # the paper's Theorem 2
        assert rep.codim_full >= rep.bound_thm2_codim
        assert rep.codim_corr >= rep.bound_thm2_codim_corr


@pytest.mark.parametrize(
    "core",
    [make_named("chsh"), make_named("identity", 1), make_named("identity", 2),
     make_named("appendix_d", 2), make_named("single_entry")]
    + [random_game(np.random.default_rng(19 + k), max_a=3, max_b=3) for k in range(3)],
    ids=["chsh", "identity1", "identity2", "appendix_d2", "single_entry", "r0", "r1", "r2"],
)
@pytest.mark.parametrize("rows,cols", [({0}, set()), (set(), {1, 2}), ({1}, {0, 2})])
def test_face_report_does_not_depend_on_the_cap(core, rows, cols):
    # a complete reduced vertex set gives the same report at any cap it fits
    g = _pad(core, rows, cols)
    full = face_report(g)
    n_reduced = full.num_vertices >> len(rows) + len(cols)
    assert not full.truncated
    capped = face_report(g, vertex_cap=n_reduced)
    assert face_report_to_dict(capped) == face_report_to_dict(full)


_TRUNCATION_GAMES = (
    [make_named("chsh"), make_named("identity", 1), make_named("identity", 2),
     make_named("appendix_d", 2), make_named("nlc_and", 2), make_named("single_entry")]
    + [random_game(np.random.default_rng(61 + k), max_a=4, max_b=4) for k in range(4)]
    + [random_game(np.random.default_rng(71 + k), max_a=4, max_b=4, max_weight=2)
       for k in range(6)]
)


@pytest.mark.parametrize("core", _TRUNCATION_GAMES)
@pytest.mark.parametrize("rows,cols", [(set(), set()), ({0}, {1})])
def test_truncated_dimensions_are_lower_bounds(core, rows, cols):
    # a complete vertex set is closed under flipping every answer, which the
    # full-space dimension formula relies on; a truncated one bounds it below
    vertices = {(v.alpha, v.beta) for v in optimal_vertices(core).vertices}
    assert {(tuple(-a for a in al), tuple(-b for b in be)) for al, be in vertices} == vertices
    g = _pad(core, rows, cols)
    full = face_report(g)
    assert not full.truncated
    for cap in range(1, 6):
        capped = face_report(g, vertex_cap=cap)
        if not capped.truncated:
            continue
        assert capped.dim_full <= full.dim_full and capped.dim_corr <= full.dim_corr
        assert capped.provenance == {"dim_full": LOWER_BOUND, "dim_corr": LOWER_BOUND}
        assert capped.is_facet_full is None and capped.is_facet_corr is None


def test_truncated_full_dimension_uses_linear_sign_ranks():
    # padded CHSH, one never-asked row and column, 3 of 8 reduced vertices:
    # the sign-row ranks with the origin give (12, 7); affine ranks would
    # give (10, 5) and the complete face is (14, 8)
    g = _pad(make_named("chsh"), {2}, {2})
    capped = face_report(g, vertex_cap=3)
    assert capped.truncated
    assert (capped.dim_full, capped.dim_corr) == (12, 7)
    full = face_report(g)
    assert (full.dim_full, full.dim_corr) == (14, 8)


@pytest.mark.parametrize("cap", [0, -1])
def test_face_report_refuses_caps_below_one(cap, enumerations):
    # the vertex cap is refused before the enumeration starts, not with an
    # IndexError once it has stored no vertex
    with pytest.raises(InvalidParameter):
        face_report(make_named("chsh"), vertex_cap=cap)
    assert enumerations == []
    with pytest.raises(InvalidParameter):
        face_report(make_named("chsh"), enum_cap=cap)


def test_face_report_supporting_hyperplane_property():
    rng = np.random.default_rng(53)
    for _ in range(8):
        g = random_game(rng, max_a=4, max_b=4)
        vs = optimal_vertices(g)
        from tightbell import bias_of_strategy, classical_bias

        xi = classical_bias(g).xi_c
        assert all(bias_of_strategy(g, v) == xi for v in vs.vertices)
        found = {(v.alpha, v.beta) for v in vs.vertices}
        for _ in range(10):
            from .generators import random_strategy

            s = random_strategy(rng, g.m_a, g.m_b)
            if (s.alpha, s.beta) not in found:
                assert bias_of_strategy(g, s) < xi


def test_face_report_non_exhaustive_matches_oracle_and_direct_path():
    # the double-loop oracle on a padded game enumerates every completion of
    # the never-asked signs by itself, so it independently validates the
    # whole reduce -> enumerate -> padded-dimension pipeline; direct
    # enumeration of the padded game is a third route and must agree exactly
    from tightbell import optimal_vertices as direct_vertices

    rng = np.random.default_rng(83)
    for _ in range(6):
        core = random_game(rng, max_a=3, max_b=3, min_a=2, min_b=2)
        row_at = int(rng.integers(0, core.m_a + 1))
        col_at = int(rng.integers(0, core.m_b + 1))
        padded = _pad(core, {row_at}, {col_at})

        _, pairs = oracle_bias(padded, collect_pairs=True)
        direct = {(v.alpha, v.beta) for v in direct_vertices(padded).vertices}
        assert direct == set(pairs)

        rep = face_report(padded)
        assert rep.num_vertices == len(pairs)
        emb = [a + b + tuple(x * y for x in a for y in b) for a, b in pairs]
        corr = [tuple(x * y for x in a for y in b) for a, b in pairs]
        assert rep.dim_full == oracle_affine_dim(emb)
        assert rep.dim_corr == oracle_affine_dim(corr)


def test_face_report_dict_roundtrips_to_json():
    import json

    rep = face_report(make_named("identity", 1))
    payload = face_report_to_dict(rep)
    text = json.dumps(payload)
    assert json.loads(text)["dim_full"] == 3
    assert payload["certificate"]["classification"] == "no_advantage"
    assert payload["xi_c"] == "1"


# ---------------------------------------------------------------------------
# quantum face probe
# ---------------------------------------------------------------------------


def test_probe_identity1_finds_the_free_direction():
    rep = quantum_face_probe(make_named("identity", 1))
    assert (rep.dim_lower_bound, rep.thm3_bound, rep.measured) == (1, 1, True)


def test_probe_without_a_kernel_basis_reports_the_classical_face(monkeypatch):
    # a None certificate gives no kernel basis, and the probe falls back to
    # the classical face's dim_corr, a lower bound; identity(2) has no
    # never-asked question, so face_report's dim_corr is the reduced one
    monkeypatch.setattr(exact, "_span_certificate", lambda S: None)
    assert exact._kernel_basis(np.eye(2, dtype=np.int64)) is None
    for name, n in (("identity", 2), ("appendix_d", 3), ("nlc_and", 2)):
        g = make_named(name, n)
        rep = quantum_face_probe(g)
        assert not rep.measured
        assert rep.dim_lower_bound == face_report(g).dim_corr


def test_probe_single_entry_is_rigid():
    rep = quantum_face_probe(make_named("single_entry"))
    assert (rep.dim_lower_bound, rep.thm3_bound, rep.measured) == (0, 0, True)


@pytest.mark.parametrize(
    "name,n,dim",
    [
        ("identity", 2, 6), ("identity", 3, 28), ("identity", 4, 120),
        ("appendix_d", 3, 21), ("appendix_d", 4, 105), ("nlc_and", 3, 0),
    ],
)
def test_probe_pinned_values(name, n, dim):
    # identity(3) and (4) meet the bound m(m-1)/2; the sampled probe of
    # earlier builds was capped by its 24 samples on them and on appendix_d(4)
    rep = quantum_face_probe(make_named(name, n))
    assert (rep.dim_lower_bound, rep.measured) == (dim, True)
    assert rep.dim_lower_bound <= rep.thm3_bound


@pytest.mark.parametrize(
    "name,n,capped",
    [
        ("identity", 1, False), ("identity", 2, False), ("identity", 3, True),
        ("identity", 4, True), ("padded", None, False), ("single_entry", None, False),
        ("appendix_d", 2, False), ("appendix_d", 3, False), ("appendix_d", 4, True),
        ("nlc_and", 2, False), ("nlc_and", 3, False),
    ],
)
def test_probe_meets_the_sampled_bound(name, n, capped):
    # sampled optima give an independent lower bound; the exact dimension
    # equals it wherever the 24 samples do not cap it
    g = _padded_identity2() if name == "padded" else make_named(name, n)
    exact_dim, sampled = quantum_face_probe(g).dim_lower_bound, oracle_sampled_face_dim(g)
    if capped:
        assert sampled == 24 < exact_dim
    else:
        assert exact_dim == sampled


def test_probe_reads_the_reduced_game():
    # the never-asked row and column would add free directions; the probe
    # reads the reduced game, identity(2)
    rep = quantum_face_probe(_padded_identity2())
    assert (rep.dim_lower_bound, rep.thm3_bound, rep.measured) == (6, 6, True)


def test_probe_refuses_more_directions_than_the_bound(monkeypatch):
    # a rank that counts every row of the kernel rows as independent counts
    # each of identity(2)'s 4 x 4 correlators as a direction: 16, above
    # m(m-1)/2 = 6.  The vertex signs, int8, keep their true rank
    rank = facegeom._rank
    monkeypatch.setattr(facegeom, "_rank", lambda M: len(M) if M.dtype == np.int64 else rank(M))
    with pytest.raises(VerificationFailed, match="probe found 16 directions, above the theoretical bound 6"):
        quantum_face_probe(make_named("identity", 2))


def test_probe_not_applicable_for_advantage_games():
    with pytest.raises(NotApplicable):
        quantum_face_probe(make_named("chsh"))


def test_the_quantum_face_is_never_a_facet(enumerations, ascent_starts):
    # the paper's by-product: the body of quantum correlation matrices has
    # no nontrivial facet.  Every no-advantage game of the corpus is
    # measured within m(m-1)/2 and below m_a m_b - 1 once m_a m_b > 1, each
    # probe from one enumeration and no restart
    tally = Counter()
    for g in _witness_corpus():
        r = reduce_exhaustive(g)
        ran = len(enumerations), len(ascent_starts)
        try:
            rep = quantum_face_probe(g)
        except NotApplicable:
            tally["advantage"] += 1
            continue
        assert (len(enumerations) - ran[0], len(ascent_starts) - ran[1]) == (1, 0)
        assert rep.measured and rep.dim_lower_bound <= rep.thm3_bound
        assert r.m_a * r.m_b == 1 or rep.dim_lower_bound < r.m_a * r.m_b - 1
        tally["measured"] += 1
    assert tally == {"measured": 776, "advantage": 444}


def test_kernel_basis_spans_every_corpus_dual_kernel():
    # S' of each corpus game's witness: the basis is in the kernel, as wide
    # as the nullity, and of full column rank
    widths = Counter()
    for g in _witness_corpus():
        P = g.matrix.ints
        S = exact._slack_matrix(P, exact._witness_dual(P, optimal_vertices(g).signs[0]))
        V = exact._kernel_basis(S)
        assert not (S.astype(object) @ V.astype(object)).any()
        assert V.shape[1] == len(S) - exact._rank(S) == exact._rank(V)
        widths[V.dtype == np.int64] += 1
    assert widths == {True: 1220}


def _identity_like(m, rows=0, cols=0):
    """Uniform prior on the diagonal of an m x m block, then never-asked questions."""
    w = Fraction(1, m)
    q = [[w if x == y < m else 0 for y in range(m + cols)] for x in range(m + rows)]
    return build_game(q, [[0] * (m + cols) for _ in range(m + rows)])


def _padded_identity2():
    """identity(2) with a never-asked question in the middle of each side."""
    h = Fraction(1, 4)
    q = [[h, 0, 0, 0, 0], [0, h, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, h, 0], [0, 0, 0, 0, h]]
    return build_game(q, [[0] * 5 for _ in range(5)])


_MODULAR_GAMES = {  # (name, n): (dim_full, dim_corr, num_vertices)
    ("chsh", None): (7, 3, 8),
    ("identity", 1): (3, 1, 4),
    ("identity", 2): (10, 6, 16),
    ("identity", 3): (36, 28, 256),
    ("appendix_d", 2): (7, 3, 8),
    ("appendix_d", 3): (29, 21, 72),
    ("padded", None): (21, 15, 64),
    ("identity_like", 6): (21, 15, 64),
    ("identity_like", 7): (28, 21, 128),
    ("identity_like", 8): (36, 28, 256),
    ("padded_like", 6): (36, 28, 256),
}


@pytest.mark.parametrize(
    "name,n", list(_MODULAR_GAMES), ids=[f"{name}-{n}" for name, n in _MODULAR_GAMES]
)
def test_face_report_takes_the_modular_path(name, n, bareiss_calls):
    if name == "padded":
        g = _padded_identity2()
    elif name == "identity_like":
        g = _identity_like(n)
    elif name == "padded_like":  # a never-asked question on each side
        g = _identity_like(n, 1, 1)
    else:
        g = make_named(name) if n is None else make_named(name, n)
    rep = face_report(g)
    assert rep.provenance["dim_full"] == MEASURED
    assert (rep.dim_full, rep.dim_corr, rep.num_vertices) == _MODULAR_GAMES[name, n]
    if name == "padded":
        assert (rep.m_a, rep.reduced_m_a) == (5, 4)
    assert bareiss_calls == []


@pytest.mark.parametrize(
    "g",
    [make_named("identity", 3), _identity_like(8), _identity_like(6, 1, 1)],
    ids=["identity-3", "identity-like-8", "padded-like-6"],
)
def test_identity_like_faces_need_no_factorisation(g, monkeypatch):
    # a complete sign cube has vertex Gram 2^m I, so every deflated Gram of
    # these faces is diagonally dominant and X = I proves its full rank
    report = face_report_to_dict(face_report(g))
    monkeypatch.setattr(np.linalg, "cholesky", _raise)
    assert face_report_to_dict(face_report(g)) == report


def test_deflation_shrinks_the_gram_matrix(gram_sides):
    # identity(3): of the 64 corr columns and the constant one, the 8
    # constant diagonal columns collapse into the constant and (x, y) repeats
    # (y, x), leaving 29 at full rank; the 256 sign rows (16 columns) keep
    # alpha, since beta = alpha
    face_report(make_named("identity", 3))
    assert gram_sides == [29, 8]
    gram_sides.clear()
    face_report(make_named("appendix_d", 3))
    assert gram_sides[0] == 30


def test_rank_in_row_blocks(monkeypatch, bareiss_calls):
    # blocks of one or a few rows: Gram sums and identity checks span blocks
    games = [make_named("identity", 3), make_named("appendix_d", 3), make_named("chsh")]
    dims = [(r.dim_full, r.dim_corr) for r in map(face_report, games)]
    certified = np.array([(0, 0, 0), (3, 1, 2), (6, 2, 4), (1, 2, 1), (4, 3, 3)])
    # rank 2 of 3 mod p (the constant column adds one) with the lifted
    # relation col1 = 32767 col2, which the first difference satisfies; the
    # congruence proves its full rank first
    proved = [(0, 0), (32767, 1), (1, -65538), (32768, -65537)]
    # rank 2 of 3 mod p with the lifted relation 32765 col1 = 32767 col2, which
    # the first difference satisfies: with entries near 2^24 the congruence
    # fails, and delta times Gram entries near 4.5e15 passes the float bound,
    # so the identity, checked in Python integers, refutes the lift (its
    # Gram diagonal passes 2^31; deflation, squaring in Python integers,
    # finds no parallel columns to drop)
    refuted = [(0, 0), (16776704, 16775680), (16793087, 16726524), (33569791, 33502204)]
    for entries in (1, 5, 64):
        monkeypatch.setattr(exact, "_BLOCK_ENTRIES", entries)
        assert [(r.dim_full, r.dim_corr) for r in map(face_report, games)] == dims
        assert affine_dimension_exact(certified) == 2
        assert affine_dimension_exact(proved) == oracle_affine_dim(proved) == 2
        assert affine_dimension_exact(refuted) == oracle_affine_dim(refuted) == 2
    # the refuted certificate's 3-sided Gram, once per block size
    assert bareiss_calls == [3, 3, 3]


def test_forced_fallback_reads_the_deflated_gram(monkeypatch, bareiss_calls):
    # identity(3): 256 correlation points of 64 coordinates and the constant
    # column.  With both certificates refusing, Bareiss ranks the deflated
    # 29-sided Gram matrix, not the 256 rows
    monkeypatch.setattr(exact, "_positive_definite", lambda A: False)
    monkeypatch.setattr(exact, "_span_certificate", lambda S: None)
    signs = optimal_vertices(make_named("identity", 3)).signs
    corr = (signs[:, :8, None] * signs[:, None, 8:]).reshape(256, 64)
    assert affine_dimension_exact(corr) == oracle_affine_dim(corr.tolist()) == 28
    assert bareiss_calls == [29]


def test_rank_reads_the_matrix_once(monkeypatch, bareiss_calls):
    # g0(3): 70 points of 64 coordinates and the constant column, of rank 21;
    # with one row per block, summing the Gram matrix takes 70 blocks, and the
    # lifted certificate is checked on the Gram matrix, not on more blocks
    from tightbell import g0_dimension

    blocks = []
    row_blocks = exact._row_blocks

    def counted(M, dtype):
        for B in row_blocks(M, dtype):
            blocks.append(len(B))
            yield B

    monkeypatch.setattr(exact, "_row_blocks", counted)
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 64)
    assert g0_dimension(3).verified_value == 20
    assert len(blocks) == 70
    assert bareiss_calls == []


def _past_the_float_bound() -> dict:
    """Matrices whose Gram entries pass 2^53, with their ranks."""
    rng = np.random.default_rng(29)
    M = rng.integers(-2**26, 2**26, size=(40, 12), endpoint=True)
    A = rng.integers(-2**24, 2**24, size=(40, 8), endpoint=True)
    C = rng.integers(-3, 3, size=(8, 4), endpoint=True)
    return {
        "full": (M, 12),
        "spanned": (np.hstack([A, A @ C]), 8),
        "beyond-int64": (M.astype(object) * 2**40, 12),
    }


_PAST_THE_FLOAT_BOUND = _past_the_float_bound()


@pytest.mark.parametrize("name", list(_PAST_THE_FLOAT_BOUND))
def test_rank_past_the_float_bound_needs_no_elimination(name, bareiss_calls):
    # the Gram matrix is summed in Python integers and the congruence
    # refuses it; a full rank mod p proves full rank at once, and the
    # spanned columns' certificate, delta = 1 and N = [I | C], is checked
    # in Python integers
    M, rank = _PAST_THE_FLOAT_BOUND[name]
    assert int(np.abs(M).max()) ** 2 * len(M) >= 2**53
    assert exact._rank(M) == len(oracle_rref(M.tolist())[1]) == rank
    assert bareiss_calls == []


def test_python_integer_gram_in_row_blocks(monkeypatch):
    # 40 rows of 12 columns past the float bound: with 48 entries per block
    # the Gram matrix is summed over 10 blocks of 4 rows, not one product
    M, rank = _PAST_THE_FLOAT_BOUND["full"]
    blocks = []
    row_blocks = exact._row_blocks

    def counted(M, dtype):
        for B in row_blocks(M, dtype):
            blocks.append((len(B), B.dtype))
            yield B

    monkeypatch.setattr(exact, "_row_blocks", counted)
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 48)
    assert exact._rank(M) == rank
    assert blocks == [(4, np.dtype(object))] * 10


def _float32_rung(case: str) -> np.ndarray:
    """A matrix with ``max|M|^2 * rows`` at 2^24 - 1, at 2^24 or just past it."""
    if case == "past-2^24":  # 2897^2 * 2 = 2^24 + 8002.  In float32 both
        # diagonal entries, 2896^2 + 2897^2, round to the off-diagonal 2 *
        # 2896 * 2897, so the columns would read as parallel and the rank as 1
        return np.array([[2896, 2897], [2897, 2896]])
    rng = np.random.default_rng(24)
    if case == "2^24-1":  # 3^2 (2^24 - 1) / 9; rows past the fifth are zero
        M = np.zeros(((2**24 - 1) // 9, 4), dtype=np.int8)
        M[:5] = rng.integers(-3, 3, size=(5, 4), endpoint=True)
        M[0, 0] = 3
        return M
    M = rng.integers(-512, 512, size=(16, 4), endpoint=True)  # 1024^2 * 16
    M[:, 3] = M[:, 0] + M[:, 1]  # rank 3
    M[0, :] = [512, 512, 0, 1024]
    return M


@pytest.mark.parametrize(
    "case,dtype", [("2^24-1", np.float32), ("2^24", np.float64), ("past-2^24", np.float64)]
)
def test_rank_float32_rung(case, dtype, monkeypatch):
    M = _float32_rung(case)
    dtypes = set()
    row_blocks = exact._row_blocks

    def recorded(M, dtype):
        dtypes.add(dtype)
        return row_blocks(M, dtype)

    monkeypatch.setattr(exact, "_row_blocks", recorded)
    # zero rows change no rank, so the oracle reads only the others
    assert exact._rank(M) == len(oracle_rref(M[M.any(axis=1)].tolist())[1])
    assert dtypes == {dtype}
    if case == "past-2^24":
        F = M.astype(np.float32)
        G = (F.T @ F).astype(np.int64)
        assert G[0, 1] ** 2 == G[0, 0] * G[1, 1] and exact._rank(M) == 2


_E5, _W = np.array([0, 0, 0, 0, 1]), np.array([46339, 425, 10, 1, 0])  # |w|^2 = 2^31 - 1
_U, _V = np.array([46339, 425, 10, 1]), np.array([-425, 46339, -1, 10])  # |u|^2 = |v|^2 = p


@pytest.mark.parametrize(
    "M,rank,bareiss",
    [
        # columns u = e5, v = 2 u + w and u + v: G = [[1, 2, 3], [2, p + 4,
        # p + 6], [3, p + 6, p + 9]] has rank 2, but rank 1 mod p with the
        # lifted relations 2 and 3 (delta = 1, max|N| = 3).  Both float
        # bounds hold, so only delta G == G[:, pivots] N refutes the lift
        (np.column_stack([_E5, 2 * _E5 + _W, 3 * _E5 + _W]), 2, 1),
        # columns u, v and u + v with u.v = 0: G vanishes mod p, so the
        # modular rank 0 proves nothing
        (np.column_stack([_U, _V, _U + _V]), 2, 1),
        (np.zeros((3, 2), np.int8), 0, 0),
    ],
    ids=["refuted-by-identity", "gram-divisible-by-p", "zero"],
)
def test_rank_exits_without_a_certificate(M, rank, bareiss, bareiss_calls):
    assert exact._rank(M) == rank
    assert len(bareiss_calls) == bareiss


def test_face_report_appendix_d4_exact():
    from tightbell import g0_dimension

    rep = face_report(make_named("appendix_d", 4))
    assert rep.num_vertices == 12872
    assert rep.provenance == {"dim_full": MEASURED, "dim_corr": MEASURED}
    assert rep.dim_full == 121
    assert rep.dim_corr == 105 == 1 + g0_dimension(4).formula_value
    assert rep.is_facet_full is False


def test_face_report_enumerates_once(enumerations):
    rep = face_report(make_named("appendix_d", 2))
    assert len(enumerations) == 1
    assert rep.xi_c == Fraction(1, 2)


def _raised_theorem2(monkeypatch, full: int, corr: int) -> None:
    """Make Theorem 2's bounds ``full`` and ``corr`` more than the real ones."""
    bound = facegeom.theorem2_codim_bound

    def raised(*dims):
        real = bound(*dims)
        return replace(real, delta_full=real.delta_full + full, delta_corr=real.delta_corr + corr)

    monkeypatch.setattr(facegeom, "theorem2_codim_bound", raised)


@pytest.mark.parametrize("full,corr", [(1, 0), (0, 1)], ids=["full", "correlation"])
def test_face_report_checks_theorem_2(monkeypatch, full, corr):
    # Theorem 2 at run time: a no-advantage game whose measured codimension
    # falls below the bound raises; identity(2) meets both bounds exactly,
    # so one more in either fails it.  An advantage game (CHSH) and a
    # truncated set, whose dimensions are lower bounds, are not checked
    g = make_named("identity", 2)
    rep = face_report(g)
    assert (rep.codim_full, rep.codim_corr) == (rep.bound_thm2_codim, rep.bound_thm2_codim_corr)
    _raised_theorem2(monkeypatch, full, corr)
    with pytest.raises(VerificationFailed, match="Theorem 2"):
        face_report(g)
    assert face_report(make_named("chsh")).classification == qsdp.ADVANTAGE
    assert face_report(g, vertex_cap=3).truncated
