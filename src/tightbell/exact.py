"""Exact rank over the rationals of integer matrices.

Every rank in the package is one exact routine, :func:`_rank`: the rank over
the rationals of an integer matrix in its own dtype or of Python integers.
The matrix is read once, to form its exact integer Gram matrix G; the rest
reads only G.  Zero columns and columns parallel to an earlier one cannot
raise the rank; at every scale they are dropped first, read off G exactly by
the equality case of Cauchy-Schwarz.  Full rank of the deflated G is proved
by a congruence: with C its float Cholesky factor and X = rint(2^s C^-1),
the integer matrix X G X^T is computed exactly, and if it is strictly
diagonally dominant with a positive diagonal, G is positive definite.
Otherwise its rank modulo the prime 2^31 - 1 is a lower bound: a full one
proves full rank, and below that an integer certificate (the lifted echelon
form, checked exactly on G) proves the matching upper bound.  G and the
certificate check follow one rule: float64 where every sum is an integer
below 2^53, which is checked first, else Python integers.  The congruence
is float64 only and proves nothing past 2^53.  When the prime is unlucky
or the certificate cannot be lifted, fraction-free (Bareiss) elimination
of the deflated G gives the rank.  No tolerance.

``_FLOAT_EXACT`` = 2^53 is that rule's bound wherever the package takes a
float64 path over integers, in the solver and the Walsh check too.
"""

from __future__ import annotations

from math import frexp, gcd, isqrt, lcm

import numpy as np

_FLOAT_EXACT = 1 << 53  # float64 sums of integers below this are exact
_PRIME = (1 << 31) - 1
_RECON_BOUND = isqrt(_PRIME // 2)  # numerator and denominator cap of a lifted residue
_SQUARE_LIMIT = 1 << 31  # int64 holds the square of an integer below this
_BLOCK_ENTRIES = 1 << 20  # float64 entries per row block of the Gram sum


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
