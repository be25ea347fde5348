"""Exact rank over the rationals of integer matrices, and the integer steps of the verdict.

Every rank in the package is one exact routine, :func:`_gram_rank`: the rank
over the rationals of an exact integer Gram matrix G, which is that of the
vectors G is formed from.  :func:`_gram` reads an integer matrix, in its own
dtype or of Python integers, once to form G; :func:`_rank` ranks a matrix by
its Gram on the smaller side, and a caller that needs several ranks of one
set of vectors forms one Gram and ranks its diagonal blocks.  Zero columns
and columns parallel to an earlier one cannot raise the rank; at every
scale they are dropped first, read off G exactly by the equality case of
Cauchy-Schwarz.  Full rank of the deflated G is proved by a congruence: if
the integer matrix X G X^T, computed exactly, is strictly diagonally
dominant with a positive diagonal, G is positive definite.  X = I is tried
first, in integers at any size, and needs no factorisation: the Gram of
nearly orthogonal columns, such as a complete sign cube's 2^m I, passes as
it stands.  Then X = rint(2^s C^-1), with C the float Cholesky factor of G.
Otherwise the rank of G modulo the prime 2^31 - 1 is a lower bound: a full
one proves full rank, and below that an integer certificate (the lifted
echelon form, checked exactly on G) proves the matching upper bound.  G and
the certificate check follow one rule: float64 where every sum is an
integer below 2^53, which is checked first, else Python integers; G is
summed in float32 where every sum is below 2^24.  The Cholesky congruence
is float64 only and proves nothing past 2^53.  When the prime is unlucky or
the certificate cannot be lifted, fraction-free symmetric elimination of
the deflated G gives the rank.  No tolerance.

``_FLOAT_EXACT`` = 2^53 is that rule's bound wherever the package takes a
float64 path over integers, in the solver and the Walsh check too, and
``_FLOAT32_EXACT`` = 2^24 is the float32 one.

The same module holds the integer steps of the exact advantage verdict.  An
optimal classical vertex ``s = [alpha | beta]`` of a game with ``P = L Phi``
fixes one candidate dual, the integer vector ``d = [|P beta|; |P^T alpha|]``
(:func:`_witness_dual`), and the game has no quantum advantage exactly when
``S' = diag(d) - [[0, P], [P^T, 0]]`` (:func:`_slack_matrix`) is positive
semidefinite.  The steps read the game and its optimal vertices alone, in
this order, and each is conclusive when it succeeds: optimal vertices
outside the kernel of ``S'`` (:func:`_complementary`) or a rounded best
response of negative curvature (:func:`_shows_negative`) prove an
advantage; optimal vertices in the kernel and a congruence on ``S' + K^T
K`` (:func:`_kernel_proves_psd`, ``K^T K`` a float64 product while that is
exact) prove none; and a fraction-free symmetric elimination
(:func:`_psd_rank`) decides what is left, either way.  The elimination is
also the rank's last resort, since a Gram matrix is positive semidefinite.
The span certificate of ``S'`` gives an integer basis of its kernel
(:func:`_kernel_basis`), which holds every optimal Gram matrix of a game
with no advantage.
"""

from __future__ import annotations

from math import frexp, gcd, isqrt, lcm

import numpy as np

_FLOAT_EXACT = 1 << 53  # float64 sums of integers below this are exact
_FLOAT32_EXACT = 1 << 24  # float32 sums of integers below this are exact
_PRIME = (1 << 31) - 1
_RECON_BOUND = isqrt(_PRIME // 2)  # numerator and denominator cap of a lifted residue
_SQUARE_LIMIT = 1 << 31  # int64 holds the square of an integer below this
_ROW_SUM_LIMIT = 1 << 62  # int64 holds twice a sum below this
_BLOCK_ENTRIES = 1 << 20  # entries per row block of the Gram sum


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


def _dominant(B: np.ndarray) -> bool:
    """Whether every ``2 B_ii`` exceeds its row sum of ``|B|``, in the dtype of ``B``.

    Then the symmetric ``B`` is strictly diagonally dominant with a positive
    diagonal, so positive definite by Gershgorin's theorem.
    """
    return bool((2 * B.diagonal() > np.abs(B).sum(axis=1)).all())


def _positive_definite(A: np.ndarray) -> bool:
    """Whether a congruence proves the symmetric integer matrix ``A`` positive definite.

    A congruence ``B = X A X^T`` with ``B`` strictly diagonally dominant and
    a positive diagonal (:func:`_dominant`) proves it: ``B`` is positive
    definite, which forces ``X`` to be nonsingular, and ``A = X^-1 B X^-T``
    is positive definite too.  ``A`` is int64 or of Python integers (object
    dtype).

    ``X = I`` is tried first, on ``A`` itself: in int64 while ``max|A|``
    times the side is below 2^62, so that every row sum of ``|A|`` and every
    ``2 A_ii`` fits, else in Python integers.  It is exact at any entry size
    and costs no factorisation; a Gram matrix of nearly orthogonal columns,
    such as a complete sign cube's ``2^m I``, passes it.

    Otherwise ``C`` is the float Cholesky factor, ``A ~ C C^T``, and ``X =
    rint(2^s C^-1)``.  With ``w`` the largest row sum of ``|X|`` and ``t``
    the sum of all its entries, ``s`` is as large as keeps ``w t max|A| <
    2^53``, checked on ``X`` itself: every partial sum of ``B``, in any
    order, and every row sum of ``|B|`` is then an integer below 2^53, exact
    in float64.  This step refuses ``max|A| >= 2^53`` before the float64
    copy, which would round it or overflow.  ``False`` proves nothing: an
    indefinite or singular ``A`` usually fails the float factorisation
    itself, and an ill-conditioned one fails the check.
    """
    a_max = max(int(A.max()), -int(A.min()))
    if _dominant(A.astype(np.int64 if a_max * len(A) < _ROW_SUM_LIMIT else object, copy=False)):
        return True
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
    return _dominant(X @ F @ X.T)


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


def _kernel_basis(S: np.ndarray) -> np.ndarray | None:
    """An integer basis of the kernel of the square ``S``, as columns, or None.

    Read from :func:`_span_certificate`: for each ``j`` off the pivots, the
    column ``delta e_j`` with ``-N_j`` on the pivots, which ``delta S = S[:,
    P] N`` puts in the kernel.  Each column alone is nonzero at its ``j``, so
    they are independent, and there are as many as the side less the rank.
    ``N[:, P]`` is ``delta I``, so these are the columns of ``delta I`` less
    ``N`` on the pivot rows, the pivot columns left out.  Int64 or of Python
    integers, as ``N`` is; None when the certificate is.
    """
    certificate = _span_certificate(S)
    if certificate is None:
        return None
    pivots, delta, N = certificate
    V = np.eye(len(S), dtype=N.dtype) * delta
    V[pivots] -= N
    return np.delete(V, pivots, axis=1)


def _gram(T: np.ndarray) -> np.ndarray:
    """The exact Gram matrix ``T^T T`` of a 2-D array of integers, int64 or of Python integers.

    ``T`` is of integer or object dtype and read once, summed over row
    blocks: in float32 while ``max|T|^2 * rows < 2^24``, in float64 while it
    is below 2^53 (every partial sum is then an exact integer), else in
    Python integers.  The sum is int64 below 2^53 and of Python integers
    (object dtype) beyond.  Each block's product reads a contiguous copy of
    its transpose: numpy hands ``B.T @ B`` to BLAS syrk, which with BLAS
    threads unset spends milliseconds on a block that a general product
    sums in microseconds.  The sums are exact either way.
    """
    bound = max(int(T.max()), -int(T.min())) ** 2 * len(T)
    dtype = np.float32 if bound < _FLOAT32_EXACT else np.float64 if bound < _FLOAT_EXACT else object
    G = np.zeros((T.shape[1], T.shape[1]), dtype)
    for B in _row_blocks(T, dtype):
        G += B.T.copy() @ B
    return G if dtype is object else G.astype(np.int64)


def _rank(M: np.ndarray) -> int:
    """Exact rank over Q of a 2-D array of integers, of integer or object dtype.

    With ``M`` oriented so it has no more columns than rows, the one pass
    over ``M`` forms the exact Gram matrix ``G = M^T M`` (:func:`_gram`),
    of the same rank, and :func:`_gram_rank` reads it.
    """
    if not M.any():
        return 0
    return _gram_rank(_gram(M.T if M.shape[0] < M.shape[1] else M))


def _gram_rank(G: np.ndarray) -> int:
    """Exact rank over Q of a nonzero integer Gram matrix ``G``: the rank of its vectors.

    ``G`` is int64 or of Python integers, as :func:`_gram` forms it.  A
    1 x 1 ``G``, the Gram of one vector or of one column, has rank 1.

    Otherwise columns that cannot raise the rank are dropped first, decided exactly on
    ``G``: column ``j`` is zero when ``G_jj = 0``, and parallel to column
    ``i`` when ``G_ij^2 = G_ii G_jj``, the equality case of Cauchy-Schwarz.
    Zero columns go, and so does every column parallel to an earlier
    nonzero one.  A zero column meets the equality with every column, so it
    is never a witness.  The squares are taken in int64 while every ``G_jj
    < 2^31``, since ``|G_ij|`` is at most the larger diagonal entry, and in
    Python integers beyond that.  The kept columns ``K`` span the column
    space, so what follows reads ``G[K][:, K]``.

    A Gram matrix is positive definite exactly when it is nonsingular, so
    full rank, the usual case for face matrices once deflated, is proved by
    :func:`_positive_definite` with no elimination.  Its first congruence,
    ``X = I``, proves a diagonally dominant ``G`` at any entry size with no
    factorisation; its Cholesky one refuses entries of 2^53 or more.
    Otherwise :func:`_span_certificate` proves the rank, at any entry size.
    Without either proof (an unlucky prime or an echelon form that does not
    lift), :func:`_psd_rank`, a fraction-free symmetric elimination of the
    deflated ``G``, gives it, at a cost cubic in its side.
    """
    if len(G) == 1:
        return 1
    S = G if G.diagonal().max() < _SQUARE_LIMIT else G.astype(object, copy=False)
    diag = S.diagonal()
    # witness[i, j]: column i is nonzero and parallel to column j.  A nonzero
    # column witnesses itself and stays unless an earlier one witnesses it; a
    # zero column's first witness is the first nonzero one.
    witness = (S * S == np.multiply.outer(diag, diag)) & (diag > 0)[:, None]
    keep = np.flatnonzero(witness.argmax(axis=0) == np.arange(len(G)))
    G = G.take(keep, 0).take(keep, 1)
    if _positive_definite(G):
        return len(keep)
    certificate = _span_certificate(G)
    if certificate is not None:
        return len(certificate[0])
    return _psd_rank(G)


def _psd_rank(S: np.ndarray) -> int | None:
    """Rank of the symmetric integer matrix ``S`` if it is positive semidefinite, else None.

    Fraction-free (Bareiss) elimination in Python integers on the diagonal
    pivots, in order, with no swaps.  Every interior division is exact, and
    after the pivots ``J`` each entry of the trailing block is ``det S[J,
    J]`` times the entry of the Schur complement, so entries stay minors of
    ``S`` and the pivots keep the signs of the Schur complement's diagonal.
    A negative pivot, or a zero pivot whose row is not zero (a 2 x 2
    principal minor ``-b^2``), proves ``S`` is not positive semidefinite;
    a zero pivot on a zero row is skipped, and it stays zero in every later
    complement.  Otherwise ``S`` is congruent to the diagonal of its
    pivots, so it is positive semidefinite of rank the number of positive
    ones.  Only the upper triangle is read and written, since the
    complements stay symmetric.
    """
    M, rank, prev = S.tolist(), 0, 1
    for k, row_k in enumerate(M):
        p = row_k[k]
        if p < 0 or p == 0 and any(row_k[k + 1 :]):
            return None
        if p > 0:
            for i in range(k + 1, len(M)):
                for j in range(i, len(M)):
                    M[i][j] = (M[i][j] * p - row_k[i] * row_k[j]) // prev
            rank, prev = rank + 1, p
    return rank


def _witness_dual(P: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The integer dual ``d = [|P beta|; |P^T alpha|]`` of an optimal vertex ``[alpha | beta]``.

    ``P`` is a game's ``L Phi`` in the type the game holds it, and ``d`` is
    in that type: no entry exceeds ``L``, the sum of ``|P|``, so none
    overflows.  ``d / 2L`` is the dual ``t = |Phi~ s|`` that complementary
    slackness at ``Q = s s^T`` forces, and ``sum(d) = 2L xi_c``.
    """
    m_a = len(P)
    return np.concatenate((np.abs(P.dot(s[m_a:])), np.abs(s[:m_a].dot(P))))


def _slack_matrix(P: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``S' = diag(d) - [[0, P], [P^T, 0]]``, in the type of ``P``; no entry exceeds ``L``."""
    m_a = len(P)
    S = np.diag(d)
    S[:m_a, m_a:], S[m_a:, :m_a] = -P, -P.T
    return S


def _complementary(P: np.ndarray, d: np.ndarray, K: np.ndarray) -> bool:
    """Whether ``S' k = 0`` for every row ``k = [alpha | beta]`` of ``K``.

    ``S'`` is :func:`_slack_matrix`'s, and the test is its two halves as
    integer products, ``alpha P = beta * d_B`` and ``beta P^T = alpha *
    d_A``, whose sums stay within the sum of ``|P|``.  Every optimal vertex
    ``v`` has ``v^T S' v = sum(d) - 2L bias(v) = 0``, so when ``S'`` is
    positive semidefinite every optimal vertex passes: a failing one proves
    a quantum advantage.
    """
    m_a = len(P)
    a, b = K[:, :m_a], K[:, m_a:]
    return np.array_equal(a.dot(P), b * d[m_a:]) and np.array_equal(b.dot(P.T), a * d[:m_a])


def _kernel_proves_psd(S: np.ndarray, K: np.ndarray) -> bool:
    """Whether ``S`` is proved positive semidefinite, given ``S K^T = 0``.

    Split any ``v`` as ``w + K^T c`` with ``K w = 0``; then ``v^T S v = w^T
    (S + K^T K) w``, so a congruence proof (:func:`_positive_definite`) that
    ``S + K^T K`` is positive definite proves ``S`` positive semidefinite.
    False proves nothing.  ``K`` holds vertices, entries +-1, so every sum of
    ``K^T K`` is below its row count: the product is one BLAS product in
    float64 while that is below 2^53, which is checked, and in int64 past
    it.  It reads a copy of ``K^T``, as :func:`_gram` does, so BLAS runs a
    general product, not syrk.  ``S`` has no entry above 2^53 when the sum
    is formed, so it cannot overflow.
    """
    F = K.astype(np.float64 if len(K) < _FLOAT_EXACT else np.int64)
    return int(S.max()) < _FLOAT_EXACT and _positive_definite(S + (F.T.copy() @ F).astype(np.int64))


def _shows_negative(P: np.ndarray, d: np.ndarray, L: int) -> bool:
    """Whether a rounded best response ``v`` of the smaller side has ``v^T S' v < 0``.

    ``S'`` is :func:`_slack_matrix`'s, never formed: ``v^T S' v = sum(d v^2)
    - 2 v_A^T P v_B``.  For each input ``x`` of the smaller side, ``u`` is
    ``e_x`` and the other side's ``P_(x, y) / d_y`` (``d_y`` read as 1 where
    it is 0); then ``u^T S' u`` is the diagonal entry of the Schur
    complement of the other side's block, negative for most games with an
    advantage, and the memory is m x min(m_a, m_b).

    ``P`` is a game's ``L Phi``, so ``sum(d)`` and the sum of ``|P|`` are at
    most ``2L`` and ``L``; each ``u`` is divided by its largest entry when
    that passes 1, and ``v = rint(2^k u)``, so ``|v| <= 2^k``.  With
    ``2^(2k) 4L < 2^62`` every partial sum fits int64, so the test is exact,
    and True proves ``S'`` is not positive semidefinite, which is a quantum
    advantage.  False proves nothing; so does a game past int64.
    """
    k = (60 - L.bit_length()) // 2
    if k < 1 or P.dtype == object:
        return False
    m_a, m_b = P.shape
    if m_a <= m_b:
        U = np.vstack((np.eye(m_a), (P / np.maximum(d[m_a:], 1)).T))
    else:
        U = np.vstack((P / np.maximum(d[:m_a], 1)[:, None], np.eye(m_b)))
    V = np.rint(np.ldexp(U / np.abs(U).max(axis=0, initial=1.0), k)).astype(np.int64)
    return bool(((d[:, None] * V * V).sum(0) < 2 * (V[:m_a] * P.dot(V[m_a:])).sum(0)).any())
