"""Independent oracles the tests check the library against.

Deliberately written from the definitions, by different algorithms than the
library uses: the classical oracle enumerates BOTH players' sign vectors in a
full double loop (the library enumerates one side and derives the other), the
block-matmul reference expands every sign pattern and multiplies it through
the game matrix (the library adds split low-bit and high-bit tables), the
solver reference updates one row of the Gram factor at a time against the
full embedded matrix, narrows it by Gram-Schmidt and extrapolates from the
kept iterates through a bordered system, row by row (the library updates each
player's rows as one block, narrows by a QR factorization and extrapolates
the whole factor from its kept steps through ``(S S^T) y = 1``), the
affine-dimension oracle is division-based Gaussian elimination over Fractions
(the library uses a certified rank modulo a prime, falling back to
fraction-free integer elimination), the modular echelon reference is
Gauss-Jordan on lists of Python integers with Fermat inverses (the library
updates whole int64 arrays per pivot), the rational echelon oracle is
Gauss-Jordan over Fractions (the library lifts the echelon form modulo a
prime to rationals and checks the lift), the slackness oracle sums ``Phi~ s``
in Fractions from the prior and predicate (the library's exact check reads
the integer matrix ``L Phi``), the slack-matrix oracle builds ``diag(t) -
Phi~`` in Fractions from the prior and predicate and reduces its quadratic
form by division (the library eliminates ``S'``, built from ``L Phi``,
fraction-free), the coupling oracle divides ``L Phi^T`` by the witness's dual
in Fractions from the prior and predicate (the library divides the game's
integer matrix, in floats where that is exact), the float verdict oracle is the classification of earlier
builds, the sampled face oracle is the quantum face probe of earlier builds
(the library ranks an integer basis of the dual's kernel exactly), the vertex-row reference ``reference_vertex_signs`` is the
completion bookkeeping of earlier builds, run on every set (the library
skips it when no kept response is tied), the no-signalling oracle reconstructs the
full conditional table from first principles, and the game validation
reference sums the prior in Fractions (the library sums the integers that
``signed_matrix`` scales over the lcm of the denominators), the face-dimension
reference ranks every block of the full vertex set on its own (the library
forms each Gram once, over half a complete set), and the loader references
read and check every file entry on its own, as earlier builds did (the library
reads each distinct literal once and checks sets of values).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import lcm

import numpy as np

from tightbell import qsdp
from tightbell.classical import classical_bias
from tightbell.errors import (
    GameFormatError,
    InvalidSpec,
    NegativePrior,
    NotNormalized,
    ShapeMismatch,
)
from tightbell.exact import _rank
from tightbell.facegeom import affine_dimension_exact
from tightbell.game import (
    GAME_FORMAT,
    XorGame,
    _integer_matrix,
    as_int,
    as_rational,
    reduce_exhaustive,
)
from tightbell.nlc import NLC_FORMAT

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


def reference_vertex_signs(opt, cap: int) -> tuple[np.ndarray, bool]:
    """The first ``cap`` vertex rows of an enumeration pass, and whether more exist.

    Every pattern is placed by counting its completions: a cumulative sum of
    2^(ties) per pattern, a search for each vertex's pattern and a shift
    table that reads bit j of the fill into the j-th tied response.
    """
    tied = opt.rows == 0
    limit = min(cap + 1, (1 << 62) // max(len(tied), 1))
    per = np.minimum(np.left_shift(1, np.minimum(tied.sum(axis=1), 62)), limit)
    ends, total = np.cumsum(per), int(per.sum())
    vertex = np.arange(min(total, cap))
    row = np.searchsorted(ends, vertex, side="right")
    fill = vertex - (ends - per)[row]
    shift = np.where(tied, np.cumsum(tied, axis=1) - 1, 63).clip(max=63)
    negative = (opt.rows < 0)[row] | (fill[:, None] >> shift[row]) & 1
    beta, alpha = (1 - 2 * negative).astype(np.int8), opt.alphas[row].astype(np.int8)
    signs = np.hstack([beta, alpha] if opt.swapped else [alpha, beta])
    signs.flags.writeable = False
    return signs, total > cap or opt.count > len(tied)


def _reference_basis(rows: np.ndarray, width: int) -> np.ndarray:
    """Orthonormal rows spanning ``rows``, by modified Gram-Schmidt in row order.

    A row that adds nothing new (left with norm below 1e-12 after the
    projections) is skipped, and the basis is completed to ``len(rows)``
    vectors with the unit coordinate vectors of ``R^width`` taken in order.
    """
    basis: list[np.ndarray] = []
    eye = np.eye(width)
    for v in [*rows, *eye]:
        if len(basis) == len(rows):
            break
        v = v.copy()
        for b in basis:
            v -= (v @ b) * b
        nv = math.sqrt(v @ v)
        if nv > 1e-12:
            basis.append(v / nv)
    return np.array(basis)


def reference_coordinate_ascent(blocks, U, cfg, depth=None):
    """The solver's ascent one row update at a time, over the full ``Phi~``.

    Same signature as ``qsdp._coordinate_ascent``; ``Phi~`` is rebuilt from
    the two blocks ``Phi/2`` and ``Phi^T/2``.  Row ``i`` becomes ``w / |w|``
    with ``w = Phi~_i U``, in order, and keeps its value when ``w = 0``;
    sweeps stop when no entry of any row moved by more than
    ``cfg.change_tol``.  After sweep 2 every row is replaced by its
    coordinates in an orthonormal basis of the smaller side's rows (Alice's
    on a tie), built by Gram-Schmidt, and rescaled to unit length; when those
    rows are independent this basis is the library's up to the signs of its
    vectors, which move no coordinate's size.  From then on, every
    ``depth + 1`` sweeps (``qsdp._RRE_DEPTH`` when ``depth`` is None; no
    extrapolation when it is 0) the cycle's iterates ``x_0 .. x_(depth+1)``
    are extrapolated by :func:`reference_rre`, RRE in its textbook form; a
    singular system skips the extrapolation.  The next cycle starts from the
    extrapolated iterate.  Returns (U, sweeps, converged).
    """
    depth = qsdp._RRE_DEPTH if depth is None else depth
    half, half_t = blocks
    m_a, m_b = half.shape
    m = m_a + m_b
    pt = np.zeros((m, m))
    pt[:m_a, m_a:] = half
    pt[m_a:, :m_a] = half_t
    cycle: list[np.ndarray] = []
    for sweep in range(1, cfg.max_iters + 1):
        if sweep == 3:
            side = U[:m_a] if m_a <= m_b else U[m_a:]
            basis = _reference_basis(side, U.shape[1])
            U = np.array([basis @ u for u in U])
            U = np.array([u / math.sqrt(u @ u) for u in U])
            cycle = [U.copy()]
        before = U.copy()
        for i in range(m):
            w = pt[i] @ U
            nw = math.sqrt(w @ w)
            if nw > 0.0:
                U[i] = w / nw
        if float(np.abs(U - before).max()) <= cfg.change_tol:
            return U, sweep, True
        if not depth or sweep < 3:
            continue
        cycle.append(U.copy())
        if len(cycle) < depth + 2:
            continue
        extrapolated = reference_rre(cycle)
        if extrapolated is not None:
            U = extrapolated
        cycle = [U.copy()]
    return U, cfg.max_iters, False


def reference_rre(iterates):
    """Reduced-rank extrapolation of ``x_0 .. x_(k)``, row by row, or None.

    ``gamma`` minimises ``|sum_j gamma_j (x_(j+1) - x_j)|`` subject to
    ``sum_j gamma_j = 1``, found from the bordered system
    ``[[G, 1], [1^T, 0]] (gamma, lambda) = (0, 1)`` with ``G`` the steps'
    inner products summed row by row; each row becomes ``v / |v|`` with
    ``v = sum_j gamma_j x_(j+1)``.  None when the bordered system is singular.
    """
    steps = [b - a for a, b in zip(iterates, iterates[1:])]
    k, rows = len(steps), len(iterates[0])
    bordered = np.zeros((k + 1, k + 1))
    for a in range(k):
        for b in range(k):
            bordered[a, b] = sum(float(steps[a][i] @ steps[b][i]) for i in range(rows))
    bordered[:k, k] = bordered[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        gamma = np.linalg.solve(bordered, rhs)[:k]
    except np.linalg.LinAlgError:
        return None
    out = np.empty_like(iterates[0])
    for i in range(rows):
        v = sum(g * x[i] for g, x in zip(gamma, iterates[1:]))
        out[i] = v / math.sqrt(v @ v)
    return out


def reference_plain_ascent(blocks, U, cfg):
    """``reference_coordinate_ascent`` without extrapolation: Gauss-Seidel sweeps only."""
    return reference_coordinate_ascent(blocks, U, cfg, depth=0)


def oracle_slackness_residual(g, t, s) -> float:
    """``max_i |t_i s_i - (Phi~ s)_i|`` for the dual ``t`` and the signs ``s``.

    ``Phi~ s`` is summed entry by entry in Fractions, over ``Phi`` built from
    the game's prior and predicate, not from its integer matrix.
    """
    P, den = _scaled_phi(g)
    alpha, beta = s[: g.m_a], s[g.m_a :]
    phi_s = [Fraction(sum(P[x][y] * beta[y] for y in range(g.m_b)), 2 * den) for x in range(g.m_a)]
    phi_s += [
        Fraction(sum(P[x][y] * alpha[x] for x in range(g.m_a)), 2 * den) for y in range(g.m_b)
    ]
    return max(abs(float(t_i) * s_i - float(w)) for t_i, s_i, w in zip(t, s, phi_s))


def oracle_coupling(g, s):
    """``F = diag(d_B)^-1 L Phi^T`` in Fractions for the witness signs ``s``, or None.

    ``d_B = |L Phi^T alpha|`` is summed entry by entry over ``L Phi`` built
    from the game's prior and predicate, not from its integer matrix; None
    when an entry of ``d_B`` is zero.  Row ``y`` of F is Bob's input.
    """
    P, _ = _scaled_phi(g)
    d = [abs(sum(P[x][y] * s[x] for x in range(g.m_a))) for y in range(g.m_b)]
    if not all(d):
        return None
    return [[Fraction(P[x][y], d[y]) for x in range(g.m_a)] for y in range(g.m_b)]


def oracle_float_verdict(xi_q: float, certified: bool, xi_c) -> str:
    """The float classification of earlier builds, from the solve's primal value.

    ``xi_q - xi_c > 1e-6`` is an advantage, whether or not the solve
    certified; a certified ``|xi_q - xi_c| <= 1e-6`` is no advantage; and
    anything else, or no ``xi_c``, is undecided.
    """
    if xi_c is None:
        return qsdp.UNDECIDED
    diff = xi_q - float(xi_c)
    if diff > 1e-6:
        return qsdp.ADVANTAGE
    return qsdp.NO_ADVANTAGE if certified and abs(diff) <= 1e-6 else qsdp.UNDECIDED


def oracle_slack_is_psd(g, s) -> bool:
    """Whether ``diag(t) - Phi~``, with ``t = |Phi~ s|``, is positive semidefinite.

    The matrix is built in Fractions from the game's prior and predicate, and
    decided by Lagrange's reduction of its quadratic form: a positive diagonal
    pivot is eliminated by division; a negative one, or a zero one whose row
    is not zero, shows a negative value of the form.
    """
    P, den = _scaled_phi(g)
    m = g.m_a + g.m_b
    S = [[Fraction(0)] * m for _ in range(m)]
    for x in range(g.m_a):
        for y in range(g.m_b):
            S[x][g.m_a + y] = S[g.m_a + y][x] = Fraction(-P[x][y], 2 * den)
    for i in range(m):
        S[i][i] = abs(sum(S[i][j] * s[j] for j in range(m)))
    for k in range(m):
        p = S[k][k]
        if p < 0 or p == 0 and any(S[k][j] for j in range(k + 1, m)):
            return False
        if p == 0:
            continue
        for i in range(k + 1, m):
            f = S[i][k] / p
            for j in range(k + 1, m):
                S[i][j] -= f * S[k][j]
    return True


def oracle_sampled_face_dim(g) -> int:
    """A lower bound on the optimal quantum correlator face's dimension, by sampling.

    The face probe of earlier builds, on the reduced game: one solve at the
    default settings for a base optimum, then 24 more, sample ``k`` a
    two-restart solve at seed ``1 + k``.  Each is passed the exact ``xi_c``
    and no witness, so each starts at random and the samples reach distinct
    optima.  The correlator blocks of the samples certified within
    ``gap_tol`` of the base value are differenced against the base, and the
    singular values of the differences above 1e-6 are counted (the library
    reads two exact ranks of an integer kernel basis).  Sampling never
    finds more than 24 directions.
    """
    g = reduce_exhaustive(g)
    base = qsdp.solve_quantum_bias(g, xi_c=classical_bias(g).xi_c)
    corr = base.gram.gram[: g.m_a, g.m_a :]
    diffs = []
    for k in range(24):
        res = qsdp.solve_quantum_bias(g, qsdp.SolveConfig(seed=1 + k, restarts=2), xi_c=base.xi_c)
        if res.certified and abs(res.xi_q - base.xi_q) <= qsdp.SolveConfig.gap_tol:
            diffs.append((res.gram.gram[: g.m_a, g.m_a :] - corr).ravel())
    if not diffs:
        return 0
    return int(np.count_nonzero(np.linalg.svd(np.vstack(diffs), compute_uv=False) > 1e-6))


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


def reference_rref_mod_p(rows, p: int):
    """(nonzero rows of the reduced echelon form, pivot columns) modulo ``p``.

    Gauss-Jordan elimination on lists of Python integers: at each column the
    first row at or below the next pivot row with a nonzero entry is swapped
    up, scaled by its Fermat inverse ``a^(p-2)`` and subtracted from every
    other row.
    """
    A = [[v % p for v in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(A[0]) if A else 0):
        r = len(pivots)
        if r == len(A):
            break
        i = next((i for i in range(r, len(A)) if A[i][c]), None)
        if i is None:
            continue
        A[r], A[i] = A[i], A[r]
        inv = pow(A[r][c], p - 2, p)
        A[r] = [v * inv % p for v in A[r]]
        for k in range(len(A)):
            if k != r and A[k][c]:
                f = A[k][c]
                A[k] = [(a - f * b) % p for a, b in zip(A[k], A[r])]
        pivots.append(c)
    return A[: len(pivots)], pivots


def oracle_rref(rows):
    """(nonzero rows of the reduced echelon form, pivot columns) over the rationals.

    Gauss-Jordan elimination on lists of Fractions: at each column the first
    row at or below the next pivot row with a nonzero entry is swapped up,
    divided by that entry and subtracted from every other row.
    """
    A = [list(map(Fraction, row)) for row in rows]
    pivots: list[int] = []
    for c in range(len(A[0]) if A else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(A)) if A[i][c]), None)
        if i is None:
            continue
        A[r], A[i] = A[i], A[r]
        A[r] = [v / A[r][c] for v in A[r]]
        for k in range(len(A)):
            if k != r and A[k][c]:
                f = A[k][c]
                A[k] = [a - f * b for a, b in zip(A[k], A[r])]
        pivots.append(c)
    return A[: len(pivots)], pivots


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


def reference_face_dimensions(signs, m_a: int, d_a: int, d_b: int) -> tuple[int, int]:
    """``facegeom._face_dimensions`` of earlier builds: every rank on all the rows.

    The correlation rows are ranked by ``affine_dimension_exact`` and the sign
    blocks by their own ``_rank`` calls, each forming its own Gram matrix of
    the full set (the library forms each Gram once, over the half of a
    complete set with first sign +1, and reads the sign blocks off one Gram).
    """
    corr = (signs[:, :m_a, None] * signs[:, None, m_a:]).reshape(len(signs), -1)
    dim_corr = affine_dimension_exact(corr) + d_a * d_b
    if d_a:
        dim_corr += d_a * _rank(signs[:, m_a:])
    if d_b:
        dim_corr += d_b * _rank(signs[:, :m_a])
    return dim_corr + _rank(signs) + d_a + d_b, dim_corr


def _reference_as_rational(value) -> Fraction:
    """``game.as_rational`` of earlier builds: every string through Fraction's regex."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GameFormatError(f"not a rational literal: {value!r}") from exc
    raise GameFormatError(
        f"exact rational required, got {type(value).__name__}; "
        "use strings like '1/4' or '0.25'"
    )


def _reference_signed_matrix(q, f):
    """``game.signed_matrix`` of earlier builds: one Python integer per entry, then the array."""
    dens = {v.denominator for row in q for v in row}
    L = lcm(*dens)
    ints = [
        [-v.numerator * (L // v.denominator) if b else v.numerator * (L // v.denominator)
         for v, b in zip(qr, fr)]
        for qr, fr in zip(q, f)
    ]
    return _integer_matrix(ints, L)


def reference_game_from_dict(data) -> XorGame:
    """``game.game_from_dict`` and ``build_game`` of earlier builds, entry by entry.

    Every entry is read and checked on its own, in row-major order: priors by
    the regex reader, bits by ``as_int``, the signs of the prior per entry,
    and the sum on the array of one Python integer per entry.
    """
    if not isinstance(data, dict) or data.get("format") != GAME_FORMAT:
        raise GameFormatError(f"expected format {GAME_FORMAT!r}")
    for name in ("m_a", "m_b", "q", "f"):
        if name not in data:
            raise GameFormatError(f"missing field {name!r}")
    for name in ("q", "f"):
        rows = data[name]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise GameFormatError(f"{name!r} must be a list of rows")
    qm = tuple(tuple(_reference_as_rational(v) for v in row) for row in data["q"])
    if not qm or not qm[0]:
        raise ShapeMismatch("matrix must be nonempty")
    if any(len(row) != len(qm[0]) for row in qm):
        raise ShapeMismatch("matrix rows have unequal lengths")
    fm = tuple(tuple(as_int(v) for v in row) for row in data["f"])
    if len(fm) != len(qm) or any(len(fr) != len(qr) for fr, qr in zip(fm, qm)):
        raise ShapeMismatch("q and f must have identical shapes")
    if any(bit not in (0, 1) for row in fm for bit in row):
        raise ShapeMismatch("predicate entries must be 0 or 1")
    if any(v.numerator < 0 for row in qm for v in row):
        raise NegativePrior("prior entries must be >= 0")
    gm = _reference_signed_matrix(qm, fm)
    total = int(np.abs(gm.ints).sum())
    if total != gm.denominator:
        raise NotNormalized(f"prior sums to {Fraction(total, gm.denominator)}, expected exactly 1")
    g = XorGame(m_a=len(qm), m_b=len(qm[0]), q=qm, f=fm, matrix=gm)
    if (g.m_a, g.m_b) != (as_int(data["m_a"]), as_int(data["m_b"])):
        raise GameFormatError("declared dimensions do not match matrix shape")
    return g


def reference_nlc_spec_from_dict(data) -> tuple[int, tuple, tuple]:
    """``nlc.nlc_spec_from_dict`` and ``NlcSpec``'s checks of earlier builds, as ``(n, q~, f)``.

    Every entry is read by the regex reader or ``as_int`` in order, the prior
    summed in Fractions and the bits checked one by one.
    """
    if not isinstance(data, dict) or data.get("format") != NLC_FORMAT:
        raise GameFormatError(f"expected format {NLC_FORMAT!r}")
    if "n" not in data or not all(isinstance(data.get(k), list) for k in ("q_tilde", "f_z")):
        raise GameFormatError("a spec needs n and the lists q_tilde and f_z")
    n = as_int(data["n"])
    q_tilde = tuple(_reference_as_rational(v) for v in data["q_tilde"])
    f_z = tuple(as_int(b) for b in data["f_z"])
    if n < 1:
        raise InvalidSpec("n must be >= 1")
    size = len(q_tilde)
    if size.bit_length() != n + 1 or size != 1 << n or len(f_z) != size:
        raise InvalidSpec(f"q_tilde and f_z must have length 2^{n}")
    if any(v < 0 for v in q_tilde):
        raise InvalidSpec("q_tilde entries must be >= 0")
    if sum(q_tilde) != 1:
        raise InvalidSpec("q_tilde must sum to exactly 1")
    if any(b not in (0, 1) for b in f_z):
        raise InvalidSpec("f_z entries must be 0 or 1")
    return n, q_tilde, f_z
