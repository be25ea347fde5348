"""Exact classical bias by exhaustive strategy enumeration.

For a fixed sign vector ``alpha`` of the enumerated player, the best response
is forced: ``beta_y = sign((Phi^T alpha)_y)``, so the classical bias is
``max_alpha sum_y |(Phi^T alpha)_y|``.  We always enumerate the smaller side
(transposing the integer matrix if Bob has fewer inputs) and keep everything
exact by working on the integers ``L * Phi`` of `tightbell.game.game_matrix`
(int64, with an object-dtype fallback for enormous denominators).

Sign pattern ``p`` sets ``alpha_j = +1`` where bit j of p is 0.  Its
complement ``p ^ (2^m - 1)`` is ``-alpha``: same value, negated column sums.
So one pass covers all 2^m patterns (``enum_cap`` counts them all) but scans
only the 2^(m-1) with the top bit clear, with a split table: for ``k = m //
2``, the column-major tables ``low = P[:k]^T signs(k)^T`` (m_b x 2^k) and
``high = P[k:]^T signs(m - k)^T``, over the 2^(m-k-1) high patterns with the
top bit clear, are built once, and pattern ``h 2^k + l`` has column sums
``low[:, l] + high[:, h]``.  Chunks of high patterns are scanned in ascending
order; with the sums of a chunk's patterns as columns, their values are m_b
long vector adds rather than one short reduction per pattern.  The scanned
optima are then followed by their complements in reverse order, which
continues the ascending order.  So the pass yields the optimum, the number of
optimal patterns, and the optimal patterns in ascending order with their
column sums; every caller reads this one pass.

Wherever ``(Phi^T alpha)_y = 0`` both signs of ``beta_y`` are optimal, and
`optimal_vertices` branches over *all* such completions: dropping tied
responses would under-measure the dimension of the optimal face.  Vertices
are rows ``[alpha | beta]`` of one int8 matrix in the game's orientation:
optimal patterns in ascending order, each followed by its completions k = 0,
1, ..., where bit j of k sets its j-th tied response as bits set patterns (0
means +1).  The witness of `classical_bias` is row 0: the lowest optimal
pattern with tied responses set to +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InvalidParameter, ShapeMismatch, TooLarge, Truncated
from .game import DeterministicStrategy, XorGame, game_matrix

DEFAULT_ENUM_CAP = 1 << 24  # alpha patterns
DEFAULT_VERTEX_CAP = 10**6  # stored optimal vertices
_CHUNK = 1 << 16  # column-sum entries per scan step
_INT64_SAFE = 1 << 62


@dataclass(frozen=True)
class ClassicalBiasResult:
    """Exact optimum with one witness strategy.

    ``num_alpha_optimal`` counts optimal sign vectors on the enumerated side;
    ``swapped`` records whether that side was Bob's (min-side normalization).
    """

    xi_c: Fraction
    witness: DeterministicStrategy
    num_alpha_optimal: int
    swapped: bool


@dataclass(frozen=True, eq=False)
class OptimalVertexSet:
    """All deterministic strategies achieving the classical optimum ``xi_c``.

    ``signs`` is a read-only int8 matrix with one row ``[alpha | beta]`` per
    vertex; its first ``m_a`` columns are Alice's.  When ``truncated`` is
    False the set is complete, including every sign choice on tied (zero)
    coordinates and both (alpha, beta) and its negation.
    """

    signs: np.ndarray
    m_a: int
    truncated: bool
    cap: int
    xi_c: Fraction

    @cached_property
    def vertices(self) -> tuple[DeterministicStrategy, ...]:
        """The rows of ``signs`` as strategies, built and checked on first read."""
        return _strategies(self.signs, self.m_a)


@dataclass(frozen=True)
class FRelationReport:
    max_residual: float
    all_pass: bool


@dataclass(frozen=True)
class _Optima:
    """What the enumeration pass found on the enumerated side.

    ``count`` counts the optimal sign vectors; ``alphas`` holds the first of
    them in pattern order and ``rows`` their scaled column sums ``Phi^T alpha``.
    """

    xi_c: Fraction
    count: int
    alphas: np.ndarray
    rows: np.ndarray
    swapped: bool


def _signs(pats: np.ndarray, m: int) -> np.ndarray:
    """Rows of +-1 signs for the given bit patterns (bit j = 0 means +1)."""
    return 1 - 2 * ((pats[:, None] >> np.arange(m, dtype=np.int64)) & 1)


def require_enumerable(m: int, enum_cap: int) -> None:
    """Raise TooLarge past ``enum_cap`` patterns; 2^m is never formed, so m may be huge."""
    if m >= enum_cap.bit_length():  # 2^m > enum_cap
        raise TooLarge(f"enumeration side has {m} inputs (2^{m} patterns > cap {enum_cap})")


def _enumerate(g: XorGame, enum_cap: int, keep: int) -> _Optima:
    """The one pass over all sign patterns, keeping the first ``keep`` optima."""
    if enum_cap < 1:
        raise InvalidParameter(f"enum_cap must be positive, got {enum_cap}")
    swapped = g.m_a > g.m_b
    m, mb = sorted((g.m_a, g.m_b))
    require_enumerable(m, enum_cap)
    gm = game_matrix(g)
    try:
        P = np.array(gm.ints, dtype=np.int64)
    except OverflowError:  # an entry past int64
        P = np.array(gm.ints, dtype=object)
    # worst-case |alpha . column| * m_b must stay clear of int64 overflow;
    # int() first, since np.abs(-2^63) wraps to itself
    if m * mb * max(int(P.max()), -int(P.min())) >= _INT64_SAFE:
        P = P.astype(object)
    if swapped:
        P = P.T
    k = m // 2
    # .dot: exact for int64 and object; high patterns keep the top bit clear
    low = P[:k].T.dot(_signs(np.arange(1 << k), k).T.astype(P.dtype))
    high = P[k:].T.dot(_signs(np.arange(1 << (m - k - 1)), m - k).T.astype(P.dtype))
    step = max(1, _CHUNK // low.size)
    best, count, kept, pats, rows = -1, 0, 0, [], []
    for h in range(0, high.shape[1], step):
        # column i holds the column sums of pattern (h << k) + i
        cols = (low[:, None, :] + high[:, h : h + step, None]).reshape(mb, -1)
        vals = np.abs(cols).sum(axis=0)
        top = int(vals.max())
        if top < best:
            continue
        if top > best:
            best, count, kept, pats, rows = top, 0, 0, [], []
        hits = np.flatnonzero(vals == top)
        count += len(hits)
        hits = hits[: max(0, keep - kept)]
        kept += len(hits)
        pats.append((h << k) + hits)
        rows.append(cols[:, hits].T)
    pats, rows = np.concatenate(pats), np.concatenate(rows)
    # complement p ^ (2^m - 1) has p's value and negated sums; the complements
    # follow the scanned half in descending order of p
    extra = max(0, keep - count)  # slices stop at the count
    pats = np.concatenate([pats, pats[::-1][:extra] ^ ((1 << m) - 1)])
    rows = np.concatenate([rows, -rows[::-1][:extra]])
    return _Optima(Fraction(best, gm.denominator), 2 * count, _signs(pats, m), rows, swapped)


def _vertex_signs(opt: _Optima, cap: int) -> tuple[np.ndarray, bool]:
    """The first ``cap`` vertex rows (read-only, module docstring order) and whether more exist."""
    tied = opt.rows == 0
    # 2^(ties) completions per pattern, clipped: one past the cap fills the set
    # alone, and the clip keeps their sum in int64 (no larger set fits in memory)
    limit = min(cap + 1, _INT64_SAFE // max(len(tied), 1))
    per = np.minimum(np.left_shift(1, np.minimum(tied.sum(axis=1), 62)), limit)
    ends, total = np.cumsum(per), int(per.sum())
    vertex = np.arange(min(total, cap))
    row = np.searchsorted(ends, vertex, side="right")
    fill = vertex - (ends - per)[row]
    # tie j takes bit j of the fill, other responses bit 63; fill < 2^62, so
    # every bit from 62 on is 0 and shifts stop at 63
    shift = np.where(tied, np.cumsum(tied, axis=1) - 1, 63).clip(max=63)
    negative = (opt.rows < 0)[row] | (fill[:, None] >> shift[row]) & 1
    beta, alpha = (1 - 2 * negative).astype(np.int8), opt.alphas[row].astype(np.int8)
    signs = np.hstack([beta, alpha] if opt.swapped else [alpha, beta])
    signs.flags.writeable = False
    return signs, total > cap or opt.count > len(tied)


def _strategies(signs: np.ndarray, m_a: int) -> tuple[DeterministicStrategy, ...]:
    """Rows ``[alpha | beta]`` as checked strategies, Alice's first ``m_a`` signs."""
    return tuple(DeterministicStrategy(tuple(r[:m_a]), tuple(r[m_a:])) for r in signs.tolist())


def classical_bias(g: XorGame, enum_cap: int = DEFAULT_ENUM_CAP) -> ClassicalBiasResult:
    """Exact maximum bias over deterministic strategy pairs.

    The witness takes ``beta_y = sign((Phi^T alpha)_y)`` with ties broken
    to +1 and the lexicographically first optimal alpha (all-ones first).
    An ``enum_cap`` below 1 raises InvalidParameter.
    """
    opt = _enumerate(g, enum_cap, keep=1)
    # row 0 of the vertex order, built directly: ties respond +1
    alpha = tuple(opt.alphas[0].tolist())
    beta = tuple(-1 if v < 0 else 1 for v in opt.rows[0].tolist())
    if opt.swapped:
        alpha, beta = beta, alpha
    return ClassicalBiasResult(
        xi_c=opt.xi_c,
        witness=DeterministicStrategy(alpha, beta),
        num_alpha_optimal=opt.count,
        swapped=opt.swapped,
    )


def optimal_vertices(
    g: XorGame,
    cap: int = DEFAULT_VERTEX_CAP,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> OptimalVertexSet:
    """Enumerate every optimal deterministic strategy pair.

    Branches over all sign completions on zero coordinates of ``Phi^T alpha``;
    keeps the first ``cap`` vertices and marks the set truncated when there
    are more.  Each optimal alpha yields at least one vertex, so the pass
    keeps ``cap`` alphas.  A ``cap`` below 0 raises InvalidParameter; 0 gives
    an empty truncated set.
    """
    if cap < 0:
        raise InvalidParameter(f"cap must be >= 0, got {cap}")
    opt = _enumerate(g, enum_cap, keep=cap)
    signs, truncated = _vertex_signs(opt, cap)
    return OptimalVertexSet(signs, g.m_a, truncated, cap, opt.xi_c)


def verify_F_relation(
    vs: OptimalVertexSet, F, tol: float = 1e-6
) -> FRelationReport:
    """Check ``beta = F alpha`` across a complete optimal vertex set.

    Raises Truncated on incomplete sets: a universally quantified claim
    cannot be certified from a partial enumeration.
    """
    if vs.truncated:
        raise Truncated("vertex set is truncated; relation cannot be certified")
    Fm = np.asarray(F, dtype=float)
    alpha, beta = vs.signs[:, : vs.m_a], vs.signs[:, vs.m_a :]
    if Fm.shape != (beta.shape[1], vs.m_a):
        raise ShapeMismatch(f"F must be {beta.shape[1]}x{vs.m_a}, got {Fm.shape}")
    worst = float(np.abs(beta - alpha @ Fm.T).max(initial=0.0))
    return FRelationReport(max_residual=worst, all_pass=worst <= tol)
