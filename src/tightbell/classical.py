"""Exact classical bias by exhaustive strategy enumeration.

For a fixed sign vector ``alpha`` of the enumerated player, the best response
is forced: ``beta_y = sign((Phi^T alpha)_y)``, so the classical bias is
``max_alpha sum_y |(Phi^T alpha)_y|``.  We always enumerate the smaller side
(transposing the integer matrix if Bob has fewer inputs) and keep everything
exact by working on the integers ``L * Phi`` of `tightbell.game.game_matrix`
(int64, with an object-dtype fallback for enormous denominators).

Sign pattern ``p`` sets ``alpha_j = +1`` where bit j of p is 0.  One pass
covers all 2^m patterns with a split table: for k about m/2, ``low =
signs(k) P[:k]`` and ``high = signs(m - k) P[k:]`` are built once, and
pattern ``h 2^k + l`` has column sums ``low[l] + high[h]``.  Chunks of high
patterns are scanned in ascending order, so the pass yields the optimum, the
number of optimal patterns, and the optimal patterns in ascending order with
their column sums; every caller reads this one pass.

Ties are broken deterministically: the witness of `classical_bias` is the
lowest optimal pattern with tied responses set to +1.  Ties also matter for
face geometry.  Wherever ``(Phi^T alpha)_y = 0`` both signs of ``beta_y`` are
optimal, and `optimal_vertices` branches over *all* such completions, in
pattern order: dropping tied responses would under-measure the dimension of
the optimal face.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class OptimalVertexSet:
    """All deterministic strategies achieving the classical optimum ``xi_c``.

    When ``truncated`` is False the list is complete, including every sign
    choice on tied (zero) coordinates and both (alpha, beta) and its negation.
    ``xi_c`` is None only for sets built by hand.
    """

    vertices: tuple[DeterministicStrategy, ...]
    truncated: bool
    cap: int
    xi_c: Fraction | None = None


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
    alphas: list[list[int]]
    rows: list[list[int]]
    swapped: bool


def _signs(pats: np.ndarray, m: int) -> np.ndarray:
    """Rows of +-1 signs for the given bit patterns (bit j = 0 means +1)."""
    return 1 - 2 * ((pats[:, None] >> np.arange(m, dtype=np.int64)) & 1)


def _enumerate(g: XorGame, enum_cap: int, keep: int) -> _Optima:
    """The one pass over all sign patterns, keeping the first ``keep`` optima."""
    if enum_cap < 1:
        raise InvalidParameter(f"enum_cap must be positive, got {enum_cap}")
    swapped = g.m_a > g.m_b
    m, mb = sorted((g.m_a, g.m_b))
    if 1 << m > enum_cap:
        raise TooLarge(
            f"enumeration side has {m} inputs (2^{m} patterns > cap {enum_cap})"
        )
    gm = game_matrix(g)
    # worst-case |alpha . column| * m_b must stay clear of int64 overflow
    bound = m * mb * max(abs(v) for row in gm.ints for v in row)
    P = np.array(gm.ints, dtype=np.int64 if bound < _INT64_SAFE else object)
    if swapped:
        P = P.T
    k = (m + 1) // 2
    # .dot: exact for int64 and object
    low = _signs(np.arange(1 << k), k).astype(P.dtype).dot(P[:k])
    high = _signs(np.arange(1 << (m - k)), m - k).astype(P.dtype).dot(P[k:])
    step = max(1, _CHUNK // low.size)
    best, count, kept, pats, rows = -1, 0, 0, [], []
    for h in range(0, len(high), step):
        # row i holds the column sums of pattern (h << k) + i
        cols = (low[None, :, :] + high[h : h + step, None, :]).reshape(-1, mb)
        vals = np.abs(cols).sum(axis=1)
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
        rows += cols[hits].tolist()
    alphas = _signs(np.concatenate(pats), m).tolist()
    return _Optima(Fraction(best, gm.denominator), count, alphas, rows, swapped)


def _strategy(alpha, beta, swapped: bool) -> DeterministicStrategy:
    if swapped:
        alpha, beta = beta, alpha
    return DeterministicStrategy(alpha=tuple(alpha), beta=tuple(beta))


def classical_bias(g: XorGame, enum_cap: int = DEFAULT_ENUM_CAP) -> ClassicalBiasResult:
    """Exact maximum bias over deterministic strategy pairs.

    The witness takes ``beta_y = sign((Phi^T alpha)_y)`` with ties broken
    to +1 and the lexicographically first optimal alpha (all-ones first).
    An ``enum_cap`` below 1 raises InvalidParameter.
    """
    opt = _enumerate(g, enum_cap, keep=1)
    beta = [1 if v >= 0 else -1 for v in opt.rows[0]]
    return ClassicalBiasResult(
        xi_c=opt.xi_c,
        witness=_strategy(opt.alphas[0], beta, opt.swapped),
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
    stops and marks the set truncated once ``cap`` vertices are stored.  Each
    optimal alpha yields at least one vertex, so the pass keeps ``cap`` alphas.
    A ``cap`` below 0 raises InvalidParameter; 0 gives an empty truncated set.
    """
    if cap < 0:
        raise InvalidParameter(f"cap must be >= 0, got {cap}")
    opt = _enumerate(g, enum_cap, keep=cap)
    vertices: list[DeterministicStrategy] = []
    for alpha, row in zip(opt.alphas, opt.rows):
        zeros = [y for y, v in enumerate(row) if v == 0]
        base = [1 if v >= 0 else -1 for v in row]
        for fill in range(1 << len(zeros)):
            if len(vertices) >= cap:
                return OptimalVertexSet(tuple(vertices), True, cap, opt.xi_c)
            beta = list(base)
            for j, y in enumerate(zeros):
                beta[y] = 1 - 2 * ((fill >> j) & 1)
            vertices.append(_strategy(alpha, beta, opt.swapped))
    return OptimalVertexSet(tuple(vertices), opt.count > len(opt.alphas), cap, opt.xi_c)


def verify_F_relation(
    vs: OptimalVertexSet, F, tol: float = 1e-6
) -> FRelationReport:
    """Check ``beta = F alpha`` across a complete optimal vertex set.

    Raises Truncated on incomplete sets: a universally quantified claim
    cannot be certified from a partial enumeration.
    """
    if vs.truncated:
        raise Truncated("vertex set is truncated; relation cannot be certified")
    if not vs.vertices:
        return FRelationReport(max_residual=0.0, all_pass=True)
    Fm = np.asarray(F, dtype=float)
    v0 = vs.vertices[0]
    if Fm.shape != (len(v0.beta), len(v0.alpha)):
        raise ShapeMismatch(
            f"F must be {len(v0.beta)}x{len(v0.alpha)}, got {Fm.shape}"
        )
    worst = 0.0
    for v in vs.vertices:
        res = np.abs(np.array(v.beta, dtype=float) - Fm @ np.array(v.alpha, dtype=float)).max()
        worst = max(worst, float(res))
    return FRelationReport(max_residual=worst, all_pass=worst <= tol)
