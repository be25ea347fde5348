"""Exact classical bias by exhaustive strategy enumeration.

For a fixed sign vector ``alpha`` of the enumerated player, the best response
is forced: ``beta_y = sign((Phi^T alpha)_y)``, so the classical bias is
``max_alpha sum_y |(Phi^T alpha)_y|``.  We always enumerate the smaller side
(transposing the integer matrix if Bob has fewer inputs) and keep everything
exact by working on the integers ``L * Phi`` that the game was built with,
read from the game's array in the type `game` chose for it.
Each scan buffer holds its values in the narrowest exact type for its own
bound, from one ladder: int16 below 2^15, int32 below 2^31, int64 below
2^62, and Python integers (object dtype) otherwise, as enormous denominators
give.  No column sum, and no entry of the split tables below, exceeds
``m * max|L Phi|`` in size; no pattern's value exceeds ``m * m_b *
max|L Phi|``, and the values are reduced from the sums directly in their own
type.  One loop serves every pair of types.

Sign pattern ``p`` sets ``alpha_j = +1`` where bit j of p is 0.  Its
complement ``p ^ (2^m - 1)`` is ``-alpha``: same value, negated column sums.
So one pass covers all 2^m patterns (``enum_cap`` counts them all) but scans
only the 2^(m-1) with the top bit clear, with a split table: for ``k = m //
2``, the column-major tables ``low = P[:k]^T signs(k)^T`` (m_b x 2^k) and
``high = P[k:]^T signs(m - k)^T``, over the 2^(m-k-1) high patterns with the
top bit clear, are built once per pass, and pattern ``h 2^k + l`` has column
sums ``low[:, l] + high[:, h]``.  Their sign matrices are slices of one
read-only int8 table of the signs of every 12-bit pattern, built at import:
bit j of p does not depend on the table's width, and the default cap bounds
both halves to 12 bits (a cap raised past 2^24 builds a wider half per
pass).  Chunks of high patterns are scanned in ascending order; with the
sums of a chunk's patterns as columns, their values are m_b long vector adds
rather than one short reduction per pattern.  Each chunk is
written into one buffer allocated per call, and its absolute values are taken
in place, so the signed sums of the optima are rebuilt from the two tables
afterwards.  The scanned optima are then followed by their complements in
reverse order, which continues the ascending order.  So the pass yields the
optimum, the number of optimal patterns, and the optimal patterns in
ascending order with their column sums; every caller reads this one pass.

Wherever ``(Phi^T alpha)_y = 0`` both signs of ``beta_y`` are optimal, and
`optimal_vertices` branches over *all* such completions: dropping tied
responses would under-measure the dimension of the optimal face.  Vertices
are rows ``[alpha | beta]`` of one int8 matrix in the game's orientation:
optimal patterns in ascending order, each followed by its completions k = 0,
1, ..., where bit j of k sets its j-th tied response as bits set patterns (0
means +1).  When no kept pattern has a tied response each has exactly one
completion, and the rows are ``[alpha | sign(Phi^T alpha)]`` in pattern order,
built with no completion bookkeeping.  The witness of `classical_bias` is row
0: the lowest optimal pattern with tied responses set to +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InvalidParameter, TooLarge, Truncated
from .exact import _complementary, _witness_dual
from .game import DeterministicStrategy, XorGame

DEFAULT_ENUM_CAP = 1 << 24  # alpha patterns
DEFAULT_VERTEX_CAP = 10**6  # stored optimal vertices
_CHUNK = 1 << 16  # column-sum entries per scan step
_INT64_SAFE = 1 << 62
# the type ladder: the first type whose limit passes the bound holds it exactly
_LADDER = ((1 << 15, np.int16), (1 << 31, np.int32), (_INT64_SAFE, np.int64))
_TABLE_BITS = 12  # the default cap's halves: 2^24 patterns split as 12 + 12 bits


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


def _sign_table(bits: int) -> np.ndarray:
    """Read-only int8 signs of every ``bits``-bit pattern: row j is bit j, column p the pattern."""
    table = np.empty((bits, 1 << bits), dtype=np.int8)
    for j, row in enumerate(table):
        # bit j of p runs 2^j zeros (sign +1), then 2^j ones (sign -1), in turn
        runs = row.reshape(-1, 2, 1 << j)
        runs[:, 0], runs[:, 1] = 1, -1
    table.flags.writeable = False
    return table


_SIGN_TABLE = _sign_table(_TABLE_BITS)


def _sign_rows(bits: int, count: int) -> np.ndarray:
    """``_signs(np.arange(count), bits).T``, a slice of the import-time table up to 12 bits."""
    if bits > _TABLE_BITS:
        return _signs(np.arange(count), bits).T
    return _SIGN_TABLE[:bits, :count]


def _exact_type(bound: int):
    """The narrowest type of the ladder that holds every integer of size at most ``bound``."""
    return next((t for limit, t in _LADDER if bound < limit), object)


def require_enumerable(m: int, enum_cap: int) -> None:
    """Raise TooLarge past ``enum_cap`` patterns; 2^m is never formed, so m may be huge."""
    if m >= enum_cap.bit_length():  # 2^m > enum_cap
        # a huge m is named by its bit length: in decimal it may pass the int-to-str limit
        side = str(m) if m.bit_length() <= 64 else f"(2^{m.bit_length() - 1} or more)"
        raise TooLarge(f"enumeration side has {side} inputs (2^{side} patterns > cap {enum_cap})")


def _enumerate(g: XorGame, enum_cap: int, keep: int) -> _Optima:
    """The one pass over all sign patterns, keeping the first ``keep`` optima.

    Its sign matrices are slices of the import-time table (module docstring),
    and it concatenates only what it has: several chunks' optima, or
    complements when ``keep`` passes the scanned half's count.
    """
    if enum_cap < 1:
        raise InvalidParameter(f"enum_cap must be positive, got {enum_cap}")
    swapped = g.m_a > g.m_b
    m, mb = sorted((g.m_a, g.m_b))
    require_enumerable(m, enum_cap)
    # column sums are at most m * max|P| in size and values m_b times that,
    # each buffer in the narrowest type for its bound
    bound = m * g.matrix.max_abs
    sum_type, value_type = _exact_type(bound), _exact_type(mb * bound)
    P = g.matrix.ints.astype(sum_type)
    if swapped:
        P = P.T
    k = m // 2
    # .dot: exact in every type; high patterns keep the top bit clear
    low = P[:k].T.dot(_sign_rows(k, 1 << k).astype(P.dtype))
    high = P[k:].T.dot(_sign_rows(m - k, 1 << (m - k - 1)).astype(P.dtype))
    # a chunk's sums and values go to buffers allocated once, sized to the chunk
    n_high = high.shape[1]
    step = min(max(1, _CHUNK // low.size), n_high)
    sums = np.empty((mb, step, low.shape[1]), dtype=P.dtype)
    vals = np.empty((step, low.shape[1]), dtype=value_type)
    best, count, kept, pats = -1, 0, 0, []
    for h in range(0, n_high, step):
        if h + step > n_high:  # only the last chunk is short
            sums, vals = sums[:, : n_high - h], vals[: n_high - h]
        # sums[:, i, l] are the column sums of pattern ((h + i) << k) + l; their
        # absolute values are taken in place and summed in the value type
        np.add(low[:, None, :], high[:, h : h + step, None], out=sums)
        np.add.reduce(np.abs(sums, out=sums), axis=0, dtype=value_type, out=vals)
        top = int(vals.max())
        if top < best:
            continue
        if top > best:
            best, count, kept, pats = top, 0, 0, []
        hits = (vals == top).ravel().nonzero()[0]
        count += len(hits)
        hits = hits[: max(0, keep - kept)]
        kept += len(hits)
        pats.append((h << k) + hits)
    pats = pats[0] if len(pats) == 1 else np.concatenate(pats)
    # the signed column sums of the kept optima, rebuilt from the two tables
    rows = (low.take(pats & ((1 << k) - 1), 1) + high.take(pats >> k, 1)).T
    # complement p ^ (2^m - 1) has p's value and negated sums; the complements
    # follow the scanned half in descending order of p
    extra = max(0, keep - count)  # slices stop at the count
    if extra:
        pats = np.concatenate([pats, pats[::-1][:extra] ^ ((1 << m) - 1)])
        rows = np.concatenate([rows, -rows[::-1][:extra]])
    return _Optima(Fraction(best, g.matrix.denominator), 2 * count, _signs(pats, m), rows, swapped)


def _vertex_signs(opt: _Optima, cap: int) -> tuple[np.ndarray, bool]:
    """The first ``cap`` vertex rows (read-only, module docstring order) and whether more exist.

    Only a tied response needs the completion bookkeeping: without one, row
    i is kept pattern i.
    """
    tied = opt.rows == 0
    if tied.any():
        # 2^(ties) completions per pattern, clipped: one past the cap fills the set
        # alone, and the clip keeps their sum in int64 (no larger set fits in memory)
        limit = min(cap + 1, _INT64_SAFE // len(tied))
        per = np.minimum(np.left_shift(1, np.minimum(tied.sum(axis=1), 62)), limit)
        ends, total = np.cumsum(per), int(per.sum())
        vertex = np.arange(min(total, cap))
        row = np.searchsorted(ends, vertex, side="right")
        fill = vertex - (ends - per)[row]
        # tie j takes bit j of the fill, other responses bit 63; fill < 2^62, so
        # every bit from 62 on is 0 and shifts stop at 63
        shift = np.where(tied, np.cumsum(tied, axis=1) - 1, 63).clip(max=63)
        negative = (opt.rows < 0)[row] | (fill[:, None] >> shift[row]) & 1
    else:
        row, total = slice(cap), len(tied)
        negative = opt.rows[row] < 0
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


def verify_F_relation(g: XorGame, vs: OptimalVertexSet) -> bool:
    """Whether every vertex of ``vs`` is complementary to the witness's integer dual.

    The witness ``s = vs.signs[0]`` fixes the one candidate dual
    ``t = |Phi~ s|``; scaled by ``L = g.matrix.denominator`` it is the
    integer vector ``d = 2L t`` of ``exact._witness_dual``, formed in the
    type of ``g.matrix.ints``, where no sum overflows.  A vertex
    ``[alpha | beta]`` passes when ``(diag(d) - S) v = 0``, with ``S`` the
    block embedding of ``L Phi``: ``alpha L Phi = beta * d_B``, which is
    ``beta = F alpha`` for ``F = diag(d_B)^-1 L Phi^T``, and ``beta L Phi^T =
    alpha * d_A``.  These are integer identities, decided with no threshold.

    Why it is sound: with ``S' = diag(d) - S``, every optimal ``v`` has
    ``v^T S' v = sum(d) - 2L bias(v) = 0``.  With no quantum advantage
    ``S'`` is positive semidefinite (``d/2L`` is then the optimal dual, by
    complementary slackness at ``Q = s s^T``), so ``S' v = 0`` and every
    vertex passes.  A failing vertex thus proves ``S'`` is not positive
    semidefinite, which is a quantum advantage; CHSH fails, through its tied
    responses.  Raises Truncated on incomplete sets: a universally
    quantified claim cannot be certified from a partial enumeration.
    """
    if vs.truncated:
        raise Truncated("vertex set is truncated; relation cannot be certified")
    d = _witness_dual(g.matrix.ints, vs.signs[0])
    return _complementary(g.matrix.ints, d, vs.signs)
