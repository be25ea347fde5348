"""Two-player XOR games with exact rational data.

An XOR game is given by a prior ``q(x, y)`` over question pairs and a binary
predicate ``f(x, y)``; the players answer with bits ``a`` and ``b`` and win
when ``a XOR b = f(x, y)``.  The single derived object every analysis consumes
is the game matrix ``Phi`` with entries ``(-1)^f(x,y) * q(x,y)``: the bias of
a behaviour with correlators ``c`` is ``sum_xy Phi_xy * c_xy`` and the winning
probability is ``(1 + bias) / 2``.

All classical-side data is exact: priors are `fractions.Fraction`, matrices
are immutable nested tuples, and normalization of the prior is *checked*, not
silently applied, because rescaling would change the bias scale.  Floats only
enter at the semidefinite-solver boundary (`tightbell.qsdp`).
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .errors import (
    EmptyGame,
    GameFormatError,
    InvalidParameter,
    NegativePrior,
    NotNormalized,
    ShapeMismatch,
    UnknownName,
)

GAME_FORMAT = "tightbell-game-v1"

Matrix = tuple[tuple[Fraction, ...], ...]
BitMatrix = tuple[tuple[int, ...], ...]

NAMED_GAMES = ("chsh", "identity", "nlc_and", "appendix_d", "single_entry")


def as_rational(value) -> Fraction:
    """Coerce an exact value ("3/4", "0.25", int, Fraction) to Fraction.

    Binary floats are rejected: they would smuggle rounding into data that the
    rest of the library treats as exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
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


def as_int(value) -> int:
    """Coerce an exact integer (a bit or a dimension) to int.

    Bools, floats and strings are rejected, as binary floats are for priors.
    """
    if not isinstance(value, bool) and hasattr(type(value), "__index__"):
        return operator.index(value)
    raise GameFormatError(f"integer required, got {value!r}")


def _rational_matrix(rows: Sequence[Sequence]) -> Matrix:
    out = tuple(tuple(as_rational(v) for v in row) for row in rows)
    if not out or not out[0]:
        raise ShapeMismatch("matrix must be nonempty")
    width = len(out[0])
    if any(len(row) != width for row in out):
        raise ShapeMismatch("matrix rows have unequal lengths")
    return out


@dataclass(frozen=True)
class XorGame:
    """Validated XOR game; construct through :func:`build_game`."""

    m_a: int
    m_b: int
    q: Matrix
    f: BitMatrix


@dataclass(frozen=True)
class GameMatrix:
    """The signed prior ``Phi_xy = (-1)^f(x,y) q(x,y)``; sum of |entries| is 1."""

    phi: Matrix

    @property
    def m_a(self) -> int:
        return len(self.phi)

    @property
    def m_b(self) -> int:
        return len(self.phi[0])


@dataclass(frozen=True)
class DeterministicStrategy:
    """A pair of local sign assignments, one per question."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a not in (-1, 1) for a in self.alpha) or any(
            b not in (-1, 1) for b in self.beta
        ):
            raise ShapeMismatch("strategy entries must be exactly +1 or -1")


@dataclass(frozen=True)
class Behaviour:
    """First moments and correlators of a no-signalling conditional distribution.

    ``4 p(a,b|x,y) = 1 + (-1)^a alpha_x + (-1)^b beta_y + (-1)^(a+b) c_xy``.
    Entries may be exact (int/Fraction) or float; arithmetic on them preserves
    exactness when the inputs are exact.
    """

    alpha: tuple
    beta: tuple
    c: tuple


@dataclass(frozen=True)
class ReductionMap:
    """Bookkeeping for dropping never-asked questions.

    ``kept_rows``/``kept_cols`` are the original indices with positive marginal
    prior, in increasing order; ``original_dims`` is the unreduced shape.
    """

    kept_rows: tuple[int, ...]
    kept_cols: tuple[int, ...]
    original_dims: tuple[int, int]


def build_game(q: Sequence[Sequence], f: Sequence[Sequence[int]]) -> XorGame:
    """Validate and freeze an XOR game.

    Raises ShapeMismatch, NegativePrior, NotNormalized, or GameFormatError.
    Normalization is never applied silently: the caller must supply a prior
    summing to 1.
    """
    qm = _rational_matrix(q)
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


def game_matrix(g: XorGame) -> GameMatrix:
    """Signed game matrix; exact in rationals."""
    phi = tuple(
        tuple(-qv if fv else qv for qv, fv in zip(qrow, frow))
        for qrow, frow in zip(g.q, g.f)
    )
    return GameMatrix(phi=phi)


def transpose_game(g: XorGame) -> XorGame:
    """Swap the two players' roles."""
    q = tuple(tuple(g.q[x][y] for x in range(g.m_a)) for y in range(g.m_b))
    f = tuple(tuple(g.f[x][y] for x in range(g.m_a)) for y in range(g.m_b))
    return XorGame(m_a=g.m_b, m_b=g.m_a, q=q, f=f)


def reduce_exhaustive(g: XorGame) -> tuple[XorGame, ReductionMap]:
    """Drop questions that are never asked (zero marginal prior).

    The reduced game has no all-zero prior row or column.  Any strategy for
    the reduced game lifts to the original by choosing the dropped signs
    freely, with identical bias.
    """
    row_pos = [x for x in range(g.m_a) if any(v > 0 for v in g.q[x])]
    col_pos = [y for y in range(g.m_b) if any(g.q[x][y] > 0 for x in range(g.m_a))]
    if not row_pos or not col_pos:
        raise EmptyGame("all prior entries are zero")
    rmap = ReductionMap(
        kept_rows=tuple(row_pos),
        kept_cols=tuple(col_pos),
        original_dims=(g.m_a, g.m_b),
    )
    if len(row_pos) == g.m_a and len(col_pos) == g.m_b:
        return g, rmap
    q = tuple(tuple(g.q[x][y] for y in col_pos) for x in row_pos)
    f = tuple(tuple(g.f[x][y] for y in col_pos) for x in row_pos)
    return XorGame(m_a=len(row_pos), m_b=len(col_pos), q=q, f=f), rmap


def lift_strategy(
    s: DeterministicStrategy,
    rmap: ReductionMap,
    alpha_fill: Sequence[int] = (),
    beta_fill: Sequence[int] = (),
) -> DeterministicStrategy:
    """Re-insert dropped coordinates, taking their signs from the fill vectors."""
    M_a, M_b = rmap.original_dims

    def rebuild(kept: tuple[int, ...], vals: tuple[int, ...], fill, size: int):
        dropped = [i for i in range(size) if i not in set(kept)]
        if len(fill) != len(dropped):
            raise ShapeMismatch(
                f"fill has {len(fill)} entries, need {len(dropped)}"
            )
        out = [0] * size
        for idx, v in zip(kept, vals):
            out[idx] = v
        for idx, v in zip(dropped, fill):
            out[idx] = v
        return tuple(out)

    return DeterministicStrategy(
        alpha=rebuild(rmap.kept_rows, s.alpha, tuple(alpha_fill), M_a),
        beta=rebuild(rmap.kept_cols, s.beta, tuple(beta_fill), M_b),
    )


def bias_of_behaviour(g: XorGame, b: Behaviour):
    """Game bias ``sum_xy Phi_xy c_xy``; exact when the correlators are exact."""
    if len(b.alpha) != g.m_a or len(b.beta) != g.m_b:
        raise ShapeMismatch("behaviour marginals do not match game dimensions")
    if len(b.c) != g.m_a or any(len(row) != g.m_b for row in b.c):
        raise ShapeMismatch("correlator block does not match game dimensions")
    phi = game_matrix(g).phi
    return sum(
        phi[x][y] * b.c[x][y] for x in range(g.m_a) for y in range(g.m_b)
    )


def bias_of_strategy(g: XorGame, s: DeterministicStrategy):
    """Exact bias of a deterministic strategy pair."""
    return bias_of_behaviour(g, behaviour_of_strategy(s))


def behaviour_of_strategy(s: DeterministicStrategy) -> Behaviour:
    """Deterministic behaviour: correlators are the outer product of the signs."""
    c = tuple(tuple(a * b for b in s.beta) for a in s.alpha)
    return Behaviour(alpha=tuple(s.alpha), beta=tuple(s.beta), c=c)


def ns_perfect_behaviour(g: XorGame) -> Behaviour:
    """The always-winning no-signalling behaviour.

    Both players output uniformly random bits correlated so that the XOR always
    matches the predicate: zero marginals, correlators ``(-1)^f(x,y)``, bias 1.
    """
    zero_a = tuple(0 for _ in range(g.m_a))
    zero_b = tuple(0 for _ in range(g.m_b))
    c = tuple(tuple(-1 if fv else 1 for fv in row) for row in g.f)
    return Behaviour(alpha=zero_a, beta=zero_b, c=c)


def probability_table(b: Behaviour):
    """Reconstruct ``p(a, b_out | x, y)`` as a nested tuple ``[x][y][a][b_out]``.

    Exact for exact behaviours.  Useful for checking physicality (all entries
    nonnegative) and the no-signalling marginal equalities.
    """
    quarter = Fraction(1, 4)
    table = []
    for x in range(len(b.alpha)):
        row = []
        for y in range(len(b.beta)):
            cell = tuple(
                tuple(
                    quarter
                    * (
                        1
                        + (-1) ** a * b.alpha[x]
                        + (-1) ** o * b.beta[y]
                        + (-1) ** (a + o) * b.c[x][y]
                    )
                    for o in (0, 1)
                )
                for a in (0, 1)
            )
            row.append(cell)
        table.append(tuple(row))
    return tuple(table)


def make_named(name: str, n: int | None = None) -> XorGame:
    """Construct a named game family member.

    chsh            2x2 uniform prior, predicate 1 only on the (1,1) question.
    identity        2^n x 2^n, uniform prior on matching questions, win iff a = b.
    nlc_and         shared-input game, uniform prior, predicate AND of the n bits.
    appendix_d      2^n x 2^n (n >= 2): match outputs iff the questions match,
                    prior weights chosen so the bias bound is nontrivial.
    single_entry    the 1x1 game with q = 1, f = 0.
    """
    key = name.replace("-", "_").lower()
    if key in ("chsh", "single_entry"):
        if n is not None and key == "chsh":
            raise InvalidParameter("chsh takes no size parameter")
    elif key in ("identity", "nlc_and", "appendix_d"):
        if n is None or n < 1:
            raise InvalidParameter(f"{key} requires n >= 1")
        if key == "appendix_d" and n < 2:
            raise InvalidParameter("appendix_d requires n >= 2 (n = 1 is trivial)")
    else:
        raise UnknownName(f"unknown game name {name!r}; known: {NAMED_GAMES}")

    if key == "chsh":
        quarter = Fraction(1, 4)
        return build_game(
            [[quarter, quarter], [quarter, quarter]], [[0, 0], [0, 1]]
        )
    if key == "single_entry":
        return build_game([[Fraction(1)]], [[0]])
    if key == "identity":
        m = 2**n
        w = Fraction(1, m)
        q = [[w if i == j else Fraction(0) for j in range(m)] for i in range(m)]
        f = [[0] * m for _ in range(m)]
        return build_game(q, f)
    if key == "nlc_and":
        from . import nlc  # deferred: nlc imports this module

        m = 2**n
        spec = nlc.NlcSpec(
            n=n,
            q_tilde=tuple(Fraction(1, m) for _ in range(m)),
            f_z=tuple(1 if z == m - 1 else 0 for z in range(m)),
        )
        return nlc.build_nlc(spec)
    # appendix_d: Phi = lam * (I - 2^{1-n} J); +lam on the complement of the
    # all-ones vector, -lam on it.  |entries| sum to 1 fixes lam.
    m = 2**n
    lam = Fraction(1, 3 * 2**n - 4)
    diag = lam * (1 - Fraction(2, m))
    off = -lam * Fraction(2, m)
    q = [[abs(diag) if i == j else abs(off) for j in range(m)] for i in range(m)]
    f = [
        [(1 if diag < 0 else 0) if i == j else (1 if off < 0 else 0) for j in range(m)]
        for i in range(m)
    ]
    return build_game(q, f)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def game_to_dict(g: XorGame) -> dict:
    return {
        "format": GAME_FORMAT,
        "m_a": g.m_a,
        "m_b": g.m_b,
        "q": [[str(v) for v in row] for row in g.q],
        "f": [list(row) for row in g.f],
    }


def game_from_dict(data: dict) -> XorGame:
    if not isinstance(data, dict) or data.get("format") != GAME_FORMAT:
        raise GameFormatError(f"expected format {GAME_FORMAT!r}")
    for field in ("m_a", "m_b", "q", "f"):
        if field not in data:
            raise GameFormatError(f"missing field {field!r}")
    for field in ("q", "f"):  # a string or object would iterate as a row
        rows = data[field]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise GameFormatError(f"{field!r} must be a list of rows")
    g = build_game(data["q"], data["f"])
    if (g.m_a, g.m_b) != (as_int(data["m_a"]), as_int(data["m_b"])):
        raise GameFormatError("declared dimensions do not match matrix shape")
    return g


def read_json(path):
    """Parse a UTF-8 JSON file; undecodable content raises GameFormatError."""
    try:
        return json.loads(Path(path).read_text("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GameFormatError(f"not valid UTF-8 JSON: {path}") from exc


def save_game(g: XorGame, path) -> None:
    Path(path).write_text(json.dumps(game_to_dict(g), indent=2) + "\n", "utf-8")


def load_game(path) -> XorGame:
    return game_from_dict(read_json(path))
