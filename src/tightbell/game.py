"""Two-player XOR games with exact rational data.

An XOR game is given by a prior ``q(x, y)`` over question pairs and a binary
predicate ``f(x, y)``; the players answer with bits ``a`` and ``b`` and win
when ``a XOR b = f(x, y)``.  The single derived object every analysis consumes
is the game matrix ``Phi`` with entries ``(-1)^f(x,y) * q(x,y)``: the bias of
a behaviour with correlators ``c`` is ``sum_xy Phi_xy * c_xy`` and the winning
probability is ``(1 + bias) / 2``.

All classical-side data is exact: priors are `fractions.Fraction`,
`signed_matrix` alone scales a game's signed data to integers, and
normalization of a prior read from outside is *checked* (on integers over the
lcm of the denominators), not silently applied, because rescaling would
change the bias scale.  Floats only enter at the solver boundary
(`tightbell.qsdp`).

A game file is read by `build_game` with one literal table: each distinct
prior string is read once, and its entries share the Fraction.  The checks
keep their order and run on sets and integers: the types and values of the
bits as sets over the flattened rows, then the sign and the sum of the prior
on the integer array ``L q``.  `signed_matrix` reads each distinct entry
once and lays ``L Phi`` out by indexing the table of their integers.

Every game holds ``L Phi`` as one read-only numpy array, built with the game.
Its type is decided here and nowhere else, by `_integer_matrix`: int64 when
every +-1-weighted sum of its entries fits, Python integers (object dtype)
otherwise.  Every analysis reads that array as it is.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    EmptyGame,
    GameFormatError,
    InvalidParameter,
    NegativePrior,
    NotNormalized,
    ShapeMismatch,
    TooLarge,
    UnknownName,
)

GAME_FORMAT = "tightbell-game-v1"

Matrix = tuple[tuple[Fraction, ...], ...]
BitMatrix = tuple[tuple[int, ...], ...]

NAMED_GAMES = ("chsh", "identity", "nlc_and", "appendix_d", "single_entry")
# largest n of a 2^n x 2^n family member: 2 * 2^11 is qsdp.MAX_SDP_SIDE, so no
# analysis takes a larger one, and building it would take 4^n Fractions
MAX_FAMILY_N = 11
_SIGNS = frozenset((-1, 1))
_BITS = frozenset((0, 1))
_INT64_LIMIT = 1 << 63


def as_rational(value) -> Fraction:
    """Coerce an exact value ("3/4", "0.25", int, Fraction) to Fraction.

    Binary floats are rejected: they would smuggle rounding into data that the
    rest of the library treats as exact.  Bools are rejected too, as in
    :func:`as_int`: ``true`` is not a number in a game file.  Strings are
    read by :func:`_parse_literal`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_literal(value)
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


def _parse_literal(s: str) -> Fraction:
    """``Fraction(s)``, with an ASCII ``"a/b"`` or ``"a"`` (b > 0) read by ``int``.

    Those literals are what files hold, and ``Fraction(int, int)`` reads
    them in less than half the time of ``Fraction``'s regex.  Every other
    string, signs, spaces, ``_``, decimals, exponents, non-ASCII digits and
    zero denominators included, goes through the regex, and one it refuses
    raises GameFormatError.
    """
    num, slash, den = s.partition("/")
    if s.isascii() and num.isdigit() and (den.isdigit() or not slash):
        try:
            d = int(den) if slash else 1
            if d:
                return Fraction(int(num), d)
        except ValueError:  # past int's digit limit, which Fraction meets too
            pass
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise GameFormatError(f"not a rational literal: {s!r}") from exc


def _rational_matrix(rows: Sequence[Sequence]) -> Matrix:
    """:func:`as_rational` of every entry, then the shape checked.

    When every entry is a string, as in a file, each distinct string is
    read once, in order of first appearance, and its entries share the
    Fraction; otherwise every entry is read.  Either way the first bad
    entry in row-major order raises.
    """
    rows = tuple(map(tuple, rows))
    flat = list(chain.from_iterable(rows))
    read = as_rational
    if set(map(type, flat)) == {str}:
        read = {v: _parse_literal(v) for v in dict.fromkeys(flat)}.__getitem__
    flat = list(map(read, flat))
    if not rows or not rows[0]:
        raise ShapeMismatch("matrix must be nonempty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ShapeMismatch("matrix rows have unequal lengths")
    return tuple(tuple(flat[lo : lo + width]) for lo in range(0, len(flat), width))


def _bit_matrix(rows: Sequence[Sequence]) -> BitMatrix:
    """:func:`as_int` of every entry; rows of Python ints pass as they are."""
    rows = tuple(map(tuple, rows))
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows
    return tuple(tuple(map(as_int, row)) for row in rows)


@dataclass(frozen=True, eq=False)
class GameMatrix:
    """Phi = (-1)^f q as the integers ``ints = L Phi``; L is the ``denominator``.

    ``ints`` is a read-only m_a x m_b array, int64 when ``m_a m_b max|L Phi|
    < 2^63``, so that no +-1-weighted sum of its entries overflows, and of
    Python integers (object dtype) otherwise.  ``max_abs`` is ``max|L Phi|``
    as a Python integer, computed once with the array: the bound that every
    analysis sizing its integer types reads.  Only `_integer_matrix` makes
    one.  Equality is identity, as arrays have no boolean ``==``.
    """

    ints: np.ndarray
    denominator: int
    max_abs: int

    @property
    def phi(self) -> Matrix:
        """Phi in Fractions (|entries| sum to 1), built on each access."""
        L = self.denominator
        return tuple(tuple(Fraction(v, L) for v in row) for row in self.ints.tolist())


def _integer_matrix(ints, denominator: int) -> GameMatrix:
    """GameMatrix of the integers ``ints``, rows or a 2-D array, in the type their bound needs."""
    try:
        ints = np.asarray(ints, dtype=np.int64)
    except OverflowError:  # an entry past int64
        ints = np.asarray(ints, dtype=object)
    # int() first, since np.abs(-2^63) wraps to itself
    max_abs = max(int(ints.max()), -int(ints.min()))
    ints = ints.astype(np.int64 if ints.size * max_abs < _INT64_LIMIT else object, copy=False)
    ints.flags.writeable = False
    return GameMatrix(ints, denominator, max_abs)


@dataclass(frozen=True)
class XorGame:
    """Validated XOR game.

    :func:`build_game` builds it from outside data, such as a game file, and
    checks it.  :func:`reduce_exhaustive`, :func:`circulant_game` and
    :func:`make_named` build it directly from data that is already checked:
    a game, a shared-input spec, or a family formula pinned by the tests.

    ``matrix`` is ``signed_matrix(q, f)``, built once with the game and
    never per analysis; every analysis reads its array ``matrix.ints`` as
    it is.  ``build_game`` passes the one its normalization check built,
    ``reduce_exhaustive`` the kept block of its parent's and
    ``circulant_game`` one signed row laid out as q is; ``__post_init__``
    builds it for any other construction.  It is left out of equality,
    hashing and ``repr``, being a function of q and f; a copy made by
    ``dataclasses.replace`` with another q or f must pass ``matrix=None``.
    """

    m_a: int
    m_b: int
    q: Matrix
    f: BitMatrix
    matrix: GameMatrix = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.matrix is None:
            object.__setattr__(self, "matrix", signed_matrix(self.q, self.f))


@dataclass(frozen=True)
class DeterministicStrategy:
    """A pair of local sign assignments, one per question."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self) -> None:
        # integers only, as in as_int: 1.0 or True would make biases inexact
        entries = (*self.alpha, *self.beta)
        if not _SIGNS.issuperset(entries) or any(
            t is bool or not hasattr(t, "__index__") for t in set(map(type, entries))
        ):
            raise ShapeMismatch("strategy entries must be the integers +1 or -1")


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


def build_game(q: Sequence[Sequence], f: Sequence[Sequence[int]]) -> XorGame:
    """Validate and freeze an XOR game.

    Raises ShapeMismatch, NegativePrior, NotNormalized, or GameFormatError.
    Normalization is never applied silently: the caller must supply a prior
    summing to 1.  The sign and the sum are checked on ``L q``, the integers
    of :func:`signed_matrix` over the lcm of the denominators, unsigned by f.
    """
    qm = _rational_matrix(q)
    fm = _bit_matrix(f)
    if len(fm) != len(qm) or any(len(fr) != len(qr) for fr, qr in zip(fm, qm)):
        raise ShapeMismatch("q and f must have identical shapes")
    if not _BITS.issuperset(chain.from_iterable(fm)):
        raise ShapeMismatch("predicate entries must be 0 or 1")
    gm = signed_matrix(qm, fm)
    Lq = np.where(np.array(fm, dtype=bool), -gm.ints, gm.ints)  # in the type of gm.ints
    if (Lq < 0).any():
        raise NegativePrior("prior entries must be >= 0")
    total = int(Lq.sum())  # fits the array's type, as a +-1-weighted sum
    if total != gm.denominator:
        raise NotNormalized(f"prior sums to {Fraction(total, gm.denominator)}, expected exactly 1")
    return XorGame(m_a=len(qm), m_b=len(qm[0]), q=qm, f=fm, matrix=gm)


def signed_matrix(q: Sequence[Sequence], f: Sequence[Sequence[int]]) -> GameMatrix:
    """``(-1)^f q`` over the lcm of the denominators of the exact rationals ``q``.

    Reads numerators and denominators only, once per distinct entry object,
    and no Fraction arithmetic is done: a loaded game holds one Fraction per
    distinct literal, and a family member one per distinct value.  When
    entries share an object, ``L q`` is laid out by indexing the table of
    their integers; ``f`` signs it.
    """
    entries = list(chain.from_iterable(q))
    keys = list(map(id, entries))
    distinct = dict(zip(keys, entries))
    dens = {v.denominator for v in distinct.values()}
    L = lcm(*dens)
    scale = {d: L // d for d in dens}
    table = [v.numerator * scale[v.denominator] for v in distinct.values()]
    # int64 while every entry and its negation fit
    table = np.array(table, dtype=np.int64 if max(map(abs, table)) < _INT64_LIMIT else object)
    if len(table) < len(keys):
        where = dict(zip(distinct, range(len(table))))
        table = table[np.fromiter(map(where.__getitem__, keys), np.intp, len(keys))]
    signs = np.fromiter(chain.from_iterable(f), bool, len(keys))
    return _integer_matrix(np.where(signs, -table, table).reshape(len(q), -1), L)


def reduce_exhaustive(g: XorGame) -> XorGame:
    """Drop questions that are never asked (zero marginal prior).

    Returns the game itself when every question is asked.  The reduced game
    has no all-zero prior row or column and keeps the order of the remaining
    questions; any strategy for it extends to ``g`` by choosing the dropped
    signs freely, with identical bias.  A question is asked when its row or
    column of ``g.matrix.ints`` is not all zero, as ``L q`` is not.  A
    dropped entry is 0 over 1, so the kept entries of ``g.matrix`` are the
    reduced game's, over the same L.
    """
    asked = g.matrix.ints != 0
    row_pos = np.flatnonzero(asked.any(axis=1)).tolist()
    col_pos = np.flatnonzero(asked.any(axis=0)).tolist()
    if not row_pos or not col_pos:
        raise EmptyGame("all prior entries are zero")
    if len(row_pos) == g.m_a and len(col_pos) == g.m_b:
        return g
    q, f = (tuple(tuple(map(rows[x].__getitem__, col_pos)) for x in row_pos) for rows in (g.q, g.f))
    matrix = _integer_matrix(g.matrix.ints.take(row_pos, 0).take(col_pos, 1), g.matrix.denominator)
    return XorGame(m_a=len(row_pos), m_b=len(col_pos), q=q, f=f, matrix=matrix)


def bias_of_behaviour(g: XorGame, b: Behaviour):
    """Game bias ``sum_xy Phi_xy c_xy``; exact when the correlators are exact."""
    if len(b.alpha) != g.m_a or len(b.beta) != g.m_b:
        raise ShapeMismatch("behaviour marginals do not match game dimensions")
    if len(b.c) != g.m_a or any(len(row) != g.m_b for row in b.c):
        raise ShapeMismatch("correlator block does not match game dimensions")
    phi = g.matrix.phi
    return sum(
        phi[x][y] * b.c[x][y] for x in range(g.m_a) for y in range(g.m_b)
    )


def bias_of_strategy(g: XorGame, s: DeterministicStrategy) -> Fraction:
    """Exact bias ``sum_xy Phi_xy alpha_x beta_y``, summed on the integers ``L Phi``."""
    if len(s.alpha) != g.m_a or len(s.beta) != g.m_b:
        raise ShapeMismatch("strategy does not match game dimensions")
    gm = g.matrix  # no sum of alpha_x beta_y LPhi_xy overflows its type
    return Fraction(int(np.array(s.alpha) @ gm.ints @ np.array(s.beta)), gm.denominator)


def ns_perfect_behaviour(g: XorGame) -> Behaviour:
    """The always-winning no-signalling behaviour.

    Both players output uniformly random bits correlated so that the XOR always
    matches the predicate: zero marginals, correlators ``(-1)^f(x,y)``, bias 1.
    """
    zero_a = tuple(0 for _ in range(g.m_a))
    zero_b = tuple(0 for _ in range(g.m_b))
    c = tuple(tuple(-1 if fv else 1 for fv in row) for row in g.f)
    return Behaviour(alpha=zero_a, beta=zero_b, c=c)


def circulant_game(q_tilde: Sequence[Fraction], f_z: Sequence[int]) -> XorGame:
    """The N x N game with prior ``q~(x XOR y) / N`` and predicate ``f(x XOR y)``.

    N is ``len(q_tilde)``, a power of two.  Every row and column of the prior
    is a permutation of ``q~ / N``, so the game is exhaustive, and it is
    normalized when q~ is nonnegative and sums to 1.  Built directly, not
    checked: its callers pass a checked shared-input spec or a family formula
    that the tests pin.  Its matrix is laid out from the signed row of q~ / N,
    whose values are q's, over the same L.
    """
    size = len(q_tilde)
    scale = Fraction(1, size)
    values = [scale * v for v in q_tilde]  # formed once, shared by the N cells of each
    signed = signed_matrix((values,), (f_z,))
    row, z = signed.ints[0], np.arange(size)
    q, f, ints = [], [], np.empty((size, size), dtype=row.dtype)
    for x in range(size):
        # row x of each is its row 0 permuted by y -> x ^ y: q's and f's taken
        # in C by one getter (a getter of one index returns the item, not a
        # 1-tuple), the integers' by the index array z ^ x
        take = operator.itemgetter(*(x ^ y for y in range(size))) if size > 1 else tuple
        q.append(take(values))
        f.append(take(f_z))
        ints[x] = row[z ^ x]
    matrix = _integer_matrix(ints, signed.denominator)
    return XorGame(m_a=size, m_b=size, q=tuple(q), f=tuple(f), matrix=matrix)


def make_named(name: str, n: int | None = None) -> XorGame:
    """Construct a named game family member.

    chsh            2x2 uniform prior, predicate 1 only on the (1,1) question.
    identity        2^n x 2^n, uniform prior on matching questions, win iff a = b.
    nlc_and         shared-input game, uniform prior, predicate AND of the n bits.
    appendix_d      2^n x 2^n (n >= 2): match outputs iff the questions match,
                    prior weights chosen so the bias bound is nontrivial.
    single_entry    the 1x1 game with q = 1, f = 0.

    Every member but chsh depends on (x, y) only through x XOR y and is built
    by :func:`circulant_game`; single_entry is identity's 1x1 member.  The
    formulas are normalized for every n, which the tests pin, so no member is
    checked again.  The three 2^n x 2^n families raise TooLarge past
    ``MAX_FAMILY_N``.
    """
    key = name.replace("-", "_").lower()
    if key in ("chsh", "single_entry"):
        if n is not None:
            raise InvalidParameter(f"{key} takes no size parameter")
    elif key in ("identity", "nlc_and", "appendix_d"):
        if n is None or n < 1:
            raise InvalidParameter(f"{key} requires n >= 1")
        if key == "appendix_d" and n < 2:
            raise InvalidParameter("appendix_d requires n >= 2 (n = 1 is trivial)")
        if n > MAX_FAMILY_N:
            raise TooLarge(f"{key} n = {n}: families stop at n = {MAX_FAMILY_N}")
    else:
        raise UnknownName(f"unknown game name {name!r}; known: {NAMED_GAMES}")

    if key == "chsh":
        quarter = Fraction(1, 4)
        return XorGame(m_a=2, m_b=2, q=((quarter,) * 2,) * 2, f=((0, 0), (0, 1)))
    m = 1 if key == "single_entry" else 2**n
    if key in ("identity", "single_entry"):  # all weight on z = 0, win iff a = b
        return circulant_game((Fraction(1),) + (Fraction(0),) * (m - 1), (0,) * m)
    if key == "nlc_and":  # uniform z, win iff a XOR b = AND(z)
        return circulant_game((Fraction(1, m),) * m, (0,) * (m - 1) + (1,))
    # appendix_d: Phi = lam * (I - 2^{1-n} J); +lam on the complement of the
    # all-ones vector, -lam on it.  |entries| sum to 1 fixes lam, and
    # q~ = (lam (m - 2), 2 lam, ..., 2 lam) sums to lam (3m - 4) = 1.  As
    # m >= 4, Phi is positive on the diagonal and negative off it.
    lam = Fraction(1, 3 * m - 4)
    return circulant_game((lam * (m - 2),) + (2 * lam,) * (m - 1), (0,) + (1,) * (m - 1))


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def game_to_dict(g: XorGame) -> dict:
    """The game file's fields, with one ``str`` per distinct prior entry object.

    A family member's rows are permutations of one row of Fractions, so its
    N^2 entries share N strings: ``make identity --n 11 -o`` peaks at 194
    MiB, where a ``str`` per entry took 450 MiB.
    """
    entries = {id(v): v for row in g.q for v in row}
    text = {key: str(v) for key, v in entries.items()}
    return {
        "format": GAME_FORMAT,
        "m_a": g.m_a,
        "m_b": g.m_b,
        "q": [[text[id(v)] for v in row] for row in g.q],
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


def write_json(obj, fh) -> None:
    """Write ``obj`` to the text stream ``fh`` as indented JSON and a newline, chunk by chunk."""
    json.dump(obj, fh, indent=2)
    fh.write("\n")


def save_game(g: XorGame, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(game_to_dict(g), fh)


def load_game(path) -> XorGame:
    return game_from_dict(read_json(path))
