"""Shared-input (non-local computation) games and their Hadamard analysis.

These games split a uniformly hidden n-bit string z between the players as
x XOR y = z and ask them to compute a Boolean f(z): the prior is
``q(x, y) = 2^-n q~(x XOR y)`` and the predicate ``f(x, y) = f(x XOR y)``.
`build_nlc` makes that game with ``game.circulant_game``, the builder the
XOR-circulant named families share, and `spec_from_game` recovers q~ and f
from a game that has this form.  The game matrix is an XOR-circulant, hence
diagonal in the +-1 Hadamard basis with eigenvalues given by the Walsh
spectrum

    g^(u) = sum_z (-1)^(u.z) (-1)^f(z) q~(z),

computed here exactly by the in-place butterfly transform on integers.

Normalization note: two conventions for "the" game matrix of these games
circulate, differing by the 2^-n prior factor.  All bias statements in this
module are pinned to the ACTUAL game matrix Phi (entries summing to 1 in
absolute value): the classical bias bound is ``xi* = 2^n ||Phi|| =
max_u |g^(u)|``, and at every n one strategy meets it, so ``xi_c = xi*``
exactly (e.g. the n = 2 AND game has xi_c = 1/2 = max |g^|).  For a top Walsh
index u, with ``chi_u(x) = (-1)^(u.x)``, the strategy ``alpha = chi_u``,
``beta = s chi_u`` with ``s = sign(g^(u))`` scores ``|g^(u)|``: since
``chi_u(x) chi_u(y) = chi_u(x XOR y)`` and each z is met by 2^n pairs (x, y),

    sum_x sum_y chi_u(x) chi_u(y) s Phi(x XOR y) = s sum_z chi_u(z) (-1)^f(z) q~(z),

a sum over the 2^n values of z.  `nlc_bias_bound` scores the witness by that
sum, exactly on the spec, with no enumeration and no game built.  The
convention carrying an extra 2^(n-1) factor does not match that witness for
n >= 2.

A spec checks itself on integers: the types and bits as sets, the sign of
q~ once per distinct entry and its sum as one integer sum over the lcm of
its denominators.  A spec file reads each distinct literal once, as a game
file does; `spec_from_game` reads q~ from the game's integer row ``L Phi(0,
.)``, and the spectrum's signed row is formed as Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from . import classical
from .errors import (
    GameFormatError,
    InvalidDims,
    InvalidParameter,
    InvalidSpec,
    TooLarge,
    VerificationFailed,
)
from .exact import _FLOAT_EXACT
from .facegeom import affine_dimension_exact, theorem1_dim_bound, theorem2_codim_bound
from .game import (
    MAX_FAMILY_N,
    XorGame,
    as_int,
    as_rational,
    circulant_game,
    read_json,
    write_json,
)

NLC_FORMAT = "tightbell-nlc-v1"


@dataclass(frozen=True)
class NlcSpec:
    """Distribution over the hidden string plus the target Boolean function.

    Checked on construction, so every spec in existence is valid: InvalidSpec
    when ``n < 1``, when ``q_tilde`` or ``f_z`` does not have length 2^n, when
    an entry of ``q_tilde`` is negative or they do not sum to exactly 1, or
    when a bit of ``f_z`` is not 0 or 1; GameFormatError when ``n`` or a bit
    is not an integer (bools, floats and strings included, as in
    :func:`game.as_int`) or an entry of ``q_tilde`` is not an int or Fraction.
    ``n`` and the bits are stored as Python ints, so numpy integers never
    reach the exact arithmetic or the file format.  The checks run in that
    order, on sets and integers: the types of the entries and of the bits
    as sets, the sign once per distinct entry object and the sum as one
    integer sum over the lcm of the denominators; bits of any other type
    than ``int`` are read one by one, so the first bad bit decides the
    error.
    """

    n: int
    q_tilde: tuple[Fraction, ...]
    f_z: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_int(self.n))
        if self.n < 1:
            raise InvalidSpec("n must be >= 1")
        q = self.q_tilde
        size = len(q)  # 2^n has bit length n + 1, so a huge n is never shifted
        if size.bit_length() != self.n + 1 or size != 1 << self.n or len(self.f_z) != size:
            raise InvalidSpec(f"q_tilde and f_z must have length 2^{self.n}")
        # exact entries only, as as_rational takes them: a float or a bool
        # would reach the rational arithmetic downstream
        if any(t is bool or not issubclass(t, (int, Fraction)) for t in set(map(type, q))):
            raise GameFormatError("q_tilde entries must be int or Fraction")
        distinct = dict(zip(map(id, q), q))
        if any(v < 0 for v in distinct.values()):
            raise InvalidSpec("q_tilde entries must be >= 0")
        L = lcm(*{v.denominator for v in distinct.values()})
        scaled = {k: v.numerator * (L // v.denominator) for k, v in distinct.items()}
        if sum(map(scaled.__getitem__, map(id, q))) != L:
            raise InvalidSpec("q_tilde must sum to exactly 1")
        bits = self.f_z
        if set(map(type, bits)) <= {int}:
            if not {0, 1}.issuperset(bits):
                raise InvalidSpec("f_z entries must be 0 or 1")
        else:
            bits = []
            for b in map(as_int, self.f_z):  # in order: the first bad bit decides the error
                if b not in (0, 1):
                    raise InvalidSpec("f_z entries must be 0 or 1")
                bits.append(b)
        object.__setattr__(self, "f_z", tuple(bits))


@dataclass(frozen=True)
class NlcAnalysis:
    """Exact Walsh spectrum of the q~-normalized game matrix.

    ``lambda_norm = max_u |g^(u)|`` is the operator norm of the circulant
    built from q~; ``k``/``l`` are the exact multiplicities of +-lambda_norm;
    ``xi_star`` is the classical/quantum bias bound in actual-game-matrix
    normalization (equal to lambda_norm, see module docstring).
    """

    spectrum: tuple[Fraction, ...]
    lambda_norm: Fraction
    k: int
    l: int
    xi_star: Fraction
    kl_dim_bound: int


@dataclass(frozen=True)
class NlcBiasBound:
    xi_star: Fraction
    xi_c: Fraction
    matches_classical: bool


@dataclass(frozen=True)
class G0Dimension:
    formula_value: int
    verified_value: int


@dataclass(frozen=True)
class CorollaryBound:
    dim_bound: int
    codim_bound_full: int
    codim_bound_corr: int


def build_nlc(spec: NlcSpec) -> XorGame:
    """The 2^n x 2^n game with prior ``2^-n q~(x XOR y)`` and predicate ``f(x XOR y)``.

    As the spec checked itself, ``game.circulant_game`` builds the game
    directly, not checked again.  Past ``game.MAX_FAMILY_N`` TooLarge is
    raised before anything is built.
    """
    if spec.n > MAX_FAMILY_N:
        raise TooLarge(f"n = {spec.n}: shared-input games stop at n = {MAX_FAMILY_N}")
    return circulant_game(spec.q_tilde, spec.f_z)


def spec_from_game(g: XorGame) -> NlcSpec:
    """Recover the shared-input structure from a game, if it has one.

    Requires square power-of-two dimensions and that ``g`` equal the
    ``game.circulant_game`` of its first row, ``q~ = 2^n q(0, .)`` and
    ``f_z = f(0, .)``; raises InvalidSpec otherwise.  The equality is tested
    as two array comparisons against that row spread over ``x XOR y``: one on
    the game's ``L Phi``, which fixes ``q`` and, where ``q > 0``, ``f``, and
    one on ``f``, which fixes it at the zero-prior entries too.  q~ is read
    from the integer row as ``2^n |L Phi(0, y)| / L``, one Fraction per
    distinct value.
    """
    size = g.m_a
    if g.m_b != size or size & (size - 1) != 0:
        raise InvalidSpec("shared-input games are square with power-of-two size")
    z = np.arange(size)
    xor = z[:, None] ^ z
    ints, f = g.matrix.ints, np.asarray(g.f)
    if not (np.array_equal(ints, ints[0][xor]) and np.array_equal(f, f[0][xor])):
        raise InvalidSpec("game data does not factor through x XOR y")
    L, row = g.matrix.denominator, [abs(v) for v in ints[0].tolist()]
    value = {v: Fraction(v * size, L) for v in set(row)}
    q_tilde = tuple(map(value.__getitem__, row))
    return NlcSpec(n=size.bit_length() - 1, q_tilde=q_tilde, f_z=g.f[0])


def _walsh_transform(values: Sequence) -> list:
    """In-place butterfly Walsh-Hadamard transform, exact on exact inputs."""
    out = list(values)
    h = 1
    while h < len(out):
        for lo in range(0, len(out), 2 * h):
            for i in range(lo, lo + h):
                a, b = out[i], out[i + h]
                out[i], out[i + h] = a + b, a - b
        h *= 2
    return out


def hadamard_spectrum(spec: NlcSpec) -> NlcAnalysis:
    """Exact eigenvalues of the q~-normalized game matrix.

    The transform runs on the Python integers ``L (-1)^f q~``, L the lcm of
    the denominators of q~.
    For n <= 5, also multiplies their circulant by the +-1 Hadamard matrix
    and checks that each column comes out as that column of H times its
    eigenvalue EXACTLY — a theorem check, not a tolerance check.
    """
    q = spec.q_tilde
    L = lcm(*{v.denominator for v in q})
    signed = [(-v.numerator if b else v.numerator) * (L // v.denominator)
              for v, b in zip(q, spec.f_z)]
    walsh = _walsh_transform(signed)
    if spec.n <= 5:
        _verify_diagonalization(signed, walsh, spec.n)
    top = max(map(abs, walsh))  # > 0: q_tilde sums to 1 and WHT is injective
    k, l = walsh.count(top), walsh.count(-top)
    lam = Fraction(top, L)
    return NlcAnalysis(
        spectrum=tuple(Fraction(v, L) for v in walsh),
        lambda_norm=lam,
        k=k,
        l=l,
        xi_star=lam,
        kl_dim_bound=kl_dimension_bound(k, l),
    )


def _verify_diagonalization(signed, spectrum, n: int) -> None:
    """Check M H == H diag(spectrum) exactly (H the +-1 Hadamard).

    ``M_xy = signed[x ^ y]``, so ``(M H)_xu = H_xu g^(u)``; H being
    invertible, this is H M H == 2^n diag(spectrum).  Every partial sum of
    ``M H`` is an integer of size at most ``2^n max|signed|``, so when both
    lists hold only ints and that bound and every ``|spectrum|`` are under
    2^53 the check is exact in float64, in any summation order; otherwise
    (larger integers, Fractions) it runs on Python objects.  Raises
    VerificationFailed on any mismatch.
    """
    size = 1 << n
    z = np.arange(size)
    ints = all(type(v) is int for v in (*signed, *spectrum))
    bound = max(size * max(map(abs, signed)), *map(abs, spectrum))
    dtype = np.float64 if ints and bound < _FLOAT_EXACT else object
    H = np.where(np.bitwise_count(z[:, None] & z) & 1, -1, 1).astype(dtype)  # (-1)^(u.x)
    M = np.array(signed, dtype=dtype)[z[:, None] ^ z]
    if not np.array_equal(M @ H, H * np.array(spectrum, dtype=dtype)):
        raise VerificationFailed("Hadamard diagonalization is not exact")


def nlc_bias_bound(spec: NlcSpec) -> NlcBiasBound:
    """The spectral bias bound, met by a character strategy: ``xi_c = xi_star``.

    No strategy on the spec's game scores more than ``xi_star = 2^n ||Phi||``
    of `hadamard_spectrum`, Phi its actual game matrix.  The lowest top Walsh
    index u gives the witness ``alpha = chi_u``, ``beta = s chi_u`` with
    ``s = sign(g^(u))``, whose score on that game is (module docstring)

        sum_x sum_y chi_u(x) chi_u(y) s Phi(x XOR y) = s sum_z chi_u(z) (-1)^f(z) q~(z).

    The right side is summed exactly over the spec's own Fractions, sharing
    neither the butterfly's integer arithmetic nor its scaling; a score of
    ``xi_star`` proves the equality at any n, with no enumeration and no
    game built.  Any other score raises VerificationFailed.
    """
    a = hadamard_spectrum(spec)
    u = next(u for u, v in enumerate(a.spectrum) if abs(v) == a.lambda_norm)
    terms = (-q if ((u & z).bit_count() + b) & 1 else q
             for z, (q, b) in enumerate(zip(spec.q_tilde, spec.f_z)))
    score = (1 if a.spectrum[u] > 0 else -1) * sum(terms, Fraction(0))
    if score != a.xi_star:
        raise VerificationFailed(f"the witness of Walsh index {u} scores {score}, not {a.xi_star}")
    return NlcBiasBound(xi_star=a.xi_star, xi_c=score, matches_classical=True)


def kl_dimension_bound(k: int, l: int) -> int:
    """Face-dimension cap from the extreme eigenvalue multiplicities."""
    if k < 0 or l < 0 or k + l < 1:
        raise InvalidDims(f"need k, l >= 0 with k + l >= 1, got {(k, l)}")
    return k + l + k * (k + 1) // 2 + l * (l + 1) // 2 - 1


def g0_dimension(n: int) -> G0Dimension:
    """Dimension of unit-diagonal symmetric matrices with zero row sums.

    ``formula_value`` is :func:`g0_formula`; ``verified_value`` is the exact
    affine dimension of the Gram points ``alpha alpha^T`` of balanced sign
    vectors, measured as the optimal correlation face of one shared-input
    game.  With ``N = 2^n``, ``q~(0) = 1/2``, ``q~(z) = 1 / (2 (N - 1))`` and
    ``f(z) = [z != 0]``, the game matrix is ``(N I - J) / (2 N (N - 1))``.  A
    sign vector alpha with ``s = sum(alpha)`` has column sums proportional to
    ``N alpha_y - s``, so with its best response it scores
    ``(N^2 - s^2) / (2 N (N - 1))``: the optima are exactly the balanced
    alpha, each paired with ``beta = alpha`` and none with a tied response.
    The vertices come from ``classical.optimal_vertices`` and their rows
    ``alpha beta^T`` are ranked by ``facegeom.affine_dimension_exact``; if
    the two values differ, VerificationFailed is raised.  TooLarge is raised
    before the game is built: past ``game.MAX_FAMILY_N`` (n >= 12) by n
    alone, before 2^n is formed, then past ``classical.DEFAULT_ENUM_CAP``
    patterns (n >= 5).
    """
    if n < 2:
        raise InvalidParameter("n >= 2 required (formula is negative below)")
    if n > MAX_FAMILY_N:
        raise TooLarge(f"n = {n}: shared-input games stop at n = {MAX_FAMILY_N}")
    size = 1 << n
    classical.require_enumerable(size, classical.DEFAULT_ENUM_CAP)
    q_tilde = (Fraction(1, 2),) + (Fraction(1, 2 * (size - 1)),) * (size - 1)
    g = build_nlc(NlcSpec(n=n, q_tilde=q_tilde, f_z=(0,) + (1,) * (size - 1)))
    signs = classical.optimal_vertices(g).signs
    points = (signs[:, :size, None] * signs[:, None, size:]).reshape(len(signs), size * size)
    formula, verified = g0_formula(n), affine_dimension_exact(points)
    if verified != formula:
        raise VerificationFailed(f"n = {n}: measured g0 dimension {verified}, formula {formula}")
    return G0Dimension(formula_value=formula, verified_value=verified)


def g0_formula(n: int) -> int:
    """The dimension ``2^(n-1) (2^n - 3)`` that :func:`g0_dimension` verifies."""
    size = 1 << n
    return (size // 2) * (size - 3)


def corollary_bound(n: int) -> CorollaryBound:
    """Face dimension / codimension caps for any shared-input game on n bits.

    Theorems 1 and 2 at ``m_a = m_b = M_a = M_b = 2^n``: every shared-input
    game is exhaustive and has no quantum advantage, so both bound its face.
    """
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    size = 1 << n
    codim = theorem2_codim_bound(size, size, size, size)
    return CorollaryBound(
        dim_bound=theorem1_dim_bound(size, size),
        codim_bound_full=codim.delta_full,
        codim_bound_corr=codim.delta_corr,
    )


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def nlc_spec_to_dict(spec: NlcSpec) -> dict:
    return {
        "format": NLC_FORMAT,
        "n": spec.n,
        "q_tilde": [str(v) for v in spec.q_tilde],
        "f_z": list(spec.f_z),
    }


def nlc_spec_from_dict(data: dict) -> NlcSpec:
    if not isinstance(data, dict) or data.get("format") != NLC_FORMAT:
        raise GameFormatError(f"expected format {NLC_FORMAT!r}")
    if "n" not in data or not all(isinstance(data.get(k), list) for k in ("q_tilde", "f_z")):
        raise GameFormatError("a spec needs n and the lists q_tilde and f_z")
    n, q, f = as_int(data["n"]), data["q_tilde"], data["f_z"]
    read = as_rational
    if set(map(type, q)) == {str}:  # each distinct literal read once, in order
        read = {v: as_rational(v) for v in dict.fromkeys(q)}.__getitem__
    q = tuple(map(read, q))
    f = tuple(f) if set(map(type, f)) <= {int} else tuple(map(as_int, f))
    return NlcSpec(n=n, q_tilde=q, f_z=f)


def save_nlc_spec(spec: NlcSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(nlc_spec_to_dict(spec), fh)


def load_nlc_spec(path) -> NlcSpec:
    return nlc_spec_from_dict(read_json(path))
