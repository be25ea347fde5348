"""Shared-input (non-local computation) games and their Hadamard analysis.

These games split a uniformly hidden n-bit string z between the players as
x XOR y = z and ask them to compute a Boolean f(z): the prior is
``q(x, y) = 2^-n q~(x XOR y)`` and the predicate ``f(x, y) = f(x XOR y)``.
The game matrix is then an XOR-circulant, hence diagonal in the +-1 Hadamard
basis with eigenvalues given by the Walsh spectrum

    g^(u) = sum_z (-1)^(u.z) (-1)^f(z) q~(z),

computed here exactly by the in-place butterfly transform on integers.

Normalization note: two conventions for "the" game matrix of these games
circulate, differing by the 2^-n prior factor.  All bias statements in this
module are pinned to the ACTUAL game matrix Phi (entries summing to 1 in
absolute value): the classical bias bound is ``xi* = 2^n ||Phi|| =
max_u |g^(u)|``, and brute-force enumeration over all deterministic strategies
for n in {1, 2, 3} with uniform q~ confirms ``xi_c = xi*`` exactly in every
case (e.g. the n = 2 AND game has xi_c = 1/2 = max |g^|).  The convention
carrying an extra 2^(n-1) factor does not match that oracle for n >= 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
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
from .facegeom import affine_dimension_exact
from .game import MAX_FAMILY_N, XorGame, as_int, as_rational, build_game, read_json, signed_matrix

NLC_FORMAT = "tightbell-nlc-v1"

G0_ENUM_CAP = 12870  # balanced sign vectors: C(16, 8), so n = 4 is verified


@dataclass(frozen=True)
class NlcSpec:
    """Distribution over the hidden string plus the target Boolean function."""

    n: int
    q_tilde: tuple[Fraction, ...]
    f_z: tuple[int, ...]


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


def validate_spec(spec: NlcSpec) -> None:
    if spec.n < 1:
        raise InvalidSpec("n must be >= 1")
    size = len(spec.q_tilde)  # 2^n has bit length n + 1, so a huge n is never shifted
    if size.bit_length() != spec.n + 1 or size != 1 << spec.n or len(spec.f_z) != size:
        raise InvalidSpec(f"q_tilde and f_z must have length 2^{spec.n}")
    # exact entries only, as build_game takes them: a float would reach the
    # rational arithmetic downstream
    if not all(isinstance(v, (int, Fraction)) for v in spec.q_tilde):
        raise GameFormatError("q_tilde entries must be int or Fraction")
    if any(v < 0 for v in spec.q_tilde):
        raise InvalidSpec("q_tilde entries must be >= 0")
    if sum(spec.q_tilde) != 1:
        raise InvalidSpec("q_tilde must sum to exactly 1")
    if any(as_int(b) not in (0, 1) for b in spec.f_z):
        raise InvalidSpec("f_z entries must be 0 or 1")


def build_nlc(spec: NlcSpec) -> XorGame:
    """The 2^n x 2^n game with prior ``2^-n q~(x XOR y)`` and predicate ``f(x XOR y)``.

    Every row and column of the prior is a permutation of ``2^-n q~``, so the
    game is exhaustive whenever q~ is not identically zero.  Past
    ``game.MAX_FAMILY_N`` TooLarge is raised before anything is built.
    """
    validate_spec(spec)
    if spec.n > MAX_FAMILY_N:
        raise TooLarge(f"n = {spec.n}: shared-input games stop at n = {MAX_FAMILY_N}")
    size = 1 << spec.n
    scale = Fraction(1, size)
    values = [scale * v for v in spec.q_tilde]  # formed once, shared by the 2^n cells of each
    q = [[values[x ^ y] for y in range(size)] for x in range(size)]
    f = [[spec.f_z[x ^ y] for y in range(size)] for x in range(size)]
    return build_game(q, f)


def spec_from_game(g: XorGame) -> NlcSpec:
    """Recover the shared-input structure from a game, if it has one.

    Requires q and f to depend on (x, y) only through x XOR y and square
    power-of-two dimensions; raises InvalidSpec otherwise.
    """
    size = g.m_a
    if g.m_b != size or size & (size - 1) != 0:
        raise InvalidSpec("shared-input games are square with power-of-two size")
    n = size.bit_length() - 1
    q_tilde = tuple(g.q[0][z] * size for z in range(size))
    f_z = tuple(g.f[0][z] for z in range(size))
    for x in range(size):
        for y in range(size):
            z = x ^ y
            if g.q[x][y] != g.q[0][z] or g.f[x][y] != f_z[z]:
                raise InvalidSpec("game data does not factor through x XOR y")
    spec = NlcSpec(n=n, q_tilde=q_tilde, f_z=f_z)
    validate_spec(spec)
    return spec


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

    The transform runs on the integers ``L (-1)^f q~`` of `signed_matrix`.
    For n <= 5, also conjugates their circulant by the +-1 Hadamard matrix
    and checks that the off-diagonal vanishes EXACTLY — a theorem check, not
    a tolerance check.
    """
    validate_spec(spec)
    gm = signed_matrix((spec.q_tilde,), (spec.f_z,))
    signed, L = gm.ints[0], gm.denominator
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
    """Check H M H == 2^n diag(spectrum) exactly (H the +-1 Hadamard).

    Raises VerificationFailed on any mismatch.
    """
    size = 1 << n
    # conjugation of M_xy = signed[x ^ y] as two passes of the transform: columns, then rows
    half = [_walsh_transform([signed[x ^ y] for x in range(size)]) for y in range(size)]
    for u in range(size):
        row = _walsh_transform([half[y][u] for y in range(size)])
        for v in range(size):
            expected = size * spectrum[u] if u == v else 0
            if row[v] != expected:
                raise VerificationFailed("Hadamard diagonalization is not exact")


def nlc_bias_bound(a: NlcAnalysis, g: XorGame) -> NlcBiasBound:
    """Spectral bias bound against the exact enumerated optimum.

    ``xi_star = 2^n ||Phi||`` with Phi the actual game matrix; equality with
    the classical bias is an exact rational comparison.
    """
    xi_c = classical.classical_bias(g).xi_c
    return NlcBiasBound(xi_star=a.xi_star, xi_c=xi_c, matches_classical=xi_c == a.xi_star)


def kl_dimension_bound(k: int, l: int) -> int:
    """Face-dimension cap from the extreme eigenvalue multiplicities."""
    if k < 0 or l < 0 or k + l < 1:
        raise InvalidDims(f"need k, l >= 0 with k + l >= 1, got {(k, l)}")
    return k + l + k * (k + 1) // 2 + l * (l + 1) // 2 - 1


def g0_dimension(n: int) -> G0Dimension:
    """Dimension of unit-diagonal symmetric matrices with zero row sums.

    ``formula_value`` is :func:`g0_formula`; ``verified_value`` is the exact
    affine dimension of the Gram points of balanced sign vectors, measured by
    the exact rank of ``facegeom``.  The two must agree.  Beyond
    ``G0_ENUM_CAP`` balanced vectors (n >= 5) TooLarge is raised.
    """
    if n < 2:
        raise InvalidParameter("n >= 2 required (formula is negative below)")
    size = 1 << n
    half = size // 2
    # C(2k, k) >= 2^k, so a k beyond the cap's bit length is over the cap;
    # deciding that first skips a binomial of millions of digits at n = 22
    count = G0_ENUM_CAP + 1 if half > G0_ENUM_CAP.bit_length() else comb(size, half)
    if count > G0_ENUM_CAP:
        raise TooLarge(f"C({size}, {half}) balanced vectors exceed the cap {G0_ENUM_CAP}")
    alphas = _balanced_signs(size)
    points = (alphas[:, :, None] * alphas[:, None, :]).reshape(count, size * size)
    verified = affine_dimension_exact(points)
    return G0Dimension(formula_value=g0_formula(n), verified_value=verified)


def _balanced_signs(size: int) -> np.ndarray:
    """Every +-1 row of length ``size`` with ``size / 2`` entries +1, as int8.

    The rows come in the order of ``itertools.combinations(range(size),
    size // 2)`` over the +1 positions: the masks with that popcount in
    descending order, with position 0 read as the most significant bit.
    """
    masks = np.arange((1 << size) - 1, -1, -1)
    masks = masks[np.bitwise_count(masks) == size // 2]
    bits = (masks[:, None] >> np.arange(size - 1, -1, -1)) & 1
    return (2 * bits - 1).astype(np.int8)


def g0_formula(n: int) -> int:
    """The dimension ``2^(n-1) (2^n - 3)`` that :func:`g0_dimension` verifies."""
    size = 1 << n
    return (size // 2) * (size - 3)


def corollary_bound(n: int) -> CorollaryBound:
    """Face dimension / codimension caps for any shared-input game on n bits."""
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    size = 1 << n
    half = size // 2
    return CorollaryBound(
        dim_bound=size + half * (size - 1),
        codim_bound_full=size + half * (size + 1),
        codim_bound_corr=half * (size + 1),
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
    spec = NlcSpec(
        n=as_int(data["n"]),
        q_tilde=tuple(as_rational(v) for v in data["q_tilde"]),
        f_z=tuple(as_int(b) for b in data["f_z"]),
    )
    validate_spec(spec)
    return spec


def save_nlc_spec(spec: NlcSpec, path) -> None:
    Path(path).write_text(json.dumps(nlc_spec_to_dict(spec), indent=2) + "\n", "utf-8")


def load_nlc_spec(path) -> NlcSpec:
    return nlc_spec_from_dict(read_json(path))
