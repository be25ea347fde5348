"""Shared-input (non-local computation) games and their Hadamard analysis.

These games split a uniformly hidden n-bit string z between the players as
x XOR y = z and ask them to compute a Boolean f(z): the prior is
``q(x, y) = 2^-n q~(x XOR y)`` and the predicate ``f(x, y) = f(x XOR y)``.
The game matrix is then an XOR-circulant, hence diagonal in the +-1 Hadamard
basis with eigenvalues given by the Walsh spectrum

    g^(u) = sum_z (-1)^(u.z) (-1)^f(z) q~(z),

computed here exactly over rationals by the in-place butterfly transform.

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

import itertools
import json
import warnings
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
from .game import XorGame, as_int, as_rational, build_game, read_json

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
    size = 1 << spec.n
    if len(spec.q_tilde) != size or len(spec.f_z) != size:
        raise InvalidSpec(f"q_tilde and f_z must have length 2^{spec.n} = {size}")
    if any(v < 0 for v in spec.q_tilde):
        raise InvalidSpec("q_tilde entries must be >= 0")
    if sum(spec.q_tilde) != 1:
        raise InvalidSpec("q_tilde must sum to exactly 1")
    if any(b not in (0, 1) for b in spec.f_z):
        raise InvalidSpec("f_z entries must be 0 or 1")


def build_nlc(spec: NlcSpec) -> XorGame:
    """The 2^n x 2^n game with prior ``2^-n q~(x XOR y)`` and predicate ``f(x XOR y)``.

    Every row and column of the prior is a permutation of ``2^-n q~``, so the
    game is exhaustive whenever q~ is not identically zero.  Spectra stay
    cheap for any n, but full downstream enumeration is practical only up to
    n = 5; a warning flags larger constructions.
    """
    validate_spec(spec)
    if spec.n > 5:
        warnings.warn(
            f"n = {spec.n}: exhaustive downstream analyses cap at n = 5",
            stacklevel=2,
        )
    size = 1 << spec.n
    scale = Fraction(1, size)
    q = [[scale * spec.q_tilde[x ^ y] for y in range(size)] for x in range(size)]
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
            if g.q[x][y] * size != q_tilde[z] or g.f[x][y] != f_z[z]:
                raise InvalidSpec("game data does not factor through x XOR y")
    spec = NlcSpec(n=n, q_tilde=q_tilde, f_z=f_z)
    validate_spec(spec)
    return spec


def _walsh_transform(values: Sequence[Fraction]) -> list[Fraction]:
    """In-place butterfly Walsh-Hadamard transform, exact over rationals."""
    out = list(values)
    h = 1
    while h < len(out):
        for lo in range(0, len(out), 2 * h):
            for i in range(lo, lo + h):
                a, b = out[i], out[i + h]
                out[i], out[i + h] = a + b, a - b
        h *= 2
    return out


def hadamard_spectrum(spec: NlcSpec, verify: bool | None = None) -> NlcAnalysis:
    """Exact eigenvalues of the q~-normalized game matrix.

    With ``verify`` enabled (auto for n <= 5), conjugates the circulant by the
    +-1 Hadamard matrix in rational arithmetic and checks that the
    off-diagonal vanishes EXACTLY — a theorem check, not a tolerance check.
    """
    validate_spec(spec)
    size = 1 << spec.n
    signed = [(-spec.q_tilde[z] if spec.f_z[z] else spec.q_tilde[z]) for z in range(size)]
    spectrum = tuple(_walsh_transform(signed))
    lam = max(abs(v) for v in spectrum)  # > 0: q_tilde sums to 1 and WHT is injective
    k = sum(1 for v in spectrum if v == lam)
    l = sum(1 for v in spectrum if v == -lam)
    if verify is None:
        verify = spec.n <= 5
    if verify:
        _verify_diagonalization(signed, spectrum, spec.n)
    return NlcAnalysis(
        spectrum=spectrum,
        lambda_norm=lam,
        k=k,
        l=l,
        xi_star=lam,
        kl_dim_bound=kl_dimension_bound(k, l),
    )


def _verify_diagonalization(signed, spectrum, n: int) -> None:
    """Check H M H == 2^n diag(spectrum) in exact rationals (H the +-1 Hadamard).

    Raises VerificationFailed on any mismatch.
    """
    size = 1 << n
    M = [[signed[x ^ y] for y in range(size)] for x in range(size)]
    # conjugation as two passes of the transform: columns, then rows
    half = [_walsh_transform([M[x][y] for x in range(size)]) for y in range(size)]
    for u in range(size):
        row = _walsh_transform([half[y][u] for y in range(size)])
        for v in range(size):
            expected = size * spectrum[u] if u == v else Fraction(0)
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


def g0_dimension(n: int, cap: int = G0_ENUM_CAP) -> G0Dimension:
    """Dimension of unit-diagonal symmetric matrices with zero row sums.

    ``formula_value`` is :func:`g0_formula`; ``verified_value`` is the exact
    affine dimension of the Gram points of balanced sign vectors, measured by
    the exact rank of ``facegeom``.  The two must agree.
    """
    if n < 2:
        raise InvalidParameter("n >= 2 required (formula is negative below)")
    size = 1 << n
    half = size // 2
    # C(2k, k) >= 2^k, so a k beyond the cap's bit length is over the cap;
    # deciding that first skips a binomial of millions of digits at n = 22
    count = cap + 1 if half > cap.bit_length() else comb(size, half)
    if count > cap:
        raise TooLarge(f"C({size}, {half}) balanced vectors exceed the cap {cap}")
    alphas = np.full((count, size), -1, dtype=np.int8)
    for k, pos in enumerate(itertools.combinations(range(size), half)):
        alphas[k, list(pos)] = 1
    points = (alphas[:, :, None] * alphas[:, None, :]).reshape(count, size * size)
    verified = affine_dimension_exact(points)
    return G0Dimension(formula_value=g0_formula(n), verified_value=verified)


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
