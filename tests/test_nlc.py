"""Shared-input games: construction, exact spectra, bounds, dimension formulas."""

import os
import resource
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightbell import (
    DeterministicStrategy,
    affine_dimension_exact,
    bias_of_strategy,
    build_game,
    build_nlc,
    classical_bias,
    corollary_bound,
    g0_dimension,
    hadamard_spectrum,
    kl_dimension_bound,
    make_named,
    nlc_bias_bound,
    optimal_vertices,
    solve_quantum_bias,
    spec_from_game,
)
from tightbell import nlc
from tightbell.errors import (
    GameFormatError,
    InvalidDims,
    InvalidParameter,
    InvalidSpec,
    TooLarge,
    VerificationFailed,
)
from tightbell.game import MAX_FAMILY_N, signed_matrix
from tightbell.nlc import (
    NlcSpec,
    load_nlc_spec,
    nlc_spec_from_dict,
    nlc_spec_to_dict,
    save_nlc_spec,
)

from .generators import g0_spec, random_nlc_spec

H = Fraction(1, 2)


def xor_spec():
    return NlcSpec(n=1, q_tilde=(H, H), f_z=(0, 1))


def and_spec(n=2):
    size = 1 << n
    return NlcSpec(
        n=n,
        q_tilde=tuple(Fraction(1, size) for _ in range(size)),
        f_z=tuple(1 if z == size - 1 else 0 for z in range(size)),
    )


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_build_xor_game_matrix():
    phi = build_nlc(xor_spec()).matrix.phi
    q = Fraction(1, 4)
    assert phi == ((q, -q), (-q, q))


def test_build_and_matches_named():
    assert build_nlc(and_spec()) == make_named("nlc_and", 2)


def test_build_all_zero_predicate_positive_circulant():
    spec = NlcSpec(n=1, q_tilde=(Fraction(3, 4), Fraction(1, 4)), f_z=(0, 0))
    phi = build_nlc(spec).matrix.phi
    assert all(v > 0 for row in phi for v in row)
    assert phi[0][1] == phi[1][0] == Fraction(1, 8)


def test_invalid_specs():
    # construction refuses them, so build_nlc is never reached
    with pytest.raises(InvalidSpec):
        build_nlc(NlcSpec(n=1, q_tilde=(H,), f_z=(0, 1)))
    with pytest.raises(InvalidSpec):
        build_nlc(NlcSpec(n=1, q_tilde=(H, Fraction(1, 3)), f_z=(0, 0)))
    with pytest.raises(InvalidSpec):
        build_nlc(NlcSpec(n=1, q_tilde=(Fraction(3, 2), Fraction(-1, 2)), f_z=(0, 0)))
    with pytest.raises(InvalidSpec):
        build_nlc(NlcSpec(n=1, q_tilde=(H, H), f_z=(0, 2)))
    with pytest.raises(InvalidSpec):
        build_nlc(NlcSpec(n=0, q_tilde=(Fraction(1),), f_z=(0,)))


@pytest.mark.parametrize("spec", [
    dict(n=1, q_tilde=(0.5, 0.5), f_z=(0, 1)),
    dict(n=1, q_tilde=(H, "1/2"), f_z=(0, 1)),
    dict(n=1, q_tilde=(H, H), f_z=(0, 1.0)),
    dict(n=1, q_tilde=(H, H), f_z=(False, True)),
    dict(n=1, q_tilde=(True, 0), f_z=(0, 1)),
    dict(n=True, q_tilde=(H, H), f_z=(0, 1)),
    dict(n=1.0, q_tilde=(H, H), f_z=(0, 1)),
    dict(n="1", q_tilde=(H, H), f_z=(0, 1)),
    dict(n=None, q_tilde=(H, H), f_z=(0, 1)),
])
def test_inexact_spec_entries_are_format_errors(spec):
    # each case holds the fields of a spec; construction refuses them as the
    # game builder does, not with a TypeError or an AttributeError from the
    # rational arithmetic, and a bool is no more a number here than in a game
    with pytest.raises(GameFormatError):
        NlcSpec(**spec)


def test_build_matches_the_checked_game_builder():
    # the direct construction equals the game that build_game checks and
    # freezes from the same prior and predicate
    rng = np.random.default_rng(3001)
    for n in range(1, 6):
        for _ in range(4):
            spec = random_nlc_spec(rng, n)
            size = 1 << n
            values = [Fraction(1, size) * v for v in spec.q_tilde]
            q = [[values[x ^ y] for y in range(size)] for x in range(size)]
            f = [[spec.f_z[x ^ y] for y in range(size)] for x in range(size)]
            assert build_nlc(spec) == build_game(q, f)


def test_games_are_exhaustive_even_with_zero_support():
    spec = NlcSpec(n=2, q_tilde=(H, H, 0, 0), f_z=(0, 1, 0, 1))
    g = build_nlc(spec)
    assert all(any(v > 0 for v in row) for row in g.q)
    assert all(any(g.q[x][y] > 0 for x in range(4)) for y in range(4))


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_xor():
    a = hadamard_spectrum(xor_spec())
    assert a.spectrum == (Fraction(0), Fraction(1))
    assert a.lambda_norm == 1 and (a.k, a.l) == (1, 0)


def test_spectrum_and():
    a = hadamard_spectrum(and_spec())
    assert sorted(a.spectrum) == [-H, H, H, H]
    assert a.lambda_norm == H and (a.k, a.l) == (3, 1)


def test_spectrum_delta_prior():
    spec = NlcSpec(n=2, q_tilde=(Fraction(1), 0, 0, 0), f_z=(0, 0, 0, 0))
    a = hadamard_spectrum(spec)
    assert a.spectrum == (Fraction(1),) * 4
    assert (a.k, a.l) == (4, 0)


def test_numpy_bits_give_the_python_spectrum():
    # the spec stores its bits as Python ints: an int64 bit times the
    # numerator 3^50 - 1 of signed_matrix would overflow
    q_tilde = (Fraction(1, 3**50), 1 - Fraction(1, 3**50))
    spec = NlcSpec(n=1, q_tilde=q_tilde, f_z=(np.int64(0), np.int64(1)))
    python = NlcSpec(n=1, q_tilde=q_tilde, f_z=(0, 1))
    assert hadamard_spectrum(spec) == hadamard_spectrum(python)


def test_diagonalization_is_exact_for_random_specs():
    rng = np.random.default_rng(61)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            hadamard_spectrum(random_nlc_spec(rng, n))


def mixed_denominator_spec():
    # n = 3 with eight different denominators past 2^64
    head = [Fraction(2**64 * (z + 1) + 3, 64 * (2**64 + 2 * z + 1)) for z in range(7)]
    return NlcSpec(n=3, q_tilde=(*head, 1 - sum(head)), f_z=(0, 1, 1, 0, 1, 0, 0, 1))


@pytest.mark.parametrize(
    "spec", [and_spec(), mixed_denominator_spec()], ids=["and2", "mixed_denominators3"]
)
def test_diagonalization_independent_check(spec):
    # conjugate by the explicit +-1 Hadamard matrix, no transform shortcuts
    a = hadamard_spectrum(spec)
    size = 1 << spec.n
    signed = [(-spec.q_tilde[z] if spec.f_z[z] else spec.q_tilde[z]) for z in range(size)]
    Hmat = [
        [-1 if bin(u & x).count("1") % 2 else 1 for x in range(size)]
        for u in range(size)
    ]
    M = [[signed[x ^ y] for y in range(size)] for x in range(size)]
    HM = [
        [sum(Hmat[u][x] * M[x][y] for x in range(size)) for y in range(size)]
        for u in range(size)
    ]
    HMH = [
        [sum(HM[u][y] * Hmat[y][v] for y in range(size)) for v in range(size)]
        for u in range(size)
    ]
    for u in range(size):
        for v in range(size):
            assert HMH[u][v] == (size * a.spectrum[u] if u == v else 0)


@pytest.mark.parametrize("d", [5, 2**61 - 1], ids=["float64", "object"])
def test_wrong_spectrum_fails_verification(d):
    # the lcm 2d of the denominators scales the signed entries: at d = 2^61 - 1
    # 2^n max|L q~| passes 2^53 and the product runs on Python integers
    q_tilde = (Fraction(1, 2), Fraction(1, 2) - Fraction(1, d), Fraction(1, d), Fraction(0))
    spec = NlcSpec(n=2, q_tilde=q_tilde, f_z=(0, 1, 1, 0))
    signed = signed_matrix([q_tilde], [spec.f_z]).ints[0].tolist()
    assert (2**2 * max(map(abs, signed)) < 2**53) == (d == 5)
    hadamard_spectrum(spec)  # verifies the true spectrum
    spectrum = nlc._walsh_transform(signed)
    for wrong in (
        [spectrum[0] + 1, *spectrum[1:]],
        [spectrum[1], spectrum[0], *spectrum[2:]],
        [Fraction(v, 2) for v in spectrum],
    ):
        with pytest.raises(VerificationFailed):
            nlc._verify_diagonalization(signed, wrong, 2)


def test_spectrum_past_the_float_range_fails_verification():
    # an int spectrum entry beyond float64 sends the check to Python objects,
    # where it fails as a mismatch, not as an overflow converting to float
    with pytest.raises(VerificationFailed):
        nlc._verify_diagonalization([1, 0, 0, 0], [10**400, 1, 1, 1], 2)


def test_wrong_spectrum_fails_verification_under_optimize():
    # a raised error, not an assert: python -O must not strip the check
    code = (
        "from fractions import Fraction\n"
        "from tightbell.errors import VerificationFailed\n"
        "from tightbell.nlc import _verify_diagonalization\n"
        "signed = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]\n"
        "try:\n"
        "    _verify_diagonalization(signed, [Fraction(1)] * 4, 2)\n"
        "except VerificationFailed:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"


# ---------------------------------------------------------------------------
# bias bound and spectral structure of optima
# ---------------------------------------------------------------------------


def test_bias_bound_examples():
    for spec, expected in [
        (xor_spec(), Fraction(1)),
        (and_spec(), H),
        (NlcSpec(n=2, q_tilde=(Fraction(1), 0, 0, 0), f_z=(0, 0, 0, 0)), Fraction(1)),
    ]:
        bound = nlc_bias_bound(spec)
        assert bound.xi_star == expected
        assert bound.matches_classical


def test_bias_bound_matches_classical_on_random_specs():
    rng = np.random.default_rng(67)
    for n in (1, 2, 3):
        for _ in range(6):
            spec = random_nlc_spec(rng, n)
            a = hadamard_spectrum(spec)
            assert classical_bias(build_nlc(spec)).xi_c == a.xi_star
            assert nlc_bias_bound(spec).matches_classical


def _walsh_witness(a):
    """The strategy nlc_bias_bound scores: chi_u and sign(g^(u)) chi_u, u the lowest top index."""
    u = next(u for u, v in enumerate(a.spectrum) if abs(v) == a.lambda_norm)
    alpha = tuple(-1 if (u & x).bit_count() & 1 else 1 for x in range(len(a.spectrum)))
    beta = alpha if a.spectrum[u] > 0 else tuple(-s for s in alpha)
    return DeterministicStrategy(alpha, beta)


def test_witness_equals_the_enumerated_bias():
    # the Walsh witness, scored by the x XOR y identity, against its 4^n-entry
    # score on the built game at n = 1-6 and against the scan at n = 1-4, on
    # specs with a single and a tied top coefficient (weights up to 1 tie it often)
    rng = np.random.default_rng(73)
    for n in range(1, 7):
        tied = 0
        for max_weight in (8, 1):
            for _ in range(8):
                spec = random_nlc_spec(rng, n, max_weight=max_weight)
                a = hadamard_spectrum(spec)
                tied += a.k + a.l >= 2
                g = build_nlc(spec)
                bound = nlc_bias_bound(spec)
                assert bound.xi_c == a.xi_star == bias_of_strategy(g, _walsh_witness(a))
                if n <= 4:
                    assert bound.xi_c == classical_bias(g).xi_c
                assert bound.matches_classical
        assert tied >= 4


def test_witness_on_a_tampered_spectrum_fails_verification(monkeypatch):
    # raise the lowest top Walsh coefficient by one at n = 6, where the
    # diagonalization check does not run: xi_star moves and the witness,
    # scored on the spec, no longer meets it
    spec = random_nlc_spec(np.random.default_rng(79), 6, max_weight=4)
    a = hadamard_spectrum(spec)
    assert nlc_bias_bound(spec).xi_c == a.xi_star
    transform = nlc._walsh_transform

    def tampered(values):
        out = transform(values)
        top = max(map(abs, out))
        i = next(i for i, v in enumerate(out) if abs(v) == top)
        out[i] += 1 if out[i] > 0 else -1
        return out

    monkeypatch.setattr(nlc, "_walsh_transform", tampered)
    with pytest.raises(VerificationFailed, match="witness of Walsh index"):
        nlc_bias_bound(spec)


def test_no_quantum_advantage_random_specs():
    rng = np.random.default_rng(71)
    for n in (1, 2, 3):
        for _ in range(3):
            spec = random_nlc_spec(rng, n)
            g = build_nlc(spec)
            xi_c = classical_bias(g).xi_c
            res = solve_quantum_bias(g, xi_c=xi_c)
            assert abs(res.xi_q - float(xi_c)) <= 1e-6
            assert res.classification == "no_advantage"


def test_optimal_alphas_lie_in_extreme_eigenspaces():
    # exact check: the circulant maps every optimal alpha to +-lambda alpha
    rng = np.random.default_rng(73)
    for n in (1, 2):
        for _ in range(5):
            spec = random_nlc_spec(rng, n)
            g = build_nlc(spec)
            a = hadamard_spectrum(spec)
            size = 1 << n
            signed = [
                (-spec.q_tilde[z] if spec.f_z[z] else spec.q_tilde[z])
                for z in range(size)
            ]
            for v in optimal_vertices(g).vertices:
                img = [
                    sum(signed[x ^ y] * v.alpha[y] for y in range(size))
                    for x in range(size)
                ]
                eps = 1 if img[0] * v.alpha[0] > 0 else -1
                assert img == [eps * a.lambda_norm * av for av in v.alpha]


# ---------------------------------------------------------------------------
# dimension formulas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kl,expected", [((3, 1), 10), ((1, 0), 1), ((2, 2), 9)])
def test_kl_dimension_bound(kl, expected):
    assert kl_dimension_bound(*kl) == expected


def test_kl_dimension_bound_errors():
    with pytest.raises(InvalidDims):
        kl_dimension_bound(0, 0)
    with pytest.raises(InvalidDims):
        kl_dimension_bound(-1, 2)


def test_g0_dimension_small():
    d2 = g0_dimension(2)
    assert (d2.formula_value, d2.verified_value) == (2, 2)
    d3 = g0_dimension(3)
    assert (d3.formula_value, d3.verified_value) == (20, 20)
    d4 = g0_dimension(4)
    assert (d4.formula_value, d4.verified_value) == (104, 104)
    with pytest.raises(TooLarge):
        g0_dimension(5)
    with pytest.raises(InvalidParameter):
        g0_dimension(1)


def test_g0_dimension_checks_the_measured_value(monkeypatch):
    # the measured dimension is compared with the formula, not only reported
    measure = nlc.affine_dimension_exact
    monkeypatch.setattr(nlc, "affine_dimension_exact", lambda points: measure(points) + 1)
    with pytest.raises(VerificationFailed, match="measured g0 dimension 3, formula 2"):
        g0_dimension(2)


@pytest.mark.parametrize("n", [5, 11, 12, 20000])
def test_g0_dimension_refuses_past_the_cap(n):
    with pytest.raises(TooLarge):
        g0_dimension(n)


def test_g0_dimension_refuses_a_huge_n_by_n_alone():
    # past the family limit 2^n is never formed: at n = 10^10 it would not
    # fit in the child's 1 GiB of address space
    code = (
        "from tightbell.errors import TooLarge\n"
        "from tightbell.nlc import g0_dimension\n"
        "try:\n"
        "    g0_dimension(10**10)\n"
        "except TooLarge as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"n = {10**10}: shared-input games stop at n = {MAX_FAMILY_N}\n"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_g0_game_optima_are_the_balanced_signs(n):
    # the optimal vertices of g0's game are the rows [alpha | alpha] with
    # alpha balanced, each balanced alpha once, against the itertools loop of
    # the combinations of its +1 positions
    import itertools
    from math import comb

    size = 1 << n
    want = np.full((comb(size, size // 2), size), -1, dtype=np.int8)
    for k, pos in enumerate(itertools.combinations(range(size), size // 2)):
        want[k, list(pos)] = 1
    vs = optimal_vertices(build_nlc(g0_spec(n)))
    assert not vs.truncated and vs.xi_c == Fraction(size, 2 * (size - 1))
    alpha, beta = vs.signs[:, :size], vs.signs[:, size:]
    assert np.array_equal(alpha, beta)
    # want holds no repeats, so equal sorted rows rule them out in alpha too
    assert sorted(map(tuple, alpha.tolist())) == sorted(map(tuple, want.tolist()))


def test_appendix_d_face_is_one_more_than_g0():
    # balanced Gram points plus the negated all-ones correlator
    import itertools

    size = 4
    points = []
    for pos in itertools.combinations(range(size), 2):
        alpha = [1 if i in pos else -1 for i in range(size)]
        points.append([a * b for a in alpha for b in alpha])
    points.append([-1] * 16)
    assert affine_dimension_exact(points) == 1 + g0_dimension(2).formula_value


@pytest.mark.parametrize(
    "n,expected",
    [(1, (3, 5, 3)), (2, (10, 14, 10)), (3, (36, 44, 36))],
)
def test_corollary_bounds(n, expected):
    b = corollary_bound(n)
    assert (b.dim_bound, b.codim_bound_full, b.codim_bound_corr) == expected


_AND2 = NlcSpec(n=1, q_tilde=(H, H), f_z=(0, 1))


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: spec_from_game(build_game([[H, H]], [[0, 1]])), InvalidSpec),
        (lambda: spec_from_game(build_game([[Fraction(1, 9)] * 3] * 3, [[0] * 3] * 3)),
         InvalidSpec),
        (lambda: corollary_bound(0), InvalidParameter),
        (lambda: corollary_bound(-2), InvalidParameter),
        (lambda: nlc_spec_from_dict(
            {k: v for k, v in nlc_spec_to_dict(_AND2).items() if k != "format"}),
         GameFormatError),
        (lambda: build_nlc(and_spec(MAX_FAMILY_N + 1)), TooLarge),
    ],
    ids=["not-square", "side-3", "n-0", "n-negative", "no-format", "past-family-limit"],
)
def test_validation_raises_the_documented_error(call, error):
    with pytest.raises(error):
        call()


def test_face_dims_respect_kl_and_corollary_bounds():
    rng = np.random.default_rng(79)
    from tightbell import face_report

    for n in (1, 2):
        for _ in range(3):
            spec = random_nlc_spec(rng, n)
            g = build_nlc(spec)
            a = hadamard_spectrum(spec)
            rep = face_report(g)
            assert rep.dim_full <= a.kl_dim_bound
            assert rep.dim_full <= corollary_bound(n).dim_bound
            if max(a.k, a.l) < 2**n:
                # the chained comparison excludes game matrices proportional
                # to +-identity (k or l maximal), which the base bound covers
                assert a.kl_dim_bound <= corollary_bound(n).dim_bound


# ---------------------------------------------------------------------------
# spec recovery and file format
# ---------------------------------------------------------------------------


def test_spec_from_game_roundtrip():
    spec = and_spec()
    assert spec_from_game(build_nlc(spec)) == spec


def test_spec_from_game_rejects_non_circulant():
    with pytest.raises(InvalidSpec):
        spec_from_game(make_named("chsh"))  # predicate is not a function of x^y
    with pytest.raises(InvalidSpec):
        spec_from_game(make_named("single_entry"))  # 2^0 size is fine, but...


@st.composite
def specs_with_int_zeros(draw):
    """Specs on n <= 3 bits whose q~ holds plain int 0s beside Fractions."""
    n = draw(st.integers(1, 3))
    size = 1 << n
    weights = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    weights[draw(st.integers(0, size - 1))] += 1  # support never empty
    total = sum(weights)
    q_tilde = tuple(0 if w == 0 and draw(st.booleans()) else Fraction(w, total)
                    for w in weights)
    f_z = tuple(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
    return NlcSpec(n=n, q_tilde=q_tilde, f_z=f_z)


@settings(max_examples=60, deadline=None)
@given(spec=specs_with_int_zeros())
def test_build_nlc_prior_and_spec_recovery(spec):
    g = build_nlc(spec)
    size = 1 << spec.n
    assert all(type(v) is Fraction for row in g.q for v in row)
    assert all(g.q[x][y] == Fraction(spec.q_tilde[x ^ y]) / size
               for x in range(size) for y in range(size))
    assert spec_from_game(g) == spec


def test_spec_from_game_rejects_a_prior_off_x_xor_y():
    # f is f(x ^ y), and row 0 reads a valid q~ = (1/2, 1/2); row 1 does not
    # follow it (q[1][0] = 1/8, not q[0][1] = 1/4), though the prior sums to 1
    g = build_game(
        [[Fraction(1, 4), Fraction(1, 4)], [Fraction(1, 8), Fraction(3, 8)]],
        [[0, 1], [1, 0]],
    )
    with pytest.raises(InvalidSpec):
        spec_from_game(g)


def test_spec_file_roundtrip(tmp_path):
    spec = and_spec()
    path = tmp_path / "spec.json"
    save_nlc_spec(spec, path)
    assert load_nlc_spec(path) == spec
    d = nlc_spec_to_dict(spec)
    assert d["format"] == "tightbell-nlc-v1"
    assert nlc_spec_from_dict(d) == spec
    # numpy integers are stored as Python ints, so the file holds plain numbers
    spec = NlcSpec(n=np.int64(1), q_tilde=(H, H), f_z=(np.int64(0), np.uint8(1)))
    save_nlc_spec(spec, path)
    assert load_nlc_spec(path) == spec
    assert '"n": 1,' in path.read_text("utf-8")
