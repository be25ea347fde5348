"""Certified SDP solves: values, duals, slackness, determinism."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from tightbell import (
    FRelationReport,
    classical_bias,
    extract_F,
    make_named,
    optimal_vertices,
    quantum_slackness_check,
    solve_quantum_bias,
    verify_F_relation,
)
from tightbell.errors import (
    InvalidParameter,
    NotApplicable,
    ShapeMismatch,
    SingularLambda,
    TooLarge,
)
from tightbell import exact, game, qsdp
from tightbell.facegeom import face_report
from tightbell.game import DeterministicStrategy, build_game, load_game, save_game
from tightbell.nlc import NlcSpec, build_nlc, nlc_bias_bound
from tightbell.qsdp import ADVANTAGE, NO_ADVANTAGE, SolveConfig, build_phi_tilde, certificate_to_dict

from .generators import random_game, tied_game
from .oracles import (
    oracle_float_verdict,
    oracle_slack_is_psd,
    reference_coordinate_ascent,
    reference_plain_ascent,
    reference_rre,
)
from .test_acceptance import _support_games
from .test_classical import huge_denominator_game, int64_edge_games


def test_phi_tilde_single_entry():
    pt = build_phi_tilde(make_named("single_entry")).matrix
    assert pt.tolist() == [[0.0, 0.5], [0.5, 0.0]]


def test_phi_tilde_chsh_block():
    pt = build_phi_tilde(make_named("chsh")).matrix
    assert np.array_equal(pt[:2, 2:], np.array([[1, 1], [1, -1]]) / 8.0)
    assert np.array_equal(pt, pt.T)
    assert np.all(pt[:2, :2] == 0.0) and np.all(pt[2:, 2:] == 0.0)


@pytest.mark.parametrize("bits", [56, 62, 66, 80])
def test_phi_tilde_entries_are_correctly_rounded(bits):
    # denominators in [2^55, 2^62] and past 2^64: each entry must be
    # float(Fraction), which one float64 division of float64 copies misses
    rnd = random.Random(bits)
    T = rnd.randrange(2 ** (bits - 1), 2**bits)
    cuts = sorted(rnd.randrange(1, T) for _ in range(34))
    w = [b - a for a, b in zip([0, *cuts], [*cuts, T])]
    q = [[Fraction(v, T) for v in w[7 * x : 7 * x + 7]] for x in range(5)]
    f = [[rnd.randrange(2) for _ in range(7)] for _ in range(5)]
    half = [[float((-v if b else v) / 2) for v, b in zip(qr, fr)] for qr, fr in zip(q, f)]
    want = np.zeros((12, 12))
    want[:5, 5:] = half
    want[5:, :5] = np.transpose(half)
    assert build_phi_tilde(build_game(q, f)).matrix.tobytes() == want.tobytes()


@pytest.mark.parametrize("bits", [8, 31, 52, 53])
def test_halves_divide_the_whole_array_below_2_53(monkeypatch, bits):
    # below 2^53 the integers L Phi and L are exact doubles, so one array
    # division rounds as the per-entry Python division does
    rnd = random.Random(bits)
    T = rnd.randrange(2 ** (bits - 1), 2**bits)
    cuts = sorted(rnd.randrange(1, T) for _ in range(19))
    w = [b - a for a, b in zip([0, *cuts], [*cuts, T])]
    games = [build_game([[Fraction(v, T) for v in w[5 * x : 5 * x + 5]] for x in range(4)],
                        [[rnd.randrange(2) for _ in range(5)] for _ in range(4)])]
    rng = np.random.default_rng(bits)
    games += [random_game(rng, 12, 12, max_weight=10**6) for _ in range(10)]
    games += [make_named("appendix_d", 3), make_named("nlc_and", 3)]
    for g in games:
        assert g.matrix.denominator < 2**53
        fast = qsdp._halves(g)
        with monkeypatch.context() as mp:
            mp.setattr(qsdp, "_FLOAT_EXACT", 0)
            exact = qsdp._halves(g)
        assert fast[1].flags.c_contiguous and exact[1].flags.c_contiguous
        assert [a.tobytes() for a in fast] == [b.tobytes() for b in exact]


def test_halves_divide_as_python_integers_past_2_53():
    # an int64 array past 2^53: float(L) rounds L = 2^61 - 1 up to 2^61, so a
    # float division of the array would give 1/4 where v / L / 2 is above it
    L, a = 2**61 - 1, 2**60 + 128
    g = build_game([[Fraction(a, L), Fraction(L - a, L)]], [[0, 1]])
    assert g.matrix.ints.dtype == np.int64
    half, _ = qsdp._halves(g)
    assert half.tolist() == [[a / L / 2, -(L - a) / L / 2]] and half[0, 0] > 0.25


def test_game_matrix_type_holds_every_signed_sum():
    # each entry fits int64 but their sum L = 2^63 + 1 does not: an int64
    # array would wrap, and build_game would refuse this normalized game
    L = 2**63 + 1
    v = (2**62, 2**62 + 1)
    g = build_game([[Fraction(x, L) for x in v]], [[0, 0]])
    assert g.matrix.ints.dtype == object
    assert game.bias_of_strategy(g, DeterministicStrategy((1,), (1, 1))) == 1
    assert classical_bias(g).xi_c == 1
    half, _ = qsdp._halves(g)
    assert half.tolist() == [[x / L / 2 for x in v]]


def test_phi_tilde_identity1_eigenvalues():
    pt = build_phi_tilde(make_named("identity", 1)).matrix
    ev = np.linalg.eigvalsh(pt)
    assert np.allclose(np.sort(ev), [-0.25, -0.25, 0.25, 0.25], atol=1e-14)


def test_chsh_certified_value_and_dual():
    res = solve_quantum_bias(make_named("chsh"))
    assert abs(res.xi_q - math.sqrt(2) / 2) <= 1e-6
    assert res.gap <= 1e-7
    assert res.cert.min_eig >= -1e-8
    assert res.certified
    assert res.classification == ADVANTAGE
    assert np.abs(res.cert.t - math.sqrt(2) / 8).max() <= 1e-6
    assert abs(res.dual_value - math.sqrt(2) / 2) <= 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identity_no_advantage(n):
    res = solve_quantum_bias(make_named("identity", n))
    assert abs(res.xi_q - 1.0) <= 1e-8
    assert res.gap <= 1e-8
    assert res.classification == NO_ADVANTAGE
    # unique dual: uniform 2^-n / 2
    assert np.abs(res.cert.t - 0.5 / 2**n).max() <= 1e-9


def test_nlc_and_no_advantage():
    res = solve_quantum_bias(make_named("nlc_and", 2))
    assert abs(res.xi_q - 0.5) <= 1e-6
    assert res.classification == NO_ADVANTAGE


def test_too_large_budget():
    from fractions import Fraction
    from tightbell.game import XorGame

    m = 5000
    g = XorGame(m_a=m, m_b=1, q=((Fraction(1),),), f=((0,),))  # dims lie, only budget checked
    with pytest.raises(TooLarge):
        solve_quantum_bias(g)


# ---------------------------------------------------------------------------
# dual extraction and slackness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_extract_F_identity(n):
    res = solve_quantum_bias(make_named("identity", n))
    F = extract_F(res.cert, make_named("identity", n))
    assert np.abs(F - np.eye(2**n)).max() <= 1e-9


def test_extract_F_appendix_d():
    g = make_named("appendix_d", 2)
    res = solve_quantum_bias(g)
    F = extract_F(res.cert, g)
    assert np.abs(F - (np.eye(4) - np.ones((4, 4)) / 2)).max() <= 1e-9


@pytest.mark.parametrize("bit,sign", [(0, 1.0), (1, -1.0)])
def test_extract_F_single_entry(bit, sign):
    g = build_game([[1]], [[bit]])
    res = solve_quantum_bias(g)
    F = extract_F(res.cert, g)
    assert F.shape == (1, 1)
    assert abs(F[0, 0] - sign) <= 1e-9


def test_extract_F_singular_lambda():
    # Bob's second question is never asked: his dual entry stalls at zero
    g = build_game([["1/2", 0], ["1/2", 0]], [[0, 0], [1, 0]])
    res = solve_quantum_bias(g)
    assert g.m_a + 1 in res.stalled_rows
    with pytest.raises(SingularLambda):
        extract_F(res.cert, g)


def test_slackness_identity_perfect_vertex():
    # the exact check's dual d = 2L t is the certified solve's t, scaled
    g = make_named("identity", 1)
    vs = optimal_vertices(g)
    res = solve_quantum_bias(g, xi_c=vs.xi_c, witness=vs.signs[0])
    assert verify_F_relation(g, vs) and res.classification == NO_ADVANTAGE
    s, P, L = vs.signs[0], g.matrix.ints, g.matrix.denominator
    d = np.abs(np.concatenate((P @ s[g.m_a :], s[: g.m_a] @ P)))
    assert np.abs(d / (2 * L) - res.cert.t).max() <= 1e-15


def test_slackness_appendix_d_all_vertices():
    g = make_named("appendix_d", 2)
    assert verify_F_relation(g, optimal_vertices(g))
    assert solve_quantum_bias(g).classification == NO_ADVANTAGE


def test_slackness_fails_on_chsh():
    g = make_named("chsh")
    assert not verify_F_relation(g, optimal_vertices(g))
    assert solve_quantum_bias(g).classification == ADVANTAGE


def test_certificate_of_another_game_is_a_shape_mismatch():
    # the 8-entry dual of appendix_d(2) read against the 2x2 CHSH game
    cert = solve_quantum_bias(make_named("appendix_d", 2)).cert
    with pytest.raises(ShapeMismatch):
        extract_F(cert, make_named("chsh"))


def _swept(g):
    """A solve passed ``xi_c`` alone: restarts, not the one-column witness."""
    res = solve_quantum_bias(g, xi_c=classical_bias(g).xi_c)
    assert res.sweeps > 0 and res.gram.vectors.shape[1] > 1
    return res


def test_quantum_slackness_identity2():
    g = make_named("identity", 2)
    res = _swept(g)
    rep = quantum_slackness_check(res, extract_F(res.cert, g))
    assert rep.all_pass


@pytest.mark.parametrize("F", [np.eye(3), np.ones((2, 4))], ids=["F-square-3", "F-wide"])
def test_slackness_refuses_the_wrong_shape(F):
    # identity(1) is 2 x 2 with no advantage: F is 2 x 2
    res = solve_quantum_bias(make_named("identity", 1))
    with pytest.raises(ShapeMismatch):
        quantum_slackness_check(res, F)


def test_quantum_slackness_nlc_and():
    g = make_named("nlc_and", 2)
    res = _swept(g)
    rep = quantum_slackness_check(res, extract_F(res.cert, g))
    assert isinstance(rep, FRelationReport) and rep.all_pass
    # a zero F leaves every unit Gram vector of Bob's as its residual, and the
    # threshold is fixed: no caller can loosen it until that passes
    zero = np.zeros((g.m_b, g.m_a))
    rep = quantum_slackness_check(res, zero)
    assert not rep.all_pass and rep.max_residual == pytest.approx(1.0)
    with pytest.raises(TypeError):
        quantum_slackness_check(res, zero, tol=1)


def test_quantum_slackness_not_applicable_for_advantage():
    g = make_named("chsh")
    res = solve_quantum_bias(g)
    with pytest.raises(NotApplicable):
        quantum_slackness_check(res, np.eye(2))


# ---------------------------------------------------------------------------
# solver invariants
# ---------------------------------------------------------------------------


def test_unit_rows_and_sandwich_on_random_games():
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = random_game(rng, max_a=6, max_b=6)
        xi_c = classical_bias(g).xi_c
        res = solve_quantum_bias(g, xi_c=xi_c)
        norms = np.linalg.norm(res.gram.vectors, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12
        assert res.xi_q >= float(xi_c) - 1e-9
        assert res.xi_q <= 1.0 + 1e-8
        assert res.gap <= 1e-7 and res.cert.min_eig >= -1e-8
        assert np.array_equal(res.gram.gram, res.gram.vectors @ res.gram.vectors.T)


def _narrow_start(g, seed):
    """Random unit rows for ``g`` after two sweeps, in the basis the solver narrows to."""
    blocks = qsdp._halves(g)
    m = g.m_a + g.m_b
    U = np.random.default_rng(seed).normal(size=(m, m))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    U, _, converged = qsdp._sweeps(blocks, U, SolveConfig.change_tol, 2)
    assert not converged
    return blocks, qsdp._in_smaller_basis(U, g.m_a)


@pytest.mark.parametrize("case", ["random_5x5", "appendix_d_3"])
def test_each_sweep_ascends_on_the_sphere_below_the_dual(case):
    # the per-sweep invariants, checked from outside one sweep at a time, and
    # then for each extrapolation, which follows the sixth sweep of a call
    if case == "random_5x5":
        g = random_game(np.random.default_rng(43), max_a=5, max_b=5)
    else:
        g = make_named("appendix_d", 3)
    pt = build_phi_tilde(g).matrix
    blocks, U0 = _narrow_start(g, 0)
    tol, K = SolveConfig.change_tol, qsdp._RRE_DEPTH

    def objective(U):
        W = pt @ U
        obj = float(np.sum(U * W))
        assert obj <= float(np.linalg.norm(W, axis=1).sum()) + SolveConfig.feas_tol
        assert np.abs(np.linalg.norm(U, axis=1) - 1.0).max() <= 1e-12
        return obj

    U, prev = U0.copy(), -math.inf
    for _ in range(5000):
        U, _, converged = qsdp._sweeps(blocks, U, tol, 1)
        obj = objective(U)
        assert obj >= prev - 1e-12
        prev = obj
        if converged:
            break
    assert converged
    # sweeps 1-K of a call, then sweep K+1 alone: the iterate just before the
    # extrapolation
    U, prev, moves = U0.copy(), -math.inf, 0
    for _ in range(5000):
        V, _, converged = qsdp._sweeps(blocks, U.copy(), tol, K)
        if not converged:
            V, _, converged = qsdp._sweeps(blocks, V, tol, 1)
        before = objective(V)
        assert before >= prev - 1e-12
        U, _, converged_k = qsdp._sweeps(blocks, U, tol, K + 1)
        assert converged_k == converged
        prev = objective(U)
        if converged:
            assert np.array_equal(U, V)
            break
        moves += not np.array_equal(U, V)
        assert prev >= before - 1e-12
    assert converged and moves >= 2


def test_solve_holds_fewer_than_four_square_arrays(monkeypatch):
    # U, Phi~ U and one more m x m array (the previous iterate while sweeping,
    # diag(t) - Phi~ at the end); tracemalloc sees numpy's arrays but not the
    # LAPACK workspace of eigvalsh, so that workspace is not counted here
    g = random_game(np.random.default_rng(0), min_a=8, max_a=8, min_b=504, max_b=504)
    monkeypatch.setattr(SolveConfig, "max_iters", 2)
    tracemalloc.start()
    try:
        solve_quantum_bias(g, SolveConfig(restarts=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * 512**2


def test_sweeps_keep_no_state_between_calls():
    # the extrapolation reads the steps of its own cycle, kept in the same
    # call, so k calls of K + 1 sweeps each give the iterate of one call of
    # k (K + 1) sweeps
    g = random_game(np.random.default_rng(45), min_a=6, max_a=6, min_b=9, max_b=9)
    blocks, U0 = _narrow_start(g, 1)
    tol, cycle = SolveConfig.change_tol, qsdp._RRE_DEPTH + 1
    _, sweeps, converged = qsdp._sweeps(blocks, U0.copy(), tol, 50_000)
    k = sweeps // (2 * cycle)
    assert converged and k >= 2
    stepped = U0.copy()
    for _ in range(k):
        stepped, _, converged = qsdp._sweeps(blocks, stepped, tol, cycle)
        assert not converged
    once, done, converged = qsdp._sweeps(blocks, U0.copy(), tol, k * cycle)
    assert (done, converged) == (k * cycle, False)
    assert np.array_equal(stepped, once)


def _solve_both(monkeypatch, g, reference=reference_coordinate_ascent):
    # xi_c alone, no witness: the no-advantage games sweep from random starts too
    xi_c = classical_bias(g).xi_c
    lib = qsdp.solve_quantum_bias(g, xi_c=xi_c)
    with monkeypatch.context() as mp:
        mp.setattr(qsdp, "_coordinate_ascent", reference)
        ref = qsdp.solve_quantum_bias(g, xi_c=xi_c)
    return lib, ref


def _skip_extrapolation(U, history, norms):
    """Stands in for ``qsdp._extrapolate`` as if every cycle's steps were dependent."""


def test_block_sweep_matches_row_reference(monkeypatch):
    games = [make_named("chsh"), make_named("appendix_d", 3)]
    games += [make_named("identity", n) for n in (1, 2, 3)]
    games += [make_named("nlc_and", n) for n in (2, 3)]
    rng = np.random.default_rng(7)
    for _ in range(40):
        g = random_game(rng)
        games += [g, build_game(list(zip(*g.q)), list(zip(*g.f)))]
    games.append(build_game([["1/2", 0], ["1/2", 0]], [[0, 0], [1, 0]]))
    # a never-asked question on each side: both blocks keep a stalled row
    games.append(build_game(
        [["1/4", "1/4", 0], ["1/4", "1/4", 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    ))
    # plain sweeps: the block products, the narrowing and the stop meet the
    # row reference sweep for sweep
    with monkeypatch.context() as mp:
        mp.setattr(qsdp, "_extrapolate", _skip_extrapolation)
        plain = [_solve_both(monkeypatch, g, reference_plain_ascent) for g in games]
    # extrapolated: a cycle whose steps are numerically dependent (cond(S S^T)
    # reaches 1e20 on these small games) has weights set by rounding, so the
    # two stop some sweeps apart; their answers still agree
    extrapolated = [_solve_both(monkeypatch, g) for g in games]
    for runs in (plain, extrapolated):
        assert runs[-2][0].stalled_rows == (3,)
        assert runs[-1][0].stalled_rows == (2, 5)
        for lib, ref in runs:
            assert (lib.converged, lib.restarts_used) == (ref.converged, ref.restarts_used)
            assert (lib.certified, lib.classification) == (ref.certified, ref.classification)
            assert lib.stalled_rows == ref.stalled_rows
            assert abs(lib.xi_q - ref.xi_q) <= 1e-12
            assert abs(lib.dual_value - ref.dual_value) <= 1e-12
            assert abs(lib.gap - ref.gap) <= 1e-12
            assert np.abs(lib.cert.t - ref.cert.t).max() <= 1e-12
    assert [lib.sweeps for lib, _ in plain] == [ref.sweeps for _, ref in plain]


@pytest.mark.parametrize("change_tol", [1e-6, 1e-9, 1e-13])
def test_stop_read_from_the_step_norm_matches_row_reference(monkeypatch, change_tol):
    # the kernel tests max|D| only when |D|^2 is small enough for it to pass;
    # at loose and tight tolerances alike it stops where the row-by-row
    # reference, which tests max|D| on every sweep, stops.  Extrapolation is
    # off in both, since its weights are set by rounding on these small games
    # (see test_block_sweep_matches_row_reference)
    monkeypatch.setattr(qsdp, "_extrapolate", _skip_extrapolation)
    monkeypatch.setattr(SolveConfig, "change_tol", change_tol)
    rng = np.random.default_rng(17)
    for i in range(30):
        g = random_game(rng)
        blocks = qsdp._halves(g)
        m = g.m_a + g.m_b
        U0 = np.random.default_rng(i).normal(size=(m, m))
        U0 /= np.linalg.norm(U0, axis=1, keepdims=True)
        cfg = SolveConfig()
        _, sweeps, converged = qsdp._coordinate_ascent(blocks, U0.copy(), cfg)
        _, ref_sweeps, ref_converged = reference_plain_ascent(blocks, U0.copy(), cfg)
        assert converged and (sweeps, converged) == (ref_sweeps, ref_converged)


def test_row_norms_match_linalg_norm():
    # the solver's one norm agrees with np.linalg.norm to 4 ulps, into a
    # buffer or not, and gives an all-zero row exactly 0.0, which the stall
    # path reads (n_x > 0.0 in the sweeps, t == 0.0 in the certificate)
    rng = np.random.default_rng(4202)
    for rows in (1, 2, 7, 16, 30, 64):
        for cols in (1, 3, 8, 30, 64):
            X = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
            zero = rng.integers(rows)
            X[zero] = 0.0
            expected = np.linalg.norm(X, axis=1)
            out = np.empty(rows)
            assert qsdp._row_norms(X, out=out) is out
            for got in (out, qsdp._row_norms(X)):
                assert np.all(np.abs(got - expected) <= 4 * np.spacing(expected))
                assert got[zero] == 0.0


def _unit_rows(rng, shape):
    U = rng.normal(size=shape)
    return U / np.linalg.norm(U, axis=1, keepdims=True)


def test_extrapolation_is_the_textbook_rre():
    # U - sum_(j>=1) c_(j-1) D_j, from the steps alone, against the weighted
    # sum of the iterates that the reference finds from its bordered system;
    # random iterates keep the steps independent, so the weights are sharp
    rng = np.random.default_rng(2201)
    for shape in [(5, 3), (12, 6), (30, 14)]:
        xs = [_unit_rows(rng, shape) for _ in range(qsdp._RRE_DEPTH + 2)]
        history = np.array([b - a for a, b in zip(xs, xs[1:])])
        U = xs[-1].copy()
        qsdp._extrapolate(U, history, np.empty(shape[0]))
        assert np.abs(U - reference_rre(xs)).max() <= 1e-12


def test_dependent_steps_skip_the_extrapolation():
    # a singular S S^T leaves U as it is, with no RuntimeWarning (the test
    # suite turns warnings into errors); a zero step makes it exactly singular
    # whatever order the elimination takes
    rng = np.random.default_rng(2202)
    xs = [_unit_rows(rng, (6, 3)) for _ in range(qsdp._RRE_DEPTH + 2)]
    history = np.array([b - a for a, b in zip(xs, xs[1:])])
    history[3] = 0.0
    U = xs[-1].copy()
    qsdp._extrapolate(U, history, np.empty(6))
    assert np.array_equal(U, xs[-1])


def test_answers_never_rebuild_the_game_matrix(monkeypatch, tmp_path):
    # a game holds the L Phi its builder made: no answer builds it again, on a
    # loaded, a named or a shared-input game, nor on the reduction of a padded one
    half = Fraction(1, 2)
    save_game(build_game([[half, 0, half], [0, 0, 0]], [[0, 0, 1], [1, 0, 0]]), tmp_path / "padded.json")
    save_game(make_named("appendix_d", 2), tmp_path / "exhaustive.json")
    spec = NlcSpec(n=2, q_tilde=(Fraction(1, 4),) * 4, f_z=(0, 0, 0, 1))
    calls = []
    build = game.signed_matrix
    monkeypatch.setattr(game, "signed_matrix", lambda q, f: calls.append(len(q)) or build(q, f))
    padded, loaded = (load_game(tmp_path / f"{name}.json") for name in ("padded", "exhaustive"))
    named, shared = make_named("appendix_d", 3), build_nlc(spec)
    # each builder signs its data once: a loaded game whole, a circulant one row
    assert calls == [2, 4, 1, 1]
    calls.clear()
    for g in (loaded, named, shared):
        res = solve_quantum_bias(g)
        assert res.xi_c == classical_bias(g).xi_c and res.certified
    for g in (padded, loaded, shared):
        assert optimal_vertices(g).xi_c == face_report(g).xi_c
    assert nlc_bias_bound(spec).matches_classical
    assert calls == []


def test_jumps_save_half_the_sweeps_of_plain_sweeping(monkeypatch):
    # counted in sweeps, not seconds, so the bound holds on any host
    rng = np.random.default_rng(11)
    lib_sweeps = plain_sweeps = 0
    for _ in range(40):
        g = random_game(rng, 12, 28, 2, 2)
        xi_c = classical_bias(g).xi_c
        lib = qsdp.solve_quantum_bias(g, xi_c=xi_c)
        with monkeypatch.context() as mp:
            mp.setattr(qsdp, "_coordinate_ascent", reference_plain_ascent)
            plain = qsdp.solve_quantum_bias(g, xi_c=xi_c)
        lib_sweeps += lib.sweeps
        plain_sweeps += plain.sweeps
        assert (lib.certified, lib.classification) == (plain.certified, plain.classification)
        assert abs(lib.xi_q - plain.xi_q) <= 1e-12
        assert np.abs(lib.cert.t - plain.cert.t).max() <= 1e-12
    assert lib_sweeps <= 0.5 * plain_sweeps


@pytest.mark.parametrize("draw,xi_c", [
    (16, Fraction(43, 77)), (66, Fraction(149, 361)), (84, Fraction(269, 719)),
    (135, Fraction(5629, 9558)), (203, Fraction(14330261, 27335208)),
    (221, Fraction(6959697, 12303955)),
])
def test_two_decaying_modes_converge_in_few_sweeps(draw, xi_c):
    # seeded draws whose step decays in two modes at once: one-mode jumps
    # took 3,404-39,756 sweeps on them, reduced-rank extrapolation fits both;
    # the verdict is the one those slower solves gave
    rng = np.random.default_rng(3)
    games = [random_game(rng, 14, 20, max_weight=w) for w in (3, 12, 1000, 10**6) for _ in range(60)]
    res = solve_quantum_bias(games[draw])
    assert res.sweeps <= 2000
    assert (res.certified, res.classification, res.restarts_used) == (True, ADVANTAGE, 1)
    assert (res.converged, res.stalled_rows, res.xi_c) == (True, (), xi_c)


def test_gram_vectors_narrow_after_sweep_two(monkeypatch):
    # a solve past sweep 2 keeps min(m_a, m_b) columns of unit rows; one that
    # stops by sweep 2 keeps m.  Every solve is passed xi_c alone, so the
    # no-advantage games sweep from random starts too
    rng = np.random.default_rng(2203)
    narrowed, budget = 0, SolveConfig.max_iters
    for _ in range(12):
        g = random_game(rng, 9, 9)
        m = g.m_a + g.m_b
        for max_iters in (budget, 3):
            monkeypatch.setattr(SolveConfig, "max_iters", max_iters)
            res = solve_quantum_bias(g, xi_c=classical_bias(g).xi_c)
            width = min(g.m_a, g.m_b) if res.sweeps > 2 else m
            narrowed += res.sweeps > 2
            assert res.gram.vectors.shape == (m, width)
            assert np.abs(np.linalg.norm(res.gram.vectors, axis=1) - 1.0).max() <= 1e-14
    assert narrowed >= 20
    # a never-asked question on each side: the stalled row of the larger side
    # leaves the span and is rescaled, so it too stays a unit row, also when
    # the solve ends before the first extrapolation rescales the rows
    g = build_game([["1/10", "2/10", "3/10", 0], ["2/10", "1/10", "1/10", 0], [0, 0, 0, 0]],
                   [[0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0]])
    for max_iters in (budget, 4):
        monkeypatch.setattr(SolveConfig, "max_iters", max_iters)
        res = solve_quantum_bias(g, xi_c=classical_bias(g).xi_c)
        assert res.sweeps > 2 and res.stalled_rows == (2, 6)
        assert res.gram.vectors.shape == (7, 3)
        assert np.abs(np.linalg.norm(res.gram.vectors, axis=1) - 1.0).max() <= 1e-14
    monkeypatch.undo()
    res = solve_quantum_bias(make_named("chsh"), xi_c=Fraction(1, 2))
    assert res.sweeps <= 2 and res.gram.vectors.shape == (4, 4)


def test_unconverged_restart_is_not_certified(monkeypatch):
    # stopped by max_iters with a small gap but an infeasible dual: not
    # certified and not a solver bug; the primal value alone shows advantage
    rng = np.random.default_rng(3)
    for _ in range(4):
        g = random_game(rng, max_a=12, max_b=12, max_weight=10**6)
    monkeypatch.setattr(SolveConfig, "max_iters", 50)
    res = solve_quantum_bias(g, SolveConfig(restarts=1))
    assert (g.m_a, g.m_b) == (7, 12)
    assert not res.converged and not res.certified
    assert res.gap <= 1e-7 and res.cert.min_eig < -1e-8
    assert res.classification == ADVANTAGE
    assert res.xi_q - float(res.xi_c) > 0.04


def test_converged_infeasible_dual_is_not_certified(infeasible_dual):
    # an infeasible dual is an uncertified restart, not an error; the primal
    # value alone still shows the advantage
    res = solve_quantum_bias(make_named("chsh"))
    assert res.converged and not res.certified
    assert res.cert.min_eig == -1.0
    assert res.classification == ADVANTAGE


def test_loose_change_tol_certifies_a_later_restart(monkeypatch):
    # restart 1 stops with gap <= gap_tol but an indefinite diag(t) - Phi~;
    # restart 2 certifies; xi_c alone, so the solve starts at random
    monkeypatch.setattr(SolveConfig, "change_tol", 1e-6)
    g, cfg = make_named("appendix_d", 3), SolveConfig(seed=3)
    xi_c = classical_bias(g).xi_c
    first = solve_quantum_bias(g, SolveConfig(seed=3, restarts=1), xi_c=xi_c)
    assert first.converged and not first.certified
    assert first.gap <= cfg.gap_tol and first.cert.min_eig < -cfg.feas_tol
    res = solve_quantum_bias(g, cfg, xi_c=xi_c)
    assert res.certified and res.restarts_used == 2
    assert res.classification == NO_ADVANTAGE


@pytest.mark.parametrize("name,n", [("appendix_d", 2), ("appendix_d", 3), ("nlc_and", 3)])
def test_uncertified_returns_smallest_gap(monkeypatch, name, n):
    gaps = []
    evaluate = qsdp._evaluate

    def recorded(blocks, U):
        out = evaluate(blocks, U)
        gaps.append(out[3])
        return out

    monkeypatch.setattr(qsdp, "_evaluate", recorded)
    monkeypatch.setattr(SolveConfig, "change_tol", 1.0)
    g = make_named(name, n)
    # xi_c alone: a witness would certify these no-advantage games unswept
    res = solve_quantum_bias(g, SolveConfig(restarts=5), xi_c=classical_bias(g).xi_c)
    assert len(gaps) == 5 and not res.certified
    assert res.gap == min(gaps)
    assert res.restarts_used == gaps.index(min(gaps)) + 1


def test_determinism_bitwise():
    rng = np.random.default_rng(47)
    g = random_game(rng, max_a=8, max_b=8)
    a = solve_quantum_bias(g, SolveConfig(seed=123))
    b = solve_quantum_bias(g, SolveConfig(seed=123))
    assert a.xi_q == b.xi_q
    assert a.gap == b.gap
    assert np.array_equal(a.cert.t, b.cert.t)
    assert np.array_equal(a.gram.vectors, b.gram.vectors)
    c = solve_quantum_bias(g, SolveConfig(seed=124))
    assert abs(c.xi_q - a.xi_q) <= 2e-7  # same value, different path


def test_certificate_dict_shape():
    res = solve_quantum_bias(make_named("chsh"))
    d = certificate_to_dict(res)
    assert set(d) == {"xi_q", "dual_value", "gap", "t", "min_eig", "classification"}
    assert len(d["t"]) == 4


def test_results_are_readonly():
    res = solve_quantum_bias(make_named("chsh"))
    with pytest.raises(ValueError):
        res.gram.vectors[0, 0] = 0.0
    with pytest.raises(ValueError):
        res.gram.gram[0, 0] = 0.0
    with pytest.raises(ValueError):
        res.cert.t[0] = 0.0


# ---------------------------------------------------------------------------
# the classical witness start
# ---------------------------------------------------------------------------


def _assert_same_result(a, b):
    floats = (a.xi_q, a.dual_value, a.gap, a.cert.min_eig)
    assert floats == (b.xi_q, b.dual_value, b.gap, b.cert.min_eig)
    assert (a.certified, a.classification, a.xi_c) == (b.certified, b.classification, b.xi_c)
    assert (a.restarts_used, a.sweeps, a.converged, a.stalled_rows) == (
        b.restarts_used, b.sweeps, b.converged, b.stalled_rows)
    assert np.array_equal(a.cert.t, b.cert.t) and np.array_equal(a.gram.vectors, b.gram.vectors)


def _witness_corpus():
    """Criterion 11's 808 support games, 400 seeded draws and the families at n <= 4."""
    games = [g for size in ((2, 2), (2, 3)) for g in _support_games(*size)]
    rng = np.random.default_rng(11)
    games += [random_game(rng) for _ in range(300)]
    rng = np.random.default_rng(12)
    games += [tied_game(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7))) for _ in range(100)]
    games.append(make_named("chsh"))
    games += [make_named(name, n) for name in ("identity", "nlc_and") for n in range(1, 5)]
    games += [make_named("appendix_d", n) for n in range(2, 5)]
    return games


def test_witness_certifies_every_no_advantage_game_unswept():
    # the solve passed xi_c alone starts at random, as every solve did before
    # the witness start; every game it certifies no_advantage is certified at
    # the enumeration's witness with no sweep and the same verdict, and every
    # other game is that solve, bit for bit
    verdicts = Counter()
    for g in _witness_corpus():
        res = solve_quantum_bias(g)
        swept = solve_quantum_bias(g, xi_c=res.xi_c)
        verdicts[swept.classification] += 1
        if swept.classification != NO_ADVANTAGE:
            _assert_same_result(res, swept)
            continue
        assert (res.certified, res.classification) == (True, NO_ADVANTAGE)
        assert (res.sweeps, res.restarts_used, res.converged) == (0, 0, True)
        assert res.gram.vectors.shape == (g.m_a + g.m_b, 1)
        assert res.stalled_rows == swept.stalled_rows
        assert abs(res.xi_q - float(res.xi_c)) <= 1e-12
    assert verdicts == {NO_ADVANTAGE: 776, ADVANTAGE: 444}


def test_no_advantage_solves_run_no_restart(monkeypatch, bareiss_calls):
    # the verdict is decided before any restart, so every no-advantage solve
    # returns its certified witness without sweeping, appendix_d(2-4) and
    # nlc_and(2) too; the elimination runs once on each game that the
    # earlier steps leave open, and the sides of those S' are pinned
    ascent, starts = qsdp._coordinate_ascent, []

    def counted(blocks, U, cfg):
        starts.append(len(U))
        return ascent(blocks, U, cfg)

    monkeypatch.setattr(qsdp, "_coordinate_ascent", counted)
    swept = []
    for i, g in enumerate(_witness_corpus()):
        ran = len(starts)
        if solve_quantum_bias(g).classification == NO_ADVANTAGE and len(starts) > ran:
            swept.append(i)
    assert swept == []
    assert Counter(bareiss_calls) == {8: 2, 9: 3, 10: 1, 11: 1, 13: 4, 14: 1, 16: 2, 32: 1}


def test_exact_slackness_agrees_with_the_float_verdict():
    # every optimal vertex of a no-advantage game is complementary to the
    # witness's integer dual, so a failing vertex proves an advantage; the
    # tally shows both implications are exercised
    rng = np.random.default_rng(11)
    games = [random_game(rng) for _ in range(300)]
    rng = np.random.default_rng(12)
    games += [tied_game(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7))) for _ in range(100)]
    tally = Counter()
    for g in games:
        exact = verify_F_relation(g, optimal_vertices(g))
        verdict = solve_quantum_bias(g).classification
        assert exact or verdict == ADVANTAGE
        tally[(verdict, exact)] += 1
    assert tally == {(NO_ADVANTAGE, True): 133, (ADVANTAGE, True): 214, (ADVANTAGE, False): 53}


def test_witness_keeps_a_never_asked_row_stalled():
    # identity(1) with a never-asked question on Alice's side: the witness
    # certifies, and the row it never asks has t = 0 and is reported stalled,
    # as by a swept solve
    g = build_game([["1/2", 0], [0, "1/2"], [0, 0]], [[0, 0], [0, 0], [0, 0]])
    res = solve_quantum_bias(g)
    assert (res.certified, res.classification, res.sweeps) == (True, NO_ADVANTAGE, 0)
    assert res.stalled_rows == (2,) and res.cert.t[2] == 0.0
    assert solve_quantum_bias(g, xi_c=res.xi_c).stalled_rows == (2,)


def test_witness_tied_on_an_asked_row_is_refused(monkeypatch):
    # a witness whose response ties on an asked question has t = 0 on a row
    # of Phi~ that is not zero, so diag(t) - Phi~ is indefinite: the exact
    # verdict finds the advantage, no one-column Gram vectors reach the
    # eigen-check, and the solve is the xi_c-only one.  CHSH's witness alpha = (1, 1) ties Bob's
    # second question
    evaluate, widths = qsdp._evaluate, []

    def recorded(blocks, U):
        widths.append(U.shape[1])
        return evaluate(blocks, U)

    monkeypatch.setattr(qsdp, "_evaluate", recorded)
    rng = np.random.default_rng(12)
    games = [make_named("chsh")] + [tied_game(rng, 3, 4) for _ in range(60)]
    tied = 0
    for g in games:
        cb = classical_bias(g)
        s = np.array(cb.witness.alpha + cb.witness.beta, dtype=float)
        blocks = qsdp._halves(g)
        t = np.abs(np.concatenate((blocks[0] @ s[g.m_a :], blocks[1] @ s[: g.m_a])))
        nonzero = g.matrix.ints != 0
        asked = np.concatenate((nonzero.any(axis=1), nonzero.any(axis=0)))
        if not np.any(asked & (t == 0.0)):
            continue
        tied += 1
        d = exact._witness_dual(g.matrix.ints, s.astype(np.int8))
        assert exact._psd_rank(exact._slack_matrix(g.matrix.ints, d)) is None
        widths.clear()
        res = solve_quantum_bias(g)
        assert 1 not in widths and res.sweeps > 0 and res.classification == ADVANTAGE
        _assert_same_result(res, solve_quantum_bias(g, xi_c=cb.xi_c))
    assert tied >= 10


def test_face_report_starts_at_its_first_vertex():
    # face_report passes row 0 of its vertex set, the witness classical_bias
    # reports, so the face and bias quantum give one certificate
    g = make_named("appendix_d", 3)
    rep = face_report(g)
    res = solve_quantum_bias(g)
    assert (rep.quantum.sweeps, rep.quantum.restarts_used) == (0, 0)
    _assert_same_result(rep.quantum, res)


def test_witness_argument_is_checked():
    g = make_named("single_entry")
    for xi_c, witness in ((None, [1, 1]), (Fraction(1), [1, 1, 1]), (Fraction(1), [1, 0])):
        with pytest.raises(InvalidParameter):
            solve_quantum_bias(g, xi_c=xi_c, witness=witness)
    res = solve_quantum_bias(g, xi_c=Fraction(1), witness=np.array([-1, -1], dtype=np.int8))
    assert (res.certified, res.sweeps, res.gram.vectors.tolist()) == (True, 0, [[-1.0], [-1.0]])


# ---------------------------------------------------------------------------
# the exact advantage verdict
# ---------------------------------------------------------------------------


def test_exact_verdict_agrees_with_the_float_rule():
    # wherever the float rule of earlier builds decides, the exact verdict
    # is its answer, and on this corpus it decides every game
    tally = Counter()
    for g in _witness_corpus():
        res = solve_quantum_bias(g)
        rule = oracle_float_verdict(res.xi_q, res.certified, res.xi_c)
        assert rule == res.classification
        tally[res.classification] += 1
    assert tally == {NO_ADVANTAGE: 776, ADVANTAGE: 444}


def _steps(g, K):
    """What each exact step says of ``S'`` for the vertices ``K``: True PSD, False not, None open.

    The congruence proves something only for vertices in the kernel of ``S'``.
    """
    P, L = g.matrix.ints, g.matrix.denominator
    d = exact._witness_dual(P, K[0])
    S = exact._slack_matrix(P, d)
    kernel = exact._complementary(P, d, K)
    return {
        "kernel": None if kernel else False,
        "responses": False if exact._shows_negative(P, d, L) else None,
        "congruence": True if kernel and exact._kernel_proves_psd(S, K) else None,
        "elimination": exact._psd_rank(S) is not None,
    }


def test_each_step_agrees_with_the_elimination():
    # every conclusive step agrees with the complete one, which agrees with
    # a Fraction oracle and with the solve's verdict; the tally counts the
    # games each step decides, with the witness alone (always in the kernel
    # of its own S') and with every optimal vertex, as face_report passes
    tally = Counter()
    for g in _witness_corpus():
        vs = optimal_vertices(g)
        res = solve_quantum_bias(g, xi_c=vs.xi_c)
        psd = oracle_slack_is_psd(g, vs.signs[0].tolist())
        assert psd == (res.classification == NO_ADVANTAGE)
        for K, rows in ((vs.signs[:1], "witness"), (vs.signs, "all")):
            steps = _steps(g, K)
            assert steps.pop("elimination") == psd
            for step, said in steps.items():
                assert said in (None, psd), (step, rows)
                if said is not None:
                    tally[rows, step] += 1
    assert tally == {
        ("witness", "responses"): 433, ("witness", "congruence"): 461,
        ("all", "kernel"): 230, ("all", "responses"): 433, ("all", "congruence"): 776,
    }


@pytest.mark.parametrize(
    "g", [huge_denominator_game(), *int64_edge_games()],
    ids=["denominator2^70", "edge1x2f0", "edge2x1f0", "edge1x2f1", "edge2x1f1"],
)
def test_huge_denominators_are_decided_by_the_elimination(g):
    # xi_c = 1 settles these games before S' is formed; without that, the
    # congruence refuses entries past 2^53 and no rounding fits int64, and
    # the elimination, in Python integers, proves S' positive semidefinite
    vs = optimal_vertices(g)
    assert vs.xi_c == 1 and g.matrix.ints.dtype == object
    steps = _steps(g, vs.signs)
    assert steps == {"kernel": None, "responses": None, "congruence": None, "elimination": True}
    assert solve_quantum_bias(g).classification == NO_ADVANTAGE


def test_advantage_draws_need_no_elimination(monkeypatch):
    # games of the benchmark's solver sizes: every advantage is proved by a
    # step before the elimination, which is made to fail here
    def refuse(S):
        raise AssertionError("the elimination ran")

    monkeypatch.setattr(exact, "_psd_rank", refuse)
    rng = np.random.default_rng(48)
    verdicts = Counter()
    for _ in range(30):
        g = random_game(rng, 10, 28, 6, 16, max_weight=1000)
        res = solve_quantum_bias(g)
        verdicts[res.classification] += 1
        assert oracle_float_verdict(res.xi_q, res.certified, res.xi_c) == res.classification
    assert verdicts == {ADVANTAGE: 30}
