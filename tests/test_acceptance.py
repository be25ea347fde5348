"""Acceptance suite: every exit criterion, one printed PASS/FAIL line each.

Exact values are asserted in rational arithmetic, certified numeric values at
their stated tolerances.  Criterion 5's stated optimal-vertex count for the
appendix_d(2) game contradicts the brute-force oracle (see the separate
strict-xfail test and the project decision notes); every other clause of that
criterion is enforced here.
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from tightbell import (
    bias_of_behaviour,
    build_game,
    build_nlc,
    classical_bias,
    extract_F,
    face_report,
    make_named,
    ns_perfect_behaviour,
    optimal_vertices,
    quantum_face_probe,
    quantum_slackness_check,
    solve_quantum_bias,
    theorem1_dim_bound,
    trivial_facet_check,
    verify_F_relation,
)
from tightbell.qsdp import ADVANTAGE, NO_ADVANTAGE, SolveConfig, certificate_to_dict

from .generators import random_game, random_nlc_spec
from .oracles import oracle_bias, oracle_is_no_signalling, oracle_slackness_residual

GAP_TOL = 1e-7
FEAS_TOL = 1e-8


def _line(num, ok: bool, detail: str) -> None:
    print(f"[criterion {num:>3}] {'PASS' if ok else 'FAIL'} - {detail}")


def _finish(num, checks: list[tuple[str, bool]], detail: str) -> None:
    ok = all(c for _, c in checks)
    _line(num, ok, detail)
    for label, c in checks:
        if not c:
            print(f"    failed: {label}")
    assert ok, f"criterion {num}: " + "; ".join(l for l, c in checks if not c)


def _certified(res) -> bool:
    return res.gap <= GAP_TOL and res.cert.min_eig >= -FEAS_TOL


# ---------------------------------------------------------------------------
# shared expensive batches
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def nlc_batch():
    """50 random shared-input games, n in {1,2,3}, solved and enumerated."""
    rng = np.random.default_rng(20250809)
    start = time.perf_counter()
    batch = []
    for i in range(50):
        n = int(rng.choice([1, 2, 3]))
        spec = random_nlc_spec(rng, n)
        g = build_nlc(spec)
        xi_c = classical_bias(g).xi_c
        vs = optimal_vertices(g)
        res = solve_quantum_bias(g, SolveConfig(seed=1000 + i), xi_c=xi_c)
        batch.append((spec, g, xi_c, vs, res))
    elapsed = time.perf_counter() - start
    return batch, elapsed


@pytest.fixture(scope="module")
def random16_batch():
    """100 random exhaustive games up to 16x16, each solved twice (same seed)."""
    rng = np.random.default_rng(424242)
    start = time.perf_counter()
    batch = []
    for i in range(100):
        g = random_game(rng, max_a=16, max_b=16)
        xi_c = classical_bias(g).xi_c
        cfg = SolveConfig(seed=i)
        first = solve_quantum_bias(g, cfg, xi_c=xi_c)
        second = solve_quantum_bias(g, cfg, xi_c=xi_c)
        batch.append((g, xi_c, first, second))
    elapsed = time.perf_counter() - start
    return batch, elapsed


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_chsh():
    g = make_named("chsh")
    start = time.perf_counter()
    xi_c = classical_bias(g).xi_c
    res = solve_quantum_bias(g, xi_c=xi_c)
    elapsed = time.perf_counter() - start
    checks = [
        ("xi_c == 1/2 exactly", xi_c == Fraction(1, 2)),
        ("|xi_q - sqrt(2)/2| <= 1e-6", abs(res.xi_q - math.sqrt(2) / 2) <= 1e-6),
        ("gap <= 1e-7", res.gap <= GAP_TOL),
        ("min_eig >= -1e-8", res.cert.min_eig >= -FEAS_TOL),
        ("classification == advantage", res.classification == "advantage"),
        ("runtime < 1 s", elapsed < 1.0),
    ]
    _finish(1, checks, f"CHSH exact/certified biases ({elapsed:.3f}s)")


def test_criterion_02_nlc_no_advantage(nlc_batch):
    batch, elapsed = nlc_batch
    worst = 0.0
    checks = []
    for _, _, xi_c, _, res in batch:
        dev = abs(res.xi_q - float(xi_c))
        worst = max(worst, dev)
        if dev > 1e-6 or not _certified(res):
            checks.append((f"game deviates ({dev:.2e}) or uncertified", False))
    checks.append(("all 50 certified with |xi_q - xi_c| <= 1e-6", not checks))
    checks.append(("runtime < 2 min", elapsed < 120.0))
    _finish(2, checks, f"50 shared-input games, worst |xi_q - xi_c| = {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_03_dim_bound_all_no_advantage(nlc_batch):
    batch, _ = nlc_batch
    games = [g for _, g, _, _, _ in batch] + [make_named("identity", n) for n in (1, 2, 3)]
    checks = []
    for g in games:
        rep = face_report(g)
        m_a, m_b = rep.reduced_m_a, rep.reduced_m_b
        supp_c_codim = m_b + m_a * m_b - m_a * (m_a - 1) // 2
        ok = (
            rep.classification == NO_ADVANTAGE
            and not rep.truncated
            and rep.dim_full <= theorem1_dim_bound(m_a, m_b)
            and rep.is_facet_full is False
            and rep.is_facet_corr is False
            and rep.codim_full >= supp_c_codim
        )
        if not ok:
            checks.append((f"{m_a}x{m_b} game violates the bound chain", False))
    checks.append(("dim <= m + m(m-1)/2, no facets, codim >= formula", not checks))
    _finish(3, checks, f"{len(games)} no-advantage games within the dimension bound")


def test_criterion_04_identity_equality_case():
    rep1 = face_report(make_named("identity", 1))
    rep2 = face_report(make_named("identity", 2))
    checks = [
        ("identity(1) dim_full == 3", rep1.dim_full == 3),
        ("identity(1) dim_corr == 1", rep1.dim_corr == 1),
        ("identity(2) dim_full == 10", rep2.dim_full == 10),
        ("identity(2) dim_corr == 6", rep2.dim_corr == 6),
        (
            "equality with 2^n + 2^(n-1)(2^n - 1)",
            rep2.dim_full == 4 + 2 * 3 and rep1.dim_full == 2 + 1,
        ),
    ]
    _finish(4, checks, "identity family attains the dimension bound exactly")


def test_criterion_05_appendix_d_family():
    start = time.perf_counter()
    g2 = make_named("appendix_d", 2)
    lam_entry = g2.matrix.phi[0][0]
    xi2 = classical_bias(g2).xi_c
    rep2 = face_report(g2)
    rep3 = face_report(make_named("appendix_d", 3))
    elapsed = time.perf_counter() - start
    checks = [
        ("lambda == 1/8 (diagonal entries lambda/2)", lam_entry == Fraction(1, 16)),
        ("xi_c == 1/2 == 2^n/(3 2^n - 4)", xi2 == Fraction(4, 8) == Fraction(1, 2)),
        ("n=2 dim_corr == 3 == 1 + 2^(n-1)(2^n-3)", rep2.dim_corr == 3),
        ("n=3 dim_corr == 21 == 1 + 20", rep3.dim_corr == 21),
        ("runtime < 10 s", elapsed < 10.0),
        # the stated vertex count (14) is exercised in the xfail test below;
        # the brute-force oracle fixes the true count at 8
        ("vertex count matches the brute-force oracle", rep2.num_vertices == 8),
    ]
    _finish(5, checks, f"appendix-D family values ({elapsed:.2f}s)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated count 14 contradicts its own brute-force derivation: the 6 "
        "balanced sign vectors already contain the negation pairs, so the "
        "optimal set is 6 + 2 = 8 pairs (see decision notes)"
    ),
)
def test_criterion_05_vertex_count_as_stated():
    vs = optimal_vertices(make_named("appendix_d", 2))
    _line("5b", len(vs.vertices) == 14, "appendix_d(2) optimal vertex count as stated (14)")
    assert len(vs.vertices) == 14


def test_criterion_06_coupling_relation_and_slackness(nlc_batch):
    batch, _ = nlc_batch
    cases = []
    for n in (1, 2, 3):
        g = make_named("identity", n)
        cases.append((g, classical_bias(g).xi_c, optimal_vertices(g)))
    for n in (2, 3):
        g = make_named("appendix_d", n)
        cases.append((g, classical_bias(g).xi_c, optimal_vertices(g)))
    solved = [
        (g, xi_c, vs, solve_quantum_bias(g, xi_c=xi_c)) for g, xi_c, vs in cases
    ] + [(g, xi_c, vs, res) for _, g, xi_c, vs, res in batch]

    # exact: every optimal vertex is complementary to the witness's integer
    # dual, (diag(d) - [[0, L Phi], [L Phi^T, 0]]) v = 0, so beta = F alpha
    checks = [
        (f"{g.m_a}x{g.m_b}: {res.classification}, exact check fails", False)
        for g, _, vs, res in solved
        if res.classification != NO_ADVANTAGE or not verify_F_relation(g, vs)
    ]
    checks.append(("beta = F alpha and slackness hold exactly on every vertex", not checks))

    chsh = make_named("chsh")
    chsh_vs = optimal_vertices(chsh)
    checks.append(("CHSH fails the exact check", not verify_F_relation(chsh, chsh_vs)))
    chsh_res = solve_quantum_bias(chsh)
    chsh_min = min(
        oracle_slackness_residual(chsh, chsh_res.cert.t, s) for s in chsh_vs.signs.tolist()
    )
    checks.append(("CHSH slackness residual exceeds 0.05", chsh_min > 0.05))
    _finish(
        6,
        checks,
        f"coupling relation and slackness exact on {len(solved)} games; "
        f"CHSH residual {chsh_min:.3f}",
    )


def test_criterion_07_quantum_level_checks():
    checks = []
    for name, n in (("identity", 2), ("nlc_and", 2), ("appendix_d", 3)):
        g = make_named(name, n)
        # xi_c alone: a swept optimum, not the one-column witness
        res = solve_quantum_bias(g, xi_c=classical_bias(g).xi_c)
        rep = quantum_slackness_check(res, extract_F(g, optimal_vertices(g)))
        cols = res.gram.vectors.shape[1]
        label = f"{name}({n}) swept ({cols} columns), quantum slackness <= 1e-6"
        checks.append((label, rep.all_pass and cols > 1))
    for name, n in (("identity", 2), ("nlc_and", 2), ("appendix_d", 3), ("single_entry", None)):
        g = make_named(name, n) if n else make_named(name)
        probe = quantum_face_probe(g)
        checks.append(
            (
                f"{name} probe {probe.dim_lower_bound} <= bound {probe.thm3_bound}",
                probe.dim_lower_bound <= probe.thm3_bound,
            )
        )
    _finish(7, checks, "Gram-level slackness and face probes within bounds")


def test_criterion_08_perfect_behaviour_and_trivial_facets():
    rng = np.random.default_rng(88)
    checks = []
    bad = 0
    for _ in range(100):
        g = random_game(rng, max_a=8, max_b=8)
        beh = ns_perfect_behaviour(g)
        if bias_of_behaviour(g, beh) != 1 or not oracle_is_no_signalling(beh):
            bad += 1
    checks.append(("100 games: exact no-signalling and bias exactly 1", bad == 0))

    facet_ok = True
    for m_a, m_b in itertools.product(range(1, 4), repeat=2):
        for x0, y0 in itertools.product(range(m_a), range(m_b)):
            for sign in (1, -1):
                rep = trivial_facet_check(m_a, m_b, x0, y0, sign)
                if rep.dim != m_a * m_b - 1 or not rep.is_facet:
                    facet_ok = False
    checks.append(("all |c_xy| <= 1 faces up to 3x3 have dim m_a m_b - 1", facet_ok))
    _finish(8, checks, "perfect no-signalling behaviour and trivial facets")


def test_criterion_09_solver_certification(random16_batch):
    batch, elapsed = random16_batch
    checks = []
    worst_gap, worst_eig = 0.0, 0.0
    for g, xi_c, first, second in batch:
        worst_gap = max(worst_gap, first.gap)
        worst_eig = min(worst_eig, first.cert.min_eig)
        ok = (
            first.gap <= GAP_TOL
            and first.cert.min_eig >= -FEAS_TOL
            and first.restarts_used <= 8
            and first.xi_q >= float(xi_c) - 1e-9
            and first.xi_q <= 1.0 + FEAS_TOL
        )
        identical = (
            first.xi_q == second.xi_q
            and np.array_equal(first.cert.t, second.cert.t)
            and np.array_equal(first.gram.vectors, second.gram.vectors)
            and certificate_to_dict(first) == certificate_to_dict(second)
        )
        if not ok:
            checks.append((f"{g.m_a}x{g.m_b} uncertified or out of range", False))
        if not identical:
            checks.append((f"{g.m_a}x{g.m_b} not bit-identical across reruns", False))
    checks.append(("100 games certified, sandwiched, reproducible", not checks))
    checks.append(("runtime < 5 min", elapsed < 300.0))
    _finish(
        9,
        checks,
        f"worst gap {worst_gap:.2e}, worst min_eig {worst_eig:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_10_classical_oracle_equivalence():
    rng = np.random.default_rng(1010)
    mismatches = 0
    for _ in range(200):
        m_a = int(rng.integers(1, 12))
        m_b = int(rng.integers(1, 13 - m_a))
        g = random_game(rng, max_a=m_a, min_a=m_a, max_b=m_b, min_b=m_b)
        if classical_bias(g).xi_c != oracle_bias(g)[0]:
            mismatches += 1
    _finish(
        10,
        [("200 games: exact agreement with the double-loop oracle", mismatches == 0)],
        "classical bias equals the full 2^(m_a+m_b) enumeration",
    )


# (classification, is_facet_full, is_facet_corr, reduced game 1x1) -> games
_CENSUS = {
    (2, 2): {
        (ADVANTAGE, True, True, False): 8,
        (NO_ADVANTAGE, False, True, True): 8,
        (NO_ADVANTAGE, False, False, False): 64,
    },
    (2, 3): {
        (ADVANTAGE, True, True, False): 24,
        (NO_ADVANTAGE, False, True, True): 12,
        (NO_ADVANTAGE, False, False, False): 548,
        (ADVANTAGE, False, False, False): 144,
    },
}


def _support_games(m_a: int, m_b: int):
    """Prior ``1/|S|`` on each nonempty set S of cells, every predicate on S, f = 0 off S."""
    cells = list(itertools.product(range(m_a), range(m_b)))
    for size in range(1, len(cells) + 1):
        for support in itertools.combinations(cells, size):
            for bits in itertools.product((0, 1), repeat=size):
                q = [[Fraction(0)] * m_b for _ in range(m_a)]
                f = [[0] * m_b for _ in range(m_a)]
                for (x, y), b in zip(support, bits):
                    q[x][y], f[x][y] = Fraction(1, size), b
                yield build_game(q, f)


def test_criterion_11_exhaustive_theorem_census():
    # the paper's theorem on all 80 + 728 support games at 2x2 and 2x3: every
    # full-space facet, and every correlation facet whose reduced game is not
    # the trivial 1x1 face |E_xy| <= 1, has a quantum advantage
    start = time.perf_counter()
    checks = []
    for (m_a, m_b), want in _CENSUS.items():
        tally = Counter()
        for g in _support_games(m_a, m_b):
            rep = face_report(g)
            trivial = (rep.reduced_m_a, rep.reduced_m_b) == (1, 1)
            tight = rep.is_facet_full or (rep.is_facet_corr and not trivial)
            if tight and rep.classification != ADVANTAGE:
                checks.append((f"{m_a}x{m_b} facet without advantage: {g}", False))
            tally[(rep.classification, rep.is_facet_full, rep.is_facet_corr, trivial)] += 1
        checks.append((f"{m_a}x{m_b} tallies {dict(tally)}", tally == want))
    elapsed = time.perf_counter() - start
    _finish(11, checks, f"808 small games, every tight inequality violated ({elapsed:.2f}s)")
