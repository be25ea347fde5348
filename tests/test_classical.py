"""Exact classical bias and optimal-vertex enumeration against the double-loop oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightbell import (
    bias_of_strategy,
    classical,
    classical_bias,
    make_named,
    optimal_vertices,
    verify_F_relation,
)
from tightbell.classical import DEFAULT_VERTEX_CAP
from tightbell.errors import InvalidParameter, TooLarge, Truncated
from tightbell.game import DeterministicStrategy, build_game

from .generators import random_game, random_strategy, tied_game
from .oracles import oracle_bias, reference_bias, reference_vertices

Q = Fraction(1, 4)


def chsh():
    return make_named("chsh")


def test_chsh_bias():
    res = classical_bias(chsh())
    assert res.xi_c == Fraction(1, 2)
    assert bias_of_strategy(chsh(), res.witness) == Fraction(1, 2)
    assert res.num_alpha_optimal == 4
    assert not res.swapped


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identity_bias_is_one(n):
    g = make_named("identity", n)
    res = classical_bias(g)
    assert res.xi_c == 1
    assert res.witness.alpha == (1,) * 2**n
    assert res.witness.beta == (1,) * 2**n


@pytest.mark.parametrize("n", [2, 3])
def test_appendix_d_bias_formula(n):
    g = make_named("appendix_d", n)
    assert classical_bias(g).xi_c == Fraction(2**n, 3 * 2**n - 4)


def test_oracle_equivalence_small_random():
    rng = np.random.default_rng(101)
    for _ in range(30):
        g = random_game(rng, max_a=6, max_b=5)
        assert classical_bias(g).xi_c == oracle_bias(g)[0]


def test_enumeration_side_swap():
    rng = np.random.default_rng(13)
    g = random_game(rng, min_a=6, max_a=7, min_b=2, max_b=3)  # m_a > m_b
    res = classical_bias(g)
    assert res.swapped
    assert res.xi_c == oracle_bias(g)[0]
    assert bias_of_strategy(g, res.witness) == res.xi_c


def test_sign_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = random_game(rng, max_a=5, max_b=5)
        s = random_strategy(rng, g.m_a, g.m_b)
        neg = DeterministicStrategy(
            alpha=tuple(-a for a in s.alpha), beta=tuple(-b for b in s.beta)
        )
        assert bias_of_strategy(g, s) == bias_of_strategy(g, neg)


def test_positive_bias_for_exhaustive_games():
    rng = np.random.default_rng(23)
    for _ in range(40):
        g = random_game(rng)
        assert classical_bias(g).xi_c > 0


def test_too_large():
    g = make_named("identity", 3)
    with pytest.raises(TooLarge):
        classical_bias(g, enum_cap=4)


@pytest.mark.parametrize("cap", [0, -5])
def test_enum_cap_below_one_is_invalid(cap):
    # a cap below 1 is a bad argument, not a cap the game exceeds
    with pytest.raises(InvalidParameter):
        classical_bias(make_named("chsh"), enum_cap=cap)
    with pytest.raises(InvalidParameter):
        optimal_vertices(make_named("chsh"), enum_cap=cap)


# ---------------------------------------------------------------------------
# optimal vertex enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cap", [-1, -5])
def test_negative_vertex_cap_is_invalid(cap):
    # cap 0 is a valid, exceeded cap; a negative one is a bad argument
    with pytest.raises(InvalidParameter):
        optimal_vertices(make_named("chsh"), cap=cap)


def test_chsh_vertices_complete_with_zero_branching():
    vs = optimal_vertices(chsh())
    assert not vs.truncated
    assert len(vs.vertices) == 8
    xi, pairs = oracle_bias(chsh(), collect_pairs=True)
    assert {(v.alpha, v.beta) for v in vs.vertices} == set(pairs)
    # every optimal alpha has one tied coordinate; both completions must appear
    by_alpha = {}
    for v in vs.vertices:
        by_alpha.setdefault(v.alpha, set()).add(v.beta)
    assert all(len(betas) == 2 for betas in by_alpha.values())


def test_identity1_vertices():
    vs = optimal_vertices(make_named("identity", 1))
    assert {(v.alpha, v.beta) for v in vs.vertices} == {
        ((1, 1), (1, 1)),
        ((1, -1), (1, -1)),
        ((-1, 1), (-1, 1)),
        ((-1, -1), (-1, -1)),
    }


def test_appendix_d2_vertices():
    g = make_named("appendix_d", 2)
    vs = optimal_vertices(g)
    # the 6 balanced sign vectors (already closed under negation) paired with
    # themselves, plus the all-ones vector paired with its negation both ways
    assert len(vs.vertices) == 8
    xi = classical_bias(g).xi_c
    for v in vs.vertices:
        assert bias_of_strategy(g, v) == xi
    balanced = [v for v in vs.vertices if sum(v.alpha) == 0]
    assert len(balanced) == 6 and all(v.alpha == v.beta for v in balanced)
    uniform = [v for v in vs.vertices if sum(v.alpha) != 0]
    assert {(v.alpha, v.beta) for v in uniform} == {
        ((1,) * 4, (-1,) * 4),
        ((-1,) * 4, (1,) * 4),
    }


def test_vertices_match_oracle_on_random_games():
    rng = np.random.default_rng(31)
    for _ in range(15):
        g = random_game(rng, max_a=4, max_b=4)
        vs = optimal_vertices(g)
        assert not vs.truncated
        _, pairs = oracle_bias(g, collect_pairs=True)
        assert {(v.alpha, v.beta) for v in vs.vertices} == set(pairs)


def test_vertices_include_negations():
    rng = np.random.default_rng(37)
    g = random_game(rng, max_a=4, max_b=4)
    vs = optimal_vertices(g)
    have = {(v.alpha, v.beta) for v in vs.vertices}
    for alpha, beta in have:
        assert (tuple(-a for a in alpha), tuple(-b for b in beta)) in have


def test_truncation_flag_and_cap():
    vs = optimal_vertices(chsh(), cap=3)
    assert vs.truncated
    assert len(vs.vertices) == 3
    assert vs.cap == 3


# ---------------------------------------------------------------------------
# coupling-matrix relation
# ---------------------------------------------------------------------------


def test_f_relation_identity():
    g = make_named("identity", 2)
    vs = optimal_vertices(g)
    rep = verify_F_relation(vs, np.eye(4), tol=0.0)
    assert rep.all_pass and rep.max_residual == 0.0


def test_f_relation_appendix_d():
    g = make_named("appendix_d", 2)
    vs = optimal_vertices(g)
    F = np.eye(4) - 0.5 * np.ones((4, 4))
    rep = verify_F_relation(vs, F)
    assert rep.all_pass and rep.max_residual == 0.0


def test_f_relation_fails_for_chsh():
    # one optimal alpha has two optimal betas, so no linear map can work
    vs = optimal_vertices(chsh())
    for F in (np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)):
        assert not verify_F_relation(vs, F).all_pass


def test_f_relation_refuses_truncated_sets():
    vs = optimal_vertices(chsh(), cap=1)
    assert vs.truncated
    with pytest.raises(Truncated):
        verify_F_relation(vs, np.eye(2))


def huge_denominator_game():
    # denominator large enough to force the exact big-integer path
    big = 2**70
    q = [[Fraction(1, big), Fraction(big - 1, big)], [Fraction(0), Fraction(0)]]
    return build_game(q, [[0, 1], [0, 0]])


def int64_edge_games():
    # L = 2^63 + 1 gives the entries 2^63 (past int64) and -2^63 (int64's
    # minimum, which np.abs leaves negative), each on a 1x2 and a 2x1 game
    big = 2**63 + 1
    q = [Fraction(2**63, big), Fraction(1, big)]
    for f in (0, 1):
        yield build_game([q], [[f, 0]])
        yield build_game([[v] for v in q], [[f], [0]])


def test_object_dtype_fallback_for_huge_denominators():
    for g in [huge_denominator_game(), *int64_edge_games()]:
        assert classical_bias(g).xi_c == oracle_bias(g)[0]
        assert_matches_block_reference(g)


def reference_games():
    rng = np.random.default_rng(59)
    yield pytest.param(random_game(rng, min_a=15, max_a=15, min_b=15, max_b=16), id="random15x16")
    yield pytest.param(random_game(rng, min_a=17, max_a=17, min_b=15, max_b=15), id="random17x15")
    for name, ns in (("identity", (1, 2, 3)), ("appendix_d", (2, 3)), ("nlc_and", (2, 3))):
        for n in ns:
            yield pytest.param(make_named(name, n), id=f"{name}{n}")
    yield pytest.param(huge_denominator_game(), id="denominator2^70")
    # 3x2 with denominator 2^70: enumerates a transposed object-dtype matrix
    big = 2**70
    w = [[1, 2**68], [3, 2**67], [2**66 + 5]]
    w[2].append(big - sum(map(sum, w)))
    q = [[Fraction(v, big) for v in row] for row in w]
    yield pytest.param(build_game(q, [[0, 1], [1, 0], [0, 0]]), id="denominator2^70x3x2")
    # one-input enumerated side (k = 0: a low table of one zero row) both ways, then odd and even m
    for m_a, m_b in ((1, 3), (3, 1), (5, 7), (6, 6)):
        yield pytest.param(tied_game(rng, m_a, m_b), id=f"tied{m_a}x{m_b}")


def complement_boundary_caps(g):
    """Caps around half the optimal patterns and half the vertices, and the full counts.

    The scan covers the patterns with the top bit clear and appends their
    complements, so these caps cross from the scanned half into the complements.
    """
    patterns = reference_bias(g)[2]
    vertices = len(reference_vertices(g, DEFAULT_VERTEX_CAP)[1])
    caps = {patterns - 1, patterns, vertices - 1, vertices}
    for half in (patterns // 2, vertices // 2):
        caps |= {half - 1, half, half + 1}
    return {c for c in caps if c >= 0}


def assert_matches_block_reference(g):
    res = classical_bias(g)
    got = (res.xi_c, (res.witness.alpha, res.witness.beta), res.num_alpha_optimal, res.swapped)
    assert got == reference_bias(g)
    for cap in sorted({0, 1, 3, 7, DEFAULT_VERTEX_CAP} | complement_boundary_caps(g)):
        vs = optimal_vertices(g, cap=cap)
        xi_c, pairs, truncated = reference_vertices(g, cap)
        assert vs.signs.dtype == np.int8 and not vs.signs.flags.writeable
        assert vs.signs.shape == (len(pairs), g.m_a + g.m_b)
        assert [tuple(row) for row in vs.signs.tolist()] == [a + b for a, b in pairs]
        assert (vs.xi_c, vs.truncated, vs.cap) == (xi_c, truncated, cap)
        assert [(v.alpha, v.beta) for v in vs.vertices] == pairs
        assert vs.vertices is vs.vertices  # built once, on first read


@pytest.mark.parametrize("g", list(reference_games()))
def test_enumeration_matches_block_reference(g):
    assert_matches_block_reference(g)


def chunked_games():
    yield from reference_games()
    rng = np.random.default_rng(61)
    for m_a, m_b in ((7, 8), (8, 8), (8, 5)):
        yield pytest.param(tied_game(rng, m_a, m_b), id=f"tied{m_a}x{m_b}")


@pytest.mark.parametrize("high_rows", [1, 3])
@pytest.mark.parametrize("g", list(chunked_games()))
def test_enumeration_across_chunk_boundaries(monkeypatch, g, high_rows):
    # chunks of 1 and 3 high patterns: the scan crosses many chunk
    # boundaries, and with 3 the last chunk is short (the high table has
    # 2^(m-k-1) rows); a chunk spans high_rows * m_b * 2^k column sums
    m, mb = sorted((g.m_a, g.m_b))
    monkeypatch.setattr(classical, "_CHUNK", high_rows * mb << (m // 2))
    assert_matches_block_reference(g)


@settings(max_examples=80, deadline=None)
@given(m_a=st.integers(1, 6), m_b=st.integers(1, 6), seed=st.integers(0, 2**31), data=st.data())
def test_enumeration_matches_reference_on_tied_games(m_a, m_b, seed, data):
    g = tied_game(np.random.default_rng(seed), m_a, m_b)
    res = classical_bias(g)
    got = (res.xi_c, (res.witness.alpha, res.witness.beta), res.num_alpha_optimal, res.swapped)
    assert got == reference_bias(g)
    vertices = len(reference_vertices(g, DEFAULT_VERTEX_CAP)[1])
    cap = data.draw(st.integers(0, 2 * vertices + 2), label="cap")
    vs = optimal_vertices(g, cap=cap)
    xi_c, pairs, truncated = reference_vertices(g, cap)
    assert [tuple(row) for row in vs.signs.tolist()] == [a + b for a, b in pairs]
    assert (vs.xi_c, vs.truncated) == (xi_c, truncated)


@pytest.mark.parametrize("m_a,m_b", [(1, 4), (4, 1), (3, 6), (6, 3), (5, 5), (7, 9), (9, 7)])
def test_witness_is_row_0_of_the_vertex_order(m_a, m_b):
    # classical_bias builds its witness without the vertex builder; it must be
    # that builder's first row, tied responses +1, in both orientations
    for seed in range(20):
        g = tied_game(np.random.default_rng([m_a, m_b, seed]), m_a, m_b)
        opt = classical._enumerate(g, classical.DEFAULT_ENUM_CAP, keep=1)
        (row,) = classical._vertex_signs(opt, 1)[0].tolist()
        w = classical_bias(g).witness
        assert (w.alpha, w.beta) == (tuple(row[:m_a]), tuple(row[m_a:]))
        assert all(type(v) is int for v in w.alpha + w.beta)


@pytest.mark.parametrize("m_a,m_b", [(1, 2), (2, 3), (3, 3), (5, 4), (6, 7), (8, 9)])
def test_scan_covers_half_the_patterns(monkeypatch, m_a, m_b):
    # the low and high sign tables are the first two built; their row counts
    # multiply to the number of patterns scanned, half of the 2^m covered
    tables = []
    signs = classical._signs

    def recorded(pats, m):
        tables.append(len(pats))
        return signs(pats, m)

    monkeypatch.setattr(classical, "_signs", recorded)
    g = tied_game(np.random.default_rng(m_a * 10 + m_b), m_a, m_b)
    res = classical_bias(g)
    m = min(m_a, m_b)
    assert tables[0] * tables[1] == 1 << (m - 1)
    assert res.num_alpha_optimal == reference_bias(g)[2]


@pytest.mark.parametrize("m_a,m_b", [(1, 3), (3, 1), (4, 6), (7, 5)])
def test_enum_cap_counts_all_patterns(m_a, m_b):
    # the cap counts the 2^m patterns covered, not the 2^(m-1) scanned
    g = tied_game(np.random.default_rng(m_a + m_b), m_a, m_b)
    m = min(m_a, m_b)
    assert classical_bias(g, enum_cap=1 << m).xi_c == reference_bias(g)[0]
    assert not optimal_vertices(g, enum_cap=1 << m).truncated
    with pytest.raises(TooLarge):
        classical_bias(g, enum_cap=(1 << m) - 1)
    with pytest.raises(TooLarge):
        optimal_vertices(g, enum_cap=(1 << m) - 1)


def test_each_function_enumerates_once(enumerations):
    g = make_named("chsh")
    classical_bias(g)
    optimal_vertices(g)
    assert len(enumerations) == 2
