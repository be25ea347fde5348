"""Exact classical bias and optimal-vertex enumeration against the double-loop oracle."""

import tracemalloc
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
from tightbell.game import DeterministicStrategy, XorGame, build_game

from .generators import random_game, random_strategy, tied_game
from .oracles import (
    _reference_rows,
    oracle_bias,
    reference_bias,
    reference_vertex_signs,
    reference_vertices,
)

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


def test_too_large_side_past_the_int_to_str_limit():
    # 2^20000 has 6,021 decimal digits, past Python's default limit of 4,300:
    # the refusal names it by its bit length
    with pytest.raises(TooLarge, match=r"\(2\^20000 or more\) inputs"):
        classical.require_enumerable(1 << 20000, classical.DEFAULT_ENUM_CAP)


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
    for n in (1, 2, 3):
        g = make_named("identity", n)
        assert verify_F_relation(g, optimal_vertices(g)) is True


def test_f_relation_appendix_d():
    for n in (2, 3):
        g = make_named("appendix_d", n)
        assert verify_F_relation(g, optimal_vertices(g)) is True


def test_f_relation_nlc():
    for n in (2, 3):
        g = make_named("nlc_and", n)
        assert verify_F_relation(g, optimal_vertices(g)) is True


def test_f_relation_fails_for_chsh():
    # the witness alpha = (1, 1) ties Bob's second question, so d_B = (2, 0),
    # and the optimal alpha = (1, -1), whose sums are (0, 2), breaks it; no
    # F or threshold is taken
    g = chsh()
    vs = optimal_vertices(g)
    assert verify_F_relation(g, vs) is False
    with pytest.raises(TypeError):
        verify_F_relation(g, vs, np.eye(2))


def test_f_relation_refuses_truncated_sets():
    g = chsh()
    vs = optimal_vertices(g, cap=1)
    assert vs.truncated
    with pytest.raises(Truncated):
        verify_F_relation(g, vs)


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


@pytest.mark.parametrize(
    "g",
    [huge_denominator_game(), *int64_edge_games()],
    ids=["denominator2^70", "edge1x2f0", "edge2x1f0", "edge1x2f1", "edge2x1f1"],
)
def test_f_relation_on_huge_denominators(g):
    # the dual is formed in Python integers, the game's object dtype: on the
    # 2^70 game d_B = (1, 2^70 - 1), past int64, and d_A = (2^70, 0)
    assert g.matrix.ints.dtype == object
    assert verify_F_relation(g, optimal_vertices(g)) is True


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
    # the low and high sign tables are the two the pass takes; their column
    # counts multiply to the number of patterns scanned, half of the 2^m covered
    tables = []
    sign_rows = classical._sign_rows

    def recorded(bits, count):
        tables.append(sign_rows(bits, count).shape[1])
        return sign_rows(bits, count)

    monkeypatch.setattr(classical, "_sign_rows", recorded)
    g = tied_game(np.random.default_rng(m_a * 10 + m_b), m_a, m_b)
    res = classical_bias(g)
    m = min(m_a, m_b)
    assert len(tables) == 2
    assert tables[0] * tables[1] == 1 << (m - 1)
    assert res.num_alpha_optimal == reference_bias(g)[2]


@pytest.mark.parametrize("bits", range(1, classical._TABLE_BITS + 1))
def test_sign_table_slices_equal_the_built_signs(bits):
    # every slice the pass can take, at both column counts: the low half's
    # 2^bits and the high half's 2^(bits - 1), top bit clear
    for count in (1 << bits, 1 << (bits - 1)):
        rows = classical._sign_rows(bits, count)
        assert np.shares_memory(rows, classical._SIGN_TABLE)
        assert rows.tolist() == classical._signs(np.arange(count), bits).T.tolist()
    assert not classical._SIGN_TABLE.flags.writeable
    assert classical._SIGN_TABLE.dtype == np.int8


def test_a_half_past_the_table_builds_its_signs():
    # a cap raised past 2^24 splits m >= 25 with a 13-bit half, which the
    # table does not hold; no such scan runs here, only the half's build
    bits = classical._TABLE_BITS + 1
    for count in (1 << bits, 1 << (bits - 1)):
        rows = classical._sign_rows(bits, count)
        assert not np.shares_memory(rows, classical._SIGN_TABLE)
        assert rows.tolist() == classical._signs(np.arange(count), bits).T.tolist()


def transposed(g):
    return build_game([list(col) for col in zip(*g.q)], [list(col) for col in zip(*g.f)])


def vertex_branch_games():
    named = [make_named("chsh")]
    named += [make_named("appendix_d", n) for n in (2, 3)]
    named += [make_named("identity", n) for n in (1, 2, 3)]
    named += [make_named("nlc_and", n) for n in (2, 3)]
    tied_rng, random_rng = np.random.default_rng(50), np.random.default_rng(51)
    drawn = [tied_game(tied_rng, *tied_rng.integers(1, 8, size=2)) for _ in range(40)]
    drawn += [random_game(random_rng) for _ in range(40)]
    return [h for g in named + drawn for h in (g, transposed(g))]


def test_vertex_rows_equal_the_completion_reference():
    # the tie-free rows skip the completion bookkeeping; on tie-free and tied
    # sets alike, at caps that cut both, the rows, their type, the read-only
    # flag and the truncation flag are those of the bookkeeping alone
    games = vertex_branch_games()
    tie_free = 0
    for g in games:
        for cap in (0, 1, 3, 7, DEFAULT_VERTEX_CAP):
            opt = classical._enumerate(g, classical.DEFAULT_ENUM_CAP, keep=cap)
            tie_free += cap > 0 and not (opt.rows == 0).any()
            signs, truncated = classical._vertex_signs(opt, cap)
            ref, ref_truncated = reference_vertex_signs(opt, cap)
            assert signs.dtype == ref.dtype == np.int8
            assert signs.shape == ref.shape
            assert signs.tolist() == ref.tolist()
            assert signs.flags.writeable is ref.flags.writeable is False
            assert truncated == ref_truncated
    # both branches ran
    assert 0 < tie_free < 4 * len(games)


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


def tier_games():
    """Games whose scan bounds sit at an edge of the type ladder, in both orientations.

    Every entry is +-M, Bob's column y negative when y is odd, so the entries
    take both signs, the column sums of the best pattern reach their bound
    ``m * M`` and its value is the value bound ``m * m_b * M`` itself.  The
    weights are integers that do not sum to 1, in an XorGame built directly
    (the scan never reads the prior's sum): 2^31 - 1 is prime, so only a 1 x 1
    game has that bound, and a normalized 1 x 1 game has bound 1.  Each case
    is (value bound, m_a, m_b, column-sum type, value type).
    """
    cases = (
        (2**31 - 1, 1, 1, np.int32, np.int32),  # int32's maximum
        (2**31 - 4, 2, 2, np.int32, np.int32),
        (2**31, 2, 2, np.int32, np.int64),  # one past: the value would wrap in int32
        (2**31, 4, 8, np.int32, np.int64),
        (2**62 - 1, 1, 3, np.int64, np.int64),
        (2**62, 2, 2, np.int64, object),  # sums 2^61, the value past int64's ladder step
        (2**15 - 1, 1, 1, np.int16, np.int16),  # sums at int16's maximum
        (2**15 - 4, 2, 2, np.int16, np.int16),
        (2**15, 1, 1, np.int32, np.int32),  # sums one past int16
        (2**15, 2, 2, np.int16, np.int32),  # sums 2^14, the value would wrap in int16
        (2**31, 1, 1, np.int64, np.int64),  # sums one past int32
        (2**62, 1, 1, object, object),  # sums past int64's ladder step
    )
    for bound, m_a, m_b, sum_type, value_type in cases:
        weight = Fraction(bound // (m_a * m_b))
        q = tuple((weight,) * m_b for _ in range(m_a))
        f = tuple(tuple(y % 2 for y in range(m_b)) for _ in range(m_a))
        for g in (XorGame(m_a, m_b, q, f), XorGame(m_b, m_a, tuple(zip(*q)), tuple(zip(*f)))):
            yield pytest.param(g, bound, sum_type, value_type, id=f"bound{bound}-{g.m_a}x{g.m_b}")


@pytest.mark.parametrize("g,bound,sum_type,value_type", list(tier_games()))
def test_scan_type_follows_the_bound(monkeypatch, g, bound, sum_type, value_type):
    # each buffer in the narrowest exact type for its bound: int16 below 2^15,
    # int32 below 2^31, int64 below 2^62, else object; the column sums are
    # the rows, and the value type is the ladder's second answer in the scan
    types = []
    exact_type = classical._exact_type

    def recorded(b):
        types.append((b, exact_type(b)))
        return types[-1][1]

    monkeypatch.setattr(classical, "_exact_type", recorded)
    opt = classical._enumerate(g, classical.DEFAULT_ENUM_CAP, keep=1)
    assert types == [(bound // max(g.m_a, g.m_b), sum_type), (bound, value_type)]
    assert opt.rows.dtype == sum_type
    # a value type one step too narrow would wrap the optimum, which is the bound
    assert classical_bias(g).xi_c == oracle_bias(g)[0] == bound
    assert_matches_block_reference(g)


def inner_product_game(m_a, m_b):
    """Uniform prior, ``f(x, y)`` the parity of ``x & y``: many optima, many ties."""
    q = [[Fraction(1, m_a * m_b)] * m_b for _ in range(m_a)]
    return build_game(q, [[bin(x & y).count("1") % 2 for y in range(m_b)] for x in range(m_a)])


def spread_optima_games():
    # tied games whose optima fill 3-4 chunks of one high pattern, with
    # zero column sums among them
    for m_a, m_b, seed in ((8, 8, 10), (9, 7, 5)):
        g = tied_game(np.random.default_rng([m_a, m_b, seed]), m_a, m_b, max_weight=1)
        yield pytest.param(g, id=f"tied{m_a}x{m_b}")
    yield pytest.param(inner_product_game(6, 10), id="inner_product6x10")


@pytest.mark.parametrize("g", list(spread_optima_games()))
def test_int32_rows_rebuilt_across_chunks(monkeypatch, g):
    # one high pattern per chunk: the optima fall in several chunks, and a
    # keep that stops between two optima of one chunk cuts it
    m, mb = sorted((g.m_a, g.m_b))
    k = m // 2
    monkeypatch.setattr(classical, "_CHUNK", mb << k)
    best, den, swapped, _, ref = _reference_rows(g)
    assert any(v == 0 for _, col in ref for v in col)
    chunks = [p >> k for p, _ in ref if p < 1 << (m - 1)]
    assert len(set(chunks)) >= 3
    cuts = [i + 1 for i in range(len(chunks) - 1) if chunks[i] == chunks[i + 1]]
    assert cuts
    for keep in (cuts[0], cuts[-1], len(chunks), len(ref)):
        opt = classical._enumerate(g, classical.DEFAULT_ENUM_CAP, keep=keep)
        assert opt.rows.dtype == np.int16  # the column-sum type: m * max|L Phi| = m < 2^15
        assert (opt.xi_c, opt.count, opt.swapped) == (Fraction(best, den), len(ref), swapped)
        assert opt.rows.tolist() == [col for _, col in ref[:keep]]
        assert opt.alphas.tolist() == [
            [1 - 2 * ((p >> j) & 1) for j in range(m)] for p, _ in ref[:keep]
        ]


def test_scan_buffers_are_sized_to_the_chunk():
    # 8 x 8 scans 8 high patterns of 16 low ones: its buffers hold 8 x 8 x 16
    # sums, not the _CHUNK that a step could span
    g = tied_game(np.random.default_rng(3), 8, 8)
    classical._enumerate(g, classical.DEFAULT_ENUM_CAP, keep=10)
    tracemalloc.start()
    try:
        classical._enumerate(g, classical.DEFAULT_ENUM_CAP, keep=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * classical._CHUNK // 2  # half a full int32 chunk
