"""Exact face dimensions, bounds, verdicts, and the quantum face probe."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightbell import (
    affine_dimension_exact,
    embed_vertex,
    face_report,
    face_report_to_dict,
    facegeom,
    make_named,
    optimal_vertices,
    quantum_face_probe,
    theorem1_dim_bound,
    theorem2_codim_bound,
    trivial_facet_check,
)
from tightbell.errors import (
    EmptyInput,
    InvalidDims,
    InvalidParameter,
    NotApplicable,
    ShapeMismatch,
    TooLarge,
)
from tightbell.facegeom import LOWER_BOUND, MEASURED
from tightbell.game import DeterministicStrategy, build_game, lift_strategy, reduce_exhaustive
from tightbell.qsdp import SolveConfig

from .generators import random_game
from .oracles import oracle_affine_dim

Q = Fraction(1, 4)


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


def test_embed_all_ones():
    e = embed_vertex(DeterministicStrategy(alpha=(1, 1), beta=(1, 1)))
    assert e == (1, 1, 1, 1, 1, 1, 1, 1)
    assert len(e) == 8  # D = 2*2 + 2 + 2


def test_embed_row_major_tail():
    e = embed_vertex(DeterministicStrategy(alpha=(1, -1), beta=(1, 1)))
    assert e[4:] == (1, 1, -1, -1)
    assert e[:2] == (1, -1) and e[2:4] == (1, 1)


def test_embed_roundtrip():
    v = DeterministicStrategy(alpha=(1, -1, 1), beta=(-1, 1))
    e = embed_vertex(v)
    assert e[:3] == v.alpha
    assert e[3:5] == v.beta


# ---------------------------------------------------------------------------
# exact affine dimension
# ---------------------------------------------------------------------------


def test_affine_dim_basics():
    assert affine_dimension_exact([(1, 1)]) == 0
    assert affine_dimension_exact([(1, 1), (1, -1), (-1, 1)]) == 2
    with pytest.raises(EmptyInput):
        affine_dimension_exact([])
    with pytest.raises(ShapeMismatch):
        affine_dimension_exact([(1,), (1, 2)])


def test_affine_dim_identity1_face():
    pts = [embed_vertex(v) for v in optimal_vertices(make_named("identity", 1)).vertices]
    assert affine_dimension_exact(pts) == 3  # m + m(m-1)/2 at m = 2


@settings(max_examples=60, deadline=None)
@given(
    n_pts=st.integers(2, 7),
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**31),
    scale=st.sampled_from([1, 2**30]),  # 2^30 breaks the float bound: Bareiss path
)
def test_affine_dim_invariances_and_oracle(n_pts, dim, seed, scale):
    rng = np.random.default_rng(seed)
    pts = [
        tuple(scale * int(v) for v in rng.integers(-3, 4, size=dim)) for _ in range(n_pts)
    ]
    d = affine_dimension_exact(pts)
    assert d == oracle_affine_dim(pts)
    perm = [pts[i] for i in rng.permutation(n_pts)]
    assert affine_dimension_exact(perm) == d  # permutation invariance
    rolled = pts[1:] + pts[:1]
    assert affine_dimension_exact(rolled) == d  # base-point invariance


@pytest.mark.parametrize(
    "pts",
    [
        # the echelon coefficient 40009/40013 has a denominator above sqrt(p/2)
        [(0, 0), (40013, 40009), (80026, 80018)],
        # det = 46341^2 - 2 * 2317 = 2^31 - 1: full rank over Q, singular mod p
        [(0, 0), (46341, 2), (2317, 46341)],
        # det = 2^31 - 1 again, but the echelon form 1/32767 lifts: only the
        # exact identity check refutes the rank-1 certificate
        [(0, 0), (1, -65538), (32768, -65537)],
        # max|M|^2 * rows reaches 2^53: the Gram matrix is not exact in float64
        [(0, 0, 0), (2**27, 0, 2**27), (0, 2**27, 2**27), (2**27, 2**27, 2 * 2**27)],
        # beyond int64
        [(0, 1), (2**70, 1), (2**71, 2)],
    ],
    ids=["reconstruction", "unlucky-prime", "lifted-unlucky-prime", "float-bound", "beyond-int64"],
)
def test_affine_dim_fallback_matches_oracle(pts, bareiss_calls):
    assert affine_dimension_exact(pts) == oracle_affine_dim(pts)
    assert len(bareiss_calls) == 1


def test_affine_dim_certificate_without_fallback(bareiss_calls):
    # rank-deficient with a non-integer echelon form: the lifted certificate
    # (denominator 5) proves the rank, Bareiss never runs
    pts = np.array([(0, 0, 0), (3, 1, 2), (6, 2, 4), (1, 2, 1), (4, 3, 3)])
    assert affine_dimension_exact(pts) == oracle_affine_dim(pts.tolist()) == 2
    assert bareiss_calls == []


@pytest.mark.parametrize(
    "pts",
    [
        [[0.5, 0], [0, 0.5], [0, 0]],
        [[2.0, 0], [0, 1], [0, 0]],  # integral, but a float
        [[Fraction(1, 2), 0], [0, Fraction(1, 3)], [0, 0]],
        np.array([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]]),
    ],
    ids=["floats", "integral-float", "fractions", "float-array"],
)
def test_affine_dim_rejects_non_integers(pts):
    with pytest.raises(InvalidParameter):
        affine_dimension_exact(pts)


def test_affine_dim_takes_integer_objects_beyond_int64():
    pts = [(2**70, 0, 1), (0, 2**65 + 1, 1), (0, 0, 1), (2**70, 2**65 + 1, 1)]
    assert affine_dimension_exact(np.array(pts, dtype=object)) == oracle_affine_dim(pts) == 2


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims,expected", [((2, 2), 3), ((1, 1), 1), ((4, 4), 10), ((7, 3), 6)])
def test_theorem1_bound(dims, expected):
    assert theorem1_dim_bound(*dims) == expected


def test_theorem2_bounds():
    b = theorem2_codim_bound(3, 3, 2, 2)
    assert b.delta_full == 2 + 3 * 0 + 3 == 5
    assert theorem2_codim_bound(2, 2, 2, 2).delta_full == 5
    assert theorem2_codim_bound(1, 1, 1, 1).delta_corr == 1
    # normalization swaps sides so the smaller reduced side counts as Alice
    assert theorem2_codim_bound(5, 4, 3, 2) == theorem2_codim_bound(4, 5, 2, 3)
    with pytest.raises(InvalidDims):
        theorem2_codim_bound(1, 1, 2, 1)
    with pytest.raises(InvalidDims):
        theorem2_codim_bound(0, 1, 0, 1)


# ---------------------------------------------------------------------------
# trivial facets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args,dim",
    [((2, 2, 0, 0, 1), 3), ((1, 1, 0, 0, -1), 0), ((2, 3, 1, 2, -1), 5)],
)
def test_trivial_facet_examples(args, dim):
    rep = trivial_facet_check(*args)
    assert rep.dim == dim
    assert rep.is_facet


def test_trivial_facet_errors():
    with pytest.raises(InvalidDims):
        trivial_facet_check(2, 2, 2, 0, 1)
    with pytest.raises(InvalidDims):
        trivial_facet_check(2, 2, 0, 0, 2)
    with pytest.raises(TooLarge):
        trivial_facet_check(20, 20, 0, 0, 1)


# ---------------------------------------------------------------------------
# face reports
# ---------------------------------------------------------------------------


def test_face_report_chsh_is_facet():
    rep = face_report(make_named("chsh"))
    assert rep.xi_c == Fraction(1, 2)
    assert rep.classification == "advantage"
    assert rep.num_vertices == 8
    assert rep.dim_full == 7 == rep.D - 1
    assert rep.is_facet_full is True
    assert rep.dim_corr == 3 and rep.is_facet_corr is True
    assert rep.provenance == {"dim_full": MEASURED, "dim_corr": MEASURED}


def test_face_report_identity2_equality_case():
    rep = face_report(make_named("identity", 2))
    assert rep.dim_full == 10  # 2^n + 2^(n-1)(2^n - 1), attained with equality
    assert rep.D == 24 and rep.codim_full == 14
    assert rep.dim_corr == 6
    assert rep.is_facet_full is False and rep.is_facet_corr is False
    assert rep.classification == "no_advantage"
    assert rep.dim_full <= rep.bound_thm1_dim
    assert rep.codim_full == rep.bound_thm2_codim  # equality case


def test_face_report_appendix_d2():
    rep = face_report(make_named("appendix_d", 2))
    assert rep.dim_corr == 3  # 1 + 2^(n-1)(2^n - 3)
    assert rep.codim_corr == 13
    assert rep.classification == "no_advantage"
    assert rep.is_facet_corr is False


def test_face_report_single_entry_trivial_corr_facet():
    rep = face_report(make_named("single_entry"))
    assert rep.dim_corr == 0 and rep.is_facet_corr is True
    assert rep.is_facet_full is False


def test_face_report_padded_game_lifts_vertices():
    q = [[Q, Q, 0], [Q, Q, 0], [0, 0, 0]]
    f = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    rep = face_report(build_game(q, f))
    assert (rep.m_a, rep.m_b) == (3, 3) and (rep.reduced_m_a, rep.reduced_m_b) == (2, 2)
    assert rep.num_vertices == 8 * 4  # all completions of the dropped signs
    assert not rep.truncated
    # free coordinates add 1 (marginal) + 1 (marginal) + 5 (correlators) dims
    assert rep.dim_full > 7
    assert rep.provenance["dim_full"] == MEASURED


def test_face_report_thm2_fallback_no_advantage():
    # padded identity(1): 16 lifted vertices pass a cap of 10, but the cap
    # bounds only the 4 reduced ones, and the dimensions stay exact
    h = Fraction(1, 2)
    g = build_game([[h, 0, 0], [0, h, 0], [0, 0, 0]], [[0] * 3 for _ in range(3)])
    rep = face_report(g, vertex_cap=10)
    assert rep.provenance == {"dim_full": MEASURED, "dim_corr": MEASURED}
    assert not rep.truncated
    assert rep.num_vertices == 16
    assert (rep.dim_full, rep.dim_corr) == (10, 6)
    assert rep.is_facet_full is False and rep.is_facet_corr is False
    emb, corr = _lifted_embeddings(g)
    assert len(emb) == 16
    assert (rep.dim_full, rep.dim_corr) == (oracle_affine_dim(emb), oracle_affine_dim(corr))


def test_face_report_thm2_fallback_advantage_reports_reduced_dims():
    # padded CHSH at the same cap: a facet, measured exactly
    g = build_game([[Q, Q, 0], [Q, Q, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    rep = face_report(g, vertex_cap=10)
    assert rep.provenance["dim_full"] == MEASURED and not rep.truncated
    assert rep.dim_full == 14 == rep.D - 1
    assert rep.is_facet_full is True
    emb, _ = _lifted_embeddings(g)
    assert rep.dim_full == oracle_affine_dim(emb)


def _lifted_embeddings(g):
    """Embeddings (full, correlation) of every optimal vertex of ``g``, built from
    the reduced ones by ``lift_strategy`` on every fill of the dropped signs."""
    reduced, rmap = reduce_exhaustive(g)
    d_a, d_b = g.m_a - reduced.m_a, g.m_b - reduced.m_b
    fills = list(itertools.product((1, -1), repeat=d_a + d_b))
    emb = [
        embed_vertex(lift_strategy(v, rmap, fill[:d_a], fill[d_a:]))
        for v in optimal_vertices(reduced).vertices
        for fill in fills
    ]
    return emb, [e[g.m_a + g.m_b :] for e in emb]


def _pad(core, rows, cols):
    """``core`` with never-asked questions inserted at the given original indices."""
    m_a, m_b = core.m_a + len(rows), core.m_b + len(cols)
    kept_r = [x for x in range(m_a) if x not in rows]
    kept_c = [y for y in range(m_b) if y not in cols]
    q = [[Fraction(0)] * m_b for _ in range(m_a)]
    f = [[0] * m_b for _ in range(m_a)]
    for i, x in enumerate(kept_r):
        for j, y in enumerate(kept_c):
            q[x][y], f[x][y] = core.q[i][j], core.f[i][j]
    return build_game(q, f)


@st.composite
def padded_games(draw):
    """Cores up to 3 x 3 with small weights (zero allowed, so ties and
    no-advantage games are common), padded with 0-3 never-asked questions a side."""
    m_a, m_b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    w = draw(st.lists(st.sampled_from([1, 2, 3, 0]), min_size=m_a * m_b, max_size=m_a * m_b))
    if not any(w):
        w[0] = 1
    bits = draw(st.integers(0, (1 << m_a * m_b) - 1))
    total = sum(w)
    core = build_game(
        [[Fraction(w[x * m_b + y], total) for y in range(m_b)] for x in range(m_a)],
        [[bits >> (x * m_b + y) & 1 for y in range(m_b)] for x in range(m_a)],
    )
    d_a, d_b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rows = draw(st.sets(st.integers(0, m_a + d_a - 1), min_size=d_a, max_size=d_a))
    cols = draw(st.sets(st.integers(0, m_b + d_b - 1), min_size=d_b, max_size=d_b))
    return _pad(core, rows, cols)


@settings(max_examples=40, deadline=None)
@given(g=padded_games())
def test_face_report_matches_the_lift_and_theorem2(g):
    rep = face_report(g)
    emb, corr = _lifted_embeddings(g)
    assert not rep.truncated
    assert rep.num_vertices == len(emb)
    assert rep.dim_full == oracle_affine_dim(emb)
    assert rep.dim_corr == oracle_affine_dim(corr)
    if rep.classification == "no_advantage":  # the paper's Theorem 2
        assert rep.codim_full >= rep.bound_thm2_codim
        assert rep.codim_corr >= rep.bound_thm2_codim_corr


@pytest.mark.parametrize(
    "core",
    [make_named("chsh"), make_named("identity", 1), make_named("identity", 2),
     make_named("appendix_d", 2), make_named("single_entry")]
    + [random_game(np.random.default_rng(19 + k), max_a=3, max_b=3) for k in range(3)],
    ids=["chsh", "identity1", "identity2", "appendix_d2", "single_entry", "r0", "r1", "r2"],
)
@pytest.mark.parametrize("rows,cols", [({0}, set()), (set(), {1, 2}), ({1}, {0, 2})])
def test_face_report_does_not_depend_on_the_cap(core, rows, cols):
    # a complete reduced vertex set gives the same report at any cap it fits
    g = _pad(core, rows, cols)
    full = face_report(g)
    n_reduced = full.num_vertices >> len(rows) + len(cols)
    assert not full.truncated
    capped = face_report(g, vertex_cap=n_reduced)
    assert face_report_to_dict(capped) == face_report_to_dict(full)


_TRUNCATION_GAMES = (
    [make_named("chsh"), make_named("identity", 1), make_named("identity", 2),
     make_named("appendix_d", 2), make_named("nlc_and", 2), make_named("single_entry")]
    + [random_game(np.random.default_rng(61 + k), max_a=4, max_b=4) for k in range(4)]
    + [random_game(np.random.default_rng(71 + k), max_a=4, max_b=4, max_weight=2)
       for k in range(6)]
)


@pytest.mark.parametrize("core", _TRUNCATION_GAMES)
@pytest.mark.parametrize("rows,cols", [(set(), set()), ({0}, {1})])
def test_truncated_dimensions_are_lower_bounds(core, rows, cols):
    # a complete vertex set is closed under flipping every answer, which the
    # full-space dimension formula relies on; a truncated one bounds it below
    vertices = {(v.alpha, v.beta) for v in optimal_vertices(core).vertices}
    assert {(tuple(-a for a in al), tuple(-b for b in be)) for al, be in vertices} == vertices
    g = _pad(core, rows, cols)
    full = face_report(g)
    assert not full.truncated
    for cap in range(1, 6):
        capped = face_report(g, vertex_cap=cap)
        if not capped.truncated:
            continue
        assert capped.dim_full <= full.dim_full and capped.dim_corr <= full.dim_corr
        assert capped.provenance == {"dim_full": LOWER_BOUND, "dim_corr": LOWER_BOUND}
        assert capped.is_facet_full is None and capped.is_facet_corr is None


def test_truncated_full_dimension_uses_linear_sign_ranks():
    # padded CHSH, one never-asked row and column, 3 of 8 reduced vertices:
    # the sign-row ranks with the origin give (12, 7); affine ranks would
    # give (10, 5) and the complete face is (14, 8)
    g = _pad(make_named("chsh"), {2}, {2})
    capped = face_report(g, vertex_cap=3)
    assert capped.truncated
    assert (capped.dim_full, capped.dim_corr) == (12, 7)
    full = face_report(g)
    assert (full.dim_full, full.dim_corr) == (14, 8)


def test_face_report_supporting_hyperplane_property():
    rng = np.random.default_rng(53)
    for _ in range(8):
        g = random_game(rng, max_a=4, max_b=4)
        vs = optimal_vertices(g)
        from tightbell import bias_of_strategy, classical_bias

        xi = classical_bias(g).xi_c
        assert all(bias_of_strategy(g, v) == xi for v in vs.vertices)
        found = {(v.alpha, v.beta) for v in vs.vertices}
        for _ in range(10):
            from .generators import random_strategy

            s = random_strategy(rng, g.m_a, g.m_b)
            if (s.alpha, s.beta) not in found:
                assert bias_of_strategy(g, s) < xi


def test_face_report_non_exhaustive_matches_oracle_and_direct_path():
    # the double-loop oracle on a padded game enumerates every completion of
    # the never-asked signs by itself, so it independently validates the
    # whole reduce -> enumerate -> padded-dimension pipeline; direct
    # enumeration of the padded game is a third route and must agree exactly
    from tightbell import optimal_vertices as direct_vertices
    from .oracles import oracle_bias

    rng = np.random.default_rng(83)
    for _ in range(6):
        core = random_game(rng, max_a=3, max_b=3, min_a=2, min_b=2)
        row_at = int(rng.integers(0, core.m_a + 1))
        col_at = int(rng.integers(0, core.m_b + 1))
        padded = _pad(core, {row_at}, {col_at})

        _, pairs = oracle_bias(padded, collect_pairs=True)
        direct = {(v.alpha, v.beta) for v in direct_vertices(padded).vertices}
        assert direct == set(pairs)

        rep = face_report(padded)
        assert rep.num_vertices == len(pairs)
        emb = [a + b + tuple(x * y for x in a for y in b) for a, b in pairs]
        corr = [tuple(x * y for x in a for y in b) for a, b in pairs]
        assert rep.dim_full == oracle_affine_dim(emb)
        assert rep.dim_corr == oracle_affine_dim(corr)


def test_face_report_dict_roundtrips_to_json():
    import json

    rep = face_report(make_named("identity", 1))
    payload = face_report_to_dict(rep)
    text = json.dumps(payload)
    assert json.loads(text)["dim_full"] == 3
    assert payload["certificate"]["classification"] == "no_advantage"
    assert payload["xi_c"] == "1"


# ---------------------------------------------------------------------------
# quantum face probe
# ---------------------------------------------------------------------------


def test_probe_identity1_finds_the_free_direction():
    rep = quantum_face_probe(make_named("identity", 1))
    assert rep.thm3_bound == 1
    assert rep.dim_lower_bound == 1
    assert rep.samples_used > 0


def test_probe_single_entry_is_rigid():
    rep = quantum_face_probe(make_named("single_entry"))
    assert rep.thm3_bound == 0
    assert rep.dim_lower_bound == 0
    # the sample seeds past the base seed wrap around 2^64
    rep = quantum_face_probe(make_named("single_entry"), solve_cfg=SolveConfig(seed=2**64 - 1))
    assert rep.dim_lower_bound == 0 and rep.samples_used > 0


def test_probe_not_applicable_for_advantage_games():
    with pytest.raises(NotApplicable):
        quantum_face_probe(make_named("chsh"))


@pytest.mark.parametrize(
    "name,n",
    [("chsh", None), ("identity", 1), ("identity", 2), ("identity", 3),
     ("appendix_d", 2), ("appendix_d", 3), ("padded", None)],
)
def test_face_report_takes_the_modular_path(name, n, bareiss_calls):
    if name == "padded":  # identity(2) with a never-asked question on each side
        h = Fraction(1, 4)
        q = [[h, 0, 0, 0, 0], [0, h, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, h, 0], [0, 0, 0, 0, h]]
        g = build_game(q, [[0] * 5 for _ in range(5)])
    else:
        g = make_named(name) if n is None else make_named(name, n)
    rep = face_report(g)
    assert rep.provenance["dim_full"] == MEASURED
    if name == "padded":
        assert (rep.m_a, rep.reduced_m_a, rep.num_vertices) == (5, 4, 16 * 4)
    assert bareiss_calls == []


def test_certified_rank_in_row_blocks(monkeypatch, bareiss_calls):
    # blocks of one or a few rows: Gram sums and identity checks span blocks
    games = [make_named("identity", 3), make_named("appendix_d", 3), make_named("chsh")]
    dims = [(r.dim_full, r.dim_corr) for r in map(face_report, games)]
    certified = np.array([(0, 0, 0), (3, 1, 2), (6, 2, 4), (1, 2, 1), (4, 3, 3)])
    # rank 1 mod p with the lifted relation col1 = 32767 col2, which the first
    # difference satisfies: only the identity check on later rows refutes it
    refuted = [(0, 0), (32767, 1), (1, -65538), (32768, -65537)]
    for entries in (1, 5, 64):
        monkeypatch.setattr(facegeom, "_BLOCK_ENTRIES", entries)
        assert [(r.dim_full, r.dim_corr) for r in map(face_report, games)] == dims
        assert affine_dimension_exact(certified) == 2
        assert affine_dimension_exact(refuted) == oracle_affine_dim(refuted) == 2
    assert bareiss_calls == [3, 3, 3]  # the refuted certificate, once per block size


def test_face_report_appendix_d4_exact():
    from tightbell import g0_dimension

    rep = face_report(make_named("appendix_d", 4))
    assert rep.num_vertices == 12872
    assert rep.provenance == {"dim_full": MEASURED, "dim_corr": MEASURED}
    assert rep.dim_full == 121
    assert rep.dim_corr == 105 == 1 + g0_dimension(4).formula_value
    assert rep.is_facet_full is False


def test_face_report_enumerates_once(enumerations):
    rep = face_report(make_named("appendix_d", 2))
    assert len(enumerations) == 1
    assert rep.xi_c == Fraction(1, 2)
