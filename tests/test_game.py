"""Game construction, named families, reductions, behaviours, file format."""

import random
from decimal import Decimal
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightbell import (
    bias_of_behaviour,
    bias_of_strategy,
    build_game,
    make_named,
    ns_perfect_behaviour,
    reduce_exhaustive,
)
from tightbell.errors import (
    EmptyGame,
    GameFormatError,
    InvalidParameter,
    NegativePrior,
    NotNormalized,
    ShapeMismatch,
    TooLarge,
    UnknownName,
)
from tightbell.game import (
    MAX_FAMILY_N,
    Behaviour,
    DeterministicStrategy,
    XorGame,
    _rational_matrix,
    circulant_game,
    game_from_dict,
    game_to_dict,
    load_game,
    save_game,
    signed_matrix,
)

from tightbell.qsdp import MAX_SDP_SIDE

from .generators import random_game, random_nlc_spec, random_strategy
from .oracles import oracle_is_no_signalling, reference_build_game

H = Fraction(1, 2)
Q = Fraction(1, 4)


def chsh():
    return build_game([[Q, Q], [Q, Q]], [[0, 0], [0, 1]])


# ---------------------------------------------------------------------------
# build_game / the game matrix
# ---------------------------------------------------------------------------


def test_build_single_entry():
    g = build_game([[1]], [[0]])
    assert (g.m_a, g.m_b) == (1, 1)
    assert g.matrix.phi == ((Fraction(1),),)


def test_build_chsh_matches_named():
    assert chsh() == make_named("chsh")


def test_build_accepts_rational_strings():
    g = build_game([["1/2", "0.5"]], [[0, 0]])
    assert g.q == ((H, H),)


def test_build_rejects_floats():
    with pytest.raises(GameFormatError):
        build_game([[0.5, 0.5]], [[0, 0]])


def test_build_validation_errors():
    with pytest.raises(ShapeMismatch):
        build_game([[H, H]], [[0]])
    with pytest.raises(ShapeMismatch):
        build_game([[H, H]], [[0, 2]])
    with pytest.raises(NegativePrior):
        build_game([[Fraction(3, 2), Fraction(-1, 2)]], [[0, 0]])
    with pytest.raises(NotNormalized):
        build_game([[H, Q]], [[0, 0]])
    # appending zero rows keeps validity as long as the sum stays 1
    g = build_game([[H, H], [0, 0]], [[0, 0], [0, 0]])
    assert g.m_a == 2


def test_build_error_texts_and_their_order():
    with pytest.raises(NotNormalized) as info:
        build_game([[H, Q]], [[0, 0]])
    assert str(info.value) == "prior sums to 3/4, expected exactly 1"
    # negative entries are refused before the sum is read, here 1/4
    with pytest.raises(NegativePrior, match=r"^prior entries must be >= 0$"):
        build_game([[H, -Q]], [[0, 0]])
    # of a float and a bad literal, the entry that comes first is refused
    with pytest.raises(GameFormatError, match=r"^exact rational required, got float"):
        build_game([[0.5, "x"]], [[0, 0]])
    with pytest.raises(GameFormatError, match=r"^not a rational literal: 'x'$"):
        build_game([["x", 0.5]], [[0, 0]])


@pytest.mark.parametrize(
    "literal",
    [
        # read by int: ASCII digits, with or without one "/"
        "03/004", "0/7", "2/6", "7", "000", "1/3", "12345678901234567890/3",
        # read by Fraction's regex, or refused by it
        "1/0", "0/0", "1/00", "-1/4", " 1/4", "1/4 ", "+1/4", "1_0/3", "1/-4",
        "\u0663/4", "1/\u0663", "\u00b2/4", "0.25", "1e3", "", "/4", "1/", "1/2/3",
        "9" * 5000, "1/" + "9" * 5000,  # past int's digit limit
    ],
)
def test_file_literals_read_as_fraction_reads_them(literal):
    # the int path and the regex path give Fraction(literal), and where
    # Fraction refuses a literal, the game file is refused as before
    try:
        expected = Fraction(literal)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(GameFormatError, match=r"^not a rational literal: "):
            _rational_matrix([[literal]])
    else:
        ((got,),) = _rational_matrix([[literal]])
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


# exact spellings of a prior value, and entries that are not one
_LITERALS = ("1/3", "0.25", "2/6", "1/2", "0", "-1/4", "3/4", "1/0", "x")
_OFF_ENTRIES = st.one_of(
    st.integers(-2, 2),
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
    st.sampled_from(_LITERALS),
    st.sampled_from([0.5, 0.25, None]),
)


@st.composite
def game_data(draw):
    """Priors summing to 1 in mixed spellings, then some entries, bits or rows spoiled."""
    m_a, m_b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(0, 3), min_size=m_a * m_b, max_size=m_a * m_b))
    total = sum(weights) or 1

    def entry(w):
        v = Fraction(w, total)
        spellings = [v, str(v), f"{2 * v.numerator}/{2 * v.denominator}"]
        if v.denominator == 1:
            spellings.append(int(v))
        if 10**4 % v.denominator == 0:
            spellings.append(str(Decimal(v.numerator) / v.denominator))
        return draw(st.sampled_from(spellings))

    q = [[entry(weights[x * m_b + y]) for y in range(m_b)] for x in range(m_a)]
    f = [[draw(st.integers(0, 1)) for _ in range(m_b)] for _ in range(m_a)]
    cells = st.tuples(st.integers(0, m_a - 1), st.integers(0, m_b - 1))
    # floats of the prior's own values too: a cache keyed by value would take them
    as_floats = st.sampled_from([float(Fraction(w, total)) for w in weights])
    for x, y in draw(st.lists(cells, max_size=2)):
        q[x][y] = draw(_OFF_ENTRIES | as_floats)
    spoil = st.sampled_from((None, None, None, None, "bit", "row"))
    if (spoiled := draw(spoil)) == "bit":
        x, y = draw(cells)
        f[x][y] = draw(st.sampled_from([2, -1, 0.0, True]))
    elif spoiled == "row":
        del draw(st.sampled_from((q, f)))[draw(st.integers(0, m_a - 1))][-1]
    return q, f


def _outcome(build, q, f):
    try:
        return build(q, f)
    except Exception as exc:  # the exception is part of the outcome compared
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=game_data())
def test_build_game_matches_fraction_sum_reference(data):
    q, f = data
    assert _outcome(build_game, q, f) == _outcome(reference_build_game, q, f)


@st.composite
def signed_data(draw):
    """Exact ``(q, f)`` with zero entries, repeated denominators and denominators past 2^64."""
    m_a, m_b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    some = st.sampled_from([1, 2, 3, 6, 7, 2**64 + 13, 3 * 2**70]) | st.integers(1, 10**30)
    dens = draw(st.lists(some, min_size=1, max_size=3))  # shared by the entries: repeats
    entries = st.builds(Fraction, st.integers(0, 2**80), st.sampled_from(dens))
    entries |= st.just(Fraction(0))
    q = [[draw(entries) for _ in range(m_b)] for _ in range(m_a)]
    f = [[draw(st.integers(0, 1)) for _ in range(m_b)] for _ in range(m_a)]
    return q, f


@settings(max_examples=200, deadline=None)
@given(data=signed_data())
def test_signed_matrix_matches_fraction_arithmetic(data):
    q, f = data
    L = lcm(*(v.denominator for row in q for v in row))
    gm = signed_matrix(q, f)
    assert gm.denominator == L
    ints = gm.ints.tolist()
    assert ints == [[(-1) ** b * v * L for v, b in zip(qr, fr)] for qr, fr in zip(q, f)]
    assert all(type(v) is int for row in ints for v in row)


@st.composite
def padded_game_data(draw):
    """:func:`signed_data` normalized, with 0-2 never-asked questions inserted a side."""
    q, f = draw(signed_data())
    total = sum(map(sum, q))
    if not total:
        q[0][0] = total = Fraction(1)
    q = [[v / total for v in row] for row in q]
    for _ in range(draw(st.integers(0, 2))):
        x = draw(st.integers(0, len(q)))
        q.insert(x, [Fraction(0)] * len(q[0]))
        f.insert(x, [draw(st.integers(0, 1)) for _ in q[0]])
    for _ in range(draw(st.integers(0, 2))):
        y = draw(st.integers(0, len(q[0])))
        for qr, fr in zip(q, f):
            qr.insert(y, Fraction(0))
            fr.insert(y, draw(st.integers(0, 1)))
    return q, f


SMALL_MEMBERS = [("chsh", None), ("single_entry", None)]
SMALL_MEMBERS += [(key, n) for key in ("identity", "nlc_and") for n in range(1, 5)]
SMALL_MEMBERS += [("appendix_d", n) for n in range(2, 5)]


@settings(max_examples=100, deadline=None)
@given(
    raw=signed_data(),
    padded=padded_game_data(),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    member=st.sampled_from(SMALL_MEMBERS),
)
def test_every_builder_holds_the_signed_matrix_of_its_data(raw, padded, n, seed, member):
    # the matrix a game is built with is signed_matrix of its data, whichever
    # builder made it, in the same type and read-only; it takes no part in
    # equality, hashing or repr
    built = build_game(*padded)
    q, f = (tuple(map(tuple, rows)) for rows in raw)
    spec = random_nlc_spec(np.random.default_rng(seed), n)
    games = [
        built,
        reduce_exhaustive(built),
        XorGame(len(q), len(q[0]), q, f),
        circulant_game(spec.q_tilde, spec.f_z),
        make_named(*member),
    ]
    for g in games:
        want = signed_matrix(g.q, g.f)
        assert g.matrix.denominator == want.denominator
        assert g.matrix.ints.dtype == want.ints.dtype
        assert np.array_equal(g.matrix.ints, want.ints)
        assert not g.matrix.ints.flags.writeable
        twin = XorGame(g.m_a, g.m_b, g.q, g.f)
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)


def test_game_matrix_chsh():
    phi = chsh().matrix.phi
    assert phi == ((Q, Q), (Q, -Q))


def test_game_matrix_no_flips_equals_q():
    g = build_game([[H, Q], [Q, 0]], [[0, 0], [0, 0]])
    assert g.matrix.phi == g.q


def test_game_matrix_single_negative():
    g = build_game([[1]], [[1]])
    assert g.matrix.phi == ((Fraction(-1),),)


def test_abs_phi_sums_to_one_on_random_games():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_game(rng)
        assert sum(abs(v) for row in g.matrix.phi for v in row) == 1


# ---------------------------------------------------------------------------
# reduce_exhaustive
# ---------------------------------------------------------------------------


def test_reduce_identity_on_exhaustive():
    g = chsh()
    assert reduce_exhaustive(g) is g


def test_reduce_drops_zero_row():
    g = build_game([[H, 0], [H, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]])
    red = reduce_exhaustive(g)
    assert (red.m_a, red.m_b) == (2, 1)
    assert red.q == ((H,), (H,))
    assert red.f == ((0,), (1,))
    # never-asked questions first and in between; the rest keep their order
    g = build_game(
        [[0, 0, 0], [Q, 0, Q], [0, 0, 0], [Q, 0, Q]],
        [[1, 1, 1], [0, 1, 1], [1, 0, 1], [1, 0, 0]],
    )
    red = reduce_exhaustive(g)
    assert red.q == ((Q, Q), (Q, Q))
    assert red.f == ((0, 1), (1, 0))


def test_reduce_rejects_all_zero():
    from tightbell.game import XorGame

    g = XorGame(m_a=1, m_b=1, q=((Fraction(0),),), f=((0,),))
    with pytest.raises(EmptyGame):
        reduce_exhaustive(g)


def test_padded_chsh_roundtrip_and_bias_lift():
    # a strategy of the padded game has the bias of its restriction to the
    # asked questions, whatever it answers to the never-asked ones
    base = chsh()
    q = [[Q, Q, 0], [Q, Q, 0], [0, 0, 0]]
    f = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    padded = build_game(q, f)
    red = reduce_exhaustive(padded)
    assert red == base
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = random_strategy(rng, padded.m_a, padded.m_b)
        kept = DeterministicStrategy(alpha=s.alpha[:2], beta=s.beta[:2])
        assert bias_of_strategy(padded, s) == bias_of_strategy(red, kept)


# ---------------------------------------------------------------------------
# behaviours and biases
# ---------------------------------------------------------------------------


def test_bias_examples():
    g = chsh()
    ones = Behaviour(alpha=(0, 0), beta=(0, 0), c=((1, 1), (1, -1)))
    assert bias_of_behaviour(g, ones) == 1
    zero = Behaviour(alpha=(0, 0), beta=(0, 0), c=((0, 0), (0, 0)))
    assert bias_of_behaviour(g, zero) == 0
    s = DeterministicStrategy(alpha=(1, 1), beta=(1, 1))
    assert bias_of_strategy(g, s) == H


def test_bias_shape_mismatch():
    g = chsh()
    with pytest.raises(ShapeMismatch):
        bias_of_behaviour(g, Behaviour(alpha=(0,), beta=(0, 0), c=((0, 0),)))


@pytest.mark.parametrize(
    "entry", [1.0, True, Fraction(1), np.float64(1), 0, 2, -1.0, np.True_],
    ids=["float", "bool", "fraction", "np_float64", "zero", "two", "minus_float", "np_bool"],
)
def test_strategy_refuses_non_integer_or_non_sign_entries(entry):
    # 1.0 or True would make the bias a float, breaking its exactness
    with pytest.raises(ShapeMismatch):
        DeterministicStrategy(alpha=(entry, 1), beta=(-1, 1))
    with pytest.raises(ShapeMismatch):
        DeterministicStrategy(alpha=(1, 1), beta=(-1, entry))


def _wide_denominator_game(rng: random.Random, m_a: int, m_b: int):
    # weights up to 2^70, so the common denominator passes 2^64
    w = [[rng.randrange(1, 2**70) for _ in range(m_b)] for _ in range(m_a)]
    total = sum(map(sum, w))
    f = [[rng.randrange(2) for _ in range(m_b)] for _ in range(m_a)]
    return build_game([[Fraction(v, total) for v in row] for row in w], f)


def test_bias_of_strategy_matches_bias_of_behaviour():
    rng = np.random.default_rng(17)
    games = [chsh(), make_named("single_entry")]
    games += [make_named(name, n) for name in ("identity", "nlc_and") for n in (1, 2, 3)]
    games += [make_named("appendix_d", n) for n in (2, 3)]
    games += [random_game(rng, max_a=7, max_b=7) for _ in range(10)]
    games += [random_game(rng, min_a=5, max_a=8, max_b=4) for _ in range(5)]  # m_a > m_b
    wide = random.Random(3)
    games += [_wide_denominator_game(wide, *shape) for shape in ((3, 2), (5, 4), (2, 6))]
    assert games[-1].matrix.denominator > 2**64
    for g in games:
        for _ in range(4):
            s = random_strategy(rng, g.m_a, g.m_b)
            bias = bias_of_strategy(g, s)
            assert type(bias) is Fraction
            c = tuple(tuple(a * b for b in s.beta) for a in s.alpha)
            assert bias == bias_of_behaviour(g, Behaviour(s.alpha, s.beta, c))


def test_bias_of_strategy_shape_mismatch():
    for alpha, beta in (((1,), (1, 1)), ((1, 1), (1,)), ((1, 1, 1), (1, 1))):
        with pytest.raises(ShapeMismatch):
            bias_of_strategy(chsh(), DeterministicStrategy(alpha=alpha, beta=beta))


def test_strategy_keeps_integer_signs_exact():
    # numpy integers are integers, as in as_int
    s = DeterministicStrategy(alpha=(1, np.int64(-1)), beta=(-1, 1))
    bias = bias_of_strategy(chsh(), s)
    assert type(bias) is Fraction and bias == Fraction(1, 2)


def test_ns_perfect_examples():
    g = chsh()
    beh = ns_perfect_behaviour(g)
    assert beh.alpha == (0, 0) and beh.beta == (0, 0)
    assert beh.c == ((1, 1), (1, -1))
    assert bias_of_behaviour(g, beh) == 1

    allzero = build_game([[H, H]], [[0, 0]])
    assert ns_perfect_behaviour(allzero).c == ((1, 1),)

    neg = build_game([[1]], [[1]])
    assert ns_perfect_behaviour(neg).c == ((-1,),)


def test_ns_perfect_random_games_exact():
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = random_game(rng)
        beh = ns_perfect_behaviour(g)
        assert bias_of_behaviour(g, beh) == 1
        assert oracle_is_no_signalling(beh)


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------


def test_identity_family():
    g = make_named("identity", 1)
    assert g.matrix.phi == ((H, Fraction(0)), (Fraction(0), H))
    g2 = make_named("identity", 2)
    assert g2.m_a == 4
    assert sum(abs(v) for row in g2.matrix.phi for v in row) == 1


def test_appendix_d_family():
    g = make_named("appendix_d", 2)
    phi = g.matrix.phi
    lam = Fraction(1, 8)
    for i in range(4):
        for j in range(4):
            assert phi[i][j] == (lam / 2 if i == j else -lam / 2)
    assert sum(abs(v) for row in phi for v in row) == 1


def test_appendix_d_eigenstructure():
    # +lam on the complement of the all-ones vector, -lam on it
    g = make_named("appendix_d", 3)
    phi = g.matrix.phi
    lam = Fraction(1, 20)
    ones = [1] * 8
    assert [sum(phi[i][j] * ones[j] for j in range(8)) for i in range(8)] == [-lam] * 8
    balanced = [1, 1, 1, 1, -1, -1, -1, -1]
    assert [
        sum(phi[i][j] * balanced[j] for j in range(8)) for i in range(8)
    ] == [lam * v for v in balanced]


def _written_out_family(key, n):
    """A family member's prior and predicate, written out entry by entry."""
    if key == "chsh":
        return [[Q, Q], [Q, Q]], [[0, 0], [0, 1]]
    if key == "single_entry":
        return [[Fraction(1)]], [[0]]
    m = 2**n
    if key == "identity":
        w = Fraction(1, m)
        q = [[w if i == j else Fraction(0) for j in range(m)] for i in range(m)]
        return q, [[0] * m for _ in range(m)]
    if key == "nlc_and":
        q = [[Fraction(1, m * m)] * m for _ in range(m)]
        return q, [[int(x ^ y == m - 1) for y in range(m)] for x in range(m)]
    lam = Fraction(1, 3 * m - 4)  # appendix_d
    diag, off = lam * (1 - Fraction(2, m)), lam * Fraction(2, m)
    q = [[diag if i == j else off for j in range(m)] for i in range(m)]
    return q, [[int(i != j) for j in range(m)] for i in range(m)]


FAMILY_MEMBERS = [("chsh", None), ("single_entry", None)]
FAMILY_MEMBERS += [(key, n) for key in ("identity", "nlc_and") for n in range(1, 7)]
FAMILY_MEMBERS += [("appendix_d", n) for n in range(2, 7)]


@pytest.mark.parametrize("key,n", FAMILY_MEMBERS)
def test_family_members_equal_their_checked_formulas(key, n):
    # make_named builds its members unchecked; each equals the game that
    # build_game checks and freezes from the written-out formulas
    g = make_named(key, n)
    assert g == build_game(*_written_out_family(key, n))
    assert {type(v) for row in g.q for v in row} == {Fraction}
    assert {type(b) for row in g.f for b in row} == {int}


def test_family_priors_are_normalized_to_n_9():
    # every prior row of a member is a permutation of row 0 (chsh: equal
    # rows), so the prior sums to 1 when row 0 sums to 1/m
    larger = [(key, n) for key in ("identity", "nlc_and", "appendix_d") for n in range(7, 10)]
    for key, n in FAMILY_MEMBERS + larger:
        g = make_named(key, n)
        assert sum(g.q[0]) == Fraction(1, g.m_a)
        assert min(map(min, g.q)) >= 0


def test_named_errors():
    with pytest.raises(UnknownName):
        make_named("nosuch")
    with pytest.raises(InvalidParameter):
        make_named("identity", 0)
    with pytest.raises(InvalidParameter):
        make_named("appendix_d", 1)
    with pytest.raises(InvalidParameter):
        make_named("identity")


def test_family_limit_is_the_sdp_side():
    # a 2^n x 2^n member past the limit is refused because no analysis takes it
    assert 2 * 2**MAX_FAMILY_N == MAX_SDP_SIDE


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_game_file_roundtrip(tmp_path):
    g = make_named("appendix_d", 2)
    path = tmp_path / "game.json"
    save_game(g, path)
    assert load_game(path) == g


@pytest.mark.parametrize("name,n", [("identity", 4), ("nlc_and", 3), ("appendix_d", 4)])
def test_game_dict_writes_one_string_per_prior_object(name, n):
    # a family member's rows permute one row of 2^n Fractions: the 4^n prior
    # entries are written from at most 2^n strings, each the entry's str
    g = make_named(name, n)
    q = game_to_dict(g)["q"]
    assert q == [[str(v) for v in row] for row in g.q]
    assert len({id(text) for row in q for text in row}) <= 2**n


def test_game_dict_requires_format():
    with pytest.raises(GameFormatError):
        game_from_dict({"m_a": 1, "m_b": 1, "q": [["1"]], "f": [[0]]})
    d = game_to_dict(chsh())
    d["m_a"] = 3
    with pytest.raises(GameFormatError):
        game_from_dict(d)


def _without(data: dict, field: str) -> dict:
    return {k: v for k, v in data.items() if k != field}


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: build_game([], []), ShapeMismatch),
        (lambda: build_game([[]], [[]]), ShapeMismatch),
        (lambda: build_game([[H, H], [0]], [[0, 0], [0]]), ShapeMismatch),
        (lambda: build_game([[True]], [[0]]), GameFormatError),
        (lambda: make_named("identity", MAX_FAMILY_N + 1), TooLarge),
        (lambda: bias_of_behaviour(
            chsh(), Behaviour(alpha=(0, 0), beta=(0, 0), c=((0, 0),))), ShapeMismatch),
        (lambda: bias_of_behaviour(
            chsh(), Behaviour(alpha=(0, 0), beta=(0, 0), c=((0, 0, 0), (0, 0, 0)))),
         ShapeMismatch),
        *[
            (lambda field=field: game_from_dict(_without(game_to_dict(chsh()), field)),
             GameFormatError)
            for field in ("m_a", "m_b", "q", "f")
        ],
    ],
    ids=["no-rows", "empty-row", "unequal-rows", "bool-prior", "family-past-limit",
         "correlator-rows", "correlator-columns",
         "no-m_a", "no-m_b", "no-q", "no-f"],
)
def test_validation_raises_the_documented_error(call, error):
    with pytest.raises(error):
        call()


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 3),
    cols=st.integers(1, 3),
    seed=st.integers(0, 2**31),
)
def test_serialization_roundtrip_random(rows, cols, seed):
    rng = np.random.default_rng(seed)
    g = random_game(rng, max_a=rows, max_b=cols, min_a=rows, min_b=cols)
    assert game_from_dict(game_to_dict(g)) == g
