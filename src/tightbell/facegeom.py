"""Exact face geometry of the local polytope for a given XOR game.

The optimal deterministic strategies of a game span a face of the polytope of
local behaviours; its dimension decides whether the game's inequality is
tight (a facet).  Facet verdicts are Boolean claims, so dimensions on the
classical side are exact.  Only the correlation rows ``vec(alpha beta^T)``
and the sign rows ``[alpha | beta]`` of the vertices are ranked: flipping
every answer keeps the bias, so the dimension in the full space of
``(alpha, beta, vec(alpha beta^T))`` follows from those two.  Every rank is
the exact rank of :mod:`tightbell.exact`; an affine dimension is one less
than the rank of the points with a nonzero constant column appended.

Questions that are never asked are dropped before enumeration.  The face of
the original game is the reduced face times a cube of free signs, and its
dimensions follow from a few ranks of the reduced vertices by a closed
formula, so no lifted vertex is ever built.  Those ranks read two exact Gram
matrices, one of the correlation rows and one of the sign rows, each formed
once; a complete vertex set is closed under negation, which leaves both
rows' outer products alike, so each Gram is summed over half of it.

On the quantum side, every optimal Gram matrix of a game with no advantage
lies in the kernel of the witness's integer dual, so the dimension of the
optimal correlator face is two exact ranks of an integer kernel basis when
the optimal vertices span that kernel, and the classical face's dimension, a
lower bound, otherwise.  No float is read.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import classical, qsdp
from .errors import (
    EmptyInput,
    InvalidDims,
    InvalidParameter,
    NotApplicable,
    ShapeMismatch,
    VerificationFailed,
)
from .exact import (
    _SQUARE_LIMIT,
    _gram,
    _gram_rank,
    _kernel_basis,
    _rank,
    _slack_matrix,
    _witness_dual,
)
from .game import XorGame, reduce_exhaustive

MEASURED = "measured"
LOWER_BOUND = "lower bound (truncated vertex set)"


@dataclass(frozen=True)
class Theorem2Bounds:
    delta_full: int
    delta_corr: int


@dataclass(frozen=True)
class TrivialFacetReport:
    dim: int
    is_facet: bool


@dataclass(frozen=True)
class ProbeReport:
    """The quantum correlator face's dimension: exact when ``measured``, else a lower bound."""

    dim_lower_bound: int
    thm3_bound: int
    measured: bool


@dataclass(frozen=True)
class FaceReport:
    """Everything measured and bounded about one game's optimal face.

    Dimensions refer to the ORIGINAL index set (M_a, M_b) even when the game
    had never-asked questions, and ``num_vertices`` counts the optimal
    vertices of the original game.  ``provenance`` records per entry whether
    the number was measured exactly or is a lower bound from a truncated
    vertex set.  Facet verdicts are None when suppressed (truncated
    enumeration).
    """

    m_a: int
    m_b: int
    reduced_m_a: int
    reduced_m_b: int
    xi_c: Fraction
    xi_q: float
    classification: str
    num_vertices: int
    dim_full: int
    dim_corr: int
    codim_full: int
    codim_corr: int
    bound_thm1_dim: int
    bound_thm2_codim: int
    bound_thm2_codim_corr: int
    is_facet_full: bool | None
    is_facet_corr: bool | None
    truncated: bool
    provenance: dict
    quantum: qsdp.QuantumBiasResult

    @property
    def D(self) -> int:
        return self.m_a * self.m_b + self.m_a + self.m_b


def affine_dimension_exact(points: Sequence[Sequence[int]] | np.ndarray) -> int:
    """Exact affine dimension of a set of integer vectors.

    One less than the rank of the points with a nonzero constant column
    appended; invariant under permuting the input and under the choice of
    base point.  ``points`` may be a 2-D integer array.  Every input is
    ranked by ``exact._rank``, so the result is exact at any size.  Integer
    arrays are ranked in their own dtype; any other input, such as integers
    past int64 or a list that numpy would read as float64, is ranked as
    Python integers.  An entry that is not an integer (a float, even
    ``2.0``, or a Fraction) raises InvalidParameter.

    For any ``c != 0`` the rows ``[p | c]`` have rank one more than this
    dimension.  Here ``c = max(1, max p, -1 - min p)``: it fits the dtype and
    matches the data's scale, where a column of ones next to large entries
    can defeat the full-rank proof.
    """
    if len(points) == 0:
        raise EmptyInput("affine dimension of an empty point set is undefined")
    # object dtype: a list's shape is checked without numpy rounding its integers
    A = points if isinstance(points, np.ndarray) else np.asarray(points, dtype=object)
    if A.ndim != 2:
        raise ShapeMismatch("points must be vectors of one common length")
    P = A if A is points else np.asarray(points)  # integers within int64 or uint64
    if P.dtype.kind not in "biu":
        try:
            P = np.frompyfunc(operator.index, 1, 1)(A)
        except TypeError:
            raise InvalidParameter("points must have integer entries") from None
    lo, hi = P.min(axis=0), P.max(axis=0)
    if np.array_equal(lo, hi):
        return 0  # coincident points, zero-width rows included
    c = max(1, int(hi.max()), -1 - int(lo.min()))
    return _rank(np.hstack([P, np.full((len(P), 1), c, dtype=P.dtype)])) - 1


def theorem1_dim_bound(m_a: int, m_b: int) -> int:
    """Dimension cap for the optimal face of a no-advantage exhaustive game."""
    if m_a < 1 or m_b < 1:
        raise InvalidDims("dimensions must be positive")
    m = min(m_a, m_b)
    return m + m * (m - 1) // 2


def theorem2_codim_bound(M_a: int, M_b: int, m_a: int, m_b: int) -> Theorem2Bounds:
    """Codimension lower bounds for reduced games, original index set.

    ``M`` are the unreduced input counts, ``m`` the exhaustive ones; sides are
    normalized so the smaller reduced side plays Alice.
    """
    if min(M_a, M_b, m_a, m_b) < 1 or m_a > M_a or m_b > M_b:
        raise InvalidDims(f"need 1 <= m <= M on both sides, got {(M_a, M_b, m_a, m_b)}")
    if m_a > m_b:
        M_a, M_b, m_a, m_b = M_b, M_a, m_b, m_a
    delta_full = m_b + M_a * (m_b - m_a) + m_a * (m_a + 1) // 2
    delta_corr = M_a * (m_b - m_a) + m_a * (m_a + 1) // 2
    return Theorem2Bounds(delta_full=delta_full, delta_corr=delta_corr)


def trivial_facet_check(m_a: int, m_b: int, x0: int, y0: int, sign: int) -> TrivialFacetReport:
    """Exact dimension of the correlation face ``{c : c_{x0,y0} = sign}``.

    It is the optimal face of the game asking only ``(x0, y0)``: two reduced
    vertices ``+-(1, sign)`` and every other question never asked, measured
    exactly at any size by :func:`_face_dimensions`.  A facet has dimension
    m_a m_b - 1.
    """
    if m_a < 1 or m_b < 1 or not (0 <= x0 < m_a) or not (0 <= y0 < m_b):
        raise InvalidDims(f"bad dimensions or indices {(m_a, m_b, x0, y0)}")
    if sign not in (-1, 1):
        raise InvalidDims("sign must be +1 or -1")
    signs = np.array([[1, sign], [-1, -sign]], dtype=np.int8)
    _, dim = _face_dimensions(signs, 1, m_a - 1, m_b - 1, complete=True)
    return TrivialFacetReport(dim=dim, is_facet=dim == m_a * m_b - 1)


def _face_dimensions(
    signs: np.ndarray, m_a: int, d_a: int, d_b: int, complete: bool
) -> tuple[int, int]:
    """Exact (dim_full, dim_corr) of the face lifted over never-asked questions.

    The optimal vertices of a game with ``d_a`` never-asked rows and ``d_b``
    never-asked columns are ``V x {+-1}^d_a x {+-1}^d_b``: reduced vertices
    ``(a, b)``, the rows ``[a | b]`` of ``signs``, with free signs ``s`` and
    ``t`` on the dropped questions.  Every lifted correlator is a reduced
    function times one character of the sign cube, 1, ``s_i``, ``t_j`` or
    ``s_i t_j``; distinct characters are orthogonal over the cube, so with
    ``aff`` the affine dimension of the rows and ``rank`` their linear rank:

        dim_corr = aff{a b^T} + d_a rank{b} + d_b rank{a} + d_a d_b

    Flipping every answer keeps the bias, so a complete V is closed under
    ``v -> -v``.  With ``p_v = (a, b, a b^T)``, each ``p_v - p_-v = (2a, 2b, 0)``
    lies in the span S of the differences, so every ``p_v - p_w`` splits into
    ``(a_v - a_w, b_v - b_w, 0)`` and ``(0, 0, c_v - c_w)``, both in S.  The
    parts sit in disjoint coordinate blocks, so aff{p} = rank[a | b] +
    aff{a b^T}, affine dimension equalling linear rank on a flip-closed set;
    each free sign adds one more direction:

        dim_full = dim_corr + rank[a | b] + d_a + d_b

    Every term can only grow with V, so on a truncated set both are lower
    bounds on the true dimensions.

    Each Gram matrix is formed once (:func:`exact._gram`).  ``v`` and ``-v``
    give the same correlation row and the same ``v v^T``, so on a
    ``complete`` set the Grams are summed over the half with first sign +1:
    exactly half the full set's, of the same rank.  A truncated set keeps
    all its rows.  aff{a b^T} is the rank of the rows ``[a b^T | 1]`` less
    one.  Each Gram is on the side that :func:`exact._rank` chooses for the
    full set, columns when it has no fewer rows than columns; the sign Gram
    by columns gives rank[a | b], rank{a} and rank{b} as its diagonal
    blocks, and by rows each is ranked on its own.
    """
    rows = signs[signs[:, 0] > 0] if complete else signs
    width = m_a * (signs.shape[1] - m_a)
    corr = np.ones((len(rows), width + 1), dtype=np.int8)
    corr[:, :width] = (rows[:, :m_a, None] * rows[:, None, m_a:]).reshape(len(rows), width)
    dim_corr = _gram_rank(_gram(corr if len(signs) > width else corr.T)) - 1 + d_a * d_b
    if len(signs) >= signs.shape[1]:
        G = _gram(rows)

        def rank(cols: slice) -> int:
            return _gram_rank(G[cols, cols])
    else:

        def rank(cols: slice) -> int:
            return _rank(rows[:, cols])

    if d_a:
        dim_corr += d_a * rank(slice(m_a, None))
    if d_b:
        dim_corr += d_b * rank(slice(m_a))
    return dim_corr + rank(slice(None)) + d_a + d_b, dim_corr


def face_report(
    g: XorGame,
    *,
    enum_cap: int = classical.DEFAULT_ENUM_CAP,
    vertex_cap: int = classical.DEFAULT_VERTEX_CAP,
    solve_cfg: qsdp.SolveConfig | None = None,
) -> FaceReport:
    """Full pipeline: reduce, enumerate, measure, bound, verdict.

    Dimensions refer to the original index set.  Never-asked questions are
    dropped before enumeration, and the dimensions of the original face follow
    exactly from the reduced vertices (:func:`_face_dimensions`), so
    ``vertex_cap`` bounds only the reduced enumeration.  A truncated reduced
    vertex set downgrades dimensions to lower bounds and suppresses facet
    verdicts.  A ``vertex_cap`` below 1 raises InvalidParameter.

    The solve is passed every vertex as its ``witness``: row 0 is its start,
    and all of them serve the exact advantage verdict.  Theorem 2 is then
    checked at run time: on a complete vertex set of a game with no
    advantage, a codimension below its bound raises VerificationFailed.  It
    costs two integer comparisons.
    """
    if vertex_cap < 1:
        raise InvalidParameter(f"vertex_cap must be positive, got {vertex_cap}")
    reduced = reduce_exhaustive(g)
    vs = classical.optimal_vertices(reduced, cap=vertex_cap, enum_cap=enum_cap)

    M_a, M_b = g.m_a, g.m_b
    D = M_a * M_b + M_a + M_b
    d_a, d_b = M_a - reduced.m_a, M_b - reduced.m_b
    thm2 = theorem2_codim_bound(M_a, M_b, reduced.m_a, reduced.m_b)

    dim_full, dim_corr = _face_dimensions(vs.signs, reduced.m_a, d_a, d_b, not vs.truncated)
    truncated = vs.truncated
    label = LOWER_BOUND if truncated else MEASURED
    codim_full, codim_corr = D - dim_full, M_a * M_b - dim_corr
    qres = qsdp.solve_quantum_bias(reduced, solve_cfg, xi_c=vs.xi_c, witness=vs.signs)
    below = codim_full < thm2.delta_full or codim_corr < thm2.delta_corr
    if below and not truncated and qres.classification == qsdp.NO_ADVANTAGE:
        raise VerificationFailed(f"codimensions {codim_full}, {codim_corr} break Theorem 2")

    return FaceReport(
        m_a=M_a,
        m_b=M_b,
        reduced_m_a=reduced.m_a,
        reduced_m_b=reduced.m_b,
        xi_c=vs.xi_c,
        xi_q=qres.xi_q,
        classification=qres.classification,
        num_vertices=len(vs.signs) << (d_a + d_b),
        dim_full=dim_full,
        dim_corr=dim_corr,
        codim_full=codim_full,
        codim_corr=codim_corr,
        bound_thm1_dim=theorem1_dim_bound(reduced.m_a, reduced.m_b),
        bound_thm2_codim=thm2.delta_full,
        bound_thm2_codim_corr=thm2.delta_corr,
        is_facet_full=None if truncated else dim_full == D - 1,
        is_facet_corr=None if truncated else dim_corr == M_a * M_b - 1,
        truncated=truncated,
        provenance={"dim_full": label, "dim_corr": label},
        quantum=qres,
    )


def _kernel_face_dimension(V: np.ndarray, m_a: int) -> int:
    """Dimension of the correlator face of ``{V W V^T : W >= 0, diag(V W V^T) = 1}``.

    ``V`` is an integer matrix with Alice's rows first, and some feasible
    ``W`` is positive definite.  With ``v_i`` row ``i`` of ``V``, the
    constraints are ``<W, v_i v_i^T> = 1`` and the correlators ``<W, v_x
    v_y^T>``, ``y`` on Bob's rows.  Over the upper triangle ``a <= b`` of a
    symmetric ``W``, ``<W, M>`` pairs ``W_ab`` with ``M_ab + M_ba``, the
    diagonal halved; each row holds ``M_ab + M_ba``, the constraint rows
    ``cons`` halved to ``v_ia v_ib`` and the correlator rows ``corr`` as
    they are.  Scaling a row or a column keeps every rank, so the affine
    hull of the face has dimension ``rank[cons; corr] - rank[cons]``, and
    a positive definite point makes it the face's own (Laurent and Poljak,
    SIAM J. Matrix Anal. Appl. 1996).  The rows are formed in int64 while
    ``max|V| < 2^31``, where two products fit, and in Python integers
    beyond.
    """
    V = V.astype(np.int64 if max(int(V.max()), -int(V.min())) < _SQUARE_LIMIT else object)
    i, j = np.triu_indices(V.shape[1])
    cons = V[:, i] * V[:, j]
    Va, Vb = V[:m_a, None], V[None, m_a:]
    corr = (Va[..., i] * Vb[..., j] + Va[..., j] * Vb[..., i]).reshape(-1, len(i))
    return _rank(np.vstack((cons, corr))) - _rank(cons)


def quantum_face_probe(g: XorGame) -> ProbeReport:
    """Dimension of the optimal quantum correlator face, exact or a proven lower bound.

    Probes :func:`reduce_exhaustive` of ``g``, as :func:`face_report` does: a
    never-asked question's vectors are not pinned by the optimum.  One
    enumeration gives the optimal vertices, a game past its cap raising
    TooLarge, and one solve started at the witness, row 0, decides the
    verdict; a game with an advantage raises NotApplicable.  With no
    advantage, the witness's integer dual ``S'`` is positive semidefinite
    and every optimal Gram matrix is ``V W V^T``, ``V`` the integer kernel
    basis of ``S'`` (:func:`exact._kernel_basis`).  When the optimal
    vertices span that kernel, the average of their ``s s^T`` is an optimum
    with ``W`` positive definite, so the dimension is measured exactly by
    :func:`_kernel_face_dimension` and ``measured`` is True.  Otherwise, or
    without a kernel basis, ``dim_lower_bound`` is the classical face's
    ``dim_corr``, a lower bound, since every optimal vertex is a quantum
    optimum.  The comparison bound is ``m (m - 1) / 2``, m the smaller input
    count; a dimension above it raises VerificationFailed.  Both numbers
    refer to the reduced game.
    """
    g = reduce_exhaustive(g)
    vs = classical.optimal_vertices(g)
    verdict = qsdp.solve_quantum_bias(g, xi_c=vs.xi_c, witness=vs.signs[0]).classification
    if verdict != qsdp.NO_ADVANTAGE:
        raise NotApplicable(f"face probe requires a no-advantage game, got {verdict!r}")
    m = min(g.m_a, g.m_b)
    thm3 = m * (m - 1) // 2
    P = g.matrix.ints
    V = _kernel_basis(_slack_matrix(P, _witness_dual(P, vs.signs[0])))
    measured = V is not None and _rank(vs.signs) == V.shape[1]
    if measured:
        dim = _kernel_face_dimension(V, g.m_a)
    else:
        dim = _face_dimensions(vs.signs, g.m_a, 0, 0, not vs.truncated)[1]
    if dim > thm3:
        raise VerificationFailed(f"probe found {dim} directions, above the theoretical bound {thm3}")
    return ProbeReport(dim_lower_bound=dim, thm3_bound=thm3, measured=measured)


def face_report_to_dict(report: FaceReport) -> dict:
    """JSON-exportable face report with the solver certificate inline."""
    return {
        "m_a": report.m_a,
        "m_b": report.m_b,
        "reduced_m_a": report.reduced_m_a,
        "reduced_m_b": report.reduced_m_b,
        "D": report.D,
        "xi_c": str(report.xi_c),
        "xi_q": report.xi_q,
        "classification": report.classification,
        "num_vertices": report.num_vertices,
        "dim_full": report.dim_full,
        "dim_corr": report.dim_corr,
        "codim_full": report.codim_full,
        "codim_corr": report.codim_corr,
        "bound_thm1_dim": report.bound_thm1_dim,
        "bound_thm2_codim": report.bound_thm2_codim,
        "bound_thm2_codim_corr": report.bound_thm2_codim_corr,
        "is_facet_full": report.is_facet_full,
        "is_facet_corr": report.is_facet_corr,
        "truncated": report.truncated,
        "provenance": dict(report.provenance),
        "certificate": qsdp.certificate_to_dict(report.quantum),
    }
