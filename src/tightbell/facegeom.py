"""Exact face geometry of the local polytope for a given XOR game.

The optimal deterministic strategies of a game span a face of the polytope of
local behaviours; its dimension decides whether the game's inequality is
tight (a facet).  Facet verdicts are Boolean claims, so dimensions on the
classical side are computed by exact integer linear algebra: vertices embed as
``(alpha, beta, vec(alpha beta^T))`` with entries +-1, differences of such
points are integer vectors, and the affine dimension is their rank over the
rationals via fraction-free (Bareiss) elimination.  No floating point, no
tolerance.

The quantum-side face dimension is inherently numerical and is reported only
as a lower bound from sampled optima, with an explicit singular-value
threshold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import classical, qsdp
from .errors import (
    EmptyInput,
    InvalidDims,
    NotApplicable,
    ShapeMismatch,
    TooLarge,
    VerificationFailed,
)
from .game import (
    DeterministicStrategy,
    ReductionMap,
    XorGame,
    lift_strategy,
    reduce_exhaustive,
)

MEASURED = "measured"
LOWER_BOUND = "lower bound (truncated vertex set)"
THM2_BOUND = "bound via Theorem 2"


@dataclass(frozen=True)
class EmbeddedVertex:
    """Integer coordinates of a deterministic behaviour.

    ``coords`` is (alpha, beta, row-major alpha beta^T), length
    D = m_a m_b + m_a + m_b; ``correlation_coords`` is the tail alone.
    """

    coords: tuple[int, ...]
    correlation_coords: tuple[int, ...]
    m_a: int
    m_b: int


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
    dim_lower_bound: int
    thm3_bound: int
    samples_used: int
    base_xi_q: float


@dataclass(frozen=True)
class FaceReport:
    """Everything measured and bounded about one game's optimal face.

    Dimensions refer to the ORIGINAL index set (M_a, M_b) even when the game
    had never-asked questions; ``provenance`` records per entry whether the
    number was measured exactly, is a lower bound from a truncated vertex
    set, or comes from the reduction codimension formula.  Facet verdicts are
    None when suppressed (truncated enumeration).
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


def embed_vertex(v: DeterministicStrategy) -> EmbeddedVertex:
    tail = tuple(a * b for a in v.alpha for b in v.beta)
    return EmbeddedVertex(
        coords=tuple(v.alpha) + tuple(v.beta) + tail,
        correlation_coords=tail,
        m_a=len(v.alpha),
        m_b=len(v.beta),
    )


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, division-free pivoting.

    Classic fraction-free elimination: every interior division is exact, and
    intermediate entries are minors of the input, so growth stays polynomial.
    """
    M = [list(r) for r in rows]
    if not M:
        return 0
    n, ncols = len(M), len(M[0])
    rank, prev = 0, 1
    for col in range(ncols):
        piv = None
        for r in range(rank, n):
            if M[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        p = M[rank][col]
        pivot_row = M[rank]
        for r in range(rank + 1, n):
            row = M[r]
            mrc = row[col]
            for c in range(col, ncols):
                row[c] = (row[c] * p - mrc * pivot_row[c]) // prev
        prev = p
        rank += 1
        if rank == n:
            break
    return rank


def affine_dimension_exact(points: Sequence[Sequence[int]]) -> int:
    """Exact affine dimension of a set of integer vectors.

    Rank of the differences to the first point; invariant under permuting the
    input and under the choice of base point.
    """
    pts = [list(p) for p in points]
    if not pts:
        raise EmptyInput("affine dimension of an empty point set is undefined")
    length = len(pts[0])
    if any(len(p) != length for p in pts):
        raise ShapeMismatch("all points must have the same length")
    base = pts[0]
    rows = [[a - b for a, b in zip(p, base)] for p in pts[1:]]
    return _bareiss_rank(rows)


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


def trivial_facet_check(
    m_a: int,
    m_b: int,
    x0: int,
    y0: int,
    sign: int,
    max_bits: int = 24,
) -> TrivialFacetReport:
    """Exact dimension of the correlation face ``{c : c_{x0,y0} = sign}``.

    Enumerates every deterministic strategy with ``alpha_x0 beta_y0 = sign``
    and measures the affine span of their correlators; the face is a facet
    exactly when that span has dimension m_a m_b - 1.
    """
    if m_a < 1 or m_b < 1 or not (0 <= x0 < m_a) or not (0 <= y0 < m_b):
        raise InvalidDims(f"bad dimensions or indices {(m_a, m_b, x0, y0)}")
    if sign not in (-1, 1):
        raise InvalidDims("sign must be +1 or -1")
    if m_a + m_b - 1 > max_bits:
        raise TooLarge(f"2^{m_a + m_b - 1} strategies exceed the enumeration cap")
    points = []
    seen = set()
    for alpha in itertools.product((1, -1), repeat=m_a):
        for beta in itertools.product((1, -1), repeat=m_b):
            if alpha[x0] * beta[y0] != sign:
                continue
            corr = tuple(a * b for a in alpha for b in beta)
            if corr not in seen:  # (alpha,beta) and its negation share correlators
                seen.add(corr)
                points.append(corr)
    dim = affine_dimension_exact(points)
    return TrivialFacetReport(dim=dim, is_facet=dim == m_a * m_b - 1)


def _lifted_vertices(
    vertices: Sequence[DeterministicStrategy],
    rmap: ReductionMap,
    cap: int,
) -> tuple[list[DeterministicStrategy], bool]:
    """All completions of reduced optimal vertices on dropped coordinates."""
    M_a, M_b = rmap.original_dims
    d_a = M_a - len(rmap.kept_rows)
    d_b = M_b - len(rmap.kept_cols)
    if d_a == 0 and d_b == 0:
        return list(vertices), False
    out: list[DeterministicStrategy] = []
    for v in vertices:
        for fill_a in itertools.product((1, -1), repeat=d_a):
            for fill_b in itertools.product((1, -1), repeat=d_b):
                if len(out) >= cap:
                    return out, True
                out.append(lift_strategy(v, rmap, fill_a, fill_b))
    return out, False


def face_report(
    g: XorGame,
    *,
    enum_cap: int = classical.DEFAULT_ENUM_CAP,
    vertex_cap: int = classical.DEFAULT_VERTEX_CAP,
    solve_cfg: qsdp.SolveConfig | None = None,
) -> FaceReport:
    """Full pipeline: reduce, enumerate, lift, embed, measure, bound, verdict.

    Dimensions are measured in the original index set.  If lifting the reduced
    vertices over dropped coordinates would blow past ``vertex_cap``, the
    dimensions are instead bounded through the reduction codimension formula
    and labeled as such.  A truncated enumeration downgrades dimensions to
    lower bounds and suppresses facet verdicts.
    """
    reduced, rmap = reduce_exhaustive(g)
    vs = classical.optimal_vertices(reduced, cap=vertex_cap, enum_cap=enum_cap)
    qres = qsdp.solve_quantum_bias(reduced, solve_cfg, xi_c=vs.xi_c)

    M_a, M_b = rmap.original_dims
    D = M_a * M_b + M_a + M_b
    d_a = M_a - reduced.m_a
    d_b = M_b - reduced.m_b
    lift_total = len(vs.vertices) << (d_a + d_b)

    thm2 = theorem2_codim_bound(M_a, M_b, reduced.m_a, reduced.m_b)
    bound1 = theorem1_dim_bound(reduced.m_a, reduced.m_b)

    use_thm2_formula = not vs.truncated and lift_total > vertex_cap
    if use_thm2_formula:
        # measure on the reduced game only; the codimension formula bounds
        # the original dimensions, but it is a theorem about no-advantage
        # games, so for anything else only the measured lower bound is honest
        emb = [embed_vertex(v) for v in vs.vertices]
        red_full = affine_dimension_exact([e.coords for e in emb])
        red_corr = affine_dimension_exact([e.correlation_coords for e in emb])
        truncated = False
        num_vertices = len(vs.vertices)
        if qres.classification == qsdp.NO_ADVANTAGE:
            provenance = {"dim_full": THM2_BOUND, "dim_corr": THM2_BOUND}
            dim_full = D - thm2.delta_full
            dim_corr = M_a * M_b - thm2.delta_corr
            is_facet_full = False
            is_facet_corr = False if (reduced.m_a, reduced.m_b) != (1, 1) else None
        else:
            label = "lower bound (measured on the reduced game)"
            provenance = {"dim_full": label, "dim_corr": label}
            dim_full = red_full
            dim_corr = red_corr
            is_facet_full = None
            is_facet_corr = None
    else:
        lifted, lift_truncated = _lifted_vertices(vs.vertices, rmap, vertex_cap)
        truncated = vs.truncated or lift_truncated
        emb = [embed_vertex(v) for v in lifted]
        dim_full = affine_dimension_exact([e.coords for e in emb])
        dim_corr = affine_dimension_exact([e.correlation_coords for e in emb])
        label = LOWER_BOUND if truncated else MEASURED
        provenance = {"dim_full": label, "dim_corr": label}
        is_facet_full = None if truncated else dim_full == D - 1
        is_facet_corr = None if truncated else dim_corr == M_a * M_b - 1
        num_vertices = len(lifted)

    return FaceReport(
        m_a=M_a,
        m_b=M_b,
        reduced_m_a=reduced.m_a,
        reduced_m_b=reduced.m_b,
        xi_c=vs.xi_c,
        xi_q=qres.xi_q,
        classification=qres.classification,
        num_vertices=num_vertices,
        dim_full=dim_full,
        dim_corr=dim_corr,
        codim_full=D - dim_full,
        codim_corr=M_a * M_b - dim_corr,
        bound_thm1_dim=bound1,
        bound_thm2_codim=thm2.delta_full,
        bound_thm2_codim_corr=thm2.delta_corr,
        is_facet_full=is_facet_full,
        is_facet_corr=is_facet_corr,
        truncated=truncated,
        provenance=provenance,
        quantum=qres,
    )


def quantum_face_probe(
    g: XorGame,
    *,
    samples: int = 24,
    perturb_scale: float = 0.05,
    rank_tol: float = 1e-6,
    solve_cfg: qsdp.SolveConfig | None = None,
) -> ProbeReport:
    """Lower-bound the dimension of the optimal quantum correlator face.

    Collects correlator blocks from many certified optima (fresh restarts
    alternating with tangent perturbations of the base optimum re-optimized to
    the same certified value) and counts singular values of the differences
    above ``rank_tol``.  Only a LOWER bound: sampling cannot certify that more
    directions do not exist.  The reported comparison bound is
    ``m (m - 1) / 2`` with m the smaller input count.
    """
    cfg = solve_cfg or qsdp.SolveConfig()
    base = qsdp.solve_quantum_bias(g, cfg)
    if base.classification != qsdp.NO_ADVANTAGE:
        raise NotApplicable(
            f"face probe requires a no-advantage game, got {base.classification!r}"
        )
    m = min(g.m_a, g.m_b)
    thm3 = m * (m - 1) // 2
    C_base = base.gram.C
    diffs = []
    used = 0
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xFACE)))
    one_shot = replace(cfg, restarts=1)
    for k in range(samples):
        if k % 2 == 0:
            sample_cfg = replace(cfg, seed=cfg.seed + 1 + k, restarts=2)
            res = qsdp.solve_quantum_bias(g, sample_cfg, xi_c=base.xi_c)
        else:
            U0 = base.gram.vectors + perturb_scale * rng.normal(
                size=base.gram.vectors.shape
            )
            res = qsdp.solve_quantum_bias(g, one_shot, xi_c=base.xi_c, initial=U0)
        certified = res.gap <= cfg.gap_tol and res.cert.min_eig >= -cfg.feas_tol
        if certified and abs(res.xi_q - base.xi_q) <= cfg.gap_tol:
            diffs.append((res.gram.C - C_base).ravel())
            used += 1
    if diffs:
        sv = np.linalg.svd(np.vstack(diffs), compute_uv=False)
        dim_lb = int(np.count_nonzero(sv > rank_tol))
    else:
        dim_lb = 0
    if dim_lb > thm3:
        raise VerificationFailed(
            f"probe found {dim_lb} directions, above the theoretical bound {thm3}"
        )
    return ProbeReport(
        dim_lower_bound=dim_lb,
        thm3_bound=thm3,
        samples_used=used,
        base_xi_q=base.xi_q,
    )


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
