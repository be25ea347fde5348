"""Certified quantum bias via the unit-diagonal semidefinite program.

The quantum bias of an XOR game is the optimum of ``tr(Q Phi~)`` over
positive-semidefinite matrices ``Q`` with unit diagonal, where ``Phi~`` is the
symmetric block embedding ``[[0, Phi/2], [Phi^T/2, 0]]``.  We solve the primal
by block-coordinate ascent on the unit-vector (Gram) factorization ``Q = U U^T``
at full rank r = m_a + m_b: the row update ``u_i <- w_i / |w_i|`` with
``w_i = sum_j Phi~_ij u_j`` is the exact maximizer given the other rows, so
the objective is monotone, and at full rank the factorization has no spurious
local optima for this problem class.  Because ``Phi~`` has zero diagonal
blocks, no row of Alice's block reads another row of it, and the same holds
for Bob: a Gauss-Seidel sweep over the rows is two block updates,
``U_A <- rownorm(Phi/2 U_B)`` and then ``U_B <- rownorm(Phi^T/2 U_A)``, one
matrix product each (the Mixing method of Wang, Chang and Kolter specialised
to a bipartite cost).  The sweeps converge linearly, so every fourth sweep
(``_JUMP_PERIOD``) is followed by an Aitken-type jump along the last step,
by the rest of the geometric series its shrink ratio predicts, unless that
ratio is ``_JUMP_RHO_CAP`` = 0.99 or more; on the benchmark's certified
games this cuts the sweeps to about a third.  The solver reads the game only
as ``Phi/2`` and ``Phi^T/2``: ``Phi~ U`` is their two block products, and
``diag(t) - Phi~`` is built once per restart, for its eigen-check.  ``Phi~``
itself is formed only by :func:`build_phi_tilde`, on request.

Nothing is trusted without a certificate.  The stationarity candidate
``t_i = |w_i|`` is a dual vector; the solve is *certified* when the duality
gap ``sum_i t_i - tr(Q Phi~)`` is at most ``gap_tol`` and the smallest
eigenvalue of ``diag(t) - Phi~`` is at least ``-feas_tol``.  Sweeps continue
until no row moves by more than ``change_tol``: the gap is second-order in the
distance to the optimal face while the dual error is first-order, so stopping
on the gap alone would leave ``t`` orders of magnitude less accurate than the
primal value.  With the fixed-point rule the dual typically lands within a few
ulps of exact, which the slackness checks downstream rely on.  The jump does
not weaken this: the stop is tested on plain sweeps only, so a returned
iterate is a Gauss-Seidel fixed point whether or not it was reached by jumps.

Restarts are attempted in seed order and the first certified one is returned.
A restart is kept as its Gram vectors ``U`` and its dual ``t`` alone; the
m x m Gram matrix ``U U^T`` is formed only when read.  On one numpy/BLAS
build, identical (game, seed) reproduces bit-identical results; across builds
the sweep count can move by one and the certificate floats by about 1e-14,
because the fixed-point stop meets rounding and a jump scales the rounding of
its step by up to ``rho / (1 - rho)``.  Every solver setting is a field
of :class:`SolveConfig`, which defines its default and rejects values out of
range; the command line takes both from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import classical
from .errors import (
    InvalidParameter,
    NotApplicable,
    ShapeMismatch,
    SingularLambda,
    TooLarge,
)
from .game import DeterministicStrategy, XorGame, game_matrix

MAX_SDP_SIDE = 4096
_JUMP_PERIOD = 4  # sweeps per extrapolation step of _coordinate_ascent
_JUMP_RHO_CAP = 0.99  # no jump when the step shrinks by a ratio at or above this

ADVANTAGE = "advantage"
NO_ADVANTAGE = "no_advantage"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class SolveConfig:
    """Solver settings; defaults certify every desk-scale game in milliseconds.

    Raises InvalidParameter for a tolerance that is not positive (NaN
    included), fewer than one restart or sweep, or a seed outside
    ``[0, 2^64)``.
    """

    restarts: int = 8
    seed: int = 0
    max_iters: int = 50_000  # coordinate sweeps per restart
    gap_tol: float = 1e-7
    feas_tol: float = 1e-8
    adv_tol: float = 1e-6
    change_tol: float = 1e-13  # fixed-point stop: max row movement per sweep

    def __post_init__(self) -> None:
        tols = (self.gap_tol, self.feas_tol, self.adv_tol, self.change_tol)
        if not all(t > 0 for t in tols):  # also refuses NaN
            raise InvalidParameter("tolerances must be positive")
        if self.restarts < 1 or self.max_iters < 1:
            raise InvalidParameter("restarts and max_iters must be positive")
        if not 0 <= self.seed < 2**64:
            raise InvalidParameter("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class PhiTilde:
    """Symmetric embedding of the game matrix; zero diagonal blocks."""

    matrix: np.ndarray


@dataclass(frozen=True)
class GramSolution:
    """Unit-vector factorization of the primal optimum.

    Row ``i`` of ``vectors`` is the unit vector of party input ``i`` (Alice's
    inputs first).  Only the vectors are stored: ``gram``, the induced PSD
    unit-diagonal matrix ``vectors @ vectors.T``, is formed on each read and
    returned read-only, and ``C`` is its Alice-Bob block.
    """

    vectors: np.ndarray
    m_a: int

    @property
    def gram(self) -> np.ndarray:
        gram = self.vectors @ self.vectors.T
        gram.setflags(write=False)
        return gram

    @property
    def C(self) -> np.ndarray:
        return self.gram[: self.m_a, self.m_a :]


@dataclass(frozen=True)
class DualCertificate:
    """Dual diagonal with feasibility evidence.

    ``t`` holds Alice's entries first, then Bob's; ``min_eig`` is the smallest
    eigenvalue of ``diag(t) - Phi~`` and must be >= -feas_tol for the
    certificate to hold.  The dual value is ``QuantumBiasResult.dual_value``.
    """

    t: np.ndarray
    min_eig: float


@dataclass(frozen=True)
class QuantumBiasResult:
    """One solver restart, frozen; its arrays are read-only.

    ``certified`` is gap <= gap_tol and min_eig >= -feas_tol; ``restarts_used``
    is this restart's position in seed order, counting from 1.
    """

    xi_q: float
    dual_value: float
    gap: float
    gram: GramSolution
    cert: DualCertificate
    certified: bool
    classification: str
    xi_c: Fraction | None
    restarts_used: int
    sweeps: int
    converged: bool
    stalled_rows: tuple[int, ...]


@dataclass(frozen=True)
class SlacknessReport:
    max_residual: float
    passed: bool


def _halves(g: XorGame) -> tuple[np.ndarray, np.ndarray]:
    """``Phi/2`` and a contiguous ``Phi^T/2``; entries round as ``float(Fraction) / 2``."""
    gm = game_matrix(g)
    half = np.array([[v / gm.denominator for v in row] for row in gm.ints]) / 2.0
    return half, np.ascontiguousarray(half.T)


def build_phi_tilde(g: XorGame) -> PhiTilde:
    """Assemble ``[[0, Phi/2], [Phi^T/2, 0]]``; symmetry is exact by mirroring."""
    half, half_t = _halves(g)
    pt = np.block([[np.zeros((g.m_a, g.m_a)), half], [half_t, np.zeros((g.m_b, g.m_b))]])
    pt.setflags(write=False)
    return PhiTilde(matrix=pt)


def _coordinate_ascent(
    blocks: tuple[np.ndarray, np.ndarray], U: np.ndarray, cfg: SolveConfig
) -> tuple[np.ndarray, int, bool]:
    """Sweep the two block updates until the iterate is a numerical fixed point.

    ``blocks`` are ``Phi/2`` and ``Phi^T/2`` as contiguous arrays.  One sweep
    sets Alice's rows to ``rownorm(Phi/2 U_B)``, then Bob's to
    ``rownorm(Phi^T/2 U_A)`` from Alice's new rows.  Each sweep keeps the rows
    on the unit sphere and does not lower the objective.  On small arrays a
    numpy call costs more to start than to compute, so the product, norm and
    step buffers are allocated once per call and written in place; the
    largest row movement is measured once per sweep, over both blocks.

    The sweeps converge linearly, so the step ``D = U - U_prev`` shrinks by a
    nearly constant ratio.  Every ``_JUMP_PERIOD``-th sweep of a call reads
    that ratio as ``rho = |D| / |D_prev|`` (Frobenius norms; ``|D_prev|`` is
    taken one sweep earlier) and, when ``rho < _JUMP_RHO_CAP``, jumps by the
    rest of the geometric series, ``U <- rownorm(U + rho / (1 - rho) D)``.
    The jump is not proven to ascend; over 204 seeded games up to 14 x 20 it
    lowered the objective on 55 of 4,051 jumps, each time by at most 2.2e-16
    (rounding).  It does not touch the stop: the call returns on the first
    plain sweep that moves no entry by more than ``change_tol``, checked
    before any jump, so the result is a Gauss-Seidel fixed point and ``t`` is
    as accurate as without jumps.  The norm kept between two sweeps is the
    only state, and it lives within one call.

    Returns (U, sweeps, converged); a jump is not a sweep.  Rows with a zero
    update direction are left unchanged by a sweep and by a jump's step
    (stalls; they surface as t_i = 0 in the certificate).
    """
    half, half_t = blocks
    m_a = half.shape[0]
    W, norms, step = np.empty_like(U), np.empty(len(U)), np.empty_like(U)
    # (block, rows it reads, product rows, norms, rows it sets)
    steps = (
        (half, U[m_a:], W[:m_a], norms[:m_a], U[:m_a]),
        (half_t, U[:m_a], W[m_a:], norms[m_a:], U[m_a:]),
    )
    for sweep in range(1, cfg.max_iters + 1):
        np.copyto(step, U)
        for P, V, W_x, n_x, X in steps:
            np.matmul(P, V, out=W_x)
            np.sqrt(np.einsum("ij,ij->i", W_x, W_x, out=n_x), out=n_x)
            if np.count_nonzero(n_x) == len(n_x):
                np.divide(W_x, n_x[:, None], out=X)
            else:
                live = n_x > 0.0
                X[live] = W_x[live] / n_x[live, None]
        np.subtract(U, step, out=step)  # D; W is free until the next sweep
        if np.maximum.reduce(np.abs(step, out=W), axis=None) <= cfg.change_tol:
            return U, sweep, True
        phase = sweep % _JUMP_PERIOD
        if phase == _JUMP_PERIOD - 1:
            last = np.vdot(step, step)
        elif phase == 0:
            # last > 0: a zero step would have stopped the previous sweep
            rho = math.sqrt(np.vdot(step, step) / last)
            if rho < _JUMP_RHO_CAP:
                step *= rho / (1.0 - rho)
                U += step  # |row| >= 1, so no row norm is zero
                # row norms summed as np.linalg.norm sums them; W takes the squares
                np.add.reduce(np.multiply(U, U, out=W), axis=1, out=norms)
                U /= np.sqrt(norms, out=norms)[:, None]
    return U, cfg.max_iters, False


def _evaluate(blocks: tuple[np.ndarray, np.ndarray], U: np.ndarray):
    half, half_t = blocks
    m_a = len(half)
    W = np.concatenate((half @ U[m_a:], half_t @ U[:m_a]))  # Phi~ U
    t = np.linalg.norm(W, axis=1)
    xi_q = float(np.sum(U * W))
    dual_value = float(t.sum())
    gap = dual_value - xi_q
    S = np.diag(t)  # diag(t) - Phi~, built in place
    S[:m_a, m_a:] -= half
    S[m_a:, :m_a] -= half_t
    min_eig = float(np.linalg.eigvalsh(S)[0])
    stalled = tuple(int(i) for i in np.nonzero(t == 0.0)[0])
    return t, xi_q, dual_value, gap, min_eig, stalled


def _classify(xi_q: float, certified: bool, xi_c, cfg: SolveConfig) -> str:
    """Compare ``xi_q`` with ``xi_c``.

    The primal value is a lower bound on the optimum even without a
    certificate, so it alone can show an advantage; no advantage needs the
    certified upper bound as well.
    """
    if xi_c is None:
        return UNDECIDED
    diff = xi_q - float(xi_c)
    if diff > cfg.adv_tol:
        return ADVANTAGE
    if certified and abs(diff) <= cfg.adv_tol:
        return NO_ADVANTAGE
    return UNDECIDED


def solve_quantum_bias(
    g: XorGame,
    cfg: SolveConfig | None = None,
    xi_c: Fraction | None = None,
) -> QuantumBiasResult:
    """Solve the unit-diagonal SDP and certify the value with its dual.

    ``xi_c`` is used only for the advantage classification; when omitted it is
    computed by exact enumeration if feasible.  Restart ``k`` starts from
    random unit rows drawn from ``SeedSequence((cfg.seed, k))``, so a
    (game, seed) pair fixes every starting point.

    Each restart yields one result; the first certified one is returned.  If
    none certifies, the one with the smallest gap (the earliest on a tie) is
    returned uncertified: "advantage" if its primal value alone clears
    ``xi_c`` by more than adv_tol, otherwise "undecided" — never a fabricated
    verdict.  A restart whose dual is infeasible is not certified, converged
    or not: a loose ``change_tol`` can stop the ascent with the second-order
    gap below ``gap_tol`` while the first-order error in ``t`` still leaves
    ``diag(t) - Phi~`` indefinite.
    """
    cfg = cfg or SolveConfig()
    m = g.m_a + g.m_b
    if m > MAX_SDP_SIDE:
        raise TooLarge(f"SDP side {m} exceeds dense budget {MAX_SDP_SIDE}")
    if xi_c is None:
        try:
            xi_c = classical.classical_bias(g).xi_c
        except TooLarge:
            xi_c = None
    blocks = _halves(g)

    best = None  # smallest-gap uncertified restart so far
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, restart)))
        U = rng.normal(size=(m, m))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        U, sweeps, converged = _coordinate_ascent(blocks, U, cfg)
        t, xi_q, dual_value, gap, min_eig, stalled = _evaluate(blocks, U)
        certified = gap <= cfg.gap_tol and min_eig >= -cfg.feas_tol
        for arr in (U, t):
            arr.setflags(write=False)
        res = QuantumBiasResult(
            xi_q=xi_q,
            dual_value=dual_value,
            gap=gap,
            gram=GramSolution(vectors=U, m_a=g.m_a),
            cert=DualCertificate(t=t, min_eig=min_eig),
            certified=certified,
            classification=_classify(xi_q, certified, xi_c, cfg),
            xi_c=xi_c,
            restarts_used=restart + 1,
            sweeps=sweeps,
            converged=converged,
            stalled_rows=stalled,
        )
        if certified:
            return res
        if best is None or gap < best.gap:
            best = res
    return best


def extract_F(cert: DualCertificate, g: XorGame) -> np.ndarray:
    """Coupling matrix ``F = Lambda^{-1} Phi^T`` from the dual diagonal.

    At a no-advantage optimum this maps Alice's optimal signs to Bob's forced
    response.  Requires every Bob-side t entry to be positive (exhaustive
    games guarantee this); otherwise raises SingularLambda.
    """
    t_bob = cert.t[g.m_a :]
    if len(t_bob) != g.m_b:
        raise ShapeMismatch("certificate does not match game dimensions")
    if np.any(t_bob <= SolveConfig.feas_tol):
        raise SingularLambda(
            "some Bob-side dual entries are numerically zero; "
            "game is not exhaustive or the certificate is invalid"
        )
    return _halves(g)[1] / t_bob[:, None]


def slackness_residual_classical(
    cert: DualCertificate, g: XorGame, v: DeterministicStrategy
) -> float:
    """Residual ``|(diag(t) - Phi~) s|_inf`` for the concatenated strategy s.

    Zero (to tolerance) exactly when the strategy is optimal for a game whose
    quantum and classical biases coincide; bounded away from zero on games
    with a genuine quantum advantage.
    """
    if len(cert.t) != g.m_a + g.m_b:
        raise ShapeMismatch("certificate does not match game dimensions")
    if len(v.alpha) != g.m_a or len(v.beta) != g.m_b:
        raise ShapeMismatch("strategy does not match game dimensions")
    half, half_t = _halves(g)
    s = np.array(list(v.alpha) + list(v.beta), dtype=float)
    return float(np.abs(cert.t * s - np.concatenate((half @ v.beta, half_t @ v.alpha))).max())


def quantum_slackness_check(
    res: QuantumBiasResult, F, tol: float = 1e-6
) -> SlacknessReport:
    """Check that Bob's optimal Gram vectors are F applied to Alice's.

    Only meaningful when quantum equals classical; raises NotApplicable for
    any other classification.
    """
    if res.classification != NO_ADVANTAGE:
        raise NotApplicable(
            f"quantum slackness requires classification {NO_ADVANTAGE!r}, "
            f"got {res.classification!r}"
        )
    Fm = np.asarray(F, dtype=float)
    A = res.gram.vectors[: res.gram.m_a]
    B = res.gram.vectors[res.gram.m_a :]
    if Fm.shape != (B.shape[0], A.shape[0]):
        raise ShapeMismatch(f"F must be {(B.shape[0], A.shape[0])}, got {Fm.shape}")
    residual = float(np.linalg.norm(B - Fm @ A, axis=1).max())
    return SlacknessReport(max_residual=residual, passed=residual <= tol)


def certificate_to_dict(res: QuantumBiasResult) -> dict:
    """JSON-exportable certificate for external re-verification."""
    return {
        "xi_q": res.xi_q,
        "dual_value": res.dual_value,
        "gap": res.gap,
        "t": [float(v) for v in res.cert.t],
        "min_eig": res.cert.min_eig,
        "classification": res.classification,
    }
