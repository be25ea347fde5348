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
to a bipartite cost).

Nothing is trusted without a certificate.  The stationarity candidate
``t_i = |w_i|`` is a dual vector; the solve is *certified* when the duality
gap ``sum_i t_i - tr(Q Phi~)`` is at most ``gap_tol`` and the smallest
eigenvalue of ``diag(t) - Phi~`` is at least ``-feas_tol``.  Sweeps continue
until no row moves by more than ``change_tol``: the gap is second-order in the
distance to the optimal face while the dual error is first-order, so stopping
on the gap alone would leave ``t`` orders of magnitude less accurate than the
primal value.  With the fixed-point rule the dual typically lands within a few
ulps of exact, which the slackness checks downstream rely on.

Restarts are attempted in seed order and the first certified one is returned.
On one numpy/BLAS build, identical (game, seed) reproduces bit-identical
results; across builds the sweep count can move by one and the certificate
floats by a few ulps, because the fixed-point stop meets rounding.  Every solver
setting is a field of :class:`SolveConfig`, which defines its default and
rejects values out of range; the command line takes both from there.
"""

from __future__ import annotations

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
    VerificationFailed,
)
from .game import DeterministicStrategy, XorGame, game_matrix

MAX_SDP_SIDE = 4096

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
    debug: bool = False  # check weak duality / monotone ascent each sweep

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
    inputs first).  ``gram`` is the induced PSD unit-diagonal matrix.
    """

    vectors: np.ndarray
    gram: np.ndarray
    m_a: int

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


def _phi_float(g: XorGame) -> np.ndarray:
    """The game matrix as one float array, each entry ``float(Fraction)``."""
    return np.array(game_matrix(g).phi, dtype=float)


def build_phi_tilde(g: XorGame) -> PhiTilde:
    """Assemble ``[[0, Phi/2], [Phi^T/2, 0]]``; symmetry is exact by mirroring."""
    half = _phi_float(g) / 2.0
    m = g.m_a + g.m_b
    pt = np.zeros((m, m))
    pt[: g.m_a, g.m_a :] = half
    pt[g.m_a :, : g.m_a] = half.T
    pt.setflags(write=False)
    return PhiTilde(matrix=pt)


def _block_update(P: np.ndarray, V: np.ndarray, X: np.ndarray) -> float:
    """Set the rows of ``X`` to ``rownorm(P @ V)``; return the largest move.

    A row whose update direction is zero keeps its value (a stall) and does
    not count as a move.
    """
    W = P @ V
    norms = np.sqrt(np.einsum("ij,ij->i", W, W))
    if norms.all():
        W /= norms[:, None]
        d = float(np.abs(W - X).max())
        X[...] = W
        return d
    live = norms > 0.0
    if not live.any():
        return 0.0
    W = W[live] / norms[live, None]
    d = float(np.abs(W - X[live]).max())
    X[live] = W
    return d


def _coordinate_ascent(
    pt: np.ndarray,
    blocks: tuple[np.ndarray, np.ndarray],
    U: np.ndarray,
    cfg: SolveConfig,
) -> tuple[np.ndarray, int, bool]:
    """Sweep the two block updates until the iterate is a numerical fixed point.

    ``blocks`` are ``Phi/2`` and ``Phi^T/2`` as contiguous arrays.  One sweep
    sets Alice's rows from Bob's, then Bob's from Alice's new rows: the
    Gauss-Seidel sweep over single rows, since ``Phi~`` has zero diagonal
    blocks and no row of a block reads another row of the same block.
    Returns (U, sweeps, converged).  Rows with a zero update direction are
    left unchanged (stalls; they surface as t_i = 0 in the certificate).
    """
    half, half_t = blocks
    m_a = half.shape[0]
    U_A, U_B = U[:m_a], U[m_a:]
    prev_obj = -np.inf
    for sweep in range(1, cfg.max_iters + 1):
        changed = max(_block_update(half, U_B, U_A), _block_update(half_t, U_A, U_B))
        if cfg.debug:
            prev_obj = _check_sweep(pt, U, cfg, prev_obj, sweep)
        if changed <= cfg.change_tol:
            return U, sweep, True
    return U, cfg.max_iters, False


def _check_sweep(
    pt: np.ndarray, U: np.ndarray, cfg: SolveConfig, prev_obj: float, sweep: int
) -> float:
    """Monotone ascent, weak duality and unit rows after a sweep; returns the objective."""
    W = pt @ U
    obj = float(np.sum(U * W))
    dual = float(np.linalg.norm(W, axis=1).sum())
    if obj < prev_obj - 1e-12:
        raise VerificationFailed(
            f"ascent must be monotone: objective {obj!r} after {prev_obj!r} at sweep {sweep}"
        )
    if obj > dual + cfg.feas_tol:
        raise VerificationFailed(
            f"weak duality violated: objective {obj!r} above dual {dual!r} at sweep {sweep}"
        )
    drift = float(np.abs(np.linalg.norm(U, axis=1) - 1.0).max())
    if drift > 1e-12:
        raise VerificationFailed(f"rows drifted {drift:.3e} off the sphere at sweep {sweep}")
    return obj


def _evaluate(pt: np.ndarray, U: np.ndarray):
    W = pt @ U
    t = np.linalg.norm(W, axis=1)
    xi_q = float(np.sum(U * W))
    dual_value = float(t.sum())
    gap = dual_value - xi_q
    min_eig = float(np.linalg.eigvalsh(np.diag(t) - pt)[0])
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
    initial: np.ndarray | None = None,
) -> QuantumBiasResult:
    """Solve the unit-diagonal SDP and certify the value with its dual.

    ``xi_c`` is used only for the advantage classification; when omitted it is
    computed by exact enumeration if feasible.  ``initial`` (a row matrix of
    unit vectors) replaces the random initialization of the first restart,
    which the face probe uses to re-optimize perturbed optima.

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
    pt = build_phi_tilde(g).matrix
    blocks = (
        np.ascontiguousarray(pt[: g.m_a, g.m_a :]),
        np.ascontiguousarray(pt[g.m_a :, : g.m_a]),
    )

    best = None  # smallest-gap uncertified restart so far
    for restart in range(cfg.restarts):
        if initial is not None and restart == 0:
            if initial.shape != (m, m):
                raise ShapeMismatch(f"initial must be {(m, m)}, got {initial.shape}")
            U = np.array(initial, dtype=float)
            norms = np.linalg.norm(U, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            U = U / norms
        else:
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, restart)))
            U = rng.normal(size=(m, m))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
        U, sweeps, converged = _coordinate_ascent(pt, blocks, U, cfg)
        t, xi_q, dual_value, gap, min_eig, stalled = _evaluate(pt, U)
        certified = gap <= cfg.gap_tol and min_eig >= -cfg.feas_tol
        gram = U @ U.T
        for arr in (U, gram, t):
            arr.setflags(write=False)
        res = QuantumBiasResult(
            xi_q=xi_q,
            dual_value=dual_value,
            gap=gap,
            gram=GramSolution(vectors=U, gram=gram, m_a=g.m_a),
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


def extract_F(
    cert: DualCertificate, g: XorGame, feas_tol: float = SolveConfig.feas_tol
) -> np.ndarray:
    """Coupling matrix ``F = Lambda^{-1} Phi^T`` from the dual diagonal.

    At a no-advantage optimum this maps Alice's optimal signs to Bob's forced
    response.  Requires every Bob-side t entry to be positive (exhaustive
    games guarantee this); otherwise raises SingularLambda.
    """
    t_bob = cert.t[g.m_a :]
    if len(t_bob) != g.m_b:
        raise ShapeMismatch("certificate does not match game dimensions")
    if np.any(t_bob <= feas_tol):
        raise SingularLambda(
            "some Bob-side dual entries are numerically zero; "
            "game is not exhaustive or the certificate is invalid"
        )
    return _phi_float(g).T / (2.0 * t_bob)[:, None]


def slackness_residual_classical(
    cert: DualCertificate, g: XorGame, v: DeterministicStrategy
) -> float:
    """Residual ``|(diag(t) - Phi~) s|_inf`` for the concatenated strategy s.

    Zero (to tolerance) exactly when the strategy is optimal for a game whose
    quantum and classical biases coincide; bounded away from zero on games
    with a genuine quantum advantage.
    """
    if len(v.alpha) != g.m_a or len(v.beta) != g.m_b:
        raise ShapeMismatch("strategy does not match game dimensions")
    pt = build_phi_tilde(g).matrix
    s = np.array(list(v.alpha) + list(v.beta), dtype=float)
    return float(np.abs((np.diag(cert.t) - pt) @ s).max())


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
