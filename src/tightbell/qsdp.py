"""Certified quantum bias via the unit-diagonal semidefinite program.

The quantum bias of an XOR game is the optimum of ``tr(Q Phi~)`` over
positive-semidefinite matrices ``Q`` with unit diagonal, where ``Phi~`` is the
symmetric block embedding ``[[0, Phi/2], [Phi^T/2, 0]]``.  We solve the primal
by block-coordinate ascent on the unit-vector (Gram) factorization ``Q = U U^T``:
the row update ``u_i <- w_i / |w_i|`` with ``w_i = sum_j Phi~_ij u_j`` is the
exact maximizer given the other rows, so the objective is monotone.  Because
``Phi~`` has zero diagonal blocks, no row of Alice's block reads another row
of it, and the same holds for Bob: a Gauss-Seidel sweep over the rows is two
block updates, ``U_A <- rownorm(Phi/2 U_B)`` and then
``U_B <- rownorm(Phi^T/2 U_A)``, one matrix product each (the Mixing method
of Wang, Chang and Kolter specialised to a bipartite cost).  The start has
full rank r = m_a + m_b.  After one sweep every row lies in the span of
either side's rows, and the sweeps never leave it, so from sweep 3 on the
rows are kept in an orthonormal basis of the smaller side's, r = min(m_a,
m_b) columns, where the Gram matrices of the iterates are those of the
full-rank ascent in exact arithmetic.  The sweeps converge linearly, with
several geometric modes of the step decaying together, so every
``_RRE_DEPTH + 1`` = 6 sweeps in the narrow basis are followed by a
reduced-rank extrapolation from the last six steps; on the benchmark's
certified games this cuts the sweeps to about a fifth of plain sweeping's,
27-64 a solve.  The solver reads the game only as ``Phi/2`` and
``Phi^T/2``: ``Phi~ U`` is their two block products, and ``diag(t) - Phi~``
is built once per restart, for its eigen-check.  ``Phi~`` itself is formed
only by :func:`build_phi_tilde`, on request.

Nothing is trusted without a certificate.  The stationarity candidate
``t_i = |w_i|`` is a dual vector; the solve is *certified* when the duality
gap ``sum_i t_i - tr(Q Phi~)`` is at most ``gap_tol`` and the smallest
eigenvalue of ``diag(t) - Phi~`` is at least ``-feas_tol``.  Sweeps continue
until no coordinate of the step, in the solver's basis, moves by more than
``change_tol``: the gap is second-order in the distance to the optimal face
while the dual error is first-order, so stopping on the gap alone would
leave ``t`` orders of magnitude less accurate than the primal value.  With the fixed-point rule the dual typically lands within a few
ulps of exact, which the slackness checks downstream rely on.  The
extrapolation does not weaken this: the stop is tested on plain sweeps only,
so a returned iterate is a Gauss-Seidel fixed point whether or not it was
reached by extrapolating.

Restarts are attempted in seed order and the first certified one is returned.
A restart is kept as its Gram vectors ``U`` and its dual ``t`` alone; the
m x m Gram matrix ``U U^T`` is formed only when read.  ``U`` has m columns
when the solve stopped by sweep 2 and min(m_a, m_b) otherwise.  On one
numpy/BLAS build, identical (game, seed) reproduces bit-identical results.
Across builds the certificate floats can move by about 1e-14, because the
fixed-point stop meets rounding.  The sweep count can move too, by more than
one sweep when a cycle's steps are numerically dependent: on small games
``S S^T`` reaches a condition number of 1e20, and the extrapolation's
weights are then set by rounding.  Every solver setting is a field of
:class:`SolveConfig`, which defines its default and rejects values out of
range; the command line takes both from there.
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
)
from .game import DeterministicStrategy, GameMatrix, XorGame, game_matrix

MAX_SDP_SIDE = 4096
_RRE_DEPTH = 5  # K: _sweeps extrapolates from the last K + 1 steps
_EXACT_DENOMINATOR = 1 << 53  # below it _halves divides the whole array at once

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
    # fixed-point stop: the largest coordinate of a sweep's step, in the
    # solver's basis (see _coordinate_ascent)
    change_tol: float = 1e-13

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
    inputs first), in m_a + m_b coordinates when the solve stopped by sweep 2
    and in min(m_a, m_b) otherwise.  Only the vectors are stored: ``gram``,
    the induced PSD unit-diagonal matrix ``vectors @ vectors.T``, is formed on
    each read and returned read-only, and ``C`` is its Alice-Bob block.
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


def _halves(g: XorGame, gm: GameMatrix | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``Phi/2`` and a contiguous ``Phi^T/2``; entries round as ``float(Fraction) / 2``.

    ``gm`` is ``game_matrix(g)``, when the caller has built it already.  Below
    ``_EXACT_DENOMINATOR`` = 2^53 the integers ``L Phi`` (each at most ``L``
    in size) and ``L`` are exact doubles, so one float division of the whole
    array rounds each entry as ``v / L`` does; past it, each entry is divided
    as Python integers.
    """
    if gm is None:
        gm = game_matrix(g)
    L = gm.denominator
    if L < _EXACT_DENOMINATOR:
        half = np.array(gm.ints, dtype=np.float64)
        half /= L
    else:
        half = np.array([[v / L for v in row] for row in gm.ints])
    half /= 2.0
    return half, np.ascontiguousarray(half.T)


def build_phi_tilde(g: XorGame) -> PhiTilde:
    """Assemble ``[[0, Phi/2], [Phi^T/2, 0]]``; symmetry is exact by mirroring."""
    half, half_t = _halves(g)
    pt = np.block([[np.zeros((g.m_a, g.m_a)), half], [half_t, np.zeros((g.m_b, g.m_b))]])
    pt.setflags(write=False)
    return PhiTilde(matrix=pt)


def _sweeps(
    blocks: tuple[np.ndarray, np.ndarray], U: np.ndarray, change_tol: float, max_iters: int
) -> tuple[np.ndarray, int, bool]:
    """Sweep the two block updates until the iterate is a numerical fixed point.

    ``blocks`` are ``Phi/2`` and ``Phi^T/2`` as contiguous arrays.  One sweep
    sets Alice's rows to ``rownorm(Phi/2 U_B)``, then Bob's to
    ``rownorm(Phi^T/2 U_A)`` from Alice's new rows.  Each sweep keeps the rows
    on the unit sphere and does not lower the objective.  On small arrays a
    numpy call costs more to start than to compute, so the norm and step
    buffers are allocated once per call and written in place, and each
    product is written straight into the rows it replaces.

    The stop is read from the step ``D = U - U_prev`` of each sweep, over both
    blocks.  Its squared Frobenius norm ``|D|^2`` is taken once per sweep;
    since ``max|D| <= change_tol`` implies ``|D|^2 <= D.size change_tol^2``,
    the largest entry of ``|D|`` is looked up only when ``|D|^2`` is at most
    twice that (the factor covers rounding).  A sweep skipped this way could
    not have stopped, so the stop falls on the same sweep as with the lookup
    on every sweep.

    The sweeps converge linearly, and several geometric modes of the step
    can decay together, so every ``_RRE_DEPTH + 1`` sweeps of a call are
    followed by :func:`_extrapolate` from the steps of those sweeps.  They
    are kept in ``_RRE_DEPTH + 1`` slots, which double as the
    previous-iterate buffer: each sweep copies ``U`` into its slot and turns
    the slot into its step.  A call of at most ``_RRE_DEPTH`` sweeps cannot
    extrapolate and keeps one slot.  The extrapolation is not proven to
    ascend.  It does not touch the stop: the call returns on the first plain
    sweep that moves no entry by more than ``change_tol``, checked before
    any extrapolation, so the result is a Gauss-Seidel fixed point and ``t``
    is as accurate as without it.  The steps of the running cycle are the
    only state, and they live within one call.

    Returns (U, sweeps, converged); an extrapolation is not a sweep.  Rows
    with a zero update direction are left unchanged by a sweep and by an
    extrapolation (stalls; they surface as t_i = 0 in the certificate).
    """
    half, half_t = blocks
    m_a = half.shape[0]
    norms = np.empty(len(U))
    history = np.empty((_RRE_DEPTH + 1 if max_iters > _RRE_DEPTH else 1, *U.shape))
    column = norms[:, None]
    # (block, rows it reads, norms, norms as a column, rows it sets, their slice)
    halves = (
        (half, U[m_a:], norms[:m_a], column[:m_a], U[:m_a], slice(None, m_a)),
        (half_t, U[:m_a], norms[m_a:], column[m_a:], U[m_a:], slice(m_a, None)),
    )
    # a step with |D|^2 above this has an entry past change_tol (docstring)
    near = 2.0 * U.size * (change_tol * change_tol)
    for sweep in range(1, max_iters + 1):
        step = history[(sweep - 1) % len(history)]
        np.copyto(step, U)
        for P, V, n_x, n_col, X, rows in halves:
            np.matmul(P, V, out=X)  # the rows it replaces are kept in step
            np.sqrt(np.einsum("ij,ij->i", X, X, out=n_x), out=n_x)
            if np.count_nonzero(n_x) == len(n_x):
                X /= n_col
            else:
                live = n_x > 0.0
                X[live] /= n_x[live, None]
                X[~live] = step[rows][~live]
        np.subtract(U, step, out=step)  # D
        dd = np.vdot(step, step)
        if dd <= near and np.abs(step).max() <= change_tol:
            return U, sweep, True
        if sweep % (_RRE_DEPTH + 1) == 0:
            _extrapolate(U, history, norms)
    return U, max_iters, False


def _extrapolate(U: np.ndarray, history: np.ndarray, norms: np.ndarray) -> None:
    """Move ``U`` by reduced-rank extrapolation (RRE) from the steps in ``history``.

    RRE (Sidi, *Vector Extrapolation Methods with Applications*, SIAM 2017)
    fits several geometric modes at once.  With the cycle's steps
    ``D_0 .. D_K`` as the rows of ``S`` and ``U = x_(K+1)`` its last iterate,
    it solves ``(S S^T) y = 1``, sets ``c = cumsum(y / sum(y))`` and moves to
    ``U <- rownorm(U - sum_(j>=1) c_(j-1) D_j)``.  That is
    ``rownorm(sum_j gamma_j x_(j+1))`` with ``gamma = y / sum(y)``, the
    weights summing to 1 whose combination of steps has the least norm.  A
    singular ``S S^T`` (linearly dependent steps) leaves ``U`` as it is.
    ``history`` is overwritten; ``norms`` is a buffer of ``len(U)``.
    """
    steps = history.reshape(len(history), -1)
    try:
        y = np.linalg.solve(steps @ steps.T, np.ones(len(steps)))
    except np.linalg.LinAlgError:
        return
    c = np.cumsum(y)
    c /= c[-1]
    np.matmul(c[:-1], steps[1:], out=steps[0])  # D_0 is read no more
    U -= history[0]
    np.sqrt(np.einsum("ij,ij->i", U, U, out=norms), out=norms)
    U /= norms[:, None]


def _in_smaller_basis(U: np.ndarray, m_a: int) -> np.ndarray:
    """The rows of ``U`` in an orthonormal basis of the smaller side's rows.

    After a sweep, Bob's rows lie in the span of Alice's, and Alice's in the
    span of Bob's previous rows, which Bob's new rows span again; so every
    row that a later sweep reads or writes lies in the span of either side's
    rows, and the smaller side's give a basis of min(m_a, m_b) columns in
    which the Gram matrices of all later iterates are unchanged.  Only a
    stalled row of the larger side, which never moves, can leave the span;
    every row is rescaled to unit length, which makes that row a unit vector
    again and moves the others by rounding.
    """
    side = U[:m_a] if 2 * m_a <= len(U) else U[m_a:]
    V = U @ np.linalg.qr(side.T)[0]
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return V


def _coordinate_ascent(
    blocks: tuple[np.ndarray, np.ndarray], U: np.ndarray, cfg: SolveConfig
) -> tuple[np.ndarray, int, bool]:
    """Run :func:`_sweeps` from the start ``U``, narrowed after sweep 2.

    Sweeps 1 and 2 run at the full width of ``U`` with one step buffer, so a
    solve that stops there allocates nothing for the extrapolation.  The
    rest run in :func:`_in_smaller_basis`, where every buffer is
    m x min(m_a, m_b).  Returns (U, sweeps, converged) with ``U`` in the
    basis it ended in.  ``U`` is dropped once narrowed, so the caller should
    hold no other reference to it.
    """
    U, sweeps, converged = _sweeps(blocks, U, cfg.change_tol, min(2, cfg.max_iters))
    if converged or sweeps == cfg.max_iters:
        return U, sweeps, converged
    U = _in_smaller_basis(U, len(blocks[0]))
    U, more, converged = _sweeps(blocks, U, cfg.change_tol, cfg.max_iters - 2)
    return U, 2 + more, converged


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


def _start(m: int, seed: int, restart: int) -> np.ndarray:
    """Random unit rows, m x m, drawn from ``SeedSequence((seed, restart))``."""
    U = np.random.default_rng(np.random.SeedSequence((seed, restart))).normal(size=(m, m))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    return U


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
    gm = game_matrix(g)  # read by both the enumeration and the solver
    if xi_c is None:
        try:
            xi_c = classical.classical_bias(g, _gm=gm).xi_c
        except TooLarge:
            xi_c = None
    blocks = _halves(g, gm)

    best = None  # smallest-gap uncertified restart so far
    for restart in range(cfg.restarts):
        U, sweeps, converged = _coordinate_ascent(blocks, _start(m, cfg.seed, restart), cfg)
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
