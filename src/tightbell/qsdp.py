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
leave ``t`` orders of magnitude less accurate than the primal value.
With the fixed-point rule the dual typically lands within a few ulps of
exact, which the slackness checks downstream rely on.  The extrapolation
does not weaken this: the stop is tested on plain sweeps only, so a
returned iterate is a Gauss-Seidel fixed point whether or not it was
reached by extrapolating.

Every row norm the solver takes, in the sweeps, the extrapolation, the
narrowing, the start, the dual ``t`` and the slackness check, is
:func:`_row_norms`, ``sqrt(vecdot(X, X))``.  Its dot kernel rounds otherwise
than the ``einsum`` and ``np.linalg.norm`` of earlier builds, so against
those the certificate floats move by up to about 1e-13 in ``t`` and
``sweeps`` by up to about 20 either way; the exact fields, ``certified``,
the classification and ``restarts_used`` are unchanged.

A solve that holds an optimal classical vertex ``s`` (the ``witness``) tries
it before any restart.  When ``xi_q = xi_c``, strong duality and
complementary slackness make the rank-one ``Q = s s^T`` primal optimal with
the dual ``t_i = |(Phi~ s)_i|``, which is the stationarity candidate of the
one-column Gram vectors ``U = s``.  So the witness is evaluated, and
certified or not, by the same rule as a restart, with no sweep.  An
advantage game refuses it first, from a Schur complement of side min(m_a,
m_b) (:func:`_witness_may_certify`: 17-21 us inside a solve of the
benchmark's solver games on a 2-vCPU Xeon, about 2% of the solve), and then
runs the same seeded restarts as without a witness, bit for bit.  On a game with no
advantage the certificate floats are the witness's: the gap is 0 up to
rounding, and ``t`` differs from a swept solve's by about 1e-15.

Restarts are attempted in seed order and the first certified one is returned.
A restart is kept as its Gram vectors ``U`` and its dual ``t`` alone; the
m x m Gram matrix ``U U^T`` is formed only when read.  ``U`` has m columns
when the solve stopped by sweep 2 and min(m_a, m_b) otherwise; a certified
witness is one column.  On one numpy/BLAS build, identical (game, seed)
reproduces bit-identical results.  Across builds the certificate floats
can move by about 1e-14, because the fixed-point stop meets rounding.  The
sweep count can move too, by more than one sweep when a cycle's steps are
numerically dependent: on small games ``S S^T`` reaches a condition number
of 1e20, and the extrapolation's weights are then set by rounding.  The
two solver settings, the seed and the restart count, are the init fields of
:class:`SolveConfig`, which defines their defaults and rejects values out of
range; the command line's solver flags are those fields.  The four solver
tolerances and the sweep budget, ``SolveConfig.max_iters`` = 50,000 a
restart, are fixed class constants; the coupling check reads
``classical.F_RELATION_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np

from . import classical
from .errors import (
    InvalidParameter,
    NotApplicable,
    ShapeMismatch,
    SingularLambda,
    TooLarge,
)
from .exact import _FLOAT_EXACT
from .game import DeterministicStrategy, XorGame

MAX_SDP_SIDE = 4096
_RRE_DEPTH = 5  # K: _sweeps extrapolates from the last K + 1 steps

ADVANTAGE = "advantage"
NO_ADVANTAGE = "no_advantage"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class SolveConfig:
    """Solver settings; defaults certify every desk-scale game in milliseconds.

    The init fields, ``seed`` and ``restarts``, are the solver settings, and
    the command line's solver flags are these fields, in this order.  The
    sweep budget of a restart and the four solver tolerances are fixed class
    constants, not settings; an instance reads them as attributes.  Raises
    InvalidParameter for fewer than one restart or a seed outside
    ``[0, 2^64)``.
    """

    max_iters: ClassVar[int] = 50_000  # coordinate sweeps per restart
    gap_tol: ClassVar[float] = 1e-7
    feas_tol: ClassVar[float] = 1e-8
    adv_tol: ClassVar[float] = 1e-6
    # fixed-point stop: the largest coordinate of a sweep's step, in the
    # solver's basis (see _coordinate_ascent)
    change_tol: ClassVar[float] = 1e-13
    seed: int = 0
    restarts: int = 8

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise InvalidParameter("restarts must be positive")
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
    and in min(m_a, m_b) otherwise; a certified witness is one column, its
    signs.  Only the vectors are stored: ``gram``, the induced PSD
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
    is this restart's position in seed order, counting from 1.  A certified
    classical witness is the result of no restart: ``restarts_used`` 0,
    ``sweeps`` 0 and ``converged`` True.
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


def _halves(g: XorGame) -> tuple[np.ndarray, np.ndarray]:
    """``Phi/2`` and a contiguous ``Phi^T/2``; entries round as ``float(Fraction) / 2``.

    They are the game's array ``L Phi`` divided by ``L``.  Below
    ``_FLOAT_EXACT`` = 2^53 its integers (each at most ``L`` in size) and
    ``L`` are exact doubles, so one float division of the whole array rounds
    each entry as ``v / L`` does; past it, the array is divided as Python
    integers, which is ``v / L`` itself.
    """
    gm = g.matrix
    ints = gm.ints if gm.denominator < _FLOAT_EXACT else gm.ints.astype(object)
    half = (ints / gm.denominator).astype(np.float64, copy=False)
    half /= 2.0
    return half, np.ascontiguousarray(half.T)


def build_phi_tilde(g: XorGame) -> PhiTilde:
    """Assemble ``[[0, Phi/2], [Phi^T/2, 0]]``; symmetry is exact by mirroring."""
    half, half_t = _halves(g)
    pt = np.block([[np.zeros((g.m_a, g.m_a)), half], [half_t, np.zeros((g.m_b, g.m_b))]])
    pt.setflags(write=False)
    return PhiTilde(matrix=pt)


def _row_norms(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The Euclidean norm of each row of ``X``, into ``out`` when given.

    The solver's one norm: ``sqrt(vecdot(X, X))``, two ufunc calls, which on
    the solver's small arrays cost about half of what ``np.einsum`` or
    ``np.linalg.norm`` spends in its Python wrapper.  An all-zero row gets
    exactly 0.0, which the stall path reads.
    """
    return np.sqrt(np.vecdot(X, X, out=out), out=out)


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
            _row_norms(X, out=n_x)
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
    c = y.cumsum()
    c /= c[-1]
    np.matmul(c[:-1], steps[1:], out=steps[0])  # D_0 is read no more
    U -= history[0]
    U /= _row_norms(U, out=norms)[:, None]


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
    V /= _row_norms(V)[:, None]
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
    t = _row_norms(W)
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
    U /= _row_norms(U)[:, None]
    return U


def _witness_may_certify(blocks: tuple[np.ndarray, np.ndarray], s: np.ndarray) -> bool:
    """Whether ``diag(|Phi~ s|) - Phi~ + feas_tol I`` is positive definite.

    The cheap refusal of a witness start, taken before its eigen-check.  With
    ``t = |Phi~ s|`` and ``D = diag(t) + feas_tol I``, the matrix is
    ``[[D_A, -Phi/2], [-Phi^T/2, D_B]]``, and ``D`` is positive definite, so
    it is positive definite exactly when the Schur complement of the larger
    side's block is: ``D_s - R R^T`` on the smaller side s, with ``R = H
    D_l^(-1/2)`` and ``H`` its block of ``Phi/2`` or ``Phi^T/2``.  Its
    diagonal, ``D_s - |R_i|^2``, is read first, and a negative entry refuses
    the witness; this alone refused all 30 solver games of the benchmark's
    ``enum-cert`` workload and 433 of the 444 advantage games of the tests'
    corpus.  Otherwise one Cholesky factorisation of side min(m_a, m_b)
    decides.  It is a filter only; the certificate is :func:`_evaluate`'s.
    """
    half, half_t = blocks
    m_a, m_b = half.shape
    t_a, t_b = np.abs(half @ s[m_a:]), np.abs(half_t @ s[:m_a])
    H, t_s, t_l = (half, t_a, t_b) if m_a <= m_b else (half_t, t_b, t_a)
    R = H / np.sqrt(t_l + SolveConfig.feas_tol)
    d_s = t_s + SolveConfig.feas_tol
    if np.any(np.square(_row_norms(R)) > d_s):
        return False
    try:
        np.linalg.cholesky(np.diag(d_s) - R @ R.T)
    except np.linalg.LinAlgError:
        return False
    return True


def _result(
    g: XorGame,
    blocks: tuple[np.ndarray, np.ndarray],
    U: np.ndarray,
    xi_c: Fraction | None,
    cfg: SolveConfig,
    restarts_used: int,
    sweeps: int,
    converged: bool,
) -> QuantumBiasResult:
    """The result of the Gram vectors ``U``, certified by :func:`_evaluate`."""
    t, xi_q, dual_value, gap, min_eig, stalled = _evaluate(blocks, U)
    certified = gap <= cfg.gap_tol and min_eig >= -cfg.feas_tol
    for arr in (U, t):
        arr.setflags(write=False)
    return QuantumBiasResult(
        xi_q=xi_q,
        dual_value=dual_value,
        gap=gap,
        gram=GramSolution(vectors=U, m_a=g.m_a),
        cert=DualCertificate(t=t, min_eig=min_eig),
        certified=certified,
        classification=_classify(xi_q, certified, xi_c, cfg),
        xi_c=xi_c,
        restarts_used=restarts_used,
        sweeps=sweeps,
        converged=converged,
        stalled_rows=stalled,
    )


def solve_quantum_bias(
    g: XorGame,
    cfg: SolveConfig | None = None,
    xi_c: Fraction | None = None,
    *,
    witness=None,
) -> QuantumBiasResult:
    """Solve the unit-diagonal SDP and certify the value with its dual.

    ``xi_c`` is used only for the advantage classification; when omitted it is
    computed by exact enumeration if feasible, and the enumeration's witness
    strategy is the ``witness``.  A caller that passes ``xi_c`` may pass an
    optimal vertex for it as ``witness``: m_a + m_b signs ``[alpha | beta]``,
    a row of ``classical.OptimalVertexSet.signs``.  A witness without
    ``xi_c``, or of another length or with an entry other than +-1, raises
    InvalidParameter.

    A witness is tried before any restart.  When the game has no advantage,
    ``Q = s s^T`` is primal optimal and its dual is ``t = |Phi~ s|``, so the
    one-column Gram vectors ``s`` are evaluated as a restart's are.  If they
    certify, that is the result, with ``sweeps`` 0, ``converged`` True and
    ``restarts_used`` 0, since no restart ran.  A witness that
    :func:`_witness_may_certify` refuses, or that does not certify, is
    dropped, and the restarts run as without it.

    Restart ``k`` starts from random unit rows drawn from
    ``SeedSequence((cfg.seed, k))``, so a (game, seed) pair fixes every
    starting point.  Each restart yields one result; the first certified one
    is returned.  If none certifies, the one with the smallest gap (the
    earliest on a tie) is returned uncertified: "advantage" if its primal
    value alone clears ``xi_c`` by more than adv_tol, otherwise "undecided" —
    never a fabricated verdict.  A restart whose dual is infeasible is not
    certified, converged or not: a loose ``change_tol`` can stop the ascent
    with the second-order gap below ``gap_tol`` while the first-order error
    in ``t`` still leaves ``diag(t) - Phi~`` indefinite.
    """
    cfg = cfg or SolveConfig()
    m = g.m_a + g.m_b
    if m > MAX_SDP_SIDE:
        raise TooLarge(f"SDP side {m} exceeds dense budget {MAX_SDP_SIDE}")
    s = None  # the witness as floats
    if xi_c is None:
        if witness is not None:
            raise InvalidParameter("a witness needs the xi_c it attains")
        try:
            cb = classical.classical_bias(g)
        except TooLarge:
            pass
        else:
            xi_c, s = cb.xi_c, np.array(cb.witness.alpha + cb.witness.beta, dtype=np.float64)
    elif witness is not None:
        s = np.asarray(witness, dtype=np.float64)
        if s.shape != (m,) or np.any(np.abs(s) != 1.0):
            raise InvalidParameter(f"a witness is {m} signs +-1")
    blocks = _halves(g)

    if s is not None and _witness_may_certify(blocks, s):
        res = _result(g, blocks, s[:, None], xi_c, cfg, 0, 0, True)
        if res.certified:
            return res
    best = None  # smallest-gap uncertified restart so far
    for restart in range(cfg.restarts):
        U, sweeps, converged = _coordinate_ascent(blocks, _start(m, cfg.seed, restart), cfg)
        res = _result(g, blocks, U, xi_c, cfg, restart + 1, sweeps, converged)
        if res.certified:
            return res
        if best is None or res.gap < best.gap:
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


def quantum_slackness_check(res: QuantumBiasResult, F) -> classical.FRelationReport:
    """Check that Bob's optimal Gram vectors are F applied to Alice's.

    The residual is the largest row norm of ``B - F A``, which on
    1-dimensional vectors is the entrywise measure of
    `classical.verify_F_relation`.  The report is that check's
    `classical.FRelationReport`, passing at most the same fixed
    ``classical.F_RELATION_TOL``.  Only meaningful when quantum equals
    classical; raises NotApplicable for any other classification.
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
    residual = float(_row_norms(B - Fm @ A).max())
    return classical.FRelationReport(
        max_residual=residual, all_pass=residual <= classical.F_RELATION_TOL
    )


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
