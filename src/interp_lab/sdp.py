"""Engines for Schur-product semidefinite problems.

The feasibility problem: find positive semidefinite blocks ``G_1..G_d`` with

    sum_l  G_l ∘ R_l  =  T          (∘ is the entrywise product)

for fixed Hermitian ``R_l`` with no zero entries and Hermitian target ``T``.
Dykstra's algorithm alternates two Frobenius projections with correction
terms: the projection onto the affine slice has a closed form because the
constraint map acts entrywise, and the PSD projection is an eigenvalue clip.
It stops at checked blocks or at a checked Farkas dual built from their residual.
A dual barrier method, Newton steps with exact line searches, brackets the smallest
``u`` for which ``u A - C`` decomposes.  Verdicts (to a caller's ``tol``) and bracket
ends (to their own rounding) are re-checked from scratch, by residual, eigenvalue margin
and dual eigenvalues, so a certificate never depends on solver internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import eigh_hermitian, eigvalsh_hermitian, eigvalsh_lower, frobenius, hermitian_part
from .errors import ArgumentError

# Early exit of a run that is left undecided: neither blocks nor a Farkas dual
# passed their checks.  STALL_IMPROVEMENT alone cannot fire while the residual
# creeps toward a positive limit like 1/k, so a projected-budget rule backs it
# up: when the iterations still needed at the current improvement rate exceed
# the remaining budget by STALL_SAFETY, the run ends now.  Improvement per
# window does not accelerate for these projection methods, so every run ended
# this way would also have reached the iteration cap.
STALL_WINDOW = 500
STALL_IMPROVEMENT = 1e-14
STALL_SAFETY = 2.0

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 50000

# Units of eps in every rounding allowance: boundary-feasible rank-one Pick matrices reach
# -1.3 eps * max|lambda| by rounding alone; 4 units stay well below infeasible margins.
EIG_ROUNDING_UNITS = 4.0

# Barrier method: Newton steps per solve, the largest growth of the barrier weight t
# at a centred point, and the Newton decrement below which a point is centred.
BARRIER_MAX_STEPS = 200
BARRIER_GROWTH = 100.0
BARRIER_CENTERED = 0.5


@dataclass(eq=False)
class AffineConstraint:
    """The affine slice  sum_l G_l ∘ R_l = target  of the block space.

    Inputs are symmetrized on construction; every entry of every R matrix
    must be nonzero (automatic for reciprocal kernels on the open disk), so
    the entrywise denominator ``sum_l |R_l|^2`` never vanishes.
    """

    r_matrices: np.ndarray  # (d, n, n)
    target: np.ndarray      # (n, n)
    denom: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        r = np.asarray(self.r_matrices, dtype=complex)
        if r.ndim == 2:
            r = r[None, :, :]
        if r.ndim != 3 or r.shape[1] != r.shape[2]:
            raise ArgumentError(f"R matrices must be square and stacked, got shape {r.shape}")
        t = np.asarray(self.target, dtype=complex)
        if t.shape != r.shape[1:]:
            raise ArgumentError(f"target shape {t.shape} does not match R matrices {r.shape[1:]}")
        if np.min(np.abs(r)) == 0.0:
            raise ArgumentError("every entry of every R matrix must be nonzero")
        self.r_matrices = hermitian_part(r)
        self.target = hermitian_part(t)
        self.denom = np.sum(np.abs(self.r_matrices) ** 2, axis=0)

    @property
    def num_blocks(self) -> int:
        return self.r_matrices.shape[0]

    @property
    def size(self) -> int:
        return self.r_matrices.shape[1]

    def apply(self, blocks) -> np.ndarray:
        """Image of the blocks under the constraint map sum_l G_l ∘ R_l."""
        return np.einsum("lij,lij->ij", np.asarray(blocks, dtype=complex), self.r_matrices)

    def adjoint(self, s) -> np.ndarray:
        """Adjoint of the constraint map: S -> (conj(R_l) ∘ S)_l."""
        return np.conj(self.r_matrices) * np.asarray(s, dtype=complex)[None, :, :]

    def zero_blocks(self) -> np.ndarray:
        return np.zeros_like(self.r_matrices)


def project_psd(a) -> np.ndarray:
    """Frobenius-nearest PSD matrix (batched over leading axes): the symmetrized input
    with its negative eigenvalues clipped to zero."""
    w, v = eigh_hermitian(a)
    w = np.clip(w, 0.0, None)
    out = np.einsum("...ik,...k,...jk->...ij", v, w, np.conj(v))
    return hermitian_part(out)


def project_affine(blocks, constraint: AffineConstraint) -> np.ndarray:
    """Frobenius projection of a block tuple onto the affine slice.

    Closed form: G_l += conj(R_l) ∘ S with S = (T - sum_m G_m ∘ R_m) ⊘ sum_m |R_m|^2,
    the least-norm correction because the constraint map composed with its
    adjoint is entrywise multiplication by the denominator.
    """
    blocks = np.asarray(blocks, dtype=complex)
    residual = constraint.target - constraint.apply(blocks)
    s = residual / constraint.denom
    return blocks + constraint.adjoint(s)


def check_certificate(blocks, constraint: AffineConstraint) -> tuple[float, float]:
    """Recompute (affine residual, PSD margin) directly from the blocks."""
    blocks = np.asarray(blocks, dtype=complex)
    return frobenius(constraint.target - constraint.apply(blocks)), float(np.min(eigvalsh_hermitian(blocks)))


@dataclass(eq=False)
class SdpResult:
    """Outcome of a feasibility solve.

    ``feasible`` is True for blocks that pass ``check_certificate``; False for infeasible data, with
    the Farkas ``dual`` re-checked from scratch (pick's single-slice shortcut decides exactly without
    one); None when the stall rule or the iteration budget ended the run undecided.  ``blocks`` is
    the best iterate reached; :func:`pick.agler_feasible` sets ``relative_residual``, the residual
    over ‖T‖_F, and ``tolerance``, the allowance of both checks.
    """

    feasible: bool | None
    blocks: np.ndarray
    affine_residual: float
    psd_margin: float
    iterations: int
    dual: np.ndarray | None = None
    relative_residual: float | None = None
    tolerance: float | None = None


def _farkas_dual(residual, constraint: AffineConstraint, tol: float) -> np.ndarray | None:
    """Y = -``residual`` ⊘ sum_l |R_l|^2, ``residual`` = T - sum_l G_l ∘ R_l, lifted by s I until every
    conj(R_l)∘Y is PSD, if it passes Re<T,Y> < -tol (|Y|_F + sum_l tr(conj(R_l)∘Y)); else None.  As
    <T,Y> = <T - sum G∘R, Y> + sum_l <G_l, conj(R_l)∘Y>, no blocks with residual <= tol and margin
    >= -tol then exist.  Y and each conj(R_l)∘Y are exactly Hermitian, as the blocks' residual is."""
    y = -residual / constraint.denom
    lift = np.real(np.diagonal(constraint.r_matrices, axis1=1, axis2=2)).min(axis=1)
    deficit = -eigvalsh_lower(constraint.adjoint(y))[:, 0]
    y.flat[::constraint.size + 1] += np.max((np.maximum(deficit, 0.0) + 1e-12 * frobenius(y)) / lift)
    s = constraint.adjoint(y)
    bound = -tol * (frobenius(y) + float(np.real(np.trace(s, axis1=1, axis2=2).sum())))
    return y if np.vdot(constraint.target, y).real < bound and eigvalsh_lower(s).min() >= 0.0 else None


def _check_parameters(max_iters=1, **tolerances: float) -> None:
    """Each named tolerance finite and > 0, ``max_iters`` an integer >= 1; else :class:`ArgumentError`."""
    for name, value in tolerances.items():
        if not 0.0 < value < np.inf:
            raise ArgumentError(f"{name} must be finite and > 0, got {value}")
    if isinstance(max_iters, bool) or not (isinstance(max_iters, (int, np.integer)) and max_iters >= 1):
        raise ArgumentError(f"max_iters must be an integer >= 1, got {max_iters}")


def dykstra_solve(constraint: AffineConstraint, tol: float = DEFAULT_TOL,
                  max_iters: int = DEFAULT_MAX_ITERS) -> SdpResult:
    """Dykstra's alternating projections between the affine slice and the PSD cone.

    Blocks start at zero (deterministic, reproducible runs).  The iterate reported after each sweep
    is the PSD-projected one, so its residual measures infeasibility; success requires the
    from-scratch certificate ``affine_residual <= tol`` and ``psd_margin >= -tol``.  When the sets
    do not meet, the residual tends to their displacement: ``_farkas_dual`` at sweeps 1, 2, 4, 8, ...
    Each sweep's residual matrix serves that test and both decided exits, which add only the margin's
    eigensolve.  Bad ``tol`` or ``max_iters``: :class:`ArgumentError`, as in :func:`pick.agler_feasible`.
    """
    _check_parameters(max_iters, tol=tol)
    x, p, q = (constraint.zero_blocks() for _ in range(3))
    best_res = window_best = np.inf
    best_blocks = x.copy()
    for k in range(1, max_iters + 1):
        y = project_affine(x + p, constraint)
        p = x + p - y
        x = project_psd(y + q)
        q = y + q - x
        res = frobenius(residual := constraint.target - constraint.apply(x))
        if res < best_res:
            best_res, best_blocks = res, x.copy()
        if res <= tol and (margin := float(np.min(eigvalsh_lower(x)))) >= -tol:
            return SdpResult(True, x, res, margin, k)
        if k & (k - 1) == 0 and (dual := _farkas_dual(residual, constraint, tol)) is not None:
            return SdpResult(False, x, res, float(np.min(eigvalsh_lower(x))), k, dual)
        if k % STALL_WINDOW == 0:
            improvement = window_best - best_res
            if (improvement < STALL_IMPROVEMENT
                    or (best_res - tol) / improvement * STALL_WINDOW > STALL_SAFETY * (max_iters - k)):
                break
            window_best = best_res
    return SdpResult(None, best_blocks, *check_certificate(best_blocks, constraint), k)


@dataclass(eq=False)
class Bracket:
    """Certified ends of ``min u`` such that ``u A - C`` decomposes: ``lower`` a closed-form end or, when larger, the
    dual bound of ``dual``; ``upper`` one or the u where ``blocks`` decompose (inf and None when none passed a check);
    ``method`` is ``interior-point`` (``steps`` Newton steps), ``closed-form`` or ``two-point-exact``."""

    lower: float
    upper: float
    dual: np.ndarray | None
    blocks: np.ndarray | None
    steps: int
    method: str


def _decomposes(r, target, blocks) -> bool:
    """Whether ``check_certificate`` finds residual <= a and margin >= -a, the rounding of
    the check itself: a = EIG_ROUNDING_UNITS (d + n) eps (‖T‖_F + Σ_l ‖|G_l|∘|R_l|‖_F).
    Entry ij of T − Σ_l G_l∘R_l, d products and d + 1 sums, rounds by about (d + 1) eps
    (|T_ij| + Σ_l |G_l,ij R_l,ij|); a Hermitian eigensolve of an n×n block is backward
    stable to about n eps of its size, here weighed through R_l as in the sum."""
    c = AffineConstraint(r, target)
    residual, margin = check_certificate(blocks, c)
    weighed = float(np.linalg.norm(np.abs(blocks) * np.abs(c.r_matrices), axis=(1, 2)).sum())
    a = EIG_ROUNDING_UNITS * (c.num_blocks + c.size) * np.finfo(float).eps * (frobenius(c.target) + weighed)
    return residual <= a and margin >= -a


def _certified_primal(r, a, c, u: float, blocks):
    """(u', blocks') that pass :func:`_decomposes`, or None: the blocks projected
    onto the slice at ``u``, each lifted by delta_l (A ⊘ R_l) to PSD margin 0,
    which raises ``u`` by sum_l delta_l."""
    blocks, lift = project_affine(blocks, AffineConstraint(r, u * a - c)), hermitian_part(a / r)
    delta = (np.maximum(0.0, -eigvalsh_hermitian(blocks)[:, 0])
             / np.maximum(eigvalsh_hermitian(lift)[:, 0], np.finfo(float).eps))
    u, blocks = u + float(np.sum(delta)), blocks + delta[:, None, None] * lift
    return (u, blocks) if _decomposes(r, u * a - c, blocks) else None


def _step_length(mu, decrement: float) -> float:
    """The α maximizing φ(α) = α(δ² − Σμ) + Σ log(1 + αμ_i), the barrier along a step of decrement δ and
    d·n eigenvalues, the floats ``mu``: Newton steps on φ' from 1/(1 + δ), where φ' ≥ 0, to 0.9/(−min μ)."""
    low = alpha = 1.0 / (1.0 + decrement)
    linear, least = decrement * decrement - sum(mu), min(mu, default=0.0)
    # No boundary and φ' ≥ δ² − Σμ ≥ 0: no maximum (rounding only, or dY = 0), so the damped step.
    high = max(low, -0.9 / least) if least < 0.0 else (np.inf if linear < 0.0 else low)
    for _ in range(16):
        q = [m / (1.0 + alpha * m) for m in mu]
        curvature = sum([x * x for x in q])
        last, alpha = alpha, min(max(alpha + (linear + sum(q)) / curvature, low), high) if curvature else alpha
        if abs(alpha - last) <= 1e-6 * alpha:
            break
    return alpha


def barrier_solve(r, a, c, bracket: tuple[float, float], gap: float) -> Bracket:
    """Bracket ``min u`` such that ``u A - C = sum_l G_l ∘ R_l`` over PSD blocks.

    With ``A`` = I or J, Y = I/n is strictly feasible for the dual: max <C,Y>
    subject to <A,Y> = 1 and S_l = conj(R_l)∘Y >= 0, a lower bound on u as
    <G∘R, Y> = <G, conj(R)∘Y>.  Newton steps maximize t<C,Y> + sum_l log det S_l, each by an exact
    line search on the eigenvalues of L_l^-1 (conj(R_l)∘dY) L_l^-H, S_l = L_l L_l^H, or damped to
    1/(1+δ) where that eigensolve or the new Cholesky fails.  A step dY with multiplier nu gives blocks
    G_l = (W_l - W_l (conj(R_l)∘dY) W_l) / t, W_l = S_l^-1, that solve sum_l G_l ∘ R_l = (nu/t) A - C
    and are PSD for a Newton decrement below 1.  Each centred point checks the dual end by the
    eigenvalues of the S_l, the primal end once nu/t is within ``gap`` of the dual end, and grows t,
    until the ends are ``gap`` apart; an exit before that checks the primal ends of the centred points
    it skipped.  ``bracket`` holds known ends: its lower one joins the dual bound.  A centre's gap is
    d n / t, so t grows from d n / (its width) by the fewest equal factors up to BARRIER_GROWTH that
    reach 2 d n / ``gap``, and by that factor beyond.
    """
    d, n, _ = r.shape
    rc, vec_a, vec_c = np.conj(r), np.reshape(a, -1), np.reshape(c, -1)
    outer = np.einsum("lij,lkm->lijkm", r, rc)  # vec R_l vec R_l^H
    y, t, factor = np.eye(n, dtype=complex) / n, d * n / max(bracket[1] - bracket[0], gap), None
    growth = (ratio := 2.0 * d * n / gap / t) ** (1.0 / np.ceil(np.log(ratio) / np.log(BARRIER_GROWTH)))
    result = Bracket(bracket[0], np.inf, y, None, 0, "interior-point")
    skipped = []  # (nu/t, blocks) of centred points whose primal end was not checked

    def certify(u, blocks):
        primal = _certified_primal(r, a, c, u, blocks)
        if primal is not None and primal[0] < result.upper:
            result.upper, result.blocks = primal
    # Bordered Newton system [[H, a], [a^H, 0]] in Jacobi scaling, by LU: eliminating nu through H^-1
    # cancels badly at large t.  H does not depend on t, so C is a right-hand side for the step after growth.
    kkt, rhs = np.zeros((n * n + 1,) * 2, dtype=complex), np.zeros((n * n + 1, 2), dtype=complex)
    for step in range(1, BARRIER_MAX_STEPS + 1):
        result.steps = step
        try:  # W_l = L^-H L^-1 stays PSD however S_l is conditioned
            linv = np.linalg.inv(np.linalg.cholesky(rc * y) if factor is None else factor)
            w = (linv_h := linv.conj().swapaxes(1, 2)) @ linv
            # dY -> sum_l R_l ∘ (W_l (conj(R_l)∘dY) W_l), as (W X W)_ij = sum_km W_ik X_km W_mj.
            hess = np.einsum("lijkm,lik,lmj->ijkm", outer, w, w).reshape(n * n, -1)
            grad = t * c + (w * r).sum(axis=0)
            scale = hess.diagonal().real ** -0.5
            kkt[:-1, :-1] = scale[:, None] * hess * scale
            kkt[:-1, -1] = kkt[-1, :-1] = scale * vec_a
            rhs[:-1, 0], rhs[:-1, 1] = scale * grad.reshape(-1), scale * vec_c
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            break
        (dy, dy_c), nu = hermitian_part((scale[:, None] * sol[:-1]).T.reshape(2, n, n)), float(sol[-1, 0].real)
        decrement = max(float(np.vdot(dy, grad).real), 0.0) ** 0.5
        if decrement < BARRIER_CENTERED:
            dual = float(np.real(np.vdot(c, y)) / np.real(np.vdot(a, y)))
            if dual > result.lower and np.min(eigvalsh_hermitian(rc * y)) >= 0.0:
                result.lower, result.dual = dual, y
            centred = nu / t, hermitian_part(w - w @ (rc * dy) @ w) / t
            if centred[0] - result.lower <= gap:  # only here can the bracket close
                certify(*centred)
            else:
                skipped.append(centred)
            if result.upper - result.lower <= gap:
                break
            dy, grad, t = dy + (growth - 1.0) * t * dy_c, grad + (growth - 1.0) * t * c, growth * t
            decrement = max(float(np.vdot(dy, grad).real), 0.0) ** 0.5
        try:  # the new point's Cholesky factors serve the next step
            alpha = _step_length(np.linalg.eigvalsh(linv @ (rc * dy) @ linv_h).ravel().tolist(), decrement)
            factor = np.linalg.cholesky(rc * (y_next := y + alpha * dy))
        except np.linalg.LinAlgError:
            factor, y_next = None, y + dy / (1.0 + decrement)
        y = y_next
    if result.upper - result.lower > gap:
        for centred in skipped:
            certify(*centred)
    return result
