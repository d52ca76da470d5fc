"""Pick-matrix feasibility on the disk and Schur-product decomposition
constants on the polydisc.

The one-variable test is a direct eigenvalue check of the Pick matrix
``[(C^2 - w_i conj(w_j)) K(z_i, z_j)]``.  The polydisc analogues quantify
over all admissible kernels; that quantifier reduces to semidefinite
feasibility of decompositions ``sum_l G_l ∘ R_l = T`` where
``R_l = [1/k_l(p_i^l, p_j^l)]``, solved by :mod:`interp_lab.sdp`.  Each optimal
constant lies between two eigenvalue closed forms; where these differ, one
interior-point solve brackets it to a certified gap.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from ._linalg import eigvalsh_hermitian, eigvalsh_lower, frobenius, hermitian_part
from .errors import ArgumentError, BudgetError, DomainError, NumericError
from .gramian import PSD_TOL_PER_POINT, check_distinct
from .sdp import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    EIG_ROUNDING_UNITS,
    AffineConstraint,
    Bracket,
    SdpResult,
    _check_parameters,
    _decomposes,
    barrier_solve,
    check_certificate,
    dykstra_solve,
    project_psd,
)

# Default certified gap of a constant, and the square of the largest dual
# end of an interpolation constant accepted.
BISECTION_TOL = 1e-5
BRACKET_LIMIT = 1e6


def as_product_spec(specs) -> kernels.ProductKernelSpec:
    """Accept a KernelSpec, a ProductKernelSpec, or a list of factors."""
    if isinstance(specs, kernels.ProductKernelSpec):
        return specs
    if isinstance(specs, kernels.KernelSpec):
        return kernels.ProductKernelSpec((specs,))
    return kernels.ProductKernelSpec(tuple(specs))


def _finite_values(values) -> tuple[complex, ...]:
    """The values as complex numbers; :class:`ArgumentError` names the first that is not finite."""
    vals = tuple(complex(v) for v in values)
    for i, v in enumerate(vals):
        if not cmath.isfinite(v):
            raise ArgumentError(f"values[{i}] must be finite, got {v}")
    return vals


@dataclass(frozen=True)
class PickProblem:
    """Interpolation data: points, target values, and a norm bound."""

    points: tuple[tuple[complex, ...], ...]
    values: tuple[complex, ...]
    bound: float
    # The validated (n, d) point array, the one that the kernel matrix reads.
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = _finite_values(self.values)
        array = check_distinct(self.points)
        object.__setattr__(self, "_array", array)
        object.__setattr__(self, "points", tuple(map(tuple, array.tolist())))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "bound", float(self.bound))
        if len(array) != len(vals):
            raise ArgumentError(f"{len(array)} points but {len(vals)} values")
        if not self.bound > 0.0:
            raise ArgumentError(f"norm bound must be positive, got {self.bound}")
        # Every kernel here has k(z, z) <= 1/(1 − |z|²), so below 1e300 no entry or eigenvalue (at most
        # n entries) of the d = 1 Pick matrix overflows, and below 1e150 no Frobenius norm (a sum of
        # squares) of C²J − W or of any (C²J − W) ∘ K_l for d >= 2.
        peak = max(v.real * v.real + v.imag * v.imag for v in vals)
        scale = len(array) * (self.bound * self.bound + peak) / (1.0 - float(np.abs(array).max()) ** 2)
        if not scale <= (limit := 1e300 if array.shape[1] == 1 else 1e150):
            raise NumericError(f"norm bound {self.bound:g} out of range: n*(C^2 + max|w|^2)/(1 - max|z|^2) "
                               f"= {scale:.3g} exceeds {limit:g}")

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    @property
    def size(self) -> int:
        return len(self.points)


def pick_matrix(problem: PickProblem, spec: kernels.KernelSpec) -> np.ndarray:
    """One-variable Pick matrix [(C^2 - w_i conj(w_j)) K(z_i, z_j)], Hermitian up to
    rounding; :func:`pick_psd_test` symmetrizes it once, in its eigensolve."""
    if problem.dimension != 1:
        raise ArgumentError(f"one-variable test needs dimension 1, got {problem.dimension}")
    k = kernels._series_matrix((spec,), problem._array)
    w = np.asarray(problem.values)
    return (problem.bound ** 2 - np.outer(w, np.conj(w))) * k


def pick_psd_test(problem: PickProblem, spec: kernels.KernelSpec) -> tuple[bool, float]:
    """Feasibility of the one-variable Pick matrix; margin is its bottom eigenvalue.

    The margin may fall below zero by ``PSD_TOL_PER_POINT * n * min(1, max|P_ij|)``
    or by ``EIG_ROUNDING_UNITS`` units of eigenvalue rounding, ``eps * max |lambda|``,
    whichever is larger; so neither a large nor a small scale lets the slack decide.
    """
    p = pick_matrix(problem, spec)
    w = eigvalsh_hermitian(p)
    slack = PSD_TOL_PER_POINT * problem.size * min(1.0, np.max(np.abs(p)))
    rounding = EIG_ROUNDING_UNITS * np.finfo(float).eps * np.max(np.abs(w))
    return bool(w[0] >= -max(slack, rounding)), float(w[0])


def inverse_kernel_stack(points, spec: kernels.ProductKernelSpec) -> np.ndarray:
    """Stacked matrices R_l = [1/k_l(p_i^l, p_j^l)], one slice per factor."""
    coords = kernels.as_points(points, spec.dimension).T
    return np.stack([kernels.inv_kernel_form(factor, z[:, None], z[None, :])
                     for factor, z in zip(spec.factors, coords)])


def _distinct_slices(r: np.ndarray) -> list[int]:
    """Slices equal to no earlier one, by max|R_l − R_m| <= 1e-14 (np.allclose's rule at rtol 0):
    blocks on equal slices merge, G∘R + G'∘R = (G+G')∘R."""
    return [l for l in range(len(r)) if not any(np.abs(r[l] - r[m]).max() <= 1e-14 for m in range(l))]


def agler_feasible(points, specs, target, tol: float = DEFAULT_TOL,
                   max_iters: int = DEFAULT_MAX_ITERS) -> SdpResult:
    """Find PSD blocks G_1..G_d with sum_l G_l ∘ R_l = target, or a certificate
    that none exist; ``feasible`` is None when neither was found within ``max_iters``.

    First all single-block candidates T ⊘ R_l, in one stacked eigensolve: one that passes is a
    certificate, and with one distinct slice the problem collapses to that block (sums and splits
    of PSD matrices are PSD), so its candidate decides.  Else Dykstra, with a Farkas test at sweeps
    1, 2, 4, ....  ``tol`` is absolute, so a target with Frobenius norm below 1 is solved at unit
    norm, and a larger one is accepted to ``EIG_ROUNDING_UNITS`` units of its rounding, ``eps ‖T‖_F``,
    where that exceeds ``tol``; blocks, residual, margin and that ``tolerance`` come back in the
    caller's units, with ``relative_residual``, the residual over ‖T‖_F (0 for T = 0).  Every
    sum_l G_l ∘ R_l is Hermitian, so a target with ‖T − Tᴴ‖_F/2 above that ``tolerance`` raises
    :class:`ArgumentError` naming its most skew entry.
    """
    _check_parameters(max_iters, tol=tol)
    spec = as_product_spec(specs)
    pts = kernels.as_points(points, spec.dimension)
    target = np.asarray(target, dtype=complex)
    if target.shape != (len(pts),) * 2:
        raise ArgumentError(f"target shape {target.shape} does not match {len(pts)} points")
    if not np.all(finite := np.isfinite(target)):
        i, j = np.argwhere(~finite)[0]
        raise ArgumentError(f"target[{i}, {j}] must be finite, got {target[i, j]}")
    r = inverse_kernel_stack(pts, spec)
    scale = min(1.0, frobenius(target)) or 1.0
    constraint = AffineConstraint(r, target / scale)
    tol = max(tol, EIG_ROUNDING_UNITS * np.finfo(float).eps * (norm := frobenius(constraint.target)))
    if frobenius(skew := target - target.conj().T) / 2 > scale * tol:
        i, j = np.unravel_index(np.argmax(np.abs(skew)), skew.shape)
        raise ArgumentError(f"target must be Hermitian: target[{i}, {j}] - conj(target[{j}, {i}]) = "
                            f"{skew[i, j]:.6g}, and ‖T − Tᴴ‖_F/2 = {frobenius(skew) / 2:.3g} exceeds the "
                            f"tolerance {scale * tol:.3g}")
    # Candidate l: T ⊘ R_l, exactly Hermitian as T and R_l are, beside d − 1 zero blocks.
    slices = constraint.r_matrices[:1 if len(_distinct_slices(r)) == 1 else None]
    candidates = constraint.target / slices
    residuals = np.linalg.norm(constraint.target - candidates * slices, axis=(1, 2))
    margins = np.minimum(eigvalsh_lower(candidates)[:, 0], 0.0 if constraint.num_blocks > 1 else np.inf)
    blocks, passed = constraint.zero_blocks(), np.flatnonzero((residuals <= tol) & (margins >= -tol))
    if len(passed):
        blocks[passed[0]] = candidates[passed[0]]
        result = SdpResult(True, blocks, float(residuals[passed[0]]), float(margins[passed[0]]), 1)
    elif len(slices) == 1:
        # The only solution up to PSD splits failed, which decides the problem;
        # its PSD projection is reported as the best iterate.
        blocks[0] = project_psd(candidates[0])
        result = SdpResult(False, blocks, *check_certificate(blocks, constraint), 1)
    else:
        result = dykstra_solve(constraint, tol=tol, max_iters=max_iters)
    result.relative_residual = result.affine_residual / norm if norm else 0.0
    result.blocks, result.affine_residual, result.psd_margin, result.tolerance = (
        scale * result.blocks, scale * result.affine_residual, scale * result.psd_margin, scale * tol)
    return result


def _slices_and_gramians(points, specs, gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Distinct R slices, the unit-diagonal Gramians Ĝ_l of K_l = 1/R_l and their product Ĝ, for a
    checked ``gap``.  T ∘ K_l decomposes T in one block; any decomposition keeps T ∘ Π_l K_l ⪰ 0."""
    _check_parameters(bisection_tol=gap)
    r = inverse_kernel_stack(check_distinct(points), as_product_spec(specs))
    distinct = r[_distinct_slices(r)]
    d = np.sqrt(np.real(np.diagonal(distinct, axis1=1, axis2=2)))
    g = d[:, :, None] * d[:, None, :] / distinct
    g = hermitian_part(np.concatenate([g, np.prod(g, axis=0)[None]]))
    g[:, range(r.shape[1]), range(r.shape[1])] = 1.0
    return distinct, g


def _checked_bracket(r, a, c, necessary: float, certified: float, gap: float) -> Bracket:
    """The checked :class:`Bracket` of the smallest u at which u·A − C decomposes over the R stack.  Where the
    closed-form ends differ by more than ``gap``, one interior-point solve tightens them, re-checked from scratch:
    its blocks by ``_decomposes``; its dual Y by Re⟨A,Y⟩ > 0 and every conj(R_l)∘Y ⪰ 0, which give u ≥ Re⟨C,Y⟩/Re⟨A,Y⟩
    as u·⟨A,Y⟩ − ⟨C,Y⟩ = Σ_l ⟨G_l, conj(R_l)∘Y⟩ ≥ 0.  A certificate that fails or beats no closed-form end is None.

    For n <= 2 the certified end is exact, so no solve runs: with Ĝ_l = [[1,
    g_l], [ḡ_l, 1]] and PSD H_l = [[p_l, q_l], [q̄_l, s_l]], M·I − J = Σ_l H_l ∘
    Ĝ_l^{∘−1} gives 1 = |Σ q_l/g_l| ≤ Σ √(p_l s_l)/|g_l| ≤ (M − 1)/min_l |g_l|,
    so M ≥ 1 + min_l |g_l|, the certified end; N and C follow the same way.
    """
    if r.shape[1] <= 2:
        return Bracket(certified, certified, None, None, 0, "two-point-exact")
    if certified - necessary <= gap:
        return Bracket(necessary, certified, None, None, 0, "closed-form")
    res, blocks, dual = barrier_solve(r, a, c, (necessary, certified), gap), None, None
    if res.upper < certified and _decomposes(r, res.upper * a - c, res.blocks):
        certified, blocks = max(necessary, float(res.upper)), res.blocks
    if np.real(np.vdot(a, res.dual)) > 0.0 and np.min(eigvalsh_hermitian(np.conj(r) * res.dual)) >= 0.0:
        if (bound := float(np.real(np.vdot(c, res.dual)) / np.real(np.vdot(a, res.dual)))) > necessary:
            necessary, dual = bound, res.dual
    return replace(res, lower=necessary, upper=certified, dual=dual, blocks=blocks)


def _condition_a_bracket(points, specs, gap: float) -> Bracket:
    """Checked ends (dual, certified) of the smallest M at which M·I − J decomposes (u = M)."""
    r, g = _slices_and_gramians(points, specs, gap)
    n, top = r.shape[1], eigvalsh_lower(g)[:, -1].tolist()
    return _checked_bracket(r, np.eye(n), np.ones((n, n)), max(1.0, top[-1]), max(1.0, min(top[:-1])), gap)


def condition_a_constant(points, specs, *, bisection_tol: float = BISECTION_TOL) -> float:
    """Smallest M >= 1 such that M*I - J admits a PSD Schur-product decomposition;
    it lies in [max(1, λmax(Ĝ)), max(1, min_l λmax(Ĝ_l))]."""
    return _condition_a_bracket(points, specs, bisection_tol).upper


def _condition_b_bracket(points, specs, gap: float) -> Bracket:
    """Checked ends (certified, dual) of the largest N at which J − N·I decomposes: those of u = −N, swapped."""
    r, g = _slices_and_gramians(points, specs, gap)
    n, bottom = r.shape[1], eigvalsh_lower(g)[:, 0].tolist()
    u = _checked_bracket(r, np.eye(n), -np.ones((n, n)), -min(1.0, bottom[-1]), -max(0.0, max(bottom[:-1])), gap)
    return replace(u, lower=-u.upper, upper=-u.lower)


def condition_b_constant(points, specs, *, bisection_tol: float = BISECTION_TOL) -> float:
    """Largest N in [0, 1] such that J - N*I admits a PSD Schur-product
    decomposition; it lies in [max(0, max_l λmin(Ĝ_l)), min(1, λmin(Ĝ))]."""
    return _condition_b_bracket(points, specs, bisection_tol).lower


def _pick_norm(g: np.ndarray, w: np.ndarray) -> float:
    """√μ, where μ = λmax(L⁻¹(W∘G)L⁻ᴴ), G = LLᴴ, W = [w_i conj(w_j)], is the
    spectral norm of L⁻¹ diag(w) L; infinite when G is singular.  For these kernels
    that means two parallel kernel functions, |g_ij| = 1, decided to 4 units of
    rounding before any Cholesky, whose success there would be rounding alone."""
    if np.max(np.abs(g - np.eye(len(g)))) >= 1.0 - 4.0 * np.finfo(float).eps:
        return np.inf
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return np.inf
    return float(np.linalg.norm(np.linalg.solve(chol, w[:, None] * chol), 2))


def _interpolation_bracket(points, specs, values, gap: float) -> Bracket:
    """Checked ends (dual, certified) of the least C where C²J − W decomposes; certificates: (C/scale)²J − W/scale²."""
    vals = np.asarray(_finite_values(values))
    r, g = _slices_and_gramians(points, specs, gap)
    if len(vals) != (n := r.shape[1]):
        raise ArgumentError(f"{n} points but {len(vals)} values")
    scale = min(1.0, np.max(np.abs(vals))) or 1.0
    # Divided by parts: a complex division forms 1/scale, which overflows for a subnormal scale.
    w = vals.real / scale + 1j * (vals.imag / scale)
    norms = [_pick_norm(x, w) for x in g]
    # The dual end bounds C below; the solve starts from a finite certified end.
    if scale * norms[-1] > np.sqrt(BRACKET_LIMIT):
        raise BudgetError(f"interpolation constant: none certified below {np.sqrt(BRACKET_LIMIT):g}")
    if min(norms[:-1]) == np.inf:
        raise BudgetError("interpolation constant: no single slice gives a finite certified end")
    # Solved for u = C^2: a gap of 2·gap·√μ(Ĝ) on u is at most gap on C.
    u = _checked_bracket(r, np.ones((n, n)), np.outer(w, np.conj(w)),
                         norms[-1] ** 2, min(norms[:-1]) ** 2, 2.0 * gap * norms[-1])
    return replace(u, lower=float(scale * np.sqrt(u.lower)), upper=float(scale * np.sqrt(u.upper)))


def pick_constant_for_values(points, specs, values, *, bisection_tol: float = 1e-6) -> float:
    """Minimal norm bound C for which the interpolation data is feasible, i.e.
    C^2*J - W decomposes; it lies in [√μ(Ĝ), min_l √μ(Ĝ_l)].  C scales with the
    values, so values below unit size are solved at unit size.  :class:`BudgetError`
    when C's dual end exceeds √BRACKET_LIMIT = 1000, or no slice Ĝ_l gives a finite
    certified end."""
    return _interpolation_bracket(points, specs, values, bisection_tol).upper


def vector_valued_feasible(points, specs, n_bound: float) -> bool:
    """Feasibility of J - N*I (the norm-sqrt(N) interpolant sending each point to its
    coordinate vector), from N's checked bracket: True up to its certified end, False
    above its dual end, BudgetError in between, a band at most BISECTION_TOL wide."""
    if not 0.0 < n_bound <= 1.0:
        raise DomainError(f"N must lie in (0, 1], got {n_bound}")
    n = _condition_b_bracket(points, specs, BISECTION_TOL)
    if n.lower < n_bound <= n.upper:
        raise BudgetError(f"J - {n_bound:g}*I undecided: N lies in [{n.lower:.9g}, {n.upper:.9g}]")
    return n_bound <= n.lower
