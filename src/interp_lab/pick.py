"""Pick-matrix feasibility on the disk and Schur-product decomposition
constants on the polydisc.

The one-variable test is a direct eigenvalue check of the Pick matrix
``[(C^2 - w_i conj(w_j)) K(z_i, z_j)]``.  The polydisc analogues quantify
over all admissible kernels; that quantifier reduces to semidefinite
feasibility of decompositions ``sum_l G_l ∘ R_l = T`` where
``R_l = [1/k_l(p_i^l, p_j^l)]``, solved by :mod:`interp_lab.sdp`.  Optimal
constants come from bisection over the (monotone) feasibility verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from ._linalg import eigvalsh_hermitian, hermitian_part
from .errors import ArgumentError, BudgetError, DomainError
from .gramian import PSD_TOL_PER_POINT, check_distinct
from .sdp import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    AffineConstraint,
    SdpResult,
    check_certificate,
    dykstra_solve,
    project_psd,
)

# Bisection defaults: absolute bracket width on the constant, iteration cap,
# and the largest upper bracket tried before giving up.
BISECTION_TOL = 1e-5
BISECTION_MAX_ITERS = 60
BRACKET_LIMIT = 1e6


def as_poly_points(points, dim: int | None = None) -> tuple[tuple[complex, ...], ...]:
    """Canonicalize a list of polydisc points to tuples of a common dimension."""
    pts = [kernels.as_poly_point(p, dim) for p in points]
    if not pts:
        raise ArgumentError("need at least one point")
    d = len(pts[0])
    for i, p in enumerate(pts):
        if len(p) != d:
            raise ArgumentError(f"point {i} has dimension {len(p)}, expected {d}")
    return tuple(pts)


def as_product_spec(specs) -> kernels.ProductKernelSpec:
    """Accept a KernelSpec, a ProductKernelSpec, or a list of factors."""
    if isinstance(specs, kernels.ProductKernelSpec):
        return specs
    if isinstance(specs, kernels.KernelSpec):
        return kernels.ProductKernelSpec((specs,))
    return kernels.ProductKernelSpec(tuple(specs))


@dataclass(frozen=True)
class PickProblem:
    """Interpolation data: points, target values, and a norm bound."""

    points: tuple[tuple[complex, ...], ...]
    values: tuple[complex, ...]
    bound: float

    def __post_init__(self):
        pts = as_poly_points(self.points)
        vals = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "bound", float(self.bound))
        if len(pts) != len(vals):
            raise ArgumentError(f"{len(pts)} points but {len(vals)} values")
        if self.bound <= 0.0:
            raise ArgumentError(f"norm bound must be positive, got {self.bound}")
        check_distinct(pts)

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    @property
    def size(self) -> int:
        return len(self.points)


def pick_matrix(problem: PickProblem, spec: kernels.KernelSpec) -> np.ndarray:
    """One-variable Pick matrix [(C^2 - w_i conj(w_j)) K(z_i, z_j)]."""
    if problem.dimension != 1:
        raise ArgumentError(f"one-variable test needs dimension 1, got {problem.dimension}")
    flat = [p[0] for p in problem.points]
    k = kernels.kernel_matrix(spec, flat)
    w = np.asarray(problem.values)
    return hermitian_part((problem.bound ** 2 - np.outer(w, np.conj(w))) * k)


def pick_psd_test(problem: PickProblem, spec: kernels.KernelSpec) -> tuple[bool, float]:
    """Feasibility of the one-variable Pick matrix; margin is its bottom eigenvalue."""
    m = pick_matrix(problem, spec)
    margin = float(eigvalsh_hermitian(m)[0])
    return margin >= -PSD_TOL_PER_POINT * problem.size, margin


def inverse_kernel_stack(points, spec: kernels.ProductKernelSpec) -> np.ndarray:
    """Stacked matrices R_l = [1/k_l(p_i^l, p_j^l)], one slice per factor."""
    coords = np.array(as_poly_points(points, spec.dimension)).T
    return np.stack([kernels.inv_kernel_form(factor, z[:, None], z[None, :])
                     for factor, z in zip(spec.factors, coords)])


@dataclass(eq=False)
class AglerDecomposition:
    """Blocks of a Schur-product decomposition together with its certificate.

    ``feasible`` is False when no decomposition was found within tolerance
    and budget; the blocks then hold the best iterate reached, which is not
    a certificate of infeasibility.
    """

    blocks: list[np.ndarray]
    affine_residual: float
    psd_margin: float
    feasible: bool
    iterations: int


def _result_to_decomposition(result: SdpResult) -> AglerDecomposition:
    return AglerDecomposition(
        blocks=[np.array(b) for b in result.blocks],
        affine_residual=result.affine_residual,
        psd_margin=result.psd_margin,
        feasible=result.feasible,
        iterations=result.iterations,
    )


def _solve_with_stack(r: np.ndarray, target: np.ndarray, tol: float, max_iters: int) -> AglerDecomposition:
    """Feasibility of sum_l G_l ∘ R_l = target over PSD blocks.

    Two exact shortcuts precede Dykstra: when all R slices coincide the
    problem collapses to a single block (sums and splits of PSD matrices are
    PSD), and for general slices a single-block candidate T ⊘ R_l that is
    already PSD is a complete certificate.
    """
    constraint = AffineConstraint(r, target)
    d = constraint.num_blocks
    target = constraint.target
    identical = d == 1 or all(np.allclose(r[l], r[0], rtol=0.0, atol=1e-14) for l in range(1, d))

    candidates = [0] if identical else range(d)
    for l in candidates:
        gamma = hermitian_part(target / constraint.r_matrices[l])
        blocks = constraint.zero_blocks()
        blocks[l] = gamma
        residual, margin = check_certificate(blocks, constraint)
        if residual <= tol and margin >= -tol:
            return _result_to_decomposition(SdpResult(True, blocks, residual, margin, 1))

    if identical:
        # The single-block candidate is the only solution up to PSD splits,
        # so its failure decides the problem; report its PSD projection as
        # the best iterate.
        blocks = constraint.zero_blocks()
        blocks[0] = project_psd(hermitian_part(target / constraint.r_matrices[0]))
        residual, margin = check_certificate(blocks, constraint)
        return _result_to_decomposition(SdpResult(False, blocks, residual, margin, 1))

    return _result_to_decomposition(dykstra_solve(constraint, tol=tol, max_iters=max_iters))


def agler_feasible(points, specs, target, tol: float = DEFAULT_TOL,
                   max_iters: int = DEFAULT_MAX_ITERS) -> AglerDecomposition:
    """Find PSD blocks G_1..G_d with sum_l G_l ∘ R_l = target, or report failure."""
    spec = as_product_spec(specs)
    pts = as_poly_points(points, spec.dimension)
    target = np.asarray(target, dtype=complex)
    n = len(pts)
    if target.shape != (n, n):
        raise ArgumentError(f"target shape {target.shape} does not match {n} points")
    r = inverse_kernel_stack(pts, spec)
    return _solve_with_stack(r, target, tol, max_iters)


def _grow_then_bisect(feasible, lo: float, hi_start: float, limit: float,
                      tol: float, max_iters: int, what: str) -> float:
    """Smallest feasible value: double an upper bracket, then bisect.

    ``lo`` must be infeasible and feasibility monotone increasing.
    Returns the certified-feasible upper end of the final bracket.
    """
    hi = hi_start
    while not feasible(hi):
        lo = hi
        hi *= 2.0
        if hi > limit:
            raise BudgetError(f"{what}: no feasible value below {limit:g}")
    for _ in range(max_iters):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def condition_a_constant(points, specs, *, bisection_tol: float = BISECTION_TOL,
                         sdp_tol: float = DEFAULT_TOL, sdp_max_iters: int = DEFAULT_MAX_ITERS,
                         bracket_limit: float = BRACKET_LIMIT) -> float:
    """Smallest M >= 1 such that M*I - J admits a PSD Schur-product decomposition."""
    spec = as_product_spec(specs)
    pts = as_poly_points(points, spec.dimension)
    check_distinct(pts)
    n = len(pts)
    r = inverse_kernel_stack(pts, spec)
    eye = np.eye(n)
    ones = np.ones((n, n))

    def feasible(m: float) -> bool:
        return _solve_with_stack(r, m * eye - ones, sdp_tol, sdp_max_iters).feasible

    if feasible(1.0):
        return 1.0
    return _grow_then_bisect(feasible, 1.0, 2.0, bracket_limit,
                             bisection_tol, BISECTION_MAX_ITERS, "condition (a) constant")


def condition_b_constant(points, specs, *, bisection_tol: float = BISECTION_TOL,
                         sdp_tol: float = DEFAULT_TOL, sdp_max_iters: int = DEFAULT_MAX_ITERS) -> float:
    """Largest N in [0, 1] such that J - N*I admits a PSD Schur-product decomposition."""
    spec = as_product_spec(specs)
    pts = as_poly_points(points, spec.dimension)
    check_distinct(pts)
    n = len(pts)
    r = inverse_kernel_stack(pts, spec)
    eye = np.eye(n)
    ones = np.ones((n, n))

    def feasible(nv: float) -> bool:
        return _solve_with_stack(r, ones - nv * eye, sdp_tol, sdp_max_iters).feasible

    if feasible(1.0):
        return 1.0
    if not feasible(0.0):
        # J itself always decomposes (J ⊘ R_1 is a kernel matrix); a failure
        # here means the solver gave up, so report no certified lower bound.
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(BISECTION_MAX_ITERS):
        if hi - lo <= bisection_tol:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def pick_constant_for_values(points, specs, values, *, bisection_tol: float = 1e-6,
                             sdp_tol: float = DEFAULT_TOL, sdp_max_iters: int = DEFAULT_MAX_ITERS,
                             bracket_limit: float = BRACKET_LIMIT) -> float:
    """Minimal norm bound C for which the interpolation data is feasible.

    Bisects C over the feasibility of C^2*J - W with W = [w_i conj(w_j)];
    any admissible C satisfies C >= max |w_i|, which seeds the bracket.
    """
    spec = as_product_spec(specs)
    pts = as_poly_points(points, spec.dimension)
    vals = np.asarray([complex(v) for v in values])
    if len(vals) != len(pts):
        raise ArgumentError(f"{len(pts)} points but {len(vals)} values")
    check_distinct(pts)
    n = len(pts)
    r = inverse_kernel_stack(pts, spec)
    ones = np.ones((n, n))
    w_outer = np.outer(vals, np.conj(vals))

    def feasible(c: float) -> bool:
        return _solve_with_stack(r, c * c * ones - w_outer, sdp_tol, sdp_max_iters).feasible

    lo = float(np.max(np.abs(vals)))
    if feasible(lo):
        return lo
    return _grow_then_bisect(feasible, lo, max(1.0, 2.0 * lo), np.sqrt(bracket_limit),
                             bisection_tol, BISECTION_MAX_ITERS, "interpolation constant")


def vector_valued_feasible(points, specs, n_bound: float, *, sdp_tol: float = DEFAULT_TOL,
                           sdp_max_iters: int = DEFAULT_MAX_ITERS) -> bool:
    """Feasibility of J - N*I: existence of the norm-sqrt(N) column interpolant
    sending each point to the matching coordinate vector."""
    if not 0.0 < n_bound <= 1.0:
        raise DomainError(f"N must lie in (0, 1], got {n_bound}")
    spec = as_product_spec(specs)
    pts = as_poly_points(points, spec.dimension)
    check_distinct(pts)
    n = len(pts)
    target = np.ones((n, n)) - n_bound * np.eye(n)
    return agler_feasible(pts, spec, target, tol=sdp_tol, max_iters=sdp_max_iters).feasible
