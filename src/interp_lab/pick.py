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

# Boundary-feasible rank-one Pick matrices reach -1.3 eps * max|lambda| by
# rounding alone; 4 units stay well below the margins of infeasible data.
EIG_ROUNDING_UNITS = 4.0


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
    """Feasibility of the one-variable Pick matrix; margin is its bottom eigenvalue.

    The margin may fall below zero by ``PSD_TOL_PER_POINT * n`` or by
    ``EIG_ROUNDING_UNITS`` units of eigenvalue rounding, ``eps * max |lambda|``,
    whichever is larger; so a large bound cannot make rounding decide.
    """
    w = eigvalsh_hermitian(pick_matrix(problem, spec))
    rounding = EIG_ROUNDING_UNITS * np.finfo(float).eps * np.max(np.abs(w))
    return bool(w[0] >= -max(PSD_TOL_PER_POINT * problem.size, rounding)), float(w[0])


def inverse_kernel_stack(points, spec: kernels.ProductKernelSpec) -> np.ndarray:
    """Stacked matrices R_l = [1/k_l(p_i^l, p_j^l)], one slice per factor."""
    coords = np.array(as_poly_points(points, spec.dimension)).T
    return np.stack([kernels.inv_kernel_form(factor, z[:, None], z[None, :])
                     for factor, z in zip(spec.factors, coords)])


# The blocks of a Schur-product decomposition, with the solver's certificate.
AglerDecomposition = SdpResult


def _solve_with_stack(r: np.ndarray, target: np.ndarray, tol: float, max_iters: int) -> SdpResult:
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

    for l in range(1 if identical else d):
        blocks = constraint.zero_blocks()
        blocks[l] = hermitian_part(target / constraint.r_matrices[l])
        residual, margin = check_certificate(blocks, constraint)
        if residual <= tol and margin >= -tol:
            return SdpResult(True, blocks, residual, margin, 1)

    if identical:
        # The single-block candidate is the only solution up to PSD splits,
        # so its failure decides the problem; report its PSD projection as
        # the best iterate.
        blocks[0] = project_psd(blocks[0])
        residual, margin = check_certificate(blocks, constraint)
        return SdpResult(False, blocks, residual, margin, 1)

    return dykstra_solve(constraint, tol=tol, max_iters=max_iters)


def agler_feasible(points, specs, target, tol: float = DEFAULT_TOL,
                   max_iters: int = DEFAULT_MAX_ITERS) -> SdpResult:
    """Find PSD blocks G_1..G_d with sum_l G_l ∘ R_l = target, or report failure."""
    spec = as_product_spec(specs)
    pts = as_poly_points(points, spec.dimension)
    target = np.asarray(target, dtype=complex)
    n = len(pts)
    if target.shape != (n, n):
        raise ArgumentError(f"target shape {target.shape} does not match {n} points")
    r = inverse_kernel_stack(pts, spec)
    return _solve_with_stack(r, target, tol, max_iters)


def _target_verdict(points, specs, sdp_tol: float, sdp_max_iters: int):
    """Set-up shared by the constants: the number of points, and the
    feasibility verdict of a target matrix over the points' R stack."""
    spec = as_product_spec(specs)
    pts = as_poly_points(points, spec.dimension)
    check_distinct(pts)
    r = inverse_kernel_stack(pts, spec)
    return len(pts), lambda target: _solve_with_stack(r, target, sdp_tol, sdp_max_iters).feasible


def _feasible_end(feasible, first: float, second: float, tol: float,
                  limit: float | None = None, what: str = "") -> float:
    """Certified-feasible end of a bracket on a monotone feasibility verdict.

    ``first`` is returned if feasible.  Otherwise ``second`` doubles until
    feasible when a ``limit`` is given (:class:`BudgetError` past it), and is
    returned uncertified when infeasible without one.  The bracket is then
    bisected to width ``tol``.
    """
    if feasible(first):
        return first
    bad, good = first, second
    while not feasible(good):
        if limit is None:
            return good
        bad, good = good, 2.0 * good
        if good > limit:
            raise BudgetError(f"{what}: no feasible value below {limit:g}")
    for _ in range(BISECTION_MAX_ITERS):
        if abs(good - bad) <= tol:
            break
        mid = 0.5 * (bad + good)
        if feasible(mid):
            good = mid
        else:
            bad = mid
    return good


def condition_a_constant(points, specs, *, bisection_tol: float = BISECTION_TOL,
                         sdp_tol: float = DEFAULT_TOL, sdp_max_iters: int = DEFAULT_MAX_ITERS) -> float:
    """Smallest M >= 1 such that M*I - J admits a PSD Schur-product decomposition."""
    n, feasible = _target_verdict(points, specs, sdp_tol, sdp_max_iters)
    return _feasible_end(lambda m: feasible(m * np.eye(n) - np.ones((n, n))), 1.0, 2.0,
                         bisection_tol, BRACKET_LIMIT, "condition (a) constant")


def condition_b_constant(points, specs, *, bisection_tol: float = BISECTION_TOL,
                         sdp_tol: float = DEFAULT_TOL, sdp_max_iters: int = DEFAULT_MAX_ITERS) -> float:
    """Largest N in [0, 1] such that J - N*I admits a PSD Schur-product decomposition.

    J itself always decomposes (J ⊘ R_1 is a kernel matrix), so a failure at
    N = 0 means the solver gave up, and 0 is reported as no certified bound.
    """
    n, feasible = _target_verdict(points, specs, sdp_tol, sdp_max_iters)
    return _feasible_end(lambda nv: feasible(np.ones((n, n)) - nv * np.eye(n)), 1.0, 0.0,
                         bisection_tol)


def pick_constant_for_values(points, specs, values, *, bisection_tol: float = 1e-6,
                             sdp_tol: float = DEFAULT_TOL,
                             sdp_max_iters: int = DEFAULT_MAX_ITERS) -> float:
    """Minimal norm bound C for which the interpolation data is feasible.

    Bisects C over the feasibility of C^2*J - W with W = [w_i conj(w_j)];
    any admissible C satisfies C >= max |w_i|, which seeds the bracket.
    """
    n, feasible = _target_verdict(points, specs, sdp_tol, sdp_max_iters)
    vals = np.asarray([complex(v) for v in values])
    if len(vals) != n:
        raise ArgumentError(f"{n} points but {len(vals)} values")
    ones = np.ones((n, n))
    w_outer = np.outer(vals, np.conj(vals))
    lo = float(np.max(np.abs(vals)))
    return _feasible_end(lambda c: feasible(c * c * ones - w_outer), lo, max(1.0, 2.0 * lo),
                         bisection_tol, np.sqrt(BRACKET_LIMIT), "interpolation constant")


def vector_valued_feasible(points, specs, n_bound: float, *, sdp_tol: float = DEFAULT_TOL,
                           sdp_max_iters: int = DEFAULT_MAX_ITERS) -> bool:
    """Feasibility of J - N*I: existence of the norm-sqrt(N) column interpolant
    sending each point to the matching coordinate vector."""
    if not 0.0 < n_bound <= 1.0:
        raise DomainError(f"N must lie in (0, 1], got {n_bound}")
    n, feasible = _target_verdict(points, specs, sdp_tol, sdp_max_iters)
    return feasible(np.ones((n, n)) - n_bound * np.eye(n))
