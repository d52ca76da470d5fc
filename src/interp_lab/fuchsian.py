"""Disk-automorphism groups and the truncated group-invariant kernel.

Group elements are kept in the normal form ``z -> e^{i theta}(z - a)/(1 - conj(a) z)``.
Enumeration produces all reduced words up to a length, deduplicated by action
on three fixed test points.  The invariant kernel is approximated on the span
of monomials up to a degree: the composition operator of each generator is
truncated to that span, and the common near-fixed subspace is extracted from
the singular value decomposition of the stacked operators.  All group-kernel
outputs are degree-truncated approximations; invariance residuals are
reported as diagnostics, not error bounds.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ArgumentError, BudgetError, DomainError, NumericError
from .gramian import (
    DUPLICATE_TOL,
    RieszReport,
    check_distinct,
    normalized_gramian,
    riesz_bounds,
    strong_separation_disk,
    weak_separation,
)

# Distinct group elements must differ in their action on these points by more
# than ACTION_TOL; used both for deduplication and identity detection.
ACTION_TEST_POINTS = (0.0 + 0.0j, 0.3 + 0.0j, 0.5j)
ACTION_TOL = 1e-10

DEFAULT_GROUP_CAP = 10000
DEFAULT_SV_CUTOFF = 1e-6

# Fixed evaluation grid for kernel-invariance residuals.
DEFAULT_RESIDUAL_GRID = (0.2 + 0.0j, 0.1 + 0.0j, -0.3 + 0.0j, 0.35j, -0.15 - 0.25j)


@dataclass(frozen=True)
class MobiusMap:
    """Disk automorphism z -> e^{i theta} (z - a) / (1 - conj(a) z). Callable."""

    theta: float
    a: complex

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        a = complex(self.a)
        object.__setattr__(self, "a", a)
        # Map parameters may legitimately approach the circle (long words do),
        # so only strict membership is enforced, not the evaluation wall.
        if abs(a) >= 1.0 - 1e-15:
            raise DomainError(f"automorphism parameter must satisfy |a| < 1, got |a| = {abs(a):.17g}")

    def __call__(self, z) -> complex:
        return mobius_apply(self, z)

    def inverse(self) -> "MobiusMap":
        return MobiusMap(-self.theta, -self.a * cmath.exp(1j * self.theta))

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        return compose(self, other)


IDENTITY = MobiusMap(0.0, 0j)


def mobius_apply(m: MobiusMap, z) -> complex:
    """Evaluate the automorphism at a point of the open disk."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError(f"automorphisms act on the open disk, got |z| = {abs(z):.12g}")
    return cmath.exp(1j * m.theta) * (z - m.a) / (1.0 - m.a.conjugate() * z)


def compose(g: MobiusMap, h: MobiusMap) -> MobiusMap:
    """Normal form of the composition g ∘ h.

    Works on the 2x2 coefficient matrices: the product's lower-right entry is
    nonzero whenever |a_g| |a_h| < 1, so renormalization never divides by zero.
    """
    eg = cmath.exp(1j * g.theta)
    eh = cmath.exp(1j * h.theta)
    p00 = eg * (eh + g.a * h.a.conjugate())
    p01 = -eg * (eh * h.a + g.a)
    p11 = 1.0 + g.a.conjugate() * h.a * eh
    a_new = -p01 / p00
    theta_new = cmath.phase(p00 / p11)
    return MobiusMap(theta_new, a_new)


def _action_values(m: MobiusMap) -> tuple[complex, ...]:
    return tuple(m(t) for t in ACTION_TEST_POINTS)


def _same_action(v1, v2, tol: float = ACTION_TOL) -> bool:
    return all(abs(a - b) <= tol for a, b in zip(v1, v2))


def is_identity(m: MobiusMap, tol: float = ACTION_TOL) -> bool:
    return _same_action(_action_values(m), ACTION_TEST_POINTS, tol)


def interior_fixed_point(m: MobiusMap, margin: float = 1e-6) -> complex | None:
    """A fixed point strictly inside the disk, if one exists (elliptic maps)."""
    e = cmath.exp(1j * m.theta)
    if abs(m.a) < 1e-15:
        if abs(e - 1.0) < 1e-14:
            return None  # identity fixes everything; not elliptic
        return 0j
    # Fixed points solve conj(a) z^2 + (e^{i theta} - 1) z - e^{i theta} a = 0.
    roots = np.roots([m.a.conjugate(), e - 1.0, -e * m.a])
    for root in roots:
        if abs(root) < 1.0 - margin:
            return complex(root)
    return None


def generator_warnings(generators) -> list[str]:
    """Advisory checks: identity generators and elliptic (interior-fixed-point) ones."""
    out = []
    for idx, g in enumerate(generators):
        if is_identity(g):
            out.append(f"generator {idx} acts as the identity")
            continue
        fp = interior_fixed_point(g)
        if fp is not None:
            out.append(
                f"generator {idx} is elliptic (fixes {fp.real:.6g}{fp.imag:+.6g}i inside the disk); "
                "the group does not act freely"
            )
    return out


@dataclass(frozen=True)
class GroupWordList:
    """All reduced words of the generators up to a length, identity included."""

    generators: tuple[MobiusMap, ...]
    max_word_length: int
    elements: tuple[MobiusMap, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def enumerate_group(generators, max_word_length: int,
                    max_elements: int = DEFAULT_GROUP_CAP) -> GroupWordList:
    """Breadth-first enumeration of group elements up to a word length.

    Elements are deduplicated by their action on the fixed test points
    (buckets quantized at 1e-8, verified pairwise at 1e-10 inside a bucket).
    Exceeding ``max_elements`` raises :class:`BudgetError`.
    """
    gens = tuple(generators)
    for g in gens:
        if not isinstance(g, MobiusMap):
            raise ArgumentError(f"generators must be MobiusMap, got {type(g).__name__}")
    if max_word_length < 0:
        raise ArgumentError(f"max_word_length must be nonnegative, got {max_word_length}")
    if max_elements < 1:
        raise ArgumentError("max_elements must be at least 1")

    grid = 1e-8
    elements: list[MobiusMap] = [IDENTITY]
    actions: list[tuple[complex, ...]] = [_action_values(IDENTITY)]

    def key_of(action) -> tuple[int, ...]:
        parts = []
        for v in action:
            parts.append(round(v.real / grid))
            parts.append(round(v.imag / grid))
        return tuple(parts)

    buckets: dict[tuple[int, ...], list[int]] = {key_of(actions[0]): [0]}
    steps = gens + tuple(g.inverse() for g in gens)
    frontier = [IDENTITY]
    for _ in range(max_word_length):
        new_frontier: list[MobiusMap] = []
        for word in frontier:
            for step in steps:
                cand = compose(step, word)
                action = _action_values(cand)
                bucket = buckets.setdefault(key_of(action), [])
                if any(_same_action(action, actions[i]) for i in bucket):
                    continue
                if len(elements) >= max_elements:
                    raise BudgetError(
                        f"group enumeration exceeded the cap of {max_elements} elements"
                    )
                bucket.append(len(elements))
                elements.append(cand)
                actions.append(action)
                new_frontier.append(cand)
        frontier = new_frontier
        if not frontier:
            break
    return GroupWordList(gens, max_word_length, tuple(elements))


@dataclass(frozen=True)
class OrbitPoint:
    """One point of a truncated orbit: which input point, moved by which element."""

    orbit_index: int
    element_index: int
    point: complex


def orbit_set(points, group: GroupWordList, collision_tol: float = 1e-9) -> list[OrbitPoint]:
    """Images of the input points under every enumerated group element.

    Repeats within one orbit (stabilized points) are dropped.  Two distinct
    input points landing on the same truncated orbit raise
    :class:`ArgumentError` naming the offending pair.
    """
    pts = [kernels.as_disk_point(p) for p in points]
    check_distinct(pts)
    labeled: list[OrbitPoint] = []
    for i, z in enumerate(pts):
        seen: list[complex] = []
        for e, g in enumerate(group.elements):
            w = g(z)
            if any(abs(w - u) <= DUPLICATE_TOL for u in seen):
                continue
            seen.append(w)
            labeled.append(OrbitPoint(i, e, w))
    for item in labeled:
        for j, zj in enumerate(pts):
            if j != item.orbit_index and abs(item.point - zj) <= collision_tol:
                raise ArgumentError(
                    f"points {item.orbit_index} and {j} lie on the same orbit "
                    f"of the truncated group (element {item.element_index})"
                )
    return labeled


def mobius_series(m: MobiusMap, degree: int) -> np.ndarray:
    """Taylor coefficients of the map itself up to the given degree.

    e^{i theta}(z - a) * sum_k (conj(a) z)^k  gives  c_0 = -a e^{i theta} and
    c_k = e^{i theta} (1 - |a|^2) conj(a)^{k-1} for k >= 1.
    """
    if degree < 0:
        raise ArgumentError("degree must be nonnegative")
    e = cmath.exp(1j * m.theta)
    c = np.zeros(degree + 1, dtype=complex)
    c[0] = -e * m.a
    if degree >= 1:
        ab = m.a.conjugate()
        fac = e * (1.0 - abs(m.a) ** 2)
        c[1:] = fac * ab ** np.arange(degree)
    return c


def composition_matrix(m: MobiusMap, degree: int) -> np.ndarray:
    """Truncation of f -> f ∘ m on the monomial basis 1, z, ..., z^degree.

    Column j holds the degree-truncated Taylor coefficients of m(z)^j,
    computed by iterated truncated series multiplication; column 0 is the
    coefficient vector of the constant 1.
    """
    if degree < 0:
        raise ArgumentError("degree must be nonnegative")
    n1 = degree + 1
    out = np.zeros((n1, n1), dtype=complex)
    out[0, 0] = 1.0
    series = mobius_series(m, degree)
    col = out[:, 0].copy()
    for j in range(1, n1):
        col = np.convolve(col, series)[:n1]
        out[:, j] = col
    return out


@dataclass(frozen=True, eq=False)
class GammaKernelApprox:
    """Truncated group-invariant kernel: sum over an orthonormal near-fixed basis.

    ``basis`` rows are monomial coefficient vectors; ``residuals`` holds the
    singular value of each kept direction under the stacked composition
    operators (how far it is from exactly invariant at this degree).
    """

    degree: int
    basis: np.ndarray
    sv_cutoff: float
    residuals: np.ndarray

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def basis_values(self, z) -> np.ndarray:
        """Kept basis functions at ``z``, on a last axis: broadcasts over arrays of points."""
        powers = np.asarray(z)[..., None] ** np.arange(self.degree + 1)
        return powers @ self.basis.T

    def gram(self, z) -> np.ndarray:
        """Kernel matrix V V^H at validated disk points, V_ir = basis function r at z_i."""
        v = self.basis_values(z)
        return v @ v.conj().T

    def __call__(self, z, w) -> complex:
        vz = self.basis_values(kernels.as_disk_point(z))
        vw = self.basis_values(kernels.as_disk_point(w))
        return complex(vz @ np.conj(vw))


def gamma_kernel(generators, degree: int,
                 sv_cutoff: float = DEFAULT_SV_CUTOFF) -> GammaKernelApprox:
    """Approximate invariant kernel at a monomial-truncation degree.

    Stacks ``C_g - I`` over the generators, takes the singular value
    decomposition, and keeps the right-singular directions with singular
    value at most ``sv_cutoff``.  With no generators the whole truncated
    space is fixed and the result is the truncated Szego kernel.  Constants
    are exactly fixed, so the kept basis is never empty.
    """
    if degree < 1:
        raise ArgumentError(f"degree must be at least 1, got {degree}")
    if sv_cutoff <= 0.0:
        raise ArgumentError(f"sv_cutoff must be positive, got {sv_cutoff}")
    gens = tuple(generators)
    n1 = degree + 1
    if not gens:
        return GammaKernelApprox(degree, np.eye(n1, dtype=complex), sv_cutoff, np.zeros(n1))
    eye = np.eye(n1, dtype=complex)
    stack = np.vstack([composition_matrix(g, degree) - eye for g in gens])
    _, s, vh = np.linalg.svd(stack)
    keep = s <= sv_cutoff
    if not keep.any():
        raise NumericError("no invariant direction found; constants should always be fixed")
    # Singular values come sorted descending: reverse so the most invariant
    # direction (the constant) leads.
    basis = vh[keep][::-1].copy()
    residuals = s[keep][::-1].copy()
    return GammaKernelApprox(degree, basis, sv_cutoff, residuals)


def invariance_residual(kernel, maps, grid=DEFAULT_RESIDUAL_GRID) -> float:
    """max |K(g(z), w) - K(z, w)| over the grid pairs and the given maps."""
    pts = [kernels.as_disk_point(p) for p in grid]
    if not pts:
        raise ArgumentError("need a nonempty grid")
    best = 0.0
    for g in maps:
        for z in pts:
            gz = g(z)
            for w in pts:
                best = max(best, abs(complex(kernel(gz, w)) - complex(kernel(z, w))))
    return best


@dataclass
class GammaSequenceReport:
    """Finite-prefix diagnostics of a point sequence under a group action."""

    point_count: int
    degree: int
    group_size: int
    kernel_rank: int
    kernel_residuals: tuple[float, ...]
    invariance_residual: float
    gamma_riesz: RieszReport
    gamma_weak_separation: float | None
    orbit_point_count: int
    orbit_riesz: RieszReport
    orbit_weak_separation: float | None
    orbit_strong_separation: float
    warnings: tuple[str, ...]


def analyze_gamma_sequence(points, generators, degree: int, group_length: int, *,
                           sv_cutoff: float = DEFAULT_SV_CUTOFF,
                           riesz_tolerance: float = 1e-3,
                           max_elements: int = DEFAULT_GROUP_CAP,
                           residual_grid=DEFAULT_RESIDUAL_GRID) -> GammaSequenceReport:
    """Group-kernel Gramian bounds plus disk-side diagnostics of the orbit set.

    The group-kernel numbers (Riesz bounds, weak separation) use the
    truncated invariant kernel; the orbit numbers apply the Szego kernel to
    the images of the points under every enumerated group element.
    """
    pts = [kernels.as_disk_point(p) for p in points]
    if not pts:
        raise ArgumentError("need at least one point")
    check_distinct(pts)
    gens = tuple(generators)
    warns = generator_warnings(gens)

    group = enumerate_group(gens, group_length, max_elements)
    labeled = orbit_set(pts, group)
    if len(labeled) < len(pts) * group.size:
        warns.append("some orbit images coincided and were dropped (stabilized points)")

    kern = gamma_kernel(gens, degree, sv_cutoff)
    if gens and kern.rank < degree + 1:
        warns.append(
            f"invariant subspace has rank {kern.rank} at degree {degree}; "
            "group-kernel diagnostics are truncation artifacts, see the residuals"
        )
    inv_res = invariance_residual(kern, gens, residual_grid) if gens else 0.0

    g = normalized_gramian(pts, kern)
    gamma_riesz = riesz_bounds(g, riesz_tolerance)
    gamma_weak = weak_separation(pts, kern) if len(pts) >= 2 else None

    orbit_pts: list[complex] = []
    dropped = 0
    for item in labeled:
        if any(abs(item.point - u) <= DUPLICATE_TOL for u in orbit_pts):
            dropped += 1
            continue
        orbit_pts.append(item.point)
    if dropped:
        warns.append(f"{dropped} near-duplicate orbit points dropped before disk diagnostics")

    og = normalized_gramian(orbit_pts, kernels.SZEGO)
    orbit_riesz = riesz_bounds(og, riesz_tolerance)
    orbit_weak = weak_separation(orbit_pts, kernels.SZEGO) if len(orbit_pts) >= 2 else None
    orbit_strong = strong_separation_disk(orbit_pts)

    return GammaSequenceReport(
        point_count=len(pts),
        degree=degree,
        group_size=group.size,
        kernel_rank=kern.rank,
        kernel_residuals=tuple(float(r) for r in kern.residuals),
        invariance_residual=float(inv_res),
        gamma_riesz=gamma_riesz,
        gamma_weak_separation=gamma_weak,
        orbit_point_count=len(orbit_pts),
        orbit_riesz=orbit_riesz,
        orbit_weak_separation=orbit_weak,
        orbit_strong_separation=orbit_strong,
        warnings=tuple(warns),
    )
