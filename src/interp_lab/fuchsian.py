"""Disk-automorphism groups and the truncated group-invariant kernel.

Group elements are kept in the normal form ``z -> e^{i theta}(z - a)/(1 - conj(a) z)``
and composed as SU(1,1) matrices.  Enumeration produces all reduced words up to
a length: exactly when ping-pong proves the generators free, otherwise deduplicated
by action on three fixed test points.  The invariant kernel is approximated on the
span of monomials up to a degree, where each generator's composition operator is
truncated: the near-fixed subspace of the stacked operators is the constant plus the
singular directions below a cutoff, when a Cholesky factor does not rule them all out.
All group-kernel outputs are degree-truncated approximations; invariance residuals
are diagnostics, not error bounds.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ArgumentError, BudgetError, DomainError
from .gramian import (
    DEFAULT_RIESZ_TOL,
    DUPLICATE_TOL,
    RieszReport,
    check_distinct,
    log_separations,
    min_semimetric,
    normalized_gramian,
    pseudo_hyperbolic_matrix,
    riesz_bounds,
)

# Distinct group elements must differ in their action on these points by more
# than ACTION_TOL; used both for deduplication and identity detection.
ACTION_TEST_POINTS = (0.0 + 0.0j, 0.3 + 0.0j, 0.5j)
ACTION_TOL = 1e-10

DEFAULT_GROUP_CAP = 10000
DEFAULT_SV_CUTOFF = 1e-6

# Two input points lie on one orbit when images of them are this close, pseudo-hyperbolically.
ORBIT_COLLISION_TOL = 1e-9

# Fixed evaluation grid for kernel-invariance residuals.
RESIDUAL_GRID = (0.2 + 0.0j, 0.1 + 0.0j, -0.3 + 0.0j, 0.35j, -0.15 - 0.25j)


@dataclass(frozen=True)
class MobiusMap:
    """Disk automorphism z -> e^{i theta} (z - a) / (1 - conj(a) z). Callable."""

    theta: float
    a: complex

    def __post_init__(self):
        theta, a = float(self.theta), complex(self.a)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "a", a)
        if not math.isfinite(theta):
            raise DomainError(f"automorphism angle must be finite, got {theta}")
        # Map parameters may legitimately approach the circle (long words do),
        # so only strict membership is enforced, not the evaluation wall.
        if not abs(a) < 1.0 - 1e-15:
            raise DomainError(f"automorphism parameter must satisfy |a| < 1, got |a| = {abs(a):.17g}")

    def __call__(self, z) -> complex:
        """Evaluate the automorphism at a point of the open disk."""
        z = complex(z)
        if not abs(z) < 1.0:
            raise DomainError(f"automorphisms act on the open disk, got |z| = {abs(z):.12g}")
        return complex(_images(np.array([self.theta]), np.array([self.a]), [z])[0, 0])

    def inverse(self) -> "MobiusMap":
        return MobiusMap(-self.theta, -self.a * cmath.exp(1j * self.theta))


IDENTITY = MobiusMap(0.0, 0j)


def _stack(maps, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Normal forms (theta, a) of the automorphisms in the argument ``name`` as two arrays."""
    maps = tuple(maps)
    if wrong := [m for m in maps if not isinstance(m, MobiusMap)]:
        raise ArgumentError(f"{name} must be MobiusMap, got {type(wrong[0]).__name__}")
    return np.array([m.theta for m in maps], dtype=float), np.array([m.a for m in maps], dtype=complex)


def _matrices(theta: np.ndarray, a: np.ndarray) -> np.ndarray:
    """SU(1,1) matrices [[h, b], [conj(b), conj(h)]], h = e^{i theta/2}/sqrt(1 - |a|^2), b = -h a."""
    h = np.exp(0.5j * theta) / np.sqrt(1.0 - (a.real ** 2 + a.imag ** 2))
    b = -h * a
    return np.stack([h, b, b.conj(), h.conj()], axis=-1).reshape(-1, 2, 2)


def _normal_forms(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, a) of SU(1,1) matrices: theta = angle(h/conj(h)) and a = -b/h."""
    h, b = mats[..., 0, 0], mats[..., 0, 1]
    return np.angle(h / h.conj()), -b / h


def _images(theta: np.ndarray, a: np.ndarray, z) -> np.ndarray:
    """Images of validated disk points under the normal forms (theta, a), shape (maps, points)."""
    theta, a, z = theta[:, None], a[:, None], np.asarray(z, dtype=complex)[None, :]
    return np.exp(1j * theta) * (z - a) / (1.0 - np.conj(a) * z)


def _require_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ArgumentError(f"{name} must be an integer, got {value}")


def _ping_pong(mats: np.ndarray) -> bool:
    """Whether the isometric circles |conj(b) z + conj(h)| = 1 of SU(1,1) matrices are pairwise
    disjoint, compared times |b_i b_j| so that b = 0 fails.  For the generators and their
    inverses, ping-pong then proves the group free: distinct reduced words are distinct maps."""
    h, b = mats[:, 0, 0], mats[:, 0, 1]
    gaps = np.abs(h[:, None] * b - b[:, None] * h) - np.abs(b)[:, None] - np.abs(b)
    return bool(np.all(gaps[np.triu_indices(len(b), 1)] > 0.0))


def _file_new(rows: np.ndarray, tol: float, cells: dict) -> list[bool]:
    """Which rows of complex values lie farther than ``tol`` from every row filed before them.

    Rows are taken in order, and two rows are near when every entry differs by
    at most ``tol``.  ``cells`` maps a cell of a grid ``100 * tol`` wide (on
    each real and imaginary part) to the rows kept there; a row is compared
    with the rows of every cell within ``tol`` of it, and is filed if new.
    """
    lo, cell, hi = (np.rint((rows.view(float) + shift) / (100 * tol)).astype(np.int64).tolist()
                    for shift in (-tol, 0.0, tol))
    new = []
    for row, key, low, high in zip(rows.tolist(), map(tuple, cell), lo, hi):
        near = [key] if low == high else itertools.product(*map(set, zip(low, high)))
        fresh = not any(all(abs(a - b) <= tol for a, b in zip(row, other))
                        for k in near for other in cells.get(k, ()))
        if fresh:
            cells.setdefault(key, []).append(row)
        new.append(fresh)
    return new


def interior_fixed_point(m: MobiusMap) -> complex | None:
    """The fixed point inside the disk of an elliptic map, |trace| = |2 Re h| < 2; else None.

    The fixed points solve conj(b) z^2 - 2i Im(h) z - b = 0; the one inside is
    i b / (Im h + sgn(Im h) sqrt(1 - (Re h)^2)), a form in which nothing cancels.
    """
    (h, b), _ = _matrices(*_stack([m], "m"))[0]
    if not abs(h.real) < 1.0:
        return None
    # Adding 0j turns a rotation's -0.0 parts into 0.0.
    return complex(1j * b / (h.imag + math.copysign(math.sqrt(1.0 - h.real ** 2), h.imag))) + 0j


def generator_warnings(generators) -> list[str]:
    """Advisory checks: identity generators and elliptic (interior-fixed-point) ones."""
    out = []
    for idx, g in enumerate(generators):
        if np.all(np.abs(_images(*_stack([g], "generators"), ACTION_TEST_POINTS) - ACTION_TEST_POINTS) <= ACTION_TOL):
            out.append(f"generator {idx} acts as the identity")
        elif (fp := interior_fixed_point(g)) is not None:
            out.append(f"generator {idx} is elliptic (fixes {fp.real:.6g}{fp.imag:+.6g}i inside the disk); "
                       "the group does not act freely")
    return out


@dataclass(frozen=True, eq=False)
class GroupWordList:
    """Words up to a length, identity first, as normal-form arrays; ``free``: proved free by ping-pong."""

    theta: np.ndarray
    a: np.ndarray
    free: bool

    @property
    def size(self) -> int:
        return len(self.theta)


def enumerate_group(generators, max_word_length: int,
                    max_elements: int = DEFAULT_GROUP_CAP) -> GroupWordList:
    """Breadth-first enumeration of group elements up to a word length.

    The steps are the generators, then their inverses; a word length is one
    batched product of step and word matrices, word-major.  When ping-pong
    proves the group free, the words are the reduced ones, all distinct.
    Otherwise a candidate is kept unless its action on the fixed test points
    lies within ``ACTION_TOL`` of an element kept before it.  Exceeding
    ``max_elements`` raises :class:`BudgetError`.
    """
    theta, a = _stack(generators, "generators")
    _require_integer("max_word_length", max_word_length)
    _require_integer("max_elements", max_elements)
    if max_word_length < 0:
        raise ArgumentError(f"max_word_length must be nonnegative, got {max_word_length}")
    if max_elements < 1:
        raise ArgumentError("max_elements must be at least 1")

    # The inverses as MobiusMap.inverse computes them: np.exp may round unlike cmath.exp.
    inverse_a = [-x * cmath.exp(1j * t) for t, x in zip(theta.tolist(), a.tolist())]
    step_mats = _matrices(np.concatenate([theta, -theta]), np.concatenate([a, inverse_a]))
    free = _ping_pong(step_mats)
    words, cells, (theta, a) = [], {}, _stack([IDENTITY], "identity")
    cancel = np.array([-1])  # per word, the step undoing its last letter; -1: none
    for length in range(max_word_length + 1):
        if length:
            w, s = np.nonzero(np.arange(len(step_mats)) != cancel[:, None])
            theta, a = _normal_forms(step_mats[s] @ _matrices(theta, a)[w])
            cancel = (s + len(inverse_a)) % len(step_mats)
        if not np.all(inside := np.abs(a) < 1.0 - 1e-15):  # MobiusMap's bound; the first word out raises
            MobiusMap(theta[~inside][0], a[~inside][0])
        if not free:
            new = _file_new(_images(theta, a, ACTION_TEST_POINTS), ACTION_TOL, cells)
            theta, a = theta[new], a[new]
            cancel = np.full(len(theta), -1)
        if sum(len(t) for t, _ in words) + len(theta) > max_elements:
            raise BudgetError(f"group enumeration exceeded the cap of {max_elements} elements")
        words.append((theta, a))
        if not len(theta):
            break
    return GroupWordList(*map(np.concatenate, zip(*words)), free)


def _reject_same_orbit(a: np.ndarray, b: np.ndarray, size: int) -> None:
    """Raise for the first pair ``(a, b)`` of near images, as flat indices of :func:`orbit_set`, from two points."""
    if len(far := np.flatnonzero(a // size != b // size)):
        (i, e), (j, f) = sorted((divmod(int(a[far[0]]), size), divmod(int(b[far[0]]), size)))
        raise ArgumentError(f"points {i} and {j} lie on the same orbit: elements {e} and {f} of the truncated group "
                            f"send them within pseudo-hyperbolic distance {ORBIT_COLLISION_TOL:g} of each other")


def orbit_set(points, group: GroupWordList) -> tuple[np.ndarray, np.ndarray]:
    """Images of the input points under every enumerated group element, point-major, and the
    flat index ``k`` of each: point ``k // group.size`` under element ``k % group.size``.

    An image within pseudo-hyperbolic distance ``ORBIT_COLLISION_TOL`` of another input point
    raises :class:`ArgumentError` naming the points and words.  Only a stabilized point repeats an
    image, and a proved-free group stabilizes none; otherwise an image within ``DUPLICATE_TOL`` of an
    earlier kept image of its own point is dropped.  Images of two points are never merged.
    """
    pts = kernels.as_points(points, 1)[:, 0]
    check_distinct(pts)
    images = _images(group.theta, group.a, pts).T
    rho = np.abs(images[:, :, None] - pts) / np.abs(1.0 - images[:, :, None] * pts.conj())
    i, e, j = np.nonzero(rho <= ORBIT_COLLISION_TOL)
    _reject_same_orbit(i * group.size + e, j * group.size, group.size)
    kept = (np.arange(images.size) if group.free else
            np.flatnonzero([new for row in images for new in _file_new(row[:, None], DUPLICATE_TOL, {})]))
    return images.ravel()[kept], kept


def composition_matrix(m: MobiusMap, degree: int) -> np.ndarray:
    """Truncation of f -> f ∘ m on the monomial basis 1, z, ..., z^degree.

    Column j holds the degree-truncated Taylor coefficients of m(z)^j; column 1,
    e^{i theta}(z - a) * sum_k (conj(a) z)^k, has c_0 = -a e^{i theta} and
    c_k = e^{i theta} (1 - |a|^2) conj(a)^{k-1} for k >= 1.  Truncation commutes with
    products, so by doubling, columns k+1..2k are the lower-triangular Toeplitz
    matrix of column k times columns 1..k: about log2(degree) matrix products.
    """
    _require_integer("degree", degree)
    if degree < 0:
        raise ArgumentError("degree must be nonnegative")
    (theta,), (a,) = _stack([m], "m")
    e, n1 = cmath.exp(1j * theta), degree + 1
    rows = np.zeros((n1 + 1, 2 * n1), dtype=complex)  # row j: m^j; columns n1.. stay zero
    rows[0, 0], rows[1, 0] = 1.0, -e * a
    rows[1, 1:n1] = e * (1.0 - abs(a) ** 2) * a.conjugate() ** np.arange(degree)
    shifts = np.arange(n1) - np.arange(n1)[:, None]  # r - j; negative ones read the zeros
    k = 1
    while (width := min(k, degree - k)) > 0:
        rows[k + 1:k + 1 + width, :n1] = rows[1:1 + width, :n1] @ np.take(rows[k], shifts)
        k += width
    return rows[:n1, :n1].T


@dataclass(frozen=True, eq=False)
class GammaKernelApprox:
    """Truncated group-invariant kernel: sum over an orthonormal near-fixed basis.

    ``basis`` rows are monomial coefficient vectors; ``residuals`` holds the
    singular value of each kept direction under the stacked composition
    operators (how far it is from exactly invariant at this degree).
    """

    degree: int
    basis: np.ndarray
    residuals: np.ndarray

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def basis_values(self, z) -> np.ndarray:
        """Kept basis functions at ``z``, on a last axis: broadcasts over arrays of points."""
        powers = np.asarray(z)[..., None] ** np.arange(self.degree + 1)
        return powers @ self.basis.T

    def __call__(self, z, w) -> complex:
        vz = self.basis_values(kernels.as_disk_point(z))
        vw = self.basis_values(kernels.as_disk_point(w))
        return complex(vz @ np.conj(vw))


def gamma_kernel(generators, degree: int,
                 sv_cutoff: float = DEFAULT_SV_CUTOFF) -> GammaKernelApprox:
    """Approximate invariant kernel at a monomial-truncation degree: the directions of
    singular value at most ``sv_cutoff`` under the stacked ``C_g - I``, most invariant first.

    Column 0 of each ``C_g - I`` is zero, so the constant leads with residual exactly 0
    and the other columns ``B`` decide the rest: a Cholesky factor of ``B^H B -
    (sv_cutoff^2 + delta) I`` proves every singular value of ``B`` above the cutoff,
    else the SVD of ``B`` runs.  With B of m rows and n columns and u = eps/2, delta
    bounds the rounding: B^H B rounds by <= (m + 2) u |B^H||B|, of norm <= (m + 2) u
    ‖B‖_F^2, and a factor that completes has R^H R = A + E, |E| <= (n + 1) u |R^H||R|,
    of norm <= (n + 1) u tr(R^H R) ~ (n + 1) u ‖B‖_F^2; delta = 4 (m + n) eps ‖B‖_F^2
    adds room for complex rounding, the shift and ‖B‖_F^2 itself.  With no generators
    the result is the truncated Szego kernel.
    """
    _require_integer("degree", degree)
    if degree < 1:
        raise ArgumentError(f"degree must be at least 1, got {degree}")
    if not 0.0 < sv_cutoff < np.inf:  # an infinite cutoff keeps every direction
        raise ArgumentError(f"sv_cutoff must be finite and > 0, got {sv_cutoff}")
    gens, n1 = tuple(generators), degree + 1
    _stack(gens, "generators")  # composition_matrix would name its own argument
    if not gens:
        return GammaKernelApprox(degree, np.eye(n1, dtype=complex), np.zeros(n1))
    b = np.vstack([composition_matrix(g, degree) - np.eye(n1) for g in gens])[:, 1:]
    rounding = 4.0 * sum(b.shape) * np.finfo(float).eps * np.vdot(b, b).real
    shifted = b.conj().T @ b - (sv_cutoff ** 2 + rounding) * np.eye(degree)
    try:  # every singular value of B above the cutoff: the constant alone
        np.linalg.cholesky(shifted)
        return GammaKernelApprox(degree, np.eye(1, n1, dtype=complex), np.zeros(1))
    except np.linalg.LinAlgError:
        _, s, vh = np.linalg.svd(b, full_matrices=False)
    keep = s <= sv_cutoff  # a suffix: singular values come sorted descending
    basis = np.vstack([np.eye(1, n1), np.pad(vh[keep][::-1], ((0, 0), (1, 0)))])
    return GammaKernelApprox(degree, basis, np.concatenate([[0.0], s[keep][::-1]]))


def invariance_residual(kernel, maps) -> float:
    """max |K(g(z), w) - K(z, w)| over the ``RESIDUAL_GRID`` pairs and the given maps."""
    pts, m = np.array(RESIDUAL_GRID), len(RESIDUAL_GRID)
    grams = (kernels.kernel_matrix(kernel, np.concatenate([pts, images]))
             for images in _images(*_stack(maps, "maps"), pts))
    return max((float(np.max(np.abs(k[m:, :m] - k[:m, :m]))) for k in grams), default=0.0)


@dataclass
class GammaSequenceReport:
    """Finite-prefix diagnostics of a point sequence under a group action."""

    n_points: int
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
                           riesz_tolerance: float = DEFAULT_RIESZ_TOL,
                           max_elements: int = DEFAULT_GROUP_CAP) -> GammaSequenceReport:
    """Group-kernel Gramian bounds plus disk-side diagnostics of the orbit set.

    The group-kernel numbers (Riesz bounds, weak separation) use the
    truncated invariant kernel; the orbit numbers apply the Szego kernel to
    the images of the points under every enumerated group element.  Points with images within pseudo-
    hyperbolic distance ``ORBIT_COLLISION_TOL`` share an orbit, and an image beyond the disk wall
    ``DISK_BOUNDARY_WALL`` has too long a word: :class:`ArgumentError` names the points and the words.
    """
    pts = kernels.as_points(points, 1)[:, 0]
    gens = tuple(generators)
    warns = generator_warnings(gens)

    group = enumerate_group(gens, group_length, max_elements)
    orbit_pts, index = orbit_set(pts, group)  # rejects coinciding input points
    if (out := np.flatnonzero(~(np.abs(orbit_pts) <= 1.0 - kernels.DISK_BOUNDARY_WALL))).size:  # NaN too
        i, e = divmod(int(index[out[0]]), group.size)
        raise ArgumentError(f"point {i} under element {e} of the truncated group lands too close to the unit circle "
                            f"or is not finite: |g(z)| = {abs(orbit_pts[out[0]]):.12g}; use a shorter max_word_length")
    if dropped := len(pts) * group.size - len(orbit_pts):
        warns.append(f"{dropped} orbit images coincided with earlier ones and were dropped (stabilized points)")

    kern = gamma_kernel(gens, degree, sv_cutoff)
    if gens and kern.rank < degree + 1:
        warns.append(
            f"invariant subspace has rank {kern.rank} at degree {degree}; "
            "group-kernel diagnostics are truncation artifacts, see the residuals"
        )
    inv_res = invariance_residual(kern, gens) if gens else 0.0

    g = normalized_gramian(pts, kern)
    ph = pseudo_hyperbolic_matrix(orbit_pts)
    a, b = np.divmod(np.flatnonzero(ph <= ORBIT_COLLISION_TOL), len(ph))  # 2-D nonzero is far slower
    _reject_same_orbit(index[a], index[b], group.size)
    og = normalized_gramian(orbit_pts, kernels.SZEGO)
    delta, log_delta = log_separations(ph)
    return GammaSequenceReport(
        n_points=len(pts), degree=degree, group_size=group.size, kernel_rank=kern.rank,
        kernel_residuals=tuple(float(r) for r in kern.residuals),
        invariance_residual=float(inv_res),
        gamma_riesz=riesz_bounds(g, riesz_tolerance),
        gamma_weak_separation=min_semimetric(g) if len(pts) >= 2 else None,
        orbit_point_count=len(orbit_pts),
        orbit_riesz=riesz_bounds(og, riesz_tolerance, log_delta),
        orbit_weak_separation=float(np.min(ph)) if len(orbit_pts) >= 2 else None,  # off the unit diagonal
        orbit_strong_separation=float(np.min(delta)),
        warnings=tuple(warns),
    )
