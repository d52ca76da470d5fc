"""Kernel families on the unit disk and polydisc, and the derived semimetrics.

A disk kernel here is the normalized complete-Pick form determined by finitely
many nonnegative power-series coefficients ``c_1..c_m``::

    1/k(z, w) = 1 - sum_i c_i (z * conj(w))**i

with ``c_i >= 0`` and ``sum c_i <= 1``.  ``coeffs=[1]`` gives the Szego kernel
``1/(1 - z*conj(w))`` of the Hardy space.  Polydisc kernels are entrywise
products of one-variable factors.

:func:`inv_kernel_form` evaluates that series, broadcasting over arrays, and
:func:`kernel_matrix` builds every kernel matrix from it: for a
:class:`KernelSpec` or the truncated group kernel (``fuchsian.GammaKernelApprox``,
or any object with a ``gram(z)`` method) at disk points, and for a
:class:`ProductKernelSpec` at polydisc points.  Scalar evaluators are callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError, NumericError

# Points closer to the unit circle than this wall are rejected: every
# downstream quantity loses conditioning near the boundary, and an explicit
# wall makes the failure deterministic.
DISK_BOUNDARY_WALL = 1e-9


def as_disk_point(z) -> complex:
    """Validate a point of the open unit disk, returned as a complex number."""
    try:
        z = complex(z)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"not interpretable as a disk point: {z!r}") from exc
    # Written so that NaN fails the test too.
    if not abs(z) <= 1.0 - DISK_BOUNDARY_WALL:
        raise DomainError(f"point too close to the unit circle: |z| = {abs(z):.12g}")
    return z


def _disk_array(z) -> np.ndarray:
    """Array form of :func:`as_disk_point`: validates every entry, keeps the shape."""
    z = np.asarray(z, dtype=complex)
    if not np.all(np.abs(z) <= 1.0 - DISK_BOUNDARY_WALL):
        raise DomainError("point too close to the unit circle or not finite")
    return z


def as_poly_point(p, dim: int | None = None) -> tuple[complex, ...]:
    """Validate a polydisc point; a bare scalar is promoted to dimension 1."""
    if isinstance(p, (complex, float, int)):
        coords = (as_disk_point(p),)
    else:
        try:
            items = list(p)
        except TypeError as exc:
            raise ArgumentError(f"not interpretable as a polydisc point: {p!r}") from exc
        coords = tuple(as_disk_point(c) for c in items)
    if not coords:
        raise ArgumentError("a polydisc point needs at least one coordinate")
    if dim is not None and len(coords) != dim:
        raise ArgumentError(f"expected a point of dimension {dim}, got {len(coords)}")
    return coords


@dataclass(frozen=True)
class KernelSpec:
    """Disk kernel given by the power-series coefficients of its reciprocal.

    The instance is callable: ``spec(z, w)`` evaluates the kernel.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        try:
            coeffs = tuple(float(c) for c in self.coeffs)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"kernel coefficients must be real numbers: {self.coeffs!r}") from exc
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise DomainError("kernel needs at least one coefficient")
        if any(c < 0.0 for c in coeffs):
            raise DomainError(f"kernel coefficients must be nonnegative: {coeffs}")
        if not any(c > 0.0 for c in coeffs):
            raise DomainError("kernel needs at least one positive coefficient")
        if sum(coeffs) > 1.0 + 1e-12:
            raise DomainError(f"kernel coefficients must sum to at most 1: sum = {sum(coeffs)}")

    def __call__(self, z, w) -> complex:
        return eval_kernel(self, z, w)


SZEGO = KernelSpec((1.0,))


@dataclass(frozen=True)
class ProductKernelSpec:
    """Polydisc kernel: entrywise product of one-variable factors. Callable."""

    factors: tuple[KernelSpec, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise DomainError("product kernel needs at least one factor")
        for f in factors:
            if not isinstance(f, KernelSpec):
                raise DomainError(f"product kernel factors must be KernelSpec, got {type(f).__name__}")

    @property
    def dimension(self) -> int:
        return len(self.factors)

    def __call__(self, Z, W) -> complex:
        return product_kernel(self, Z, W)


def inv_kernel_form(spec: KernelSpec, z, w):
    """Reciprocal kernel 1/k(z, w) = 1 - sum_i c_i (z*conj(w))**i.

    Broadcasts: ``z`` and ``w`` may be disk points or numpy arrays of them (a
    column and a row give the whole matrix).  Strictly bounded away from zero
    on the open disk since the coefficients sum to at most 1.
    """
    s = _disk_array(z) * np.conj(_disk_array(w))
    # Horner's rule on the negated sum, in place, so an array input allocates
    # only ``s`` and the result.
    acc = -spec.coeffs[-1] * s
    for c in spec.coeffs[-2::-1]:
        acc -= c
        acc *= s
    acc += 1.0
    return acc


def eval_kernel(spec: KernelSpec, z, w) -> complex:
    """Kernel value k(z, w), the reciprocal of :func:`inv_kernel_form`."""
    return 1.0 / inv_kernel_form(spec, z, w)


def product_kernel(spec: ProductKernelSpec, Z, W) -> complex:
    """Product of factor evaluations at two polydisc points of matching dimension."""
    Z = as_poly_point(Z, spec.dimension)
    W = as_poly_point(W, spec.dimension)
    out = 1.0 + 0.0j
    for factor, zc, wc in zip(spec.factors, Z, W):
        out *= eval_kernel(factor, zc, wc)
    return out


def rho_semimetric(kernel, x, y) -> float:
    """Kernel semimetric sqrt(1 - |K(x,y)|^2 / (K(x,x) K(y,y))), in [0, 1].

    ``kernel`` is any callable ``(u, v) -> complex`` that is Hermitian with a
    positive diagonal; a nonpositive diagonal raises :class:`NumericError`.
    """
    kxx = complex(kernel(x, x)).real
    kyy = complex(kernel(y, y)).real
    if kxx <= 0.0 or kyy <= 0.0:
        raise NumericError(f"kernel diagonal not positive: K(x,x)={kxx}, K(y,y)={kyy}")
    kxy = complex(kernel(x, y))
    ratio = (abs(kxy) ** 2) / (kxx * kyy)
    return math.sqrt(min(max(1.0 - ratio, 0.0), 1.0))


def pseudo_hyperbolic(z, w) -> float:
    """|(z - w) / (1 - conj(w) z)|, the Szego instance of the semimetric."""
    z = as_disk_point(z)
    w = as_disk_point(w)
    return abs((z - w) / (1.0 - w.conjugate() * z))


def _hermitian(a: np.ndarray) -> np.ndarray:
    """Overwrite the lower triangle with the conjugated upper one and drop the
    imaginary part of the diagonal, so ``a`` is exactly Hermitian."""
    lower = np.tri(a.shape[0], k=-1, dtype=bool)
    a[lower] = a.T[lower].conj()
    np.fill_diagonal(a, a.diagonal().real)
    return a


def kernel_matrix(kernel, points) -> np.ndarray:
    """Dense matrix [kernel(p_i, p_j)], exactly Hermitian.

    A disk kernel is the reciprocal of :func:`inv_kernel_form` on the matrix
    ``z_i * conj(z_j)``, a product kernel the entrywise product of its
    factors' matrices, and a kernel with a ``gram`` method gives ``gram(z)``.
    """
    pts = list(points)
    if not pts:
        raise ArgumentError("need at least one point")
    if isinstance(kernel, ProductKernelSpec):
        coords = np.array([as_poly_point(p, kernel.dimension) for p in pts]).T
        factors = kernel.factors
    elif isinstance(kernel, KernelSpec):
        coords = np.array([[as_disk_point(p) for p in pts]])
        factors = (kernel,)
    elif hasattr(kernel, "gram"):
        return _hermitian(kernel.gram(np.array([as_disk_point(p) for p in pts])))
    else:
        raise ArgumentError(f"no kernel matrix for a {type(kernel).__name__}")
    out = 1.0
    for factor, z in zip(factors, coords):
        out = out / inv_kernel_form(factor, z[:, None], z[None, :])
    return _hermitian(out)
