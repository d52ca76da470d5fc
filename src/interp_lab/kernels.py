"""Kernel families on the unit disk and polydisc, and the derived semimetrics.

A disk kernel here is the normalized complete-Pick form determined by finitely
many nonnegative power-series coefficients ``c_1..c_m``::

    1/k(z, w) = 1 - sum_i c_i (z * conj(w))**i

with ``c_i >= 0`` and ``sum c_i <= 1``.  ``coeffs=[1]`` gives the Szego kernel
``1/(1 - z*conj(w))`` of the Hardy space.  Polydisc kernels are entrywise
products of one-variable factors.

:func:`as_points` validates every point list as one ``(n, d)`` array,
:func:`inv_kernel_form` evaluates that series, broadcasting over arrays, and
:func:`kernel_matrix` builds every kernel matrix and normalized Gramian from it: for a
:class:`KernelSpec` or the truncated group kernel (``fuchsian.GammaKernelApprox``,
or any object with a ``basis_values(z)`` method) at disk points, and for a
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
    return complex(_disk_array(z))


def _disk_array(z) -> np.ndarray:
    """The one wall check: every entry must lie in the disk ``|z| <= 1 - DISK_BOUNDARY_WALL``.

    Keeps the shape.  The error names the first bad entry's point (its index
    on the first axis) and its modulus.
    """
    z = np.asarray(z, dtype=complex)
    # Written so that NaN fails the test too.
    outside = ~(np.abs(z) <= 1.0 - DISK_BOUNDARY_WALL)
    if outside.any():
        at = tuple(np.argwhere(outside)[0])
        point = f"point {at[0]}" if at else "point"
        raise DomainError(f"{point} too close to the unit circle or not finite: |z| = {abs(z[at]):.12g}")
    return z


def as_points(points, dim: int | None = None) -> np.ndarray:
    """Validate a list of disk or polydisc points as an ``(n, d)`` complex array.

    A number is a point of dimension 1; sequences share one length, ``dim``
    when given.  A bad shape raises :class:`ArgumentError`, a coordinate
    outside the wall :class:`DomainError` (see :func:`_disk_array`).
    """
    try:
        p = np.asarray(points if isinstance(points, np.ndarray) else list(points), dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"points must be numbers or sequences of one length: {exc}") from exc
    if p.ndim == 1:
        p = p[:, None]
    if p.ndim != 2 or not p.size:
        raise ArgumentError(f"need at least one point with a coordinate, got shape {p.shape}")
    if dim is not None and p.shape[1] != dim:
        raise ArgumentError(f"expected points of dimension {dim}, got {p.shape[1]}")
    return _disk_array(p)


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
        if not all(c >= 0.0 for c in coeffs):
            raise DomainError(f"kernel coefficients must be nonnegative: {coeffs}")
        if not any(c > 0.0 for c in coeffs):
            raise DomainError("kernel needs at least one positive coefficient")
        if not sum(coeffs) <= 1.0 + 1e-12:
            raise DomainError(f"kernel coefficients must sum to at most 1: sum = {sum(coeffs)}")

    def __call__(self, z, w) -> complex:
        return eval_kernel(self, z, w)


SZEGO = KernelSpec((1.0,))


@dataclass(frozen=True)
class ProductKernelSpec:
    """Polydisc kernel: entrywise product of one-variable factors."""

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


def inv_kernel_form(spec: KernelSpec, z, w):
    """Reciprocal kernel 1/k(z, w) = 1 - sum_i c_i (z*conj(w))**i.

    Broadcasts: ``z`` and ``w`` may be disk points or numpy arrays of them (a
    column and a row give the whole matrix).  Strictly bounded away from zero
    on the open disk since the coefficients sum to at most 1.
    """
    return _inv_series(spec, _disk_array(z) * np.conj(_disk_array(w)))


def _inv_series(spec: KernelSpec, s):
    """1 - sum_i c_i s**i at ``s = z*conj(w)`` for checked points, by Horner's rule on the
    negated sum, in place: one coefficient overwrites an array ``s``, more allocate the result."""
    if len(spec.coeffs) == 1:
        acc = s
        acc *= -spec.coeffs[0]
    else:
        acc = -spec.coeffs[-1] * s
    for c in spec.coeffs[-2::-1]:
        acc -= c
        acc *= s
    acc += 1.0
    return acc


def eval_kernel(spec: KernelSpec, z, w) -> complex:
    """Kernel value k(z, w), the reciprocal of :func:`inv_kernel_form`."""
    return 1.0 / inv_kernel_form(spec, z, w)


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


def _hermitian(a: np.ndarray, unit_diagonal: bool = False) -> np.ndarray:
    """Overwrite the lower triangle with the conjugated upper one, 64 columns at a time, and the
    diagonal with its real part, or with 1 for ``unit_diagonal``, so ``a`` is exactly Hermitian."""
    n = len(a)
    for j in range(0, n, 64):
        np.copyto(a[j:, j:j + 64], a[j:j + 64, j:].T.conj(), where=np.tri(n - j, min(64, n - j), -1, bool))
    np.fill_diagonal(a, 1.0 if unit_diagonal else a.diagonal().real)
    return a


def kernel_matrix(kernel, points, unit_diagonal: bool = False) -> np.ndarray:
    """Dense matrix [kernel(p_i, p_j)], exactly Hermitian, or with ``unit_diagonal`` the normalized
    Gramian ``K_ij / sqrt(K_ii K_jj)``, whose diagonal is 1.

    A disk or product kernel is built from its factors' series, :func:`inv_kernel_form` on ``z_i * conj(z_j)``:
    ``K`` divides each into 1 in turn, and the normalized Gramian is ``sqrt(R_ii) sqrt(R_jj) / R_ij`` at their
    product ``R``.  A kernel with a ``basis_values(z)`` method gives ``V V^H`` of its rows ``V``, normalized of
    its unit rows (a zero row raises :class:`NumericError`).
    """
    if isinstance(kernel, (KernelSpec, ProductKernelSpec)):
        factors = getattr(kernel, "factors", (kernel,))
        return _series_matrix(factors, as_points(points, len(factors)), unit_diagonal)
    if not hasattr(kernel, "basis_values"):
        raise ArgumentError(f"no kernel matrix for a {type(kernel).__name__}")
    v = kernel.basis_values(as_points(points, 1)[:, 0])
    if unit_diagonal:
        if not np.all((norms := np.linalg.norm(v, axis=1)) > 0.0):
            raise NumericError(f"kernel diagonal not positive: min {np.min(norms) ** 2}")
        v = v / norms[:, None]
    return _hermitian(v @ v.conj().T, unit_diagonal)


def _series_matrix(factors, p: np.ndarray, unit_diagonal: bool = False) -> np.ndarray:
    """:func:`kernel_matrix` of the product of ``factors`` at points checked by :func:`as_points`, in the first
    factor's buffer: ``1/R_1`` with the later series divided in, or for ``unit_diagonal`` their product ``R``."""
    out = None
    for factor, z in zip(factors, p.T):
        s = _inv_series(factor, z[:, None] * np.conj(z[None, :]))
        if out is None:
            out = s if unit_diagonal else np.divide(1.0, s, out=s)
        else:
            (np.multiply if unit_diagonal else np.divide)(out, s, out=out)
    if unit_diagonal:
        d = np.sqrt(out.diagonal().real)
        np.divide(np.multiply.outer(d, d), out, out=out)
    return _hermitian(out, unit_diagonal)
