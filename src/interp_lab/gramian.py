"""Gramians of normalized kernel functions and separation/Carleson diagnostics.

For a finite point set the normalized Gramian has entries
``K(p_i, p_j) / sqrt(K(p_i, p_i) K(p_j, p_j))``; its extreme eigenvalues are
the finite-prefix Riesz bounds, and the top eigenvalue doubles as the Carleson
(Bessel) constant of the weighted point-mass measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._linalg import LANCZOS_STEPS, certified_top_eigenvalue, hermitian_part
from .errors import ArgumentError, NumericError

# Euclidean distance below which two points are treated as the same point;
# below meaningful resolution for double-precision kernel evaluation.
DUPLICATE_TOL = 1e-12

# Default bottom eigenvalue a normalized Gramian must clear to be Riesz.
DEFAULT_RIESZ_TOL = 1e-3

# Scale for "PSD within tolerance" feasibility margins: min eigenvalue >= -PSD_TOL_PER_POINT * n.
PSD_TOL_PER_POINT = 1e-10


def check_distinct(points) -> np.ndarray:
    """Raise :class:`ArgumentError` naming the first pair ``(i, j)``, ``i < j``,
    of disk or polydisc points within Euclidean distance ``DUPLICATE_TOL``; the
    points are validated by :func:`kernels.as_points` first, and returned as its array.  Sorted by
    the real part of the first coordinate, only pairs whose real parts lie within ``2 DUPLICATE_TOL``
    get the full test in ``C^d``: O(n log n) unless many real parts meet."""
    p = kernels.as_points(points)
    order = np.argsort(p[:, 0].real)
    x = p[order, 0].real
    if not (x[1:] - x[:-1] <= 2.0 * DUPLICATE_TOL).any():
        return p
    width = np.searchsorted(x, x + 2.0 * DUPLICATE_TOL, side="right") - np.arange(1, len(x) + 1)
    k = np.repeat(np.arange(len(x)), width)  # the pairs (k, m), k < m, of sorted positions
    m = k + 1 + np.arange(len(k)) - np.repeat(np.cumsum(width) - width, width)
    i, j = np.minimum(order[k], order[m]), np.maximum(order[k], order[m])
    close = (np.abs(p[i, 0] - p[j, 0]) <= DUPLICATE_TOL if p.shape[1] == 1 else
             sum(np.abs(c) ** 2 for c in (p[i] - p[j]).T) <= DUPLICATE_TOL ** 2)
    if close.any():
        i, j = divmod(int(np.min((i * len(p) + j)[close])), len(p))
        raise ArgumentError(f"points {i} and {j} coincide within {DUPLICATE_TOL:g}")
    return p


@dataclass(frozen=True)
class RieszReport:
    """Extreme eigenvalues of a normalized Gramian and the Riesz verdict."""

    lambda_min: float
    lambda_max: float
    carleson_constant: float
    is_riesz: bool
    riesz_tolerance: float


def normalized_gramian(points, kernel) -> np.ndarray:
    """Normalized Gramian ``K_ij / sqrt(K_ii K_jj)`` of distinct points, exactly Hermitian with unit
    diagonal, for any kernel that :func:`kernels.kernel_matrix` takes: its ``unit_diagonal`` form."""
    return kernels.kernel_matrix(kernel, check_distinct(points), unit_diagonal=True)


def _check_tolerance(tolerance: float) -> float:
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ArgumentError(f"tolerance must be finite and >= 0, got {tolerance}")
    return float(tolerance)


def riesz_bounds(g, tolerance: float = DEFAULT_RIESZ_TOL, log_delta=None) -> RieszReport | tuple[RieszReport, ...]:
    """Extreme eigenvalues of a normalized Gramian, or a tuple of reports for a stack ``(k, n, n)`` of them.

    ``carleson_constant`` is the top eigenvalue (the Bessel bound of the
    finite prefix); ``is_riesz`` holds when the bottom eigenvalue clears
    ``tolerance``, which must be finite and >= 0.  An exactly Hermitian ``g`` is solved uncopied, and a stack
    by one eigvalsh call, bit for bit as its members one at a time.

    ``log_delta``, ``log delta_j = sum_{k != j} log rho(z_j, z_k)``, marks a Szego Gramian of points ``z_j``.  Then
    ``G^-1 = diag(conj(u)) conj(G) diag(u)``, ``u_j = 1/B_j(z_j)``, ``B_j = prod_{k != j} b_{z_k}``: the dual basis is
    ``sqrt(1 - |z_i|^2) B / (B_i(z_i)(z - z_i))``, ``<B/(z - z_j), B/(z - z_i)> = 1/(1 - conj(z_i) z_j)`` (|B| = 1).
    So ``lambda_min = delta_min^2 / lambda_max(S G S)``, ``S = diag(delta_min/delta_j)``; two certified_top_eigenvalue
    runs, ``2 (8 L n^2 + 4 n^3 / 3)`` flops, ``L = LANCZOS_STEPS``, beat eigvalsh's ``16 n^3 / 3`` iff ``n > 6 L``.
    Up to ``6 L`` points eigvalsh runs, and the closed form replaces its ``lambda_min`` if at most ``n eps ||G||_F``.
    """
    tolerance = _check_tolerance(tolerance)
    g = np.asarray(g, dtype=complex)
    if g.ndim not in (2, 3) or g.shape[-2] != g.shape[-1]:
        raise ArgumentError(f"expected a square matrix, got shape {g.shape}")
    if not g.size:
        raise ArgumentError(f"expected a nonempty matrix, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise ArgumentError("expected a matrix of finite entries")
    if np.max(np.abs(np.diagonal(g, axis1=-2, axis2=-1) - 1.0)) > 1e-8:
        raise ArgumentError("expected a normalized Gramian (unit diagonal)")
    n = g.shape[-1]
    if log_delta is not None and g.ndim == 3:
        raise ArgumentError("log separations mark one Szego Gramian, not a stack")
    if log_delta is not None and np.shape(log_delta) != (n,):
        raise ArgumentError(f"expected {n} log separations, got shape {np.shape(log_delta)}")
    hermitian = all((g[..., j:, j:j + 64] == np.swapaxes(g[..., j:j + 64, j:], -1, -2).conj()).all()
                    for j in range(0, n, 64))
    g = g if hermitian else hermitian_part(g)
    closed = log_delta is not None and np.isfinite(log_delta).all()
    if closed and n > 6 * LANCZOS_STEPS:
        lam_min, lam_max = None, certified_top_eigenvalue(g)
    else:
        try:
            w = np.linalg.eigvalsh(g)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigenvalue computation failed: {exc}") from exc
        if g.ndim == 3:
            return tuple(RieszReport(lo, hi, hi, lo > tolerance, tolerance) for lo, hi in w[:, [0, -1]].tolist())
        lam_min, lam_max = float(w[0]), float(w[-1])
    if closed and (lam_min is None or lam_min <= n * np.finfo(float).eps * np.linalg.norm(w)):  # ||G||_F
        s = np.exp(np.min(log_delta) - np.asarray(log_delta))  # lambda_max(S G S) >= S_jj^2 = 1 at delta_min
        sgs = np.multiply(sgs := g * s[:, None], s, out=sgs)  # one n×n buffer
        lam_min = math.exp(2.0 * np.min(log_delta)) / certified_top_eigenvalue(sgs)
    return RieszReport(lam_min, lam_max, lam_max, bool(lam_min > tolerance), tolerance)


def semimetric_matrix(g) -> np.ndarray:
    """Pairwise kernel semimetric ``sqrt(1 - |G_ij|^2)`` of a normalized Gramian, in place."""
    rho = np.abs(g)
    np.subtract(1.0, np.square(rho, out=rho), out=rho)
    return np.sqrt(np.clip(rho, 0.0, 1.0, out=rho), out=rho)


def min_semimetric(g) -> float:
    """Smallest off-diagonal entry of :func:`semimetric_matrix` (needs n >= 2):
    the weak separation of the points behind a normalized Gramian."""
    if len(g) < 2:
        raise ArgumentError("weak separation needs at least two points")
    rho = semimetric_matrix(g)
    np.fill_diagonal(rho, 1.0)
    return float(np.min(rho))


def weak_separation(points, kernel) -> float:
    """Minimum pairwise kernel semimetric over a point set (needs n >= 2)."""
    return min_semimetric(normalized_gramian(points, kernel))


def pseudo_hyperbolic_matrix(points) -> np.ndarray:
    """``rho(z_j, z_k)`` of plain disk points, unit diagonal: as ``|1 - z conj(w)|^2 = |z - w|^2 + (1 - |z|^2)
    (1 - |w|^2)``, two real n×n buffers, no complex division.  Pairs within ``DUPLICATE_TOL`` read 0."""
    z = kernels.as_points(points, 1)[:, 0]
    dist, other = (np.subtract.outer(c, c) for c in (z.real, z.imag))
    dist *= dist
    dist += np.square(other, out=other)
    close = dist <= DUPLICATE_TOL ** 2
    m = 1.0 - (z.real ** 2 + z.imag ** 2)
    np.add(np.multiply.outer(m, m, out=other), dist, out=other)
    ph = np.sqrt(np.divide(dist, other, out=dist), out=dist)
    ph[close] = 0.0
    np.fill_diagonal(ph, 1.0)
    return ph


def log_separations(ph) -> tuple[np.ndarray, np.ndarray]:
    """Row products ``delta_j = prod_k ph_jk`` of a :func:`pseudo_hyperbolic_matrix` and Carleson's
    ``log delta_j`` for :func:`riesz_bounds`: n logarithms of the products, and for a row whose
    product falls below the smallest normal double the sum of its logarithms instead."""
    delta = np.prod(ph, axis=1)
    low = delta < np.finfo(float).tiny
    logs = np.log(np.where(low, 1.0, delta))
    logs[low] = np.log(ph[low]).sum(axis=1)
    return delta, logs


def multiplier_separation(points, spec: kernels.KernelSpec, alpha: float = 1.0) -> list[float]:
    """Multiplier distance of each point from all the others, from one factorization.

    ``delta_i`` is the largest ``delta <= 1`` for which the Pick matrix
    ``alpha^2 K - delta^2 K_ii e_i e_i^T`` (norm bound ``alpha``, delta at
    point i, 0 elsewhere) has no eigenvalue below ``-tau``, ``tau =
    PSD_TOL_PER_POINT * n``.  By a Schur complement that is
    ``1 / sqrt(K_ii (A^-1)_ii)`` with ``A = alpha^2 K + tau I = L L^H``, and
    ``(A^-1)_ii`` is the squared norm of column i of ``L^-1``.  Without a
    Cholesky factor not even delta = 0 passes, and every delta is 0.
    """
    if not 0.0 < alpha < math.inf:
        raise ArgumentError(f"alpha must be finite and > 0, got {alpha}")
    pts = kernels.as_points(points, 1)
    check_distinct(pts)
    n = len(pts)
    k = kernels.kernel_matrix(spec, pts)
    a = alpha * alpha * k + PSD_TOL_PER_POINT * n * np.eye(n)
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return [0.0] * n
    inv_diag = np.sum(np.abs(np.linalg.inv(factor)) ** 2, axis=0)
    return [min(1.0, 1.0 / math.sqrt(kd * c)) for kd, c in zip(k.diagonal().real, inv_diag)]
