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
from ._linalg import eigvalsh_hermitian
from .errors import ArgumentError, NumericError

# Euclidean distance below which two points are treated as the same point;
# below meaningful resolution for double-precision kernel evaluation.
DUPLICATE_TOL = 1e-12

# Scale for "PSD within tolerance" feasibility margins: min eigenvalue >= -PSD_TOL_PER_POINT * n.
PSD_TOL_PER_POINT = 1e-10


def check_distinct(points, tol: float = DUPLICATE_TOL) -> None:
    """Raise :class:`ArgumentError` naming the first pair ``(i, j)``, ``i < j``,
    of disk or polydisc points within Euclidean distance ``tol``."""
    try:
        p = np.array(list(points), dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"points must be numbers or tuples of one dimension: {exc}") from exc
    if p.ndim == 1:
        p = p[:, None]
    sq = np.zeros((len(p), len(p)))
    for c in p.T:
        sq += np.abs(c[:, None] - c[None, :]) ** 2
    close = np.argwhere(np.triu(np.sqrt(sq) <= tol, 1))
    if len(close):
        i, j = close[0]
        raise ArgumentError(f"points {i} and {j} coincide within {tol:g}")


@dataclass(frozen=True)
class RieszReport:
    """Extreme eigenvalues of a normalized Gramian and the Riesz verdict."""

    lambda_min: float
    lambda_max: float
    carleson_constant: float
    is_riesz: bool
    tolerance: float


def _normalized(points, kernel) -> np.ndarray:
    # The public diagnostics call this helper, never one another, so when the
    # layers are traced from outside each one's time stays its own.
    pts = list(points)
    check_distinct(pts)
    k = kernels.kernel_matrix(kernel, pts)
    d = k.diagonal().real.copy()
    if not np.all(d > 0.0):
        raise NumericError(f"kernel diagonal not positive: min {np.min(d)}")
    k /= np.sqrt(np.outer(d, d))
    np.fill_diagonal(k, 1.0)
    return k


def normalized_gramian(points, kernel) -> np.ndarray:
    """Normalized Gramian ``K_ij / sqrt(K_ii K_jj)``, exactly Hermitian with unit
    diagonal, for any kernel that :func:`kernels.kernel_matrix` takes."""
    return _normalized(points, kernel)


def riesz_bounds(g, tolerance: float = 1e-3) -> RieszReport:
    """Extreme eigenvalues of a normalized Gramian.

    ``carleson_constant`` is the top eigenvalue (the Bessel bound of the
    finite prefix); ``is_riesz`` holds when the bottom eigenvalue clears
    ``tolerance``.
    """
    g = np.asarray(g, dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ArgumentError(f"expected a square matrix, got shape {g.shape}")
    if np.max(np.abs(np.diagonal(g) - 1.0)) > 1e-8:
        raise ArgumentError("expected a normalized Gramian (unit diagonal)")
    w = eigvalsh_hermitian(g)
    lam_min = float(w[0])
    lam_max = float(w[-1])
    return RieszReport(lam_min, lam_max, lam_max, bool(lam_min > tolerance), float(tolerance))


def weak_separation(points, kernel) -> float:
    """Minimum pairwise kernel semimetric over a point set (needs n >= 2).

    The semimetric is ``sqrt(1 - |G_ij|^2)`` on the normalized Gramian.
    """
    pts = list(points)
    if len(pts) < 2:
        raise ArgumentError("weak separation needs at least two points")
    g = np.abs(_normalized(pts, kernel))
    np.fill_diagonal(g, 0.0)
    return math.sqrt(min(max(1.0 - float(np.max(g)) ** 2, 0.0), 1.0))


def strong_separation_disk(points) -> float:
    """min over j of prod_{k != j} of the pseudo-hyperbolic distances.

    The empty product (a single point) is 1.  Szego-kernel quantity: the
    points are plain disk points.
    """
    z = np.array([kernels.as_disk_point(p) for p in points])
    if not len(z):
        raise ArgumentError("need at least one point")
    check_distinct(z)
    ph = np.abs((z[:, None] - z[None, :]) / (1.0 - z[:, None] * np.conj(z)[None, :]))
    np.fill_diagonal(ph, 1.0)
    return float(np.min(np.prod(ph, axis=1)))


def multiplier_distance(x, s_points, spec: kernels.KernelSpec, alpha: float = 1.0) -> float:
    """Largest value at ``x`` of a unit multiplier vanishing on ``s_points``.

    The largest ``delta <= 1`` for which the Pick matrix of the data (delta at
    x, 0 on S) with norm bound ``alpha``, ``alpha^2 K - delta^2 K_xx e_x e_x^T``,
    has no eigenvalue below ``-tau = -PSD_TOL_PER_POINT * n``.  By a Schur
    complement, ``delta^2 K_xx`` may reach ``1 / ((alpha^2 K + tau I)^-1)_xx``,
    which is ``|L_xx|^2`` for the Cholesky factor ``L`` when ``x`` comes last;
    with no Cholesky factor not even delta = 0 passes, and the result is 0.
    With ``alpha=1`` and a complete-Pick disk kernel this is exact; for other
    settings the caller supplies the scaling.  Returns 0 when ``x`` lies in
    ``s_points`` and 1 when ``s_points`` is empty.
    """
    if alpha <= 0.0:
        raise ArgumentError(f"alpha must be positive, got {alpha}")
    x = kernels.as_disk_point(x)
    s = [kernels.as_disk_point(p) for p in s_points]
    if any(abs(x - p) <= DUPLICATE_TOL for p in s):
        return 0.0
    if not s:
        return 1.0
    check_distinct(s)
    n = len(s) + 1
    k = kernels.kernel_matrix(spec, [*s, x])
    a = alpha * alpha * k + PSD_TOL_PER_POINT * n * np.eye(n)
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return 0.0
    return min(1.0, abs(factor[-1, -1]) / math.sqrt(k[-1, -1].real))
