"""Dense Hermitian linear-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np

from .errors import NumericError


def hermitian_part(a) -> np.ndarray:
    """(A + A*) / 2, batched over leading axes."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def eigh_hermitian(a):
    """Eigendecomposition of the symmetrized input; wraps solver failures."""
    try:
        return np.linalg.eigh(hermitian_part(a))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def eigvalsh_hermitian(a) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(hermitian_part(a))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue computation failed: {exc}") from exc


def certified_top_eigenvalue(a) -> float:
    """Top eigenvalue of an exactly Hermitian ``A``: the top Ritz value ``theta <= lambda_max``
    of Lanczos (full reorthogonalization from ``1/sqrt(n)``, at most 64 steps, stopped at
    residual ``<= 1e-13 theta``) when ``lambda_max <= (1 + 1e-12) theta`` is proved: first in
    O(n^2) by a Kato-Temple bound, else by a Cholesky factor of ``(1 + 1e-12) theta I - A``.
    Otherwise the full eigensolve gives the value.
    """
    a = np.asarray(a, dtype=complex)
    n = len(a)
    basis = np.empty((min(n, 64), n), dtype=complex)
    basis[0] = 1.0 / np.sqrt(n)
    tri = np.zeros((len(basis), len(basis)))
    for k in range(len(basis)):
        w = a @ basis[k]
        tri[k, k] = np.vdot(basis[k], w).real
        for _ in range(2):
            w -= basis[:k + 1].T @ (basis[:k + 1].conj() @ w)
        ritz, vecs = np.linalg.eigh(tri[:k + 1, :k + 1])
        theta, beta = ritz[-1], np.linalg.norm(w)
        if beta * abs(vecs[-1, -1]) <= 1e-13 * theta or k + 1 == len(basis):
            break
        tri[k + 1, k] = tri[k, k + 1] = beta
        basis[k + 1] = w / beta
    # sum(lambda_i^2) = ||A||_F^2 puts every other eigenvalue in [-b, b]; gamma covers rounding.
    x = vecs[:, -1] @ basis[:k + 1]
    x /= np.linalg.norm(x)
    ax, frob = a @ x, np.linalg.norm(a)
    rho = np.vdot(x, ax).real
    res, gamma = np.linalg.norm(ax - rho * x), n * np.finfo(float).eps * frob
    b = np.sqrt(max((frob + gamma) ** 2 - (rho - gamma) ** 2, 0.0))
    if rho - gamma > b and rho + gamma + (res + gamma) ** 2 / (rho - gamma - b) <= (1.0 + 1e-12) * theta:
        return float(theta)
    shifted = -a
    shifted.flat[::n + 1] += (1.0 + 1e-12) * theta
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return float(eigvalsh_hermitian(a)[-1])
    return float(theta)


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))
