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


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))
