"""Split a point set into kernel-separated classes and verify each is Riesz.

Greedy first-fit coloring of the proximity graph (edges join points whose
kernel semimetric ``sqrt(1 - |G_ij|^2)`` on the normalized Gramian falls
below epsilon) in input order, followed by a per-class check that the bottom
eigenvalue of the class's normalized Gramian clears a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ArgumentError
from .gramian import normalized_gramian, riesz_bounds

DEFAULT_RIESZ_TOL = 1e-3


@dataclass(frozen=True)
class PartitionResult:
    """Epsilon-separated classes of the input, with optional Riesz verdicts.

    ``classes`` holds the points; ``class_indices`` the matching positions in
    the input.  ``per_class_lambda_min`` and ``all_riesz`` stay None until
    :func:`verify_partition` fills them.
    """

    classes: tuple[tuple, ...]
    class_indices: tuple[tuple[int, ...], ...]
    epsilon: float
    per_class_lambda_min: tuple[float, ...] | None = None
    all_riesz: bool | None = None
    tolerance: float | None = None


def partition_separated(points, kernel, epsilon: float) -> PartitionResult:
    """Greedy first-fit partition into classes with pairwise semimetric >= epsilon.

    Deterministic in the input order; the class count never exceeds one plus
    the maximum degree of the proximity graph.
    """
    if not 0.0 < epsilon < 1.0:
        raise ArgumentError(f"epsilon must lie in (0, 1), got {epsilon}")
    pts = list(points)
    g = normalized_gramian(pts, kernel)
    close = np.sqrt(np.clip(1.0 - np.abs(g) ** 2, 0.0, 1.0)) < epsilon
    labels = np.zeros(len(pts), dtype=int)
    for i in range(len(pts)):
        # First class with no close earlier member; a new class if none.
        taken = np.zeros(i + 1, dtype=bool)
        taken[labels[:i][close[i, :i]]] = True
        labels[i] = np.argmin(taken)
    indices = [np.flatnonzero(labels == c).tolist() for c in range(labels.max() + 1)]
    return PartitionResult(
        classes=tuple(tuple(pts[i] for i in idx) for idx in indices),
        class_indices=tuple(tuple(idx) for idx in indices),
        epsilon=float(epsilon),
    )


def verify_partition(result: PartitionResult, kernel,
                     tolerance: float = DEFAULT_RIESZ_TOL) -> PartitionResult:
    """Fill in per-class bottom eigenvalues; a class passes when it exceeds ``tolerance``."""
    if not result.classes:
        raise ArgumentError("partition has no classes")
    lambda_mins = []
    for cls in result.classes:
        if not cls:
            raise ArgumentError("partition contains an empty class")
        if len(cls) == 1:
            lambda_mins.append(1.0)
            continue
        report = riesz_bounds(normalized_gramian(cls, kernel), tolerance)
        lambda_mins.append(report.lambda_min)
    return replace(
        result,
        per_class_lambda_min=tuple(lambda_mins),
        all_riesz=bool(all(lm > tolerance for lm in lambda_mins)),
        tolerance=float(tolerance),
    )
