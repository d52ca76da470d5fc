"""Split a point set into kernel-separated classes and verify each is Riesz.

Greedy first-fit coloring of the proximity graph (edges join points whose
kernel semimetric ``sqrt(1 - |G_ij|^2)`` on the normalized Gramian falls
below epsilon) in input order, followed by a per-class check that the bottom
eigenvalue of the class's normalized Gramian clears a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._linalg import certified_top_eigenvalue
from .errors import ArgumentError
from .gramian import (DEFAULT_RIESZ_TOL, _check_tolerance, normalized_gramian, riesz_bounds,
                      semimetric_matrix)


@dataclass(frozen=True)
class PartitionResult:
    """Epsilon-separated classes of the input, with optional Riesz verdicts.

    ``classes`` holds the points; ``class_indices`` the matching positions in the input;
    ``carleson_constant`` the top eigenvalue of the whole set's normalized Gramian, proved
    within a factor ``1 + 1e-12`` (:func:`certified_top_eigenvalue`); ``_blocks`` its kernel
    and each class's principal block, bit for bit the class's own normalized Gramian.
    ``per_class_lambda_min`` and ``all_riesz`` stay None until :func:`verify_partition`
    fills them.
    """

    classes: tuple[tuple, ...]
    class_indices: tuple[tuple[int, ...], ...]
    epsilon: float
    per_class_lambda_min: tuple[float, ...] | None = None
    all_riesz: bool | None = None
    tolerance: float | None = None
    carleson_constant: float | None = None
    _blocks: tuple | None = field(default=None, repr=False, compare=False)


def partition_separated(points, kernel, epsilon: float) -> PartitionResult:
    """Greedy first-fit partition into classes with pairwise semimetric >= epsilon.

    Deterministic in the input order; the class count never exceeds one plus
    the maximum degree of the proximity graph.
    """
    if not 0.0 < epsilon < 1.0:
        raise ArgumentError(f"epsilon must lie in (0, 1), got {epsilon}")
    pts = list(points)
    g = normalized_gramian(pts, kernel)
    close = semimetric_matrix(g) < epsilon
    # reach[c, i]: class c has a member close to point i.  Each point takes the first class
    # that does not reach it; a class with no members yet reaches no point.
    reach = np.zeros_like(close)
    labels = []
    for i, column in enumerate(close.T):
        labels.append(reach[:, i].argmin())
        reach[labels[-1]] |= column
    labels = np.array(labels)
    indices = [np.flatnonzero(labels == c).tolist() for c in range(labels.max() + 1)]
    return PartitionResult(
        classes=tuple(tuple(pts[i] for i in idx) for idx in indices),
        class_indices=tuple(tuple(idx) for idx in indices),
        epsilon=float(epsilon),
        carleson_constant=certified_top_eigenvalue(g),
        _blocks=(kernel, tuple(g[np.ix_(idx, idx)] for idx in indices)),
    )


def verify_partition(result: PartitionResult, kernel,
                     tolerance: float = DEFAULT_RIESZ_TOL) -> PartitionResult:
    """Fill in per-class bottom eigenvalues; a class passes when it exceeds ``tolerance``.

    The stored blocks serve the partition's own kernel; another kernel builds each class's Gramian.
    """
    tolerance = _check_tolerance(tolerance)
    if not result.classes:
        raise ArgumentError("partition has no classes")
    stored = result._blocks[1] if result._blocks and result._blocks[0] == kernel else None
    lambda_mins = []
    for k, cls in enumerate(result.classes):
        if not cls:
            raise ArgumentError("partition contains an empty class")
        if len(cls) == 1:
            lambda_mins.append(1.0)
            continue
        g = stored[k] if stored else normalized_gramian(cls, kernel)
        lambda_mins.append(riesz_bounds(g, tolerance).lambda_min)
    return replace(
        result,
        per_class_lambda_min=tuple(lambda_mins),
        all_riesz=bool(all(lm > tolerance for lm in lambda_mins)),
        tolerance=tolerance,
    )
