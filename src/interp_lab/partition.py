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
from .gramian import DEFAULT_RIESZ_TOL, _check_tolerance, normalized_gramian, riesz_bounds


@dataclass(frozen=True)
class PartitionResult:
    """Epsilon-separated classes of the input, with optional Riesz verdicts.

    ``classes`` holds the points; ``class_indices`` the matching positions in the input;
    ``carleson_constant`` the top eigenvalue of the whole set's normalized Gramian, proved
    within a factor ``1 + 1e-12`` (:func:`certified_top_eigenvalue`); ``_blocks`` its kernel
    and that Gramian, whose principal block on a class is bit for bit the class's own.
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


def _close(g: np.ndarray, epsilon: float) -> np.ndarray:
    """``semimetric_matrix(g) < epsilon`` without its clip and root: the rounded root is monotone,
    so ``sqrt(t) < epsilon`` exactly when ``t < c``, ``c`` the least double whose root reaches epsilon."""
    c = epsilon * epsilon
    while np.sqrt(c) < epsilon:
        c = np.nextafter(c, 1.0)
    while np.sqrt(below := np.nextafter(c, 0.0)) >= epsilon:
        c = below
    t = np.abs(g)
    return np.subtract(1.0, np.square(t, out=t), out=t) < c


def partition_separated(points, kernel, epsilon: float) -> PartitionResult:
    """Greedy first-fit partition into classes with pairwise semimetric >= epsilon.

    Deterministic in the input order; the class count never exceeds one plus
    the maximum degree of the proximity graph.
    """
    if not 0.0 < epsilon < 1.0:
        raise ArgumentError(f"epsilon must lie in (0, 1), got {epsilon}")
    pts = list(points)
    g = normalized_gramian(pts, kernel)
    close = _close(g, epsilon)
    # reach[c, i]: class c has a member close to point i.  Each point takes the first class
    # that does not reach it; a class with no members yet reaches no point (rows: close is symmetric).
    reach = np.zeros_like(close)
    labels = []
    for i, row in enumerate(close):
        labels.append(reach[:, i].argmin())
        reach[labels[-1]] |= row
    ends = np.cumsum(np.bincount(labels))[:-1]
    indices = [idx.tolist() for idx in np.split(np.argsort(labels, kind="stable"), ends)]
    return PartitionResult(
        classes=tuple(tuple(pts[i] for i in idx) for idx in indices),
        class_indices=tuple(tuple(idx) for idx in indices),
        epsilon=float(epsilon),
        carleson_constant=certified_top_eigenvalue(g),
        _blocks=(kernel, g),
    )


def verify_partition(result: PartitionResult, kernel,
                     tolerance: float = DEFAULT_RIESZ_TOL) -> PartitionResult:
    """Fill in per-class bottom eigenvalues; a class passes when it exceeds ``tolerance``.

    The classes of one size go to :func:`riesz_bounds` as one stack: principal blocks of the stored
    Gramian for the partition's own kernel, each class's own Gramian for another kernel.
    """
    tolerance = _check_tolerance(tolerance)
    if not result.classes:
        raise ArgumentError("partition has no classes")
    sizes = [len(cls) for cls in result.classes]
    if 0 in sizes:
        raise ArgumentError("partition contains an empty class")
    stored = result._blocks[1] if result._blocks and result._blocks[0] == kernel else None
    lambda_mins = [1.0] * len(sizes)
    for size in sorted(set(sizes) - {1}):
        ks = [k for k, s in enumerate(sizes) if s == size]
        idx = np.array([result.class_indices[k] for k in ks])
        stack = (np.stack([normalized_gramian(result.classes[k], kernel) for k in ks]) if stored is None
                 else stored[idx[:, :, None], idx[:, None, :]])
        for k, report in zip(ks, riesz_bounds(stack, tolerance)):
            lambda_mins[k] = report.lambda_min
    return replace(
        result,
        per_class_lambda_min=tuple(lambda_mins),
        all_riesz=bool(all(lm > tolerance for lm in lambda_mins)),
        tolerance=tolerance,
    )
