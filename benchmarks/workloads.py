"""Seeded payload batches for the three benchmark workloads.

Each workload is a fixed list of CLI reports.  Sizes and kernels are fixed,
point positions (and group parameters) come from ``--seed``, and every
workload also carries anchor sets that never depend on the seed, so the
slowest report is the same payload in every run.  The library only ever sees
the generated JSON payloads.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

SZEGO = {"coeffs": [1.0]}
TWO_COEFF = {"coeffs": [0.6, 0.3]}

# Anchor sets draw from this fixed stream, never from --seed.
ANCHOR_SEED = 20110908

# The ROADMAP baseline set: three bidisc points, Szego x Szego.
POLYDISC_ANCHOR = [[[0.0, 0.0], [0.0, 0.0]],
                   [[0.5, 0.0], [0.3, 0.2]],
                   [[-0.4, 0.1], [0.2, -0.5]]]

# The seeded two-point sets run with a smaller solver budget.  At the default
# budget their cost is heavy-tailed (1 s to 40 s per set depending on the
# points), which would make polydisc-solve's wall_s a function of the seed;
# with this budget a set costs 0.5-2.5 s.  The anchor runs at the defaults.
SEEDED_POLYDISC_CONFIG = {"sdp_max_iters": 5000, "bisection_tol": 1e-4}

FUCHSIAN_DEGREE = 60

# Times each one-variable pick report runs in one disk-batch batch.
PICK1_REPEATS = 5


@dataclass(frozen=True)
class Report:
    """One CLI invocation of a workload: ``interp-lab <command> -`` on ``payload``."""

    label: str
    command: str
    payload: dict


def payload_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _disk_points(rng, n: int, max_radius: float, separation: float = 0.0) -> list[complex]:
    """n points uniform in area on |z| <= max_radius, drawn until each new
    point is at pseudo-hyperbolic distance >= ``separation`` from the others."""
    pts: list[complex] = []
    while len(pts) < n:
        z = complex(max_radius * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        if all(abs((z - w) / (1.0 - w.conjugate() * z)) >= separation for w in pts):
            pts.append(z)
    return pts


def _kernel_matrix(coeffs, z) -> np.ndarray:
    s = np.outer(z, np.conj(z))
    inv = 1.0 - sum(c * s ** (i + 1) for i, c in enumerate(coeffs))
    return 1.0 / inv


def _min_norm_bound(k: np.ndarray, w: np.ndarray) -> float:
    """Smallest C with (C^2 - w_i conj(w_j)) K_ij positive semidefinite."""
    chol_inv = np.linalg.inv(np.linalg.cholesky(k))
    a = chol_inv @ (np.outer(w, np.conj(w)) * k) @ chol_inv.conj().T
    return math.sqrt(max(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[-1], 0.0))


def disk_batch(seed: int) -> list[Report]:
    """analyze-disk, partition and one-variable pick, points in |z| <= 0.9."""
    rng = np.random.default_rng(seed)
    anchor = np.random.default_rng(ANCHOR_SEED)
    reports = [Report("disk-anchor-n60", "analyze-disk", {
        "schema_version": 1, "kernel": SZEGO,
        "points": [_pair(z) for z in _disk_points(anchor, 60, 0.9)]})]
    reports.append(Report("partition-anchor-n400", "partition", {
        "schema_version": 1, "kernel": SZEGO, "epsilon": 0.5,
        "points": [_pair(z) for z in _disk_points(anchor, 400, 0.9)]}))
    for n, kernel in ((20, SZEGO), (30, TWO_COEFF), (40, SZEGO), (50, TWO_COEFF)):
        reports.append(Report(f"disk-n{n}", "analyze-disk", {
            "schema_version": 1, "kernel": kernel,
            "points": [_pair(z) for z in _disk_points(rng, n, 0.9)]}))
    for n, kernel in ((200, SZEGO), (300, TWO_COEFF)):
        reports.append(Report(f"partition-n{n}", "partition", {
            "schema_version": 1, "kernel": kernel, "epsilon": 0.5,
            "points": [_pair(z) for z in _disk_points(rng, n, 0.9)]}))
    # Separated points keep the Pick matrices well conditioned, and bounds
    # sit 20 % off the minimal norm, so every verdict is decided far from
    # the eigenvalue test's tolerance.
    picks = []
    for i, n in enumerate(range(6, 30, 2)):
        kernel = SZEGO if i % 2 == 0 else TWO_COEFF
        z = np.asarray(_disk_points(rng, n, 0.9, separation=0.2))
        w = np.asarray(_disk_points(rng, n, 0.9))
        c_min = _min_norm_bound(_kernel_matrix(kernel["coeffs"], z), w)
        feasible = i % 3 != 2
        bound = c_min * (1.2 if feasible else 0.8)
        picks.append(Report(f"pick1-n{n}-{'feas' if feasible else 'infeas'}", "pick", {
            "schema_version": 1, "kernels": [kernel], "bound": bound,
            "points": [[_pair(p)] for p in z], "values": [_pair(v) for v in w]}))
    # The picks take a few milliseconds each and set report_s.p50; running
    # them several times per batch gives their medians enough samples.
    return reports + picks * PICK1_REPEATS


def polydisc_solve(seed: int) -> list[Report]:
    """analyze-polydisc constants and d=2 pick verdicts on the bidisc."""
    rng = np.random.default_rng(seed)
    szego2 = [SZEGO, SZEGO]
    reports = [Report("polydisc-anchor-3pt", "analyze-polydisc", {
        "schema_version": 1, "kernels": szego2, "points": POLYDISC_ANCHOR})]
    for i in range(2):
        pts = np.asarray(_disk_points(rng, 4, 0.8)).reshape(2, 2)
        reports.append(Report(f"polydisc-2pt-{i}", "analyze-polydisc", {
            "schema_version": 1, "kernels": szego2, "config": SEEDED_POLYDISC_CONFIG,
            "points": [[_pair(a), _pair(b)] for a, b in pts]}))
    # Identical slices: both coordinates equal, so every constant has a
    # closed form and the library takes its single-block shortcut.
    diag = _disk_points(rng, 4, 0.8)
    reports.append(Report("polydisc-identical-4pt", "analyze-polydisc", {
        "schema_version": 1, "kernels": szego2,
        "points": [[_pair(z), _pair(z)] for z in diag]}))
    # Verdicts decided by a one-factor sufficient condition (feasible: the
    # library's shortcut) or by the product-kernel necessary condition
    # (infeasible: a full Dykstra run).  At half the necessary bound the
    # stall rule stops nearly every run after 1000 iterations; closer to the
    # bound the count spreads over 1000-7000 with the seed.  With 2 feasible
    # and 14 infeasible verdicts report_s.p50 is a single Dykstra solve.
    picks = []
    for i in range(16):
        z = np.stack([_disk_points(rng, 4, 0.8, separation=0.2) for _ in range(2)], axis=1)
        w = np.asarray(_disk_points(rng, 4, 0.9))
        k1, k2 = (_kernel_matrix([1.0], z[:, l]) for l in range(2))
        feasible = i < 2
        if feasible:
            bound = 1.05 * min(_min_norm_bound(k1, w), _min_norm_bound(k2, w))
        else:
            bound = 0.5 * _min_norm_bound(k1 * k2, w)
        picks.append(Report(f"pick2-{'feas' if feasible else 'infeas'}-{i}", "pick", {
            "schema_version": 1, "kernels": szego2, "bound": bound,
            "points": [[_pair(a), _pair(b)] for a, b in z], "values": [_pair(v) for v in w]}))
    # One batch fills a whole run here, so each verdict runs both before and
    # after the constants; its median then comes from two moments half a
    # minute apart instead of one.
    return picks + reports + picks


def _schottky_generators(rng) -> list[dict]:
    """Two hyperbolic generators whose isometric circles are pairwise disjoint.

    With |a| = r in [0.8, 0.9] and the two parameters a quarter turn apart,
    the four isometric circles have radius sqrt(1 - r^2)/r <= 0.75 and
    centres sqrt(2)/r >= 1.57 apart, so the group is free (Schottky).
    """
    r1, r2 = rng.uniform(0.8, 0.9, size=2)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return [{"theta": 0.0, "a": _pair(r1 * np.exp(1j * phi))},
            {"theta": 0.0, "a": _pair(r2 * np.exp(1j * (phi + math.pi / 2)))}]


def fuchsian_orbits(seed: int) -> list[Report]:
    """analyze-fuchsian on free two-generator groups and one rotation group."""
    rng = np.random.default_rng(seed)

    def report(label, gens, length, pts):
        return Report(label, "analyze-fuchsian", {
            "schema_version": 1, "degree": FUCHSIAN_DEGREE,
            "group": {"generators": gens, "max_word_length": length},
            "points": [_pair(z) for z in pts]})

    anchor_gens = [{"theta": 0.0, "a": [0.8, 0.0]}, {"theta": 0.0, "a": [0.0, 0.8]}]
    reports = [report("fuchsian-anchor-L4", anchor_gens, 4, [0.1 + 0.2j, -0.3 + 0.1j, 0.25 - 0.35j])]
    reports.append(report("fuchsian-L4", _schottky_generators(rng), 4, _disk_points(rng, 2, 0.5)))
    # The middle of the length-3 reports sets report_s.p50; their cost moves
    # a little with the group, so there are four of them.
    for i in range(4):
        reports.append(report(f"fuchsian-L3-{i}", _schottky_generators(rng), 3,
                              _disk_points(rng, 3, 0.5)))
    order = int(rng.integers(3, 9))
    rad = rng.uniform(0.1, 0.9, size=3)
    pts = rad * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=3))
    reports.append(report(f"fuchsian-rotation-{order}",
                          [{"theta": 2.0 * math.pi / order, "a": [0.0, 0.0]}], order // 2 + 1, pts))
    return reports


# One minimal report per command, run untimed before measuring so lazy
# imports and first-call set-up inside numpy are done.
WARMUP = [
    Report("warmup", "analyze-disk", {"schema_version": 1, "kernel": SZEGO,
                                      "points": [[0.0, 0.0], [0.5, 0.0]]}),
    Report("warmup", "partition", {"schema_version": 1, "kernel": SZEGO, "epsilon": 0.5,
                                   "points": [[0.0, 0.0], [0.1, 0.0], [0.9, 0.0]]}),
    Report("warmup", "pick", {"schema_version": 1, "kernels": [SZEGO], "bound": 1.0,
                              "points": [[[0.0, 0.0]], [[0.5, 0.0]]], "values": [[0.0, 0.0], [0.3, 0.0]]}),
    Report("warmup", "analyze-polydisc", {"schema_version": 1, "kernels": [SZEGO, SZEGO],
                                          "points": [[[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]}),
    Report("warmup", "analyze-fuchsian", {"schema_version": 1, "degree": 4, "points": [[0.2, 0.0]],
                                          "group": {"generators": [{"theta": math.pi, "a": [0.0, 0.0]}],
                                                    "max_word_length": 1}}),
]

WORKLOADS = {
    "disk-batch": disk_batch,
    "polydisc-solve": polydisc_solve,
    "fuchsian-orbits": fuchsian_orbits,
}
