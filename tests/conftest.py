"""Shared samplers for the test suite; all randomness is seeded per test."""

import numpy as np
import pytest

from interp_lab import KernelSpec, MobiusMap
from interp_lab.fuchsian import _matrices, _normal_forms


def random_disk_point(rng, max_radius=0.9):
    r = max_radius * np.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(phi), r * np.sin(phi))


def random_disk_points(rng, n, max_radius=0.9, min_separation=0.0):
    """Sample n points; optionally enforce a pseudo-hyperbolic separation."""
    pts = []
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 10000:
            raise RuntimeError("sampler failed to place separated points")
        z = random_disk_point(rng, max_radius)
        if min_separation > 0.0 and any(
            abs((z - w) / (1 - w.conjugate() * z)) < min_separation for w in pts
        ):
            continue
        pts.append(z)
    return pts


def random_kernel_spec(rng, max_terms=4):
    """Coefficients nonnegative, summing to at most 1, at least one positive."""
    m = int(rng.integers(1, max_terms + 1))
    raw = rng.uniform(0.0, 1.0, size=m)
    total = rng.uniform(0.3, 1.0)
    coeffs = raw / raw.sum() * total
    return KernelSpec(tuple(coeffs))


def compose(g, h):
    """Normal form of the composition g ∘ h: the product of their SU(1,1) matrices, as
    ``enumerate_group`` multiplies a step onto a word."""
    mats = _matrices(np.array([g.theta, h.theta]), np.array([g.a, h.a]))
    return MobiusMap(*_normal_forms(mats[0] @ mats[1]))


def assert_checked_farkas(r_matrices, target, dual, tol=1e-7):
    """Re-check an infeasibility verdict's dual with plain numpy: every
    conj(R_l)∘Y PSD, and Re<T,Y> < -tol (|Y|_F + sum_l tr(conj(R_l)∘Y))."""
    s = [np.conj(r) * dual for r in r_matrices]
    assert all(np.linalg.eigvalsh(0.5 * (x + x.conj().T))[0] >= 0.0 for x in s)
    assert np.vdot(target, dual).real < -tol * (np.linalg.norm(dual) + sum(np.trace(x).real for x in s))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
