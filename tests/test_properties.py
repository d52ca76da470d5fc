"""Property tests: the array paths against their scalar definitions."""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from interp_lab import (  # noqa: E402
    ArgumentError,
    KernelSpec,
    MobiusMap,
    enumerate_group,
    orbit_set,
    rho_semimetric,
    weak_separation,
)
from interp_lab.fuchsian import interior_fixed_point  # noqa: E402
from interp_lab.gramian import DUPLICATE_TOL  # noqa: E402

disk_points = st.builds(lambda r, phi: complex(r * np.cos(phi), r * np.sin(phi)),
                        st.floats(0.0, 0.85), st.floats(0.0, 2 * np.pi))


@st.composite
def kernel_specs(draw):
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3))
    total = draw(st.floats(0.3, 1.0))
    return KernelSpec(tuple(c / sum(raw) * total for c in raw))


@settings(max_examples=60, deadline=None)
@given(st.lists(disk_points, min_size=2, max_size=8), kernel_specs())
def test_weak_separation_is_min_scalar_semimetric(points, spec):
    assume(min(abs(z - w) for z, w in itertools.combinations(points, 2)) > 1e-3)
    expected = min(rho_semimetric(spec, z, w) for z, w in itertools.combinations(points, 2))
    assert weak_separation(points, spec) == pytest.approx(expected, abs=1e-9)


@st.composite
def orbit_inputs(draw):
    gens = draw(st.lists(st.builds(MobiusMap, st.floats(0.0, 2 * np.pi),
                                   st.builds(lambda r, phi: r * np.exp(1j * phi),
                                             st.floats(0.0, 0.6), st.floats(0.0, 2 * np.pi))),
                         min_size=1, max_size=2))
    points = draw(st.lists(disk_points, min_size=1, max_size=3))
    # An elliptic generator's fixed point is stabilized, so its images repeat.
    fixed = interior_fixed_point(gens[0])
    if fixed is not None and draw(st.booleans()):
        points.append(fixed)
    return gens, points, draw(st.integers(1, 2))


@settings(max_examples=60, deadline=None)
@given(orbit_inputs())
def test_orbit_keeps_points_apart_and_covers_every_image(inputs):
    gens, points, length = inputs
    assume(min((abs(z - w) for z, w in itertools.combinations(points, 2)), default=1.0) > 1e-6)
    group = enumerate_group(gens, length)
    try:
        orbit = orbit_set(points, group)
    except ArgumentError:
        assume(False)
    kept = np.array([o.point for o in orbit])
    gaps = np.abs(kept[:, None] - kept[None, :]) + np.eye(len(kept))
    assert np.all(gaps > DUPLICATE_TOL)
    for z in points:
        for g in group.elements:
            assert np.min(np.abs(kept - g(z))) <= DUPLICATE_TOL + 1e-15
