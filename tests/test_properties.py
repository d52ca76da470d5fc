"""Property tests: the array paths against their scalar definitions."""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from interp_lab import (  # noqa: E402
    SZEGO,
    AffineConstraint,
    ArgumentError,
    KernelSpec,
    MobiusMap,
    ProductKernelSpec,
    check_certificate,
    enumerate_group,
    kernel_matrix,
    orbit_set,
    partition_separated,
    rho_semimetric,
    weak_separation,
)
from interp_lab.fuchsian import interior_fixed_point  # noqa: E402
from interp_lab.gramian import DUPLICATE_TOL  # noqa: E402
from interp_lab.pick import _pick_norm, _slices_and_gramians, inverse_kernel_stack  # noqa: E402

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


@settings(max_examples=60, deadline=None)
@given(st.lists(disk_points, min_size=1, max_size=10), kernel_specs())
def test_kernel_matrix_is_psd(points, spec):
    k = kernel_matrix(spec, points)
    w = np.linalg.eigvalsh(k)
    assert w[0] >= -len(points) * np.finfo(float).eps * w[-1]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(disk_points, min_size=n, max_size=n),
                                                     min_size=1, max_size=3)),
       st.lists(kernel_specs(), min_size=3, max_size=3))
def test_product_kernel_matrix_is_product_of_factor_matrices(coords, specs):
    product = ProductKernelSpec(tuple(specs[:len(coords)]))
    factors = [kernel_matrix(spec, z) for spec, z in zip(product.factors, coords)]
    assert np.allclose(kernel_matrix(product, list(zip(*coords))), np.prod(factors, axis=0),
                       rtol=1e-14, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(disk_points, min_size=1, max_size=12), kernel_specs(), st.floats(0.05, 0.95))
def test_partition_classes_cover_each_index_once_and_are_separated(points, spec, epsilon):
    assume(min((abs(z - w) for z, w in itertools.combinations(points, 2)), default=1.0) > 1e-3)
    result = partition_separated(points, spec, epsilon)
    assert sorted(i for idx in result.class_indices for i in idx) == list(range(len(points)))
    for idx, cls in zip(result.class_indices, result.classes):
        assert list(cls) == [points[i] for i in idx]
        for i, j in itertools.combinations(idx, 2):
            assert rho_semimetric(spec, points[i], points[j]) >= epsilon - 1e-12


BIDISC = ProductKernelSpec((SZEGO, SZEGO))
bidisc_disk_points = st.builds(lambda r, phi: complex(r * np.cos(phi), r * np.sin(phi)),
                               st.floats(0.0, 0.8), st.floats(0.0, 2 * np.pi))


def brackets(points, values):
    """(necessary, certified, certifying slice) for M, N and C."""
    _, g = _slices_and_gramians(points, BIDISC)
    w = np.linalg.eigvalsh(g)
    norms = [_pick_norm(x, values) for x in g]
    return {
        "M": (max(1.0, w[-1, -1]), max(1.0, np.min(w[:-1, -1])), int(np.argmin(w[:-1, -1]))),
        "N": (min(1.0, w[-1, 0]), max(0.0, np.max(w[:-1, 0])), int(np.argmax(w[:-1, 0]))),
        "C": (norms[-1], min(norms[:-1]), int(np.argmin(norms[:-1]))),
    }


@st.composite
def bidisc_data(draw):
    n = draw(st.integers(2, 4))
    coords = [draw(st.lists(bidisc_disk_points, min_size=n, max_size=n)) for _ in range(2)]
    for z in coords:
        assume(min(abs(a - b) for a, b in itertools.combinations(z, 2)) > 0.05)
    values = draw(st.lists(bidisc_disk_points, min_size=n, max_size=n))
    return list(zip(*coords)), np.array(values)


def targets(n, values):
    ones, w = np.ones((n, n)), np.outer(values, np.conj(values))
    return {"M": lambda m: m * np.eye(n) - ones, "N": lambda nv: ones - nv * np.eye(n),
            "C": lambda c: c * c * ones - w}


@settings(max_examples=60, deadline=None)
@given(bidisc_data())
def test_constant_brackets_are_ordered_and_certified(data):
    points, values = data
    r = inverse_kernel_stack(points, BIDISC)
    for name, (necessary, certified, l) in brackets(points, values).items():
        # N's certified end is its lower end; M's and C's are their upper ends
        low, high = (certified, necessary) if name == "N" else (necessary, certified)
        assert low <= high + 1e-9 * max(1.0, high)
        target = targets(len(points), values)[name](certified)
        constraint = AffineConstraint(r, target)
        blocks = constraint.zero_blocks()
        blocks[l] = target / r[l]
        residual, margin = check_certificate(blocks, constraint)
        assert residual <= 1e-7 and margin >= -1e-7


@settings(max_examples=60, deadline=None)
@given(bidisc_data())
def test_equal_coordinates_close_the_brackets(data):
    points, values = data
    diagonal = [(p[0], p[0]) for p in points]
    for necessary, certified, _ in brackets(diagonal, values).values():
        assert abs(necessary - certified) <= 1e-12 * max(1.0, certified)
