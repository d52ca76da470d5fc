"""Property tests: the array paths against their scalar definitions."""

import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# The same examples on every run: a property that holds only up to rounding
# fails every run or none, and each test keeps its own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

from interp_lab import (  # noqa: E402
    SZEGO,
    AffineConstraint,
    ArgumentError,
    KernelSpec,
    MobiusMap,
    ProductKernelSpec,
    analyze_gamma_sequence,
    check_certificate,
    enumerate_group,
    kernel_matrix,
    normalized_gramian,
    orbit_set,
    partition,
    partition_separated,
    pseudo_hyperbolic,
    rho_semimetric,
    weak_separation,
)
from interp_lab.fuchsian import interior_fixed_point  # noqa: E402
from interp_lab.gramian import DUPLICATE_TOL, pseudo_hyperbolic_matrix, semimetric_matrix  # noqa: E402
from interp_lab.pick import (  # noqa: E402
    BISECTION_TOL,
    _condition_a_bracket,
    _condition_b_bracket,
    _interpolation_bracket,
    _pick_norm,
    _slices_and_gramians,
    condition_a_constant,
    condition_b_constant,
    inverse_kernel_stack,
    pick_constant_for_values,
)
from conftest import compose  # noqa: E402

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


@settings(max_examples=60, deadline=None)
@given(st.lists(disk_points, min_size=2, max_size=8))
def test_szego_gramian_inverse_is_its_conjugate_scaled_by_blaschke_factors(points):
    """G^-1 = diag(conj(u)) conj(G) diag(u) with u_j = 1 / B_j(z_j), |u_j| = 1 / delta_j; so
    lambda_min(G) lambda_max(D G D) = 1, D = diag(1 / delta_j) (the proof is in riesz_bounds)."""
    z = np.array(points)
    assume(min(pseudo_hyperbolic(a, b) for a, b in itertools.combinations(z, 2)) > 0.05)
    n, eps, g = len(z), np.finfo(float).eps, normalized_gramian(z, SZEGO)
    factors = (z[:, None] - z) / (1.0 - z.conj() * z[:, None])  # b_{z_k}(z_j) at [j, k]
    np.fill_diagonal(factors, 1.0)
    u = 1.0 / np.prod(factors, axis=1)
    delta = np.prod(pseudo_hyperbolic_matrix(z), axis=1)
    assert np.allclose(np.abs(u) * delta, 1.0, rtol=4 * n * eps, atol=0.0)
    inverse = u.conj()[:, None] * g.conj() * u
    assert np.abs(g @ inverse - np.eye(n)).max() <= 4 * n * eps * np.linalg.norm(g) * np.linalg.norm(inverse)
    lam_min, top = np.linalg.eigvalsh(g)[0], np.linalg.eigvalsh(g / np.outer(delta, delta))[-1]
    assert lam_min * top == pytest.approx(1.0, rel=4 * n * eps * (np.linalg.norm(g) / lam_min + 1.0), abs=0.0)


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
        kept, _ = orbit_set(points, group)
    except ArgumentError:
        assume(False)
    gaps = np.abs(kept[:, None] - kept[None, :]) + np.eye(len(kept))
    assert np.all(gaps > DUPLICATE_TOL)
    for z in points:
        for g in map(MobiusMap, group.theta.tolist(), group.a.tolist()):
            assert np.min(np.abs(kept - g(z))) <= DUPLICATE_TOL + 1e-15


# A rotation of order 7 about 0.25 - 0.15i: no word of at most 5 letters in it alone is the identity.
_CENTER = MobiusMap(0, 0.25 - 0.15j)
SAME_ORBIT_PAIRS = {
    "free": [MobiusMap(0, 0.8), MobiusMap(0, 0.8j)],
    "overlapping": [MobiusMap(0, 0.3), MobiusMap(0, 0.3j)],
    "elliptic-hyperbolic": [compose(_CENTER.inverse(), compose(MobiusMap(2 * np.pi / 7, 0), _CENTER)),
                            MobiusMap(0, 0.5)],
}


@st.composite
def same_orbit_inputs(draw):
    """Generators, a length L >= 2, z0 with |z0| <= 0.5 and z1 = gamma(z0) for a reduced word
    gamma of L + 1 or L + 2 letters: longer than the truncation, but split into two words of
    at most L letters, one sending z0 and the other z1 to one image."""
    gens = SAME_ORBIT_PAIRS[draw(st.sampled_from(sorted(SAME_ORBIT_PAIRS)))]
    steps = list(gens) + [g.inverse() for g in gens]
    length = draw(st.integers(2, 3))
    letters, word_length = [draw(st.integers(0, 3))], length + draw(st.integers(1, 2))
    while len(letters) < word_length:
        letters.append(draw(st.sampled_from([s for s in range(4) if s != (letters[-1] + 2) % 4])))
    z0 = draw(st.builds(lambda r, phi: complex(r * np.cos(phi), r * np.sin(phi)),
                        st.floats(0.0, 0.5), st.floats(0.0, 2 * np.pi)))
    z1 = z0
    for s in letters:
        z1 = steps[s](z1)
    return gens, length, z0, z1


@settings(max_examples=40, deadline=None)
@given(same_orbit_inputs())
def test_points_on_one_orbit_beyond_the_truncation_are_rejected(inputs):
    gens, length, z0, z1 = inputs
    with pytest.raises(ArgumentError, match="lie on the same orbit"):
        analyze_gamma_sequence([z0, z1], gens, 8, length)


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


def first_fit_classes(close):
    """Greedy first-fit classes of a proximity matrix in input order, one point at a time."""
    classes = []
    for i in range(len(close)):
        for cls in classes:
            if not close[i, cls].any():
                cls.append(i)
                break
        else:
            classes.append([i])
    return tuple(tuple(cls) for cls in classes)


@settings(max_examples=80, deadline=None)
@given(st.lists(disk_points, min_size=2, max_size=12), kernel_specs(), st.floats(0.05, 0.95),
       st.one_of(st.none(), st.tuples(st.integers(0, 10 ** 6), st.integers(-2, 2))))
def test_proximity_rule_is_the_semimetric_test(points, spec, epsilon, at_rho):
    """The partition's close pairs and classes are those of ``semimetric_matrix(g) < epsilon``, also
    with epsilon at a pair's semimetric value or one or two doubles away from it."""
    assume(min(abs(z - w) for z, w in itertools.combinations(points, 2)) > 1e-3)
    g = normalized_gramian(points, spec)
    rho = semimetric_matrix(g)
    if at_rho is not None:
        pair, steps = at_rho
        epsilon = float(rho[~np.eye(len(rho), dtype=bool)][pair % (len(rho) ** 2 - len(rho))])
        for _ in range(abs(steps)):
            epsilon = math.nextafter(epsilon, math.copysign(2.0, steps))
        assume(0.0 < epsilon < 1.0)
    close = rho < epsilon
    assert np.array_equal(partition._close(g, epsilon), close)
    assert partition_separated(points, spec, epsilon).class_indices == first_fit_classes(close)


BIDISC = ProductKernelSpec((SZEGO, SZEGO))
bidisc_disk_points = st.builds(lambda r, phi: complex(r * np.cos(phi), r * np.sin(phi)),
                               st.floats(0.0, 0.8), st.floats(0.0, 2 * np.pi))


def brackets(points, values):
    """(necessary, certified, certifying slice) for M, N and C."""
    _, g = _slices_and_gramians(points, BIDISC, BISECTION_TOL)
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


# The paper's laws on the checked ends of M, N and C.  A certified end's blocks pass
# check_certificate within the rounding of that check, about (d + n) eps of the target's
# scale, so a certified M or N may sit that far on the wrong side of the optimum.
# LAW_SLACK bounds it for these sets, and is the only slack the laws take.
LAW_SLACK = 1e-12
FACTORS = (SZEGO, KernelSpec((0.6, 0.3)))


@st.composite
def polydisc_data(draw, dimensions=st.integers(2, 3)):
    d, n = draw(dimensions), draw(st.integers(2, 5))
    coords = [draw(st.lists(bidisc_disk_points, min_size=n, max_size=n)) for _ in range(d)]
    for z in coords:
        assume(min(abs(a - b) for a, b in itertools.combinations(z, 2)) > 0.05)
    specs = [draw(st.sampled_from(FACTORS)) for _ in range(d)]
    values = draw(st.lists(st.builds(lambda r, phi: r * np.exp(1j * phi), st.floats(0.0, 1.0),
                                     st.floats(0.0, 2 * np.pi)), min_size=n, max_size=n))
    return list(zip(*coords)), specs, np.array(values)


@settings(max_examples=25, deadline=None)
@given(polydisc_data())
def test_interpolation_constant_is_at_most_sqrt_m_over_n(data):
    """L1: if max|w_i| <= 1 then C(w)² <= M/N, checked as C_dual² <= M_cert/N_cert.

    Proof: W = [w_i conj(w_j)] is PSD, and the Schur product of PSD matrices is
    PSD, so W ∘ (M·I − J) = M·diag|w|² − W decomposes with blocks W ∘ G_l.
    M·(I − diag|w|²) is diagonal and PSD, one block on its own.  Their sum
    M·I − W decomposes, and so does (M/N)·(J − N·I) = (M/N)·J − M·I.  Adding,
    (M/N)·J − W decomposes: C² <= M/N.  The dual end is at most C.
    """
    points, specs, values = data
    m_cert = condition_a_constant(points, specs)
    n_cert = condition_b_constant(points, specs)
    assume(n_cert > LAW_SLACK)
    c_dual = _interpolation_bracket(points, specs, values, 1e-6).lower
    assert c_dual ** 2 <= (m_cert + LAW_SLACK) / (n_cert - LAW_SLACK)


@settings(max_examples=25, deadline=None)
@given(polydisc_data(), st.integers(0, 4))
def test_fewer_points_never_raise_m_or_lower_n(data, dropped):
    """L2: on S' ⊆ S, M(S') <= M(S) and N(S') >= N(S), checked as
    M_dual(S') <= M_cert(S) and N_dual(S') >= N_cert(S), for S' = S and S minus a point.

    Proof: the principal submatrix on S' of a PSD block is PSD, and taking it
    commutes with the Schur product, so restricting a decomposition of M·I − J
    or J − N·I over S to S' gives one over S'.  The dual ends are at most M(S')
    and at least N(S').
    """
    points, specs, _ = data
    m_cert, n_cert = condition_a_constant(points, specs), condition_b_constant(points, specs)
    subset = [p for i, p in enumerate(points) if i != dropped % len(points)]
    for sub in (points, subset):
        assert _condition_a_bracket(sub, specs, BISECTION_TOL).lower <= m_cert + LAW_SLACK
        assert _condition_b_bracket(sub, specs, BISECTION_TOL).upper >= n_cert - LAW_SLACK


@settings(max_examples=25, deadline=None)
@given(polydisc_data(dimensions=st.just(3)))
def test_appended_factor_never_raises_m_or_c_or_lowers_n(data):
    """L3: appending a factor to a d = 2 set never raises M or C and never lowers N,
    checked as M_dual(d + 1) <= M_cert(d), N_dual(d + 1) >= N_cert(d) and
    C_dual(d + 1)² <= C_cert(d)².

    Proof: G_{d+1} = 0 is PSD and contributes nothing to sum_l G_l ∘ R_l, so every
    decomposition over d factors is one over d + 1 with whatever coordinates the new
    factor has.  The constants over d + 1 factors are then at least as good, and the
    dual ends are at most M and C, and at least N, over d + 1 factors.
    """
    points, specs, values = data
    base, base_specs = [p[:2] for p in points], specs[:2]
    assert (_condition_a_bracket(points, specs, BISECTION_TOL).lower
            <= condition_a_constant(base, base_specs) + LAW_SLACK)
    assert (_condition_b_bracket(points, specs, BISECTION_TOL).upper
            >= condition_b_constant(base, base_specs) - LAW_SLACK)
    c_dual = _interpolation_bracket(points, specs, values, 1e-6).lower
    assert c_dual ** 2 <= pick_constant_for_values(base, base_specs, values) ** 2 + LAW_SLACK


def checked_ends(points, specs, values):
    """Checked ends of M and C as (dual, certified) and of N as (certified, dual)."""
    return {"M": _condition_a_bracket(points, specs, BISECTION_TOL),
            "N": _condition_b_bracket(points, specs, BISECTION_TOL),
            "C": _interpolation_bracket(points, specs, values, 1e-6)}


# L4 is an equality, so its two sides meet on every set, and the two sets' ends differ
# by the rounding of a computation done in another order.  For M and N that is a few
# eps.  C's closed-form ends come from a Cholesky solve whose relative rounding grows
# with the Gramian's condition number: up to 1.1e-10 of C² on 2800 generated sets.
C_ROUNDING = 1e-9


def assert_same_constants(data, moved):
    """M, N and C of ``data`` and ``moved`` agree: each dual end lies on its side of the
    other set's certified end, within LAW_SLACK, and C² within C_ROUNDING of it besides."""
    ends = checked_ends(*data), checked_ends(*moved)
    for x, y in (ends, ends[::-1]):
        assert x["M"].lower <= y["M"].upper + LAW_SLACK
        assert x["N"].upper >= y["N"].lower - LAW_SLACK
        assert x["C"].lower ** 2 <= y["C"].upper ** 2 * (1.0 + C_ROUNDING) + LAW_SLACK


@settings(max_examples=25, deadline=None)
@given(polydisc_data(), st.randoms(use_true_random=False))
def test_permuting_points_with_their_values_keeps_m_n_c(data, random):
    """L4, points: M, N and C do not change when the points move together with their values.

    Proof: a permutation matrix P maps every R_l to P R_l Pᵀ, I, J and W to themselves
    after the same relabelling, and PSD blocks G_l to the PSD blocks P G_l Pᵀ, since
    (P G Pᵀ) ∘ (P R Pᵀ) = P (G ∘ R) Pᵀ.  So decompositions correspond one to one.
    """
    points, specs, values = data
    order = list(range(len(points)))
    random.shuffle(order)
    assert_same_constants(data, ([points[i] for i in order], specs, values[order]))


@settings(max_examples=25, deadline=None)
@given(polydisc_data(), st.randoms(use_true_random=False))
def test_permuting_coordinates_with_their_factors_keeps_m_n_c(data, random):
    """L4, coordinates: M, N and C do not change when the coordinates move together
    with their factors.

    Proof: the slice R_l depends only on factor l and coordinate l, so the permutation
    only relabels the slices, and sum_l G_l ∘ R_l is the same sum in another order.
    """
    points, specs, values = data
    order = list(range(len(specs)))
    random.shuffle(order)
    assert_same_constants(data, ([tuple(p[k] for k in order) for p in points],
                                 [specs[k] for k in order], values))


@settings(max_examples=25, deadline=None)
@given(polydisc_data(), st.floats(0.0, 2 * np.pi))
def test_unimodular_factor_on_the_values_keeps_m_n_c(data, phi):
    """L4, values: M, N and C do not change when every value is multiplied by one e^{iφ}.

    Proof: M and N do not read the values, and W = [w_i conj(w_j)] is unchanged by
    the rotation, since e^{iφ} conj(e^{iφ}) = 1; so is the target C²J − W.
    """
    points, specs, values = data
    assert_same_constants(data, (points, specs, np.exp(1j * phi) * values))


@settings(max_examples=25, deadline=None)
@given(polydisc_data(), st.floats(0.0, 2 * np.pi),
       st.builds(lambda r, phi: r * np.exp(1j * phi), st.floats(0.0, 0.5), st.floats(0.0, 2 * np.pi)))
def test_disk_automorphism_on_a_szego_coordinate_keeps_m_n_c(data, theta, a):
    """L4, automorphisms: M, N and C do not change when one Szegő coordinate of every
    point moves by one disk automorphism φ(z) = e^{iθ}(z − a)/(1 − ā z).

    Proof: 1 − φ(z) conj(φ(w)) = (1 − |a|²)(1 − z w̄) / ((1 − ā z)(1 − a w̄)), so that
    slice becomes R' = D R Dᴴ with D = diag(√(1 − |a|²) / (1 − ā z_i)), and the
    others stay.  Since (D⁻¹ G D⁻ᴴ) ∘ (D R Dᴴ) = G ∘ R and D⁻¹ G D⁻ᴴ is PSD iff G is,
    the blocks G ↦ D⁻¹ G D⁻ᴴ map decompositions over R to ones over R', and back.
    """
    points, specs, values = data
    assume(SZEGO in specs)
    l, move = specs.index(SZEGO), MobiusMap(theta, a)
    moved = [p[:l] + (move(p[l]),) + p[l + 1:] for p in points]
    assert_same_constants(data, (moved, specs, values))
