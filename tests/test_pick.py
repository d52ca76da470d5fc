import re

import numpy as np
import pytest

from interp_lab import (
    SZEGO,
    AffineConstraint,
    ArgumentError,
    BudgetError,
    DomainError,
    KernelSpec,
    PickProblem,
    ProductKernelSpec,
    agler_feasible,
    check_certificate,
    condition_a_constant,
    condition_b_constant,
    normalized_gramian,
    pick_constant_for_values,
    pick_psd_test,
    riesz_bounds,
    vector_valued_feasible,
)
from conftest import assert_checked_farkas, random_disk_points, random_kernel_spec

BIDISC = ProductKernelSpec((SZEGO, SZEGO))
TWO_COEFF = KernelSpec((0.6, 0.3))


def oracle_constant_d1(points, values, spec, tol=1e-7):
    """Minimal Pick bound via direct eigenvalue bisection (no SDP path)."""
    lo = max(abs(v) for v in values)
    if pick_psd_test(PickProblem(points, values, max(lo, 1e-12)), spec)[0]:
        return lo
    hi = max(1.0, 2 * lo)
    while not pick_psd_test(PickProblem(points, values, hi), spec)[0]:
        lo, hi = hi, 2 * hi
        assert hi < 1e6
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pick_psd_test(PickProblem(points, values, mid), spec)[0]:
            hi = mid
        else:
            lo = mid
    return hi


class TestPickPsdTest:
    def test_constant_function(self):
        feasible, margin = pick_psd_test(PickProblem(((0,),), (1,), 1.0), SZEGO)
        assert feasible and margin == pytest.approx(0.0, abs=1e-12)

    def test_identity_function_boundary(self):
        feasible, margin = pick_psd_test(PickProblem(((0,), (0.5,)), (0, 0.5), 1.0), SZEGO)
        assert feasible and margin == pytest.approx(0.0, abs=1e-12)

    def test_schwarz_violation(self):
        # det = (1 - 0.36)*4/3 - 1 < 0
        feasible, margin = pick_psd_test(PickProblem(((0,), (0.5,)), (0, 0.6), 1.0), SZEGO)
        assert not feasible and margin < -1e-3

    def test_duplicate_points_rejected(self):
        with pytest.raises(ArgumentError):
            PickProblem(((0.3,), (0.3,)), (0, 0), 1.0)

    def test_needs_dimension_one(self):
        with pytest.raises(ArgumentError):
            pick_psd_test(PickProblem((((0, 0)), (0.5, 0.5)), (0, 0), 1.0), SZEGO)


class TestPickPsdScaleInvariance:
    # f(z) = z on four points: the Pick matrix at bound s is s^2 J, PSD and
    # singular, so only rounding moves its bottom eigenvalue below zero.
    POINTS = (0, 0.5, -0.3 + 0.4j, 0.2j)

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e5, 1e7])
    def test_boundary_data_feasible_at_every_scale(self, scale):
        problem = PickProblem([(p,) for p in self.POINTS], [scale * p for p in self.POINTS], scale)
        assert pick_psd_test(problem, SZEGO)[0]

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e5, 1e7])
    def test_slightly_larger_values_infeasible_at_every_scale(self, scale):
        values = [(1 + 1e-9) * scale * p for p in self.POINTS]
        problem = PickProblem([(p,) for p in self.POINTS], values, scale)
        assert not pick_psd_test(problem, SZEGO)[0]


class TestAglerFeasible:
    def test_single_point_positive_target(self):
        dec = agler_feasible([(0, 0)], BIDISC, np.array([[0.5]]))
        assert dec.feasible
        assert dec.affine_residual <= 1e-7
        assert dec.psd_margin >= -1e-7
        total = sum(b[0, 0].real for b in dec.blocks)
        assert total == pytest.approx(0.5, abs=1e-7)

    def test_single_point_negative_target(self):
        dec = agler_feasible([(0, 0)], BIDISC, np.array([[-0.1]]))
        assert not dec.feasible

    def test_two_point_boundary_closed_form(self):
        # feasible iff (M-1)^2 >= 1 - r^2 with r = 0.5
        pts = [(0,), (0.5,)]
        ones = np.ones((2, 2))
        feasible_target = 1.8660254 * np.eye(2) - ones
        infeasible_target = 1.5 * np.eye(2) - ones
        assert agler_feasible(pts, SZEGO, feasible_target).feasible
        assert not agler_feasible(pts, SZEGO, infeasible_target).feasible

    def test_certificate_fields_match_blocks(self):
        dec = agler_feasible([(0,), (0.5,)], SZEGO, 2.5 * np.eye(2) - np.ones((2, 2)))
        assert dec.feasible
        r = np.array([[[1, 1], [1, 0.75]]])
        recomputed = np.einsum("lij,lij->ij", np.stack(dec.blocks), r)
        assert np.linalg.norm(recomputed - (2.5 * np.eye(2) - 1)) <= 1e-7
        assert min(np.linalg.eigvalsh(b).min() for b in dec.blocks) == pytest.approx(
            dec.psd_margin, abs=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(ArgumentError):
            agler_feasible([(0,), (0.5,)], SZEGO, np.zeros((3, 3)))

    def test_skew_within_the_tolerance_is_decided_as_the_hermitian_part(self):
        # ‖T − Tᴴ‖_F/2 = 7.1e-9, below the 1e-7 tolerance; beyond it SKEW_TARGET raises.
        dec = agler_feasible(ANCHOR, BIDISC, 3 * np.eye(3) - 1 + 1e-8 * (np.arange(9).reshape(3, 3) == 1))
        assert dec.feasible and dec.tolerance == 1e-7

    def test_exact_path_agrees_with_dykstra(self):
        # diagonal bidisc instances resolve through the identical-slices
        # shortcut; the generic solver must reach the same verdicts
        from interp_lab import AffineConstraint, dykstra_solve
        from interp_lab.pick import inverse_kernel_stack

        pts = [(0, 0), (0.5, 0.5)]
        r = inverse_kernel_stack(pts, BIDISC)
        ones = np.ones((2, 2))
        for m, expected in ((1.5, False), (1.8660254, True), (2.5, True)):
            target = m * np.eye(2) - ones
            shortcut = agler_feasible(pts, BIDISC, target)
            direct = dykstra_solve(AffineConstraint(r, target))
            assert shortcut.feasible is expected
            assert direct.feasible is expected


class TestConditionConstants:
    def test_single_point_gives_one(self):
        assert condition_a_constant([(0.3, 0.2)], BIDISC) == 1.0
        assert condition_b_constant([(0.3, 0.2)], BIDISC) == 1.0

    @pytest.mark.parametrize("r", [0.5, 0.9])
    def test_two_point_closed_forms(self, r):
        expected_a = 1 + np.sqrt(1 - r * r)
        expected_b = 1 - np.sqrt(1 - r * r)
        assert condition_a_constant([0, r], SZEGO) == pytest.approx(expected_a, abs=1e-4)
        assert condition_b_constant([0, r], SZEGO) == pytest.approx(expected_b, abs=1e-4)

    def test_monotone_refeasibility(self):
        m = condition_a_constant([0, 0.5, -0.4j], SZEGO)
        target = (m + 0.1) * np.eye(3) - np.ones((3, 3))
        assert agler_feasible([0, 0.5, -0.4j], SZEGO, target).feasible

    def test_gramian_bounds_sandwich(self, rng):
        # the product kernel is itself admissible, so its normalized Gramian
        # eigenvalues are squeezed between the two constants; the certified
        # bracket ends satisfy the sandwich at any bisection tolerance
        for _ in range(2):
            z = random_disk_points(rng, 2, max_radius=0.7, min_separation=0.2)
            w = random_disk_points(rng, 2, max_radius=0.7, min_separation=0.2)
            pts = [(a, b) for a, b in zip(z, w)]
            bounds = riesz_bounds(normalized_gramian(pts, BIDISC))
            m = condition_a_constant(pts, BIDISC, bisection_tol=1e-2)
            n = condition_b_constant(pts, BIDISC, bisection_tol=1e-2)
            assert m >= bounds.lambda_max - 1e-7
            assert n <= bounds.lambda_min + 1e-7


def split_cluster_set(seed):
    """(points, spec, values): 7 points of the (0.6, 0.3) bidisc kernel within 0.9 of the origin,
    whose first two points nearly coincide in coordinate 1 and next two in coordinate 2."""
    rng = np.random.default_rng(seed)
    z = 0.9 * np.sqrt(rng.uniform(size=(7, 2))) * np.exp(2j * np.pi * rng.uniform(size=(7, 2)))
    z[1, 0] = z[0, 0] + 10 ** rng.uniform(-4.5, -3.5) * np.exp(2j * np.pi * rng.uniform())
    z[3, 1] = z[2, 1] + 10 ** rng.uniform(-4.5, -3.5) * np.exp(2j * np.pi * rng.uniform())
    w = 0.9 * np.sqrt(rng.uniform(size=7)) * np.exp(2j * np.pi * rng.uniform(size=7))
    return [tuple(p) for p in z], ProductKernelSpec((TWO_COEFF, TWO_COEFF)), w


class TestPickConstantForValues:
    def test_single_point_constant_function(self):
        assert pick_constant_for_values([(0.4,)], SZEGO, [0.3 + 0.4j]) == pytest.approx(0.5, abs=1e-6)

    def test_schwarz_identity(self):
        assert pick_constant_for_values([0, 0.5], SZEGO, [0, 0.5]) == pytest.approx(1.0, abs=1e-5)

    def test_diagonal_bidisc_matches_one_variable(self):
        c2 = pick_constant_for_values([(0, 0), (0.5, 0.5)], BIDISC, [0, 0.5])
        assert c2 == pytest.approx(1.0, abs=1e-4)

    def test_matches_direct_oracle(self, rng):
        for _ in range(5):
            spec = random_kernel_spec(rng)
            pts = random_disk_points(rng, 3, min_separation=0.15)
            vals = [complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)) for _ in range(3)]
            expected = oracle_constant_d1([(p,) for p in pts], vals, spec)
            got = pick_constant_for_values(pts, spec, vals)
            assert got == pytest.approx(expected, abs=1e-4)

    def test_bracket_exhaustion(self):
        # nearly coincident points with clashing values need C ~ 1e7,
        # beyond the bracket limit
        with pytest.raises(BudgetError):
            pick_constant_for_values([0, 1e-7], SZEGO, [0, 1])

    def test_near_singular_slices_do_not_refuse_a_small_constant(self):
        # Two coordinate clusters split across the slices: the slices' closed-form
        # ends are 11664 and 4073, the product's dual end is 2.26 and C is 2.61.
        c = pick_constant_for_values(*split_cluster_set(0))
        assert 2.607380 <= c <= 2.607381

    def test_no_finite_single_slice_end_raises_before_any_solve(self, monkeypatch):
        # Each slice repeats a coordinate, so each single-slice end is infinite.
        from interp_lab import pick

        monkeypatch.setattr(pick, "barrier_solve", lambda *args: pytest.fail("solve started"))
        with pytest.raises(BudgetError, match="no single slice gives a finite certified end"):
            pick_constant_for_values([(0, 0), (0, 0.5), (0.5, 0)], BIDISC, [0.1, 0.2, 0.3])


class TestVectorValuedFeasible:
    @pytest.fixture(autouse=True)
    def no_dykstra(self, monkeypatch):
        from interp_lab import pick

        def no_run(*args, **kwargs):
            raise AssertionError("Dykstra run in vector_valued_feasible")

        monkeypatch.setattr(pick, "dykstra_solve", no_run)

    def test_single_point_full_bound(self):
        assert vector_valued_feasible([(0.2, 0.1)], BIDISC, 1.0)

    def test_below_threshold(self):
        assert vector_valued_feasible([0, 0.5], SZEGO, 0.1)

    def test_above_threshold(self):
        assert not vector_valued_feasible([0, 0.5], SZEGO, 0.2)

    def test_anchor_decided_outside_the_bracket(self):
        # N's checked bracket on the anchor is [0.0735737, 0.0735789].
        assert vector_valued_feasible(ANCHOR, BIDISC, 0.07)
        assert vector_valued_feasible(ANCHOR, BIDISC, 0.0735)
        assert not vector_valued_feasible(ANCHOR, BIDISC, 0.074)

    def test_undecided_raises_budget_error(self):
        # Inside N's checked bracket neither verdict is certified.
        with pytest.raises(BudgetError):
            vector_valued_feasible(ANCHOR, BIDISC, condition_b_constant(ANCHOR, BIDISC) + 1e-9)

    def test_random_bidisc_sets_decided_by_the_bracket(self):
        from interp_lab.pick import BISECTION_TOL, _condition_b_bracket

        rng = np.random.default_rng(3)
        for _ in range(6):
            z = 0.8 * np.sqrt(rng.uniform(size=(5, 2))) * np.exp(2j * np.pi * rng.uniform(size=(5, 2)))
            pts = [tuple(row) for row in z]
            bracket = _condition_b_bracket(pts, BIDISC, BISECTION_TOL)
            n_lo, n_hi = bracket.lower, bracket.upper
            assert n_lo == condition_b_constant(pts, BIDISC)
            assert 0.0 < n_lo <= n_hi <= n_lo + BISECTION_TOL
            assert vector_valued_feasible(pts, BIDISC, 0.9 * n_lo)
            assert not vector_valued_feasible(pts, BIDISC, min(1.0, 1.1 * n_hi + 1e-3))

    def test_domain_check(self):
        with pytest.raises(DomainError):
            vector_valued_feasible([0, 0.5], SZEGO, 0.0)
        with pytest.raises(DomainError):
            vector_valued_feasible([0, 0.5], SZEGO, 1.5)


class TestPickMatchesConstant:
    def test_feasibility_flips_at_constant(self, rng):
        for _ in range(5):
            spec = random_kernel_spec(rng)
            pts = [(p,) for p in random_disk_points(rng, 3, min_separation=0.15)]
            vals = tuple(complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)) for _ in range(3))
            c = pick_constant_for_values(pts, spec, vals)
            assert pick_psd_test(PickProblem(pts, vals, c + 1e-4), spec)[0]
            assert not pick_psd_test(PickProblem(pts, vals, max(c - 1e-4, 1e-9)), spec)[0]


ANCHOR = [(0, 0), (0.5, 0.3 + 0.2j), (-0.4 + 0.1j, 0.2 - 0.5j)]
SMALL_SCALES = [1.0, 1e-4, 1e-8]


def sqrt_mu(g, w):
    """sqrt of the top eigenvalue of L^-1 (W ∘ G) L^-H, G = L L^H, W = w w^H."""
    linv = np.linalg.inv(np.linalg.cholesky(g))
    return np.sqrt(np.linalg.eigvalsh(linv @ (np.outer(w, np.conj(w)) * g) @ linv.conj().T)[-1])


def slice_gramians(pts):
    """Normalized Gramians of each bidisc coordinate and of their product."""
    return [normalized_gramian([p[l] for p in pts], SZEGO) for l in range(2)], \
        normalized_gramian(pts, BIDISC)


class TestSmallScaleData:
    # Feasibility does not depend on scale; no slack may turn infeasible
    # data feasible when the values and the bound shrink together.
    @pytest.mark.parametrize("scale", SMALL_SCALES)
    def test_one_variable_schwarz_violation_stays_infeasible(self, scale):
        problem = PickProblem([(0,), (0.5,)], (0, 0.6 * scale), scale)
        assert not pick_psd_test(problem, SZEGO)[0]

    @pytest.mark.parametrize("scale", SMALL_SCALES)
    def test_one_variable_boundary_data_stays_feasible(self, scale):
        points = TestPickPsdScaleInvariance.POINTS
        problem = PickProblem([(p,) for p in points], [scale * p for p in points], scale)
        assert pick_psd_test(problem, SZEGO)[0]

    @pytest.mark.parametrize("scale", SMALL_SCALES)
    def test_bidisc_infeasible_target_stays_infeasible(self, scale):
        target = 1.5 * np.eye(3) - np.ones((3, 3))
        reference = agler_feasible(ANCHOR, BIDISC, target)
        dec = agler_feasible(ANCHOR, BIDISC, scale * target)
        assert not reference.feasible and not dec.feasible
        # residual, margin and the allowance are reported in the caller's units
        assert dec.affine_residual == pytest.approx(scale * reference.affine_residual, rel=1e-6)
        assert dec.tolerance == pytest.approx(1e-7 * min(1.0, np.linalg.norm(scale * target)), rel=1e-12)
        assert dec.relative_residual == pytest.approx(reference.relative_residual, rel=1e-6)
        assert dec.blocks.shape == (2, 3, 3)

    @pytest.mark.parametrize("scale", SMALL_SCALES)
    def test_bidisc_boundary_data_stays_feasible(self, scale):
        # f(z) = z_1 has norm 1, so C = 1 is on the boundary at every scale
        w = np.array([scale * p[0] for p in ANCHOR])
        dec = agler_feasible(ANCHOR, BIDISC, scale ** 2 * np.ones((3, 3)) - np.outer(w, np.conj(w)))
        assert dec.feasible
        assert dec.affine_residual <= 1e-7 * scale ** 2

    @pytest.mark.parametrize("scale", SMALL_SCALES)
    def test_interpolation_constant_scales_exactly(self, scale):
        c1 = pick_constant_for_values([0, 0.5], SZEGO, [0, 0.5 * scale])
        assert c1 == pytest.approx(scale, rel=1e-12)
        c2 = pick_constant_for_values([(0, 0), (0.5, 0.3)], BIDISC, [0, 0.5 * scale],
                                      bisection_tol=1e-2 * scale)
        assert c2 == pytest.approx(scale, rel=1e-2)

    @pytest.mark.parametrize("scale", [1e-160, 1e-300])
    def test_interpolation_constant_where_the_square_of_the_scale_underflows(self, scale):
        # Values of size 1e-160 and below have a square of 0.0, which must never divide.
        assert pick_constant_for_values([0, 0.5], SZEGO, [0, 0.5 * scale]) == pytest.approx(scale, rel=1e-12)
        c = pick_constant_for_values(ANCHOR, BIDISC, [scale * p[0] for p in ANCHOR])
        assert c == pytest.approx(scale, rel=1e-4)


class TestClosedFormBrackets:
    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_two_point_constants_exact(self, r):
        s = np.sqrt(1 - r * r)
        assert abs(condition_a_constant([0, r], SZEGO) - (1 + s)) <= 1e-12
        assert abs(condition_b_constant([0, r], SZEGO) - (1 - s)) <= 1e-12

    def test_identical_slices_need_no_solve(self, rng):
        z = random_disk_points(rng, 4, max_radius=0.8, min_separation=0.1)
        w = np.linalg.eigvalsh(normalized_gramian(z, SZEGO))
        pts = [(p, p) for p in z]
        assert abs(condition_a_constant(pts, BIDISC) - w[-1]) <= 1e-12
        assert abs(condition_b_constant(pts, BIDISC) - w[0]) <= 1e-12
        for bracket, *_ in u_problems(pts, BIDISC, z):
            assert bracket.method == "closed-form" and bracket.steps == 0

    def test_one_variable_constant_is_sqrt_mu(self, rng):
        for _ in range(3):
            spec = random_kernel_spec(rng)
            z = random_disk_points(rng, 3, min_separation=0.15)
            w = rng.uniform(-0.8, 0.8, 3) + 1j * rng.uniform(-0.8, 0.8, 3)
            expected = sqrt_mu(normalized_gramian(z, spec), w)
            assert abs(pick_constant_for_values(z, spec, w) - expected) <= 1e-12

    def test_distinct_slices_inside_brackets(self):
        pts, values = [(0, 0), (0.5, 0.3)], np.array([0, 0.5])
        (g1, g2), g = slice_gramians(pts)
        lam = [np.linalg.eigvalsh(x) for x in (g1, g2, g)]
        budget = dict(bisection_tol=1e-2)
        m = condition_a_constant(pts, BIDISC, **budget)
        assert max(1, lam[2][-1]) - 1e-12 <= m <= max(1, min(lam[0][-1], lam[1][-1])) + 1e-12
        nv = condition_b_constant(pts, BIDISC, **budget)
        assert max(0, lam[0][0], lam[1][0]) - 1e-12 <= nv <= min(1, lam[2][0]) + 1e-12
        c = pick_constant_for_values(pts, BIDISC, values, **budget)
        assert sqrt_mu(g, values) - 1e-12 <= c <= min(sqrt_mu(g1, values), sqrt_mu(g2, values)) + 1e-12


def bidisc_r(points):
    """R_l = [1 - z_i conj(z_j)] for each bidisc coordinate, built directly."""
    z = np.array(points).T
    return 1.0 - z[:, :, None] * np.conj(z[:, None, :])


def checked_dual(r, a, b, y):
    """<B,Y>/<A,Y>, after checking from scratch that every conj(R_l)∘Y is PSD."""
    assert all(np.linalg.eigvalsh(np.conj(x) * y)[0] >= 0.0 for x in r)
    return np.real(np.vdot(b, y)) / np.real(np.vdot(a, y))


def u_problems(pts, spec, values):
    """(bracket, gap, A, B, certified u, dual u) for M, N and C: each bracket with the problem its certificates
    solve, the least u at which u·A − B decomposes.  For N, u = −N; for C, u = (C/s)² with the values over
    s = min(1, max|w_i|)."""
    from interp_lab.pick import BISECTION_TOL, _condition_a_bracket, _condition_b_bracket, _interpolation_bracket

    n, s, values = len(pts), min(1.0, np.max(np.abs(values))) or 1.0, np.asarray(values)
    m, nv = _condition_a_bracket(pts, spec, BISECTION_TOL), _condition_b_bracket(pts, spec, BISECTION_TOL)
    c = _interpolation_bracket(pts, spec, values, 1e-6)
    return [(m, BISECTION_TOL, np.eye(n), np.ones((n, n)), m.upper, m.lower),
            (nv, BISECTION_TOL, np.eye(n), -np.ones((n, n)), -nv.lower, -nv.upper),
            (c, 1e-6, np.ones((n, n)), np.outer(values, np.conj(values)) / s ** 2, (c.upper / s) ** 2,
             (c.lower / s) ** 2)]


def assert_certificates(r, bracket, a, b, certified, dual):
    """The bracket's blocks, where not None, decompose certified·A − B, and its dual Y, where not None,
    bounds u below by the dual end.  The closed-form ends lie more than the gap apart, so one is present."""
    assert bracket.blocks is not None or bracket.dual is not None
    if bracket.blocks is not None:
        residual, margin = check_certificate(bracket.blocks, AffineConstraint(r, certified * a - b))
        assert residual <= 1e-7 and margin >= -1e-7
    if bracket.dual is not None:
        assert checked_dual(r, a, b, bracket.dual) == pytest.approx(dual, rel=1e-12)


def seeded_bidisc_set(n):
    """n bidisc points with distinct coordinate slices, and values with max|w| > 1."""
    rng = np.random.default_rng(1000 + n)
    z, w = (random_disk_points(rng, n, max_radius=0.8, min_separation=0.1) for _ in range(2))
    values = np.array(random_disk_points(rng, n, max_radius=0.8))
    values[0] = 1.2
    return list(zip(z, w)), values


class TestInteriorPointConstants:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_constants_certified_from_both_sides(self, n):
        # The values reach 1.2, so C's problem is at the values' own scale.
        pts, values = seeded_bidisc_set(n)
        (m, *_), (nv, *_), (c, *_) = problems = u_problems(pts, BIDISC, values)
        assert condition_a_constant(pts, BIDISC) == m.upper
        assert condition_b_constant(pts, BIDISC) == nv.lower
        assert pick_constant_for_values(pts, BIDISC, values) == c.upper
        for bracket, gap, *problem in problems:
            assert bracket.method == "interior-point" and bracket.lower <= bracket.upper <= bracket.lower + gap
            assert bracket.blocks is not None and bracket.dual is not None
            assert_certificates(bidisc_r(pts), bracket, *problem)

    def test_uncertified_solve_returns_closed_form_end(self, monkeypatch):
        from interp_lab import pick
        from interp_lab.sdp import Bracket

        def bad_point(r, a, c, bracket, gap):
            # Claims the necessary end with blocks that decompose nothing.
            return Bracket(bracket[0], bracket[0], np.eye(r.shape[1]), np.zeros_like(r), 1, "interior-point")

        monkeypatch.setattr(pick, "barrier_solve", bad_point)
        pts, values = seeded_bidisc_set(4)
        (g1, g2), g = slice_gramians(pts)
        lam = [np.linalg.eigvalsh(x) for x in (g1, g2)]
        assert abs(condition_a_constant(pts, BIDISC) - max(1, min(lam[0][-1], lam[1][-1]))) <= 1e-12
        assert abs(condition_b_constant(pts, BIDISC) - max(0, lam[0][0], lam[1][0])) <= 1e-12
        expected = min(sqrt_mu(g1, values), sqrt_mu(g2, values))
        assert abs(pick_constant_for_values(pts, BIDISC, values) - expected) <= 1e-12 * expected

    def test_near_miss_primal_is_refused(self, monkeypatch):
        # The anchor's M solve with block 0 shifted by -3e-8·I: well inside a 1e-7
        # tolerance, far outside the check's rounding, so M is the closed-form end.
        from interp_lab import pick, sdp

        def near_miss(r, *args):
            res = sdp.barrier_solve(r, *args)
            res.blocks[0] -= 3e-8 * np.eye(r.shape[1])
            return res

        monkeypatch.setattr(pick, "barrier_solve", near_miss)
        (g1, g2), _ = slice_gramians(ANCHOR)
        m = condition_a_constant(ANCHOR, BIDISC)
        assert m == max(1.0, min(np.linalg.eigvalsh(g1)[-1], np.linalg.eigvalsh(g2)[-1]))
        assert abs(m - 2.627270201) <= 1e-9

    def test_small_data_constant_is_relatively_accurate(self):
        from interp_lab.pick import _interpolation_bracket

        # Three points: two-point constants are exact without a solve.
        pts, values = [(0, 0), (0.5, 0.3), (-0.4 + 0.1j, 0.2 - 0.5j)], np.array([0, 0.5e-8, 0.3e-8j])
        c = pick_constant_for_values(pts, BIDISC, values)
        bracket = _interpolation_bracket(pts, BIDISC, values, 1e-6)
        assert bracket.method == "interior-point" and bracket.upper == c
        bound = np.sqrt(checked_dual(bidisc_r(pts), np.ones((3, 3)),
                                     np.outer(values, np.conj(values)), bracket.dual))
        assert bound <= c * (1 + 1e-12)
        assert c - bound <= 1e-3 * bound


class TestTwoPointConstants:
    def test_certified_end_is_exact_without_a_solve(self):
        from interp_lab import KernelSpec, sdp
        from interp_lab.pick import inverse_kernel_stack

        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            spec = ProductKernelSpec(tuple(SZEGO if rng.random() < 0.5 else KernelSpec((0.6, 0.3))
                                           for _ in range(d)))
            z = 0.95 * np.sqrt(rng.uniform(size=(2, d))) * np.exp(2j * np.pi * rng.uniform(size=(2, d)))
            w = 0.95 * np.sqrt(rng.uniform(size=2)) * np.exp(2j * np.pi * rng.uniform(size=2))
            pts = [tuple(p) for p in z]
            brackets = [bracket for bracket, *_ in u_problems(pts, spec, w)]
            for bracket in brackets:
                assert bracket.method == "two-point-exact" and bracket.steps == 0
                assert bracket.blocks is None and bracket.dual is None
            m, nv, c = brackets[0].upper, brackets[1].lower, brackets[2].upper
            r, eye, ones = inverse_kernel_stack(pts, spec), np.eye(2), np.ones((2, 2))
            cases = [(m, eye, ones, 1.0), (-nv, eye, -ones, 1.0), (c * c, ones, np.outer(w, np.conj(w)), c * c)]
            for u, a, b, scale in cases:
                # A dual bound from a solve run to a 1e-12 gap, checked from scratch.
                bound = checked_dual(r, a, b, sdp.barrier_solve(r, a, b, (u - 1.0, u), 1e-12).dual)
                assert -1e-12 * scale <= u - bound <= 1e-10 * scale


def szego_bidisc_sets():
    """Szegő bidisc sets of 6, 10 and 16 points, drawn in that order from default_rng(1)
    with coordinates 0.8·√U·e^{2πiV}."""
    rng, sets = np.random.default_rng(1), {}
    for n in (6, 10, 16):
        z = 0.8 * np.sqrt(rng.uniform(size=(n, 2))) * np.exp(2j * np.pi * rng.uniform(size=(n, 2)))
        sets[n] = [tuple(p) for p in z]
    return sets


def spy_on_solves(monkeypatch):
    """Record the arguments and result of every interior-point solve that the constants run."""
    from interp_lab import pick

    calls, solve = [], pick.barrier_solve

    def spy(*args):
        calls.append((args, solve(*args)))
        return calls[-1][1]

    monkeypatch.setattr(pick, "barrier_solve", spy)
    return calls


def assert_checked_primal_end(r, a, b, res):
    from interp_lab import AffineConstraint, check_certificate

    residual, margin = check_certificate(res.blocks, AffineConstraint(r, res.upper * a - b))
    assert residual <= 1e-7 and margin >= -1e-7


def spy_on_primal_checks(monkeypatch, refuse=lambda u: False):
    """Record (u, checked end or None) for every primal check in a solve; checks at a
    u that ``refuse`` flags fail without running."""
    from interp_lab import sdp

    checks, primal = [], sdp._certified_primal

    def spy(r, a, c, u, blocks):
        checks.append((u, None if refuse(u) else primal(r, a, c, u, blocks)))
        return checks[-1][1]

    monkeypatch.setattr(sdp, "_certified_primal", spy)
    return checks


class TestBarrierSchedule:
    @pytest.mark.parametrize("n", [10, 16])
    def test_random_sets_close_with_one_primal_check_per_solve(self, n, monkeypatch):
        calls = spy_on_solves(monkeypatch)
        checks = spy_on_primal_checks(monkeypatch)
        pts = szego_bidisc_sets()[n]
        condition_a_constant(pts, BIDISC)
        condition_b_constant(pts, BIDISC)
        assert len(calls) == 2 and len(checks) <= 4
        for (r, a, b, _, gap), res in calls:
            assert_checked_primal_end(r, a, b, res)
            assert checked_dual(r, a, b, res.dual) == pytest.approx(res.lower, rel=1e-12)
            assert res.upper - res.lower <= gap

    def test_anchor_checks_a_primal_end_at_most_twice_per_solve(self, monkeypatch):
        calls = spy_on_solves(monkeypatch)
        checks = spy_on_primal_checks(monkeypatch)
        m = condition_a_constant(ANCHOR, BIDISC)
        m_checks = len(checks)
        nv = condition_b_constant(ANCHOR, BIDISC)
        assert len(calls) == 2 and 1 <= m_checks <= 2 and 1 <= len(checks) - m_checks <= 2
        assert abs(m - 2.519285694) <= 1e-5
        assert abs(nv - 0.073572415) <= 1e-5

    def test_budget_exit_returns_a_checked_or_closed_form_end(self, monkeypatch):
        from interp_lab import sdp

        calls = spy_on_solves(monkeypatch)
        condition_a_constant(ANCHOR, BIDISC)
        (r, a, b, bracket, gap), full = calls[0]
        certified = []
        for cap in range(1, full.steps):
            monkeypatch.setattr(sdp, "BARRIER_MAX_STEPS", cap)
            capped = sdp.barrier_solve(r, a, b, bracket, gap)
            assert capped.steps == cap and capped.upper - capped.lower > gap
            m = condition_a_constant(ANCHOR, BIDISC)
            if capped.upper < np.inf:
                # The exit checked the centred points it skipped; M is that end or the closed form.
                assert_checked_primal_end(r, a, b, capped)
                certified.append(cap)
                assert m in (bracket[1], max(bracket[0], capped.upper))
            else:
                assert m == bracket[1]
        # Every cap past the first centred point leaves a checked primal end.
        assert certified and certified == list(range(certified[0], full.steps))

    def test_failed_near_closure_checks_fall_back_to_skipped_points(self, monkeypatch):
        from interp_lab import sdp

        calls = spy_on_solves(monkeypatch)
        condition_a_constant(ANCHOR, BIDISC)
        (r, a, b, bracket, gap), full = calls[0]
        # Every check within 1e-4 of M fails, so the bracket cannot close and the
        # solve runs until Newton fails or the step cap.
        checks = spy_on_primal_checks(monkeypatch, refuse=lambda u: u < full.upper + 1e-4)
        res = sdp.barrier_solve(r, a, b, bracket, gap)
        assert res.upper - res.lower > gap and res.lower <= full.upper
        passed = [end for _, end in checks if end is not None]
        assert passed and res.upper == min(u for u, _ in passed) < bracket[1]
        assert_checked_primal_end(r, a, b, res)
        # The exit checked every centred point skipped on the way, not only the last.
        assert len(passed) >= 2

    @pytest.mark.parametrize("n, cap", [(3, 13), (10, 32), (16, 32)])
    def test_newton_steps_per_solve(self, n, cap, monkeypatch):
        # Exact line searches and a t schedule planned from the bracket.
        calls = spy_on_solves(monkeypatch)
        pts = ANCHOR if n == 3 else szego_bidisc_sets()[n]
        condition_a_constant(pts, BIDISC)
        condition_b_constant(pts, BIDISC)
        assert len(calls) == 2
        for (*_, gap), res in calls:
            assert res.steps <= cap and res.upper - res.lower <= gap

    @pytest.mark.parametrize("failure", ["eigensolve", "cholesky"])
    def test_damped_steps_close_the_anchor(self, failure, monkeypatch):
        # Every line search fails: its eigensolve raises, or its step lies twice past the
        # boundary, where the Cholesky of the new point fails.  The solve takes the damped steps.
        from interp_lab import sdp

        failed = []

        def fail(mu, decrement):
            if failure == "eigensolve":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            failed.append(min(mu) < 0.0)
            return -2.0 / min(mu) if failed[-1] else 1.0 / (1.0 + decrement)

        monkeypatch.setattr(sdp, "_step_length", fail)
        calls = spy_on_solves(monkeypatch)
        m = condition_a_constant(ANCHOR, BIDISC)
        nv = condition_b_constant(ANCHOR, BIDISC)
        assert len(calls) == 2 and (failure == "eigensolve" or sum(failed) >= len(failed) / 2)
        for (r, a, b, _, gap), res in calls:
            assert_checked_primal_end(r, a, b, res)
            assert checked_dual(r, a, b, res.dual) == pytest.approx(res.lower, rel=1e-12)
            assert res.upper - res.lower <= gap
        assert abs(m - 2.519285694) <= 1e-5 and abs(nv - 0.073572415) <= 1e-5


def sweep_sets():
    """(points, spec, values): 40 sets from default_rng(11), 3 to 6 points with d = 2 or 3 factors,
    each Szegő or (0.6, 0.3), coordinates 0.97·√U·e^{2πiV}; then split-cluster seeds 0 and 146."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        n, d = int(rng.integers(3, 7)), int(rng.integers(2, 4))
        spec = ProductKernelSpec(tuple(SZEGO if rng.random() < 0.5 else TWO_COEFF for _ in range(d)))
        z = 0.97 * np.sqrt(rng.uniform(size=(n, d))) * np.exp(2j * np.pi * rng.uniform(size=(n, d)))
        w = 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        yield [tuple(p) for p in z], spec, w
    for seed in (0, 146):
        yield split_cluster_set(seed)


def test_sweep_brackets_close_with_checked_ends():
    from interp_lab.pick import inverse_kernel_stack

    # Every constant of every set runs one solve, whose certificates are re-checked from scratch.
    for pts, spec, w in sweep_sets():
        for bracket, gap, *problem in u_problems(pts, spec, w):
            assert bracket.lower <= bracket.upper <= bracket.lower + gap
            assert bracket.method == "interior-point" and bracket.steps >= 1
            assert_certificates(inverse_kernel_stack(pts, spec), bracket, *problem)
    # Two points: both ends exact, no solve.  Identical slices: the closed-form ends meet.
    for bracket, *_ in u_problems([(0.1, 0.2j), (0.5, -0.3)], BIDISC, [0.2, 0.7j]):
        assert (bracket.method, bracket.steps, bracket.blocks, bracket.dual) == ("two-point-exact", 0, None, None)
        assert bracket.lower == bracket.upper
    for bracket, *_ in u_problems([(z, z) for z in (0.1, 0.5j, -0.4 + 0.2j)], BIDISC, [0.2, 0.7j, 0.1]):
        assert (bracket.method, bracket.steps, bracket.blocks, bracket.dual) == ("closed-form", 0, None, None)


def pick_target(values, bound):
    return bound ** 2 - np.outer(values, np.conj(values))


class TestFixedTargetVerdicts:
    def test_half_product_bound_decided_within_eight_sweeps(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            pts = list(zip(*(random_disk_points(rng, 4, max_radius=0.8, min_separation=0.2) for _ in range(2))))
            w = np.array(random_disk_points(rng, 4, max_radius=0.9))
            target = pick_target(w, 0.5 * sqrt_mu(normalized_gramian(pts, BIDISC), w))
            dec = agler_feasible(pts, BIDISC, target)
            assert dec.feasible is False and dec.iterations <= 8
            assert_checked_farkas(bidisc_r(pts), target, dec.dual)

    def test_near_boundary_verdicts_never_contradict(self):
        # Bounds at 0.98 to 1.02 times C on random 5-point sets: the truth is
        # known from C, a small budget leaves most undecided, and a verdict
        # that is given must be right.  C's checked bracket decides all 24.
        from interp_lab.pick import _interpolation_bracket

        rng = np.random.default_rng(3)
        for _ in range(6):
            z = 0.8 * np.sqrt(rng.uniform(size=(5, 2))) * np.exp(2j * np.pi * rng.uniform(size=(5, 2)))
            w = 0.7 * (rng.normal(size=5) + 1j * rng.normal(size=5))
            pts = [tuple(p) for p in z]
            bracket = _interpolation_bracket(pts, BIDISC, w, 1e-8)
            dual, c = bracket.lower, bracket.upper
            for factor in (0.98, 0.9999, 1.0001, 1.02):
                assert factor * c < dual if factor < 1 else factor * c > c
                target = pick_target(w, factor * c)
                dec = agler_feasible(pts, BIDISC, target, max_iters=300)
                assert dec.feasible is None or dec.feasible is (factor > 1)
                if dec.feasible is False:
                    assert_checked_farkas(bidisc_r(pts), target, dec.dual)


def verdict_corpus():
    """(points, spec, R stack, target, expected verdict) on seeded polydisc data as the benchmark builds
    it: d = 2 and 3, Szegő or [0.6, 0.3] factors, n = 3-6, bounds at 0.5x the product kernel's necessary
    bound (infeasible) and at 1.05x the best one-factor sufficient bound (feasible), and at 1.05x the
    largest one, where every single-block candidate passes."""
    rng = np.random.default_rng(28)
    for d in (2, 3):
        for coeffs in ((1.0,), (0.6, 0.3)):
            for n in range(3, 7):
                z = np.array([random_disk_points(rng, n, max_radius=0.8, min_separation=0.2) for _ in range(d)])
                w = np.array(random_disk_points(rng, n, max_radius=0.9))
                s = z[:, :, None] * np.conj(z[:, None, :])
                r = 1.0 - sum(c * s ** (i + 1) for i, c in enumerate(coeffs))
                pts, spec = list(z.T), ProductKernelSpec((KernelSpec(coeffs),) * d)
                gramians = [normalized_gramian(list(zl), KernelSpec(coeffs)) for zl in z]
                sufficient = [sqrt_mu(g, w) for g in gramians]
                for bound, expected in ((0.5 * sqrt_mu(normalized_gramian(pts, spec), w), False),
                                        (1.05 * min(sufficient), True), (1.05 * max(sufficient), True)):
                    yield pts, spec, r, pick_target(w, bound), expected


class TestVerdictPath:
    def test_every_verdict_rechecked_from_scratch(self):
        for pts, spec, r, target, expected in verdict_corpus():
            dec = agler_feasible(pts, spec, target)
            assert dec.feasible is expected
            residual, margin = check_certificate(dec.blocks, AffineConstraint(r, target))
            allowance = 4 * np.finfo(float).eps * np.linalg.norm(target)
            assert abs(dec.affine_residual - residual) <= allowance
            assert abs(dec.psd_margin - margin) <= allowance
            assert dec.relative_residual == pytest.approx(dec.affine_residual / np.linalg.norm(target), rel=1e-12)
            if expected:
                assert dec.iterations == 1 and residual <= dec.tolerance and margin >= -dec.tolerance
                # The first candidate that passes, as one check_certificate call per candidate finds it.
                checks = [check_certificate(np.where(np.arange(len(r))[:, None, None] == l, target / r, 0.0),
                                            AffineConstraint(r, target)) for l in range(len(r))]
                first = next(l for l, (res, mar) in enumerate(checks) if res <= dec.tolerance and mar >= -dec.tolerance)
                assert np.flatnonzero(np.abs(dec.blocks).sum(axis=(1, 2))).tolist() == [first]
            else:
                assert_checked_farkas(r, target, dec.dual, tol=dec.tolerance)

    def test_eigensolves_per_verdict(self, monkeypatch):
        # One stacked eigensolve tests every single-block candidate; an infeasible
        # verdict at sweep 1 adds project_psd's, the Farkas test's two and the margin's.
        calls = []

        def counted(solver):
            def call(a, *args, **kwargs):
                calls.append(a.shape)
                return solver(a, *args, **kwargs)
            return call
        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        swept = set()
        for pts, spec, r, target, expected in verdict_corpus():
            calls.clear()
            dec = agler_feasible(pts, spec, target)
            if expected:
                assert calls == [r.shape]
            elif dec.iterations == 1:
                assert calls[0] == r.shape and len(calls) <= 5
                swept.add(len(r))
        assert swept == {2, 3}


@pytest.mark.parametrize("direction", [1.0, 1j, (1 - 1j) / np.sqrt(2)])
def test_distinct_slices_agree_with_allclose_at_the_boundary(direction):
    from interp_lab.pick import _distinct_slices

    # Entry (1, 2) moves from 0, so an offset of exactly 1e-14 meets the rule's boundary.
    base = bidisc_r(ANCHOR)[1]
    base[1, 2] = 0.0
    outcomes = set()
    for offset in [*np.linspace(0.5e-14, 2e-14, 31), 1e-14]:
        moved = base.copy()
        moved[1, 2] += offset * direction
        stack = np.stack([base, moved, base + offset * direction, moved])
        expected = [l for l in range(len(stack))
                    if not any(np.allclose(stack[l], stack[m], rtol=0.0, atol=1e-14) for m in range(l))]
        assert _distinct_slices(stack) == expected, offset
        outcomes.add(len(expected))
    assert {1, 3} <= outcomes


class TestConstantFirstSlice:
    """Points (x, w_i): the first slice is a constant kernel, so the data is
    one-variable data on the w_i and M, N and C are the one-variable values."""

    W = [0, 0.5, -0.4j]
    VALUES = [0.1, 0.3j, -0.2]

    @pytest.mark.parametrize("x", [0.0, 0.3])
    def test_constants_equal_the_one_variable_values(self, x):
        pts = [(x, w) for w in self.W]
        assert condition_a_constant(pts, BIDISC) == pytest.approx(condition_a_constant(self.W, SZEGO), abs=1e-12)
        assert condition_b_constant(pts, BIDISC) == pytest.approx(condition_b_constant(self.W, SZEGO), abs=1e-12)
        assert pick_constant_for_values(pts, BIDISC, self.VALUES) == pytest.approx(
            pick_constant_for_values(self.W, SZEGO, self.VALUES), abs=1e-12)

    def test_rank_one_gramian_has_infinite_pick_norm(self, monkeypatch):
        # At x = 0.3, 0.3j and 0.5 the all-ones slice rounds to 1 - eps, where
        # a Cholesky factor exists; the norm must not depend on that.
        from interp_lab import pick

        norms, pick_norm = [], pick._pick_norm
        monkeypatch.setattr(pick, "_pick_norm", lambda g, w: norms.append(pick_norm(g, w)) or norms[-1])
        for x in [0.0, 0.1, 0.3, 0.3j, 0.5]:
            norms.clear()
            pick_constant_for_values([(x, w) for w in self.W], BIDISC, self.VALUES)
            assert norms[0] == np.inf and all(np.isfinite(norms[1:])), x


# ANCHOR's values 0.3, -0.2i, 0.4 at bound 0.78: the target 0.78²J − W of their Agler test.
ANCHOR_TARGET = 0.78 ** 2 - np.outer([0.3, -0.2j, 0.4], np.conj([0.3, -0.2j, 0.4]))
# 3I − J with 0.5 added at [0, 1] alone: no sum of G_l ∘ R_l, each Hermitian, equals it.
SKEW_TARGET = 3 * np.eye(3) - 1 + 0.5 * (np.arange(9).reshape(3, 3) == 1)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: PickProblem(((0,), (0.5,)), (0.1,), 1.0), "2 points but 1 values", id="problem-values"),
    pytest.param(lambda: PickProblem(((0,), (0.5,)), (0.1, 0.2), 0.0), "norm bound must be positive, got 0.0",
                 id="problem-bound"),
    pytest.param(lambda: PickProblem(((0,), (0.5,)), (0.1, 0.2), np.nan), "norm bound must be positive, got nan",
                 id="problem-bound-nan"),
    pytest.param(lambda: PickProblem(((0.1,), (0.2,)), (0.3, np.nan), 1.0),
                 "values[1] must be finite, got (nan+0j)", id="problem-value-nan"),
    pytest.param(lambda: PickProblem(((0.1,), (0.2,)), (np.inf, 0.3), 1.0),
                 "values[0] must be finite, got (inf+0j)", id="problem-value-inf"),
    pytest.param(lambda: pick_constant_for_values(ANCHOR, BIDISC, [0.1, complex(0.2, np.nan), 0.3]),
                 "values[1] must be finite, got (0.2+nanj)", id="constant-value-nan"),
    pytest.param(lambda: pick_constant_for_values([0, 0.5], SZEGO, [0.1, -np.inf]),
                 "values[1] must be finite, got (-inf+0j)", id="constant-value-inf"),
    pytest.param(lambda: condition_a_constant(ANCHOR, BIDISC, bisection_tol=np.nan),
                 "bisection_tol must be finite and > 0, got nan", id="constant-a-bisection-tol-nan"),
    pytest.param(lambda: pick_constant_for_values(ANCHOR, BIDISC, [0.1, 0.2, 0.3], bisection_tol=0.0),
                 "bisection_tol must be finite and > 0, got 0.0", id="constant-c-bisection-tol-zero"),
    pytest.param(lambda: pick_constant_for_values([(0, 0), (0.5, 0.1), (0.2, -0.3)], BIDISC, [0.1, 0.2]),
                 "3 points but 2 values", id="constant-values"),
    pytest.param(lambda: agler_feasible(ANCHOR, BIDISC, np.where(np.eye(3, k=2), np.nan, ANCHOR_TARGET)),
                 "target[0, 2] must be finite, got (nan+0j)", id="agler-target-nan"),
    pytest.param(lambda: agler_feasible(ANCHOR, BIDISC, np.full((3, 3), np.inf)),
                 "target[0, 0] must be finite, got (inf+0j)", id="agler-target-inf"),
    pytest.param(lambda: agler_feasible(ANCHOR, BIDISC, SKEW_TARGET),
                 "target must be Hermitian: target[0, 1] - conj(target[1, 0]) = 0.5+0j, and ‖T − Tᴴ‖_F/2 = 0.354 "
                 "exceeds the tolerance 1e-07", id="agler-target-not-hermitian"),
    pytest.param(lambda: agler_feasible(ANCHOR, BIDISC, ANCHOR_TARGET, tol=np.nan),
                 "tol must be finite and > 0, got nan", id="agler-tol-nan"),
    pytest.param(lambda: agler_feasible(ANCHOR, BIDISC, ANCHOR_TARGET, tol=0.0),
                 "tol must be finite and > 0, got 0.0", id="agler-tol-zero"),
    pytest.param(lambda: agler_feasible(ANCHOR, BIDISC, ANCHOR_TARGET, max_iters=0),
                 "max_iters must be an integer >= 1, got 0", id="agler-max-iters-zero"),
    pytest.param(lambda: agler_feasible(ANCHOR, BIDISC, ANCHOR_TARGET, max_iters=-5),
                 "max_iters must be an integer >= 1, got -5", id="agler-max-iters-negative"),
    pytest.param(lambda: agler_feasible(ANCHOR, BIDISC, ANCHOR_TARGET, max_iters=2.5),
                 "max_iters must be an integer >= 1, got 2.5", id="agler-max-iters-fractional"),
    pytest.param(lambda: agler_feasible(ANCHOR, BIDISC, ANCHOR_TARGET, max_iters=True),
                 "max_iters must be an integer >= 1, got True", id="agler-max-iters-bool"),
])
def test_rejects_invalid_arguments(call, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        call()
