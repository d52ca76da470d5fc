import numpy as np
import pytest

from interp_lab import (
    SZEGO,
    ArgumentError,
    kernel_matrix,
    multiplier_distance,
    normalized_gramian,
    pseudo_hyperbolic,
    riesz_bounds,
    strong_separation_disk,
    weak_separation,
)
from interp_lab.gramian import PSD_TOL_PER_POINT, check_distinct
from conftest import random_disk_points, random_kernel_spec


class TestCheckDistinct:
    def test_names_first_coinciding_polydisc_pair(self):
        pts = [(0, 0), (0.5, 0.1), (0.2, 0.2), (0.5, 0.1 + 1e-13), (0.2, 0.2), (0, 0.5)]
        with pytest.raises(ArgumentError, match="points 1 and 3 coincide"):
            check_distinct(pts)
        check_distinct([(0, 0), (0, 0.5), (0.5, 0)])


class TestNormalizedGramian:
    def test_single_point(self):
        g = normalized_gramian([0], SZEGO)
        assert g.shape == (1, 1) and g[0, 0] == 1

    def test_two_point_closed_form(self):
        g = normalized_gramian([0, 0.5], SZEGO)
        assert g[0, 1] == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
        assert g[1, 0] == pytest.approx(np.sqrt(3) / 2, abs=1e-12)

    def test_wide_pair(self):
        g = normalized_gramian([0, 0.9], SZEGO)
        assert g[0, 1] == pytest.approx(np.sqrt(0.19), abs=1e-12)

    def test_unit_diagonal_and_psd(self, rng):
        for _ in range(10):
            spec = random_kernel_spec(rng)
            pts = random_disk_points(rng, 6, min_separation=0.02)
            g = normalized_gramian(pts, spec)
            assert np.all(np.diagonal(g) == 1.0)
            assert np.linalg.eigvalsh(g).min() >= -1e-10 * len(pts)

    def test_duplicates_rejected(self):
        with pytest.raises(ArgumentError):
            normalized_gramian([0.3, 0.3 + 1e-13], SZEGO)


class TestRieszBounds:
    def test_identity(self):
        r = riesz_bounds(np.eye(1))
        assert (r.lambda_min, r.lambda_max, r.is_riesz) == (1.0, 1.0, True)

    def test_two_point_eigenvalues(self):
        r = riesz_bounds(normalized_gramian([0, 0.5], SZEGO))
        assert r.lambda_min == pytest.approx(1 - np.sqrt(3) / 2, abs=1e-12)
        assert r.lambda_max == pytest.approx(1 + np.sqrt(3) / 2, abs=1e-12)
        assert r.carleson_constant == r.lambda_max

    def test_wide_pair_eigenvalues(self):
        r = riesz_bounds(normalized_gramian([0, 0.9], SZEGO))
        assert r.lambda_min == pytest.approx(0.5641101056459327, abs=1e-9)
        assert r.lambda_max == pytest.approx(1.4358898943540672, abs=1e-9)

    def test_trace_identity_two_points(self, rng):
        # lambda_min + lambda_max = trace = 2 for every 2x2 normalized Gramian
        for _ in range(20):
            spec = random_kernel_spec(rng)
            pts = random_disk_points(rng, 2, min_separation=0.01)
            r = riesz_bounds(normalized_gramian(pts, spec))
            assert r.lambda_min + r.lambda_max == pytest.approx(2.0, abs=1e-12)

    def test_requires_unit_diagonal(self):
        with pytest.raises(ArgumentError):
            riesz_bounds(np.array([[2.0, 0.0], [0.0, 2.0]]))


class TestWeakSeparation:
    def test_pair(self):
        assert weak_separation([0, 0.5], SZEGO) == pytest.approx(0.5, abs=1e-12)

    def test_three_points(self):
        # pairwise distances {0.5, 0.5, 0.8}
        assert weak_separation([0, 0.5, -0.5], SZEGO) == pytest.approx(0.5, abs=1e-12)

    def test_duplicate_guard(self):
        with pytest.raises(ArgumentError):
            weak_separation([0.3, 0.3 + 1e-13], SZEGO)

    def test_needs_two_points(self):
        with pytest.raises(ArgumentError):
            weak_separation([0.3], SZEGO)


class TestStrongSeparation:
    def test_single_point_empty_product(self):
        assert strong_separation_disk([0.7]) == 1.0

    def test_pair(self):
        assert strong_separation_disk([0, 0.5]) == pytest.approx(0.5, abs=1e-12)

    def test_three_points_brute_force(self):
        pts = [0, 0.5, -0.5]
        prods = [
            np.prod([pseudo_hyperbolic(pts[j], pts[k]) for k in range(3) if k != j])
            for j in range(3)
        ]
        assert min(prods) == pytest.approx(0.25, abs=1e-12)
        assert strong_separation_disk(pts) == pytest.approx(0.25, abs=1e-12)

    def test_monotone_under_refinement(self, rng):
        for _ in range(10):
            pts = random_disk_points(rng, 5, min_separation=0.05)
            for k in range(2, 5):
                assert strong_separation_disk(pts[: k + 1]) <= strong_separation_disk(pts[:k]) + 1e-12
                assert weak_separation(pts[: k + 1], SZEGO) <= weak_separation(pts[:k], SZEGO) + 1e-12


class TestPickGramEquivalence:
    def test_family_psd_from_riesz_bounds(self, rng):
        # with B^2 = lambda_max/lambda_min the matrix B^2 G - D_w G D_w* is PSD
        for _ in range(5):
            spec = random_kernel_spec(rng)
            pts = random_disk_points(rng, 5, min_separation=0.1)
            g = normalized_gramian(pts, spec)
            r = riesz_bounds(g)
            b2 = r.lambda_max / r.lambda_min
            for _ in range(20):
                w = np.exp(2j * np.pi * rng.uniform(size=len(pts)))
                m = b2 * g - np.outer(w, np.conj(w)) * g
                assert np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() >= -1e-9

    def test_converse_violation_below_bound(self):
        # 2x2 closed form: the family needs exactly B^2 >= (1+g)/(1-g); the
        # worst unimodular pair has w1*conj(w2) = -1
        g = normalized_gramian([0, 0.5], SZEGO)
        off = g[0, 1].real
        sharp = (1 + off) / (1 - off)
        w = np.array([1.0, -1.0])
        m = 0.99 * sharp * g - np.outer(w, np.conj(w)) * g
        assert np.linalg.eigvalsh(m).min() < -1e-9


class TestMultiplierDistance:
    def test_empty_set(self):
        assert multiplier_distance(0.5, [], SZEGO) == 1.0

    def test_membership_gives_zero(self):
        assert multiplier_distance(0.5, [0.5], SZEGO) == 0.0

    def test_schwarz_pick_oracle(self):
        assert multiplier_distance(0.5, [0], SZEGO) == pytest.approx(0.5, abs=1e-6)

    def test_blaschke_product_oracle(self, rng):
        for _ in range(10):
            pts = random_disk_points(rng, 4, min_separation=0.1)
            x, s = pts[0], pts[1:]
            expected = np.prod([pseudo_hyperbolic(x, p) for p in s])
            assert multiplier_distance(x, s, SZEGO) == pytest.approx(expected, abs=1e-6)

    def test_monotone_in_set(self, rng):
        pts = random_disk_points(rng, 4, min_separation=0.1)
        x, s = pts[0], pts[1:]
        vals = [multiplier_distance(x, s[:k], SZEGO) for k in range(len(s) + 1)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-9

    def test_alpha_scales_feasibility(self):
        # alpha > 1 loosens the Pick condition, so the distance cannot shrink
        base = multiplier_distance(0.5, [0], SZEGO, alpha=1.0)
        loose = multiplier_distance(0.5, [0], SZEGO, alpha=2.0)
        assert loose >= base - 1e-9


class TestMultiplierDistanceIllConditioned:
    def test_largest_delta_passing_the_pick_test(self):
        # Returned delta passes the Pick test, up to the rounding of the
        # eigenvalues themselves, and delta + 1e-6 fails it.
        n = 20
        pts = random_disk_points(np.random.default_rng(8), n)
        assert np.linalg.cond(normalized_gramian(pts, SZEGO)) > 1e10
        tau = PSD_TOL_PER_POINT * n
        for alpha in (1.0, 0.7):
            for i, x in enumerate(pts):
                delta = multiplier_distance(x, pts[:i] + pts[i + 1:], SZEGO, alpha=alpha)
                k = kernel_matrix(SZEGO, [x, *pts[:i], *pts[i + 1:]])

                def margin(d):
                    m = alpha ** 2 * k
                    m[0, 0] -= d * d * k[0, 0]
                    w = np.linalg.eigvalsh(m)
                    return w[0], n * np.finfo(float).eps * np.max(np.abs(w))

                low, rounding = margin(delta)
                assert low >= -tau - rounding
                if delta < 1.0:
                    assert margin(delta + 1e-6)[0] < -tau
