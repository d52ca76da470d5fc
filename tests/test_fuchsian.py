import cmath
import re
import tracemalloc

import numpy as np
import pytest

from interp_lab import (
    SZEGO,
    ArgumentError,
    BudgetError,
    DomainError,
    MobiusMap,
    analyze_gamma_sequence,
    composition_matrix,
    enumerate_group,
    gamma_kernel,
    invariance_residual,
    normalized_gramian,
    orbit_set,
    riesz_bounds,
    weak_separation,
)
from interp_lab.fuchsian import (
    ACTION_TEST_POINTS,
    ACTION_TOL,
    IDENTITY,
    generator_warnings,
    interior_fixed_point,
)
from interp_lab.gramian import DUPLICATE_TOL, check_distinct, log_separations, pseudo_hyperbolic_matrix
from conftest import compose, random_disk_point

HYPERBOLIC = MobiusMap(0.0, 0.5)


def random_mobius(rng):
    return MobiusMap(rng.uniform(0, 2 * np.pi), random_disk_point(rng, 0.8))


class TestMobiusMap:
    def test_identity(self):
        assert IDENTITY(0.3) == 0.3

    def test_sends_parameter_to_zero(self):
        assert HYPERBOLIC(0.5) == 0

    def test_sends_zero_to_minus_parameter(self):
        assert HYPERBOLIC(0) == -0.5

    def test_stays_in_disk(self, rng):
        for _ in range(100):
            m = random_mobius(rng)
            z = random_disk_point(rng, 0.99)
            assert abs(m(z)) < 1.0

    def test_inverse_cancels(self, rng):
        for _ in range(50):
            m = random_mobius(rng)
            z = random_disk_point(rng)
            assert abs(m.inverse()(m(z)) - z) < 1e-12

    def test_group_law(self, rng):
        for _ in range(50):
            g, h = random_mobius(rng), random_mobius(rng)
            z = random_disk_point(rng)
            assert abs(compose(g, h)(z) - g(h(z))) < 1e-12


class TestEnumerateGroup:
    def test_no_generators(self):
        grp = enumerate_group([], 3)
        assert grp.size == 1

    def test_cyclic_length_two(self):
        grp = enumerate_group([HYPERBOLIC], 2)
        assert grp.size == 5

    def test_two_free_generators_length_one(self):
        grp = enumerate_group([HYPERBOLIC, MobiusMap(0.0, 0.5j)], 1)
        assert grp.size == 5

    def test_involution_collapses(self):
        # z -> -z composed with itself is the identity
        grp = enumerate_group([MobiusMap(np.pi, 0)], 4)
        assert grp.size == 2

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            enumerate_group([HYPERBOLIC, MobiusMap(0.1, 0.4j)], 6, max_elements=20)

    # Reduced words in two free generators: 1 + sum over l = 1..L of 4·3^(l−1) elements.
    FREE_PAIR = [MobiusMap(0, 0.95), MobiusMap(0, 0.95j)]

    def test_free_group_size_at_length_seven(self):
        assert enumerate_group(self.FREE_PAIR, 7, max_elements=20000).size == 4373

    def test_free_group_size_at_length_eight(self):
        assert enumerate_group(self.FREE_PAIR, 8, max_elements=20000).size == 13121

    @pytest.mark.parametrize("gens, filtered", [
        pytest.param(FREE_PAIR, False, id="schottky"),
        pytest.param([MobiusMap(0, 0.3), MobiusMap(0, 0.3j)], True, id="overlapping-circles"),
    ])
    def test_near_duplicate_filter_runs_only_without_a_ping_pong_proof(self, gens, filtered, monkeypatch):
        from interp_lab import fuchsian

        def refuse(*args):
            raise AssertionError("near-duplicate filter called")

        monkeypatch.setattr(fuchsian, "_file_new", refuse)
        if filtered:
            with pytest.raises(AssertionError, match="near-duplicate filter called"):
                enumerate_group(gens, 3)
        else:
            group = enumerate_group(gens, 3)
            assert group.size == 53
            assert len(orbit_set([0.1, 0.2j], group)[0]) == 2 * 53

    @pytest.mark.parametrize("gens", [
        pytest.param(FREE_PAIR, id="schottky"),
        pytest.param([MobiusMap(0, 0.3), MobiusMap(0, 0.3j)], id="overlapping-circles"),
    ])
    def test_maps_are_built_only_for_the_inverse_generators(self, gens, monkeypatch):
        built, post_init = [], MobiusMap.__post_init__
        monkeypatch.setattr(MobiusMap, "__post_init__", lambda m: built.append(m) or post_init(m))
        group = enumerate_group(gens, 4)
        assert len(built) <= len(gens)
        built.clear()
        orbit_set([0.1 + 0.2j, -0.3 + 0.1j], group)
        assert built == []


class TestOrbitSet:
    def test_cyclic_orbit_of_zero(self):
        grp = enumerate_group([HYPERBOLIC], 2)
        orbit, _ = orbit_set([0], grp)
        pts = sorted(round(z.real, 10) for z in orbit)
        assert pts == [-0.8, -0.5, 0.0, 0.5, 0.8]
        assert all(abs(z.imag) < 1e-15 for z in orbit)

    def test_same_orbit_collision(self):
        grp = enumerate_group([HYPERBOLIC], 2)
        with pytest.raises(ArgumentError):
            orbit_set([0, -0.5], grp)

    def test_trivial_group(self):
        orbit, _ = orbit_set([0], enumerate_group([], 0))
        assert len(orbit) == 1 and orbit[0] == 0


    def test_stabilized_point_keeps_one_image(self):
        rotation = enumerate_group([MobiusMap(2 * np.pi / 3, 0)], 2)
        assert rotation.size == 3
        orbit, index = orbit_set([0, 0.5], rotation)
        assert (index // rotation.size).tolist() == [0, 1, 1, 1]
        assert (index % rotation.size).tolist() == [0, 0, 1, 2]
        assert orbit[0] == 0

    def test_chain_of_near_images_stays_covered(self):
        # The images of 0 step 1e-12 apart, so an image near a dropped one
        # but not near any kept one must be kept.
        group = enumerate_group([MobiusMap(3.5, 0), MobiusMap(1.0, 1e-12)], 2)
        kept, _ = orbit_set([0.5, 0], group)
        for z in (0.5, 0):
            for g in map(MobiusMap, group.theta.tolist(), group.a.tolist()):
                assert np.min(np.abs(kept - g(z))) <= DUPLICATE_TOL

    def test_memory_grows_with_the_images_not_their_pairs(self):
        # 3 points under the 4373 reduced words of length <= 7: N = 13119 images,
        # whose pairwise distance matrix alone would take N^2 * 16 B = 2.75 GB.
        group = enumerate_group([MobiusMap(0.0, 0.8), MobiusMap(0.0, 0.8j)], 7)
        tracemalloc.start()
        try:
            kept, index = orbit_set([0.1 + 0.2j, -0.3 + 0.1j, 0.25 - 0.35j], group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kept) == 3 * group.size == 13119
        assert np.array_equal(index // group.size, np.repeat([0, 1, 2], group.size))
        assert np.array_equal(index % group.size, np.tile(np.arange(group.size), 3))
        assert peak < 50e6

    def test_proved_free_orbit_keeps_every_image(self):
        # The near-duplicate filter would merge 228 of these images, which
        # crowd toward the circle though the group is free.
        group = enumerate_group(TestEnumerateGroup.FREE_PAIR, 8, max_elements=20000)
        kept, index = orbit_set([0.3, -0.2j], group)
        assert len(kept) == 2 * group.size == 26242
        assert np.array_equal(index // group.size, np.repeat([0, 1], group.size))
        assert np.array_equal(index % group.size, np.tile(np.arange(group.size), 2))

    def test_stabilized_point_drop_is_reported_once(self):
        rep = analyze_gamma_sequence([0, 0.5], [MobiusMap(2 * np.pi / 3, 0)], 12, 2)
        assert rep.orbit_point_count == 4
        assert sum("dropped" in w for w in rep.warnings) == 1


def sequential_composition_matrix(m, degree):
    """composition_matrix by one truncated convolution with the series of m per column."""
    e, n1 = cmath.exp(1j * m.theta), degree + 1
    series = np.zeros(n1, dtype=complex)
    series[0] = -e * m.a
    series[1:] = e * (1.0 - abs(m.a) ** 2) * m.a.conjugate() ** np.arange(degree)
    out = np.zeros((n1, n1), dtype=complex)
    out[0, 0] = 1.0
    for j in range(1, n1):
        out[:, j] = np.convolve(out[:, j - 1], series)[:n1]
    return out


class TestCompositionMatrix:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 7, 8, 60, 61, 64])
    @pytest.mark.parametrize("radius", [0.0, 0.5, 0.95])
    def test_doubling_matches_sequential_convolution(self, degree, radius):
        for theta, phase in [(0.3, 0.0), (2.1, 0.7), (-1.2, 2.5)]:
            m = MobiusMap(theta, radius * np.exp(1j * phase))
            found = composition_matrix(m, degree)
            assert np.max(np.abs(found - sequential_composition_matrix(m, degree)), initial=0.0) <= 1e-14
            if radius == 0.0:  # a rotation: exactly diagonal
                assert np.count_nonzero(found - np.diag(np.diag(found))) == 0

    def test_identity_matrix(self):
        assert np.allclose(composition_matrix(IDENTITY, 6), np.eye(7))

    def test_rotation_is_diagonal(self):
        theta = 0.7
        m = composition_matrix(MobiusMap(theta, 0), 5)
        assert np.allclose(m, np.diag(np.exp(1j * theta * np.arange(6))))

    def test_first_column_series(self):
        m = composition_matrix(HYPERBOLIC, 3)
        assert np.allclose(m[:, 1], [-0.5, 0.75, 0.375, 0.1875], atol=1e-14)
        assert np.allclose(m[:, 0], [1, 0, 0, 0])

    def test_composition_consistency_for_rotations(self):
        # rotations compose exactly on the truncated space
        a, b = MobiusMap(0.4, 0), MobiusMap(1.1, 0)
        lhs = composition_matrix(compose(a, b), 8)
        rhs = composition_matrix(b, 8) @ composition_matrix(a, 8)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestGammaKernel:
    def test_trivial_group_is_truncated_szego(self):
        k = gamma_kernel([], 50)
        assert k(0, 0) == 1
        assert abs(k(0.5, 0.5) - 4 / 3) < 1e-8
        for z, w in [(0.3, 0.2), (0.1j, -0.4), (0.25 + 0.3j, 0.5)]:
            truncated = sum((z * np.conj(w)) ** j for j in range(51))
            assert abs(k(z, w) - truncated) < 1e-10

    def test_constants_always_kept(self):
        k = gamma_kernel([HYPERBOLIC], 20)
        assert k.rank >= 1
        assert k.residuals[0] <= 1e-10

    def test_basis_orthonormal_and_residuals_honest(self):
        k = gamma_kernel([HYPERBOLIC], 25)
        gram = k.basis @ k.basis.conj().T
        assert np.max(np.abs(gram - np.eye(k.rank))) < 1e-10
        stack = composition_matrix(HYPERBOLIC, 25) - np.eye(26)
        for vec, recorded in zip(k.basis, k.residuals):
            assert np.linalg.norm(stack @ vec) == pytest.approx(recorded, abs=1e-10)

    def test_psd_on_point_sets(self, rng):
        k = gamma_kernel([HYPERBOLIC], 30)
        pts = [random_disk_point(rng, 0.7) for _ in range(6)]
        m = np.array([[k(zi, zj) for zj in pts] for zi in pts])
        assert np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() >= -1e-9 * len(pts)

    def test_invariance_residual_small(self):
        k = gamma_kernel([HYPERBOLIC], 40)
        assert invariance_residual(k, [HYPERBOLIC]) < 1e-8


def full_svd_kernel(gens, degree, sv_cutoff=1e-6):
    """(basis, residuals) from the SVD of the whole stack of C_g - I, most invariant first."""
    stack = np.vstack([composition_matrix(g, degree) - np.eye(degree + 1) for g in gens])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    keep = s <= sv_cutoff
    return vh[keep][::-1], s[keep][::-1]


def near_identity_rotation(factor, sv_cutoff=1e-6):
    """Rotation by 2 pi / 7 + eps, whose one non-constant singular value at degree 12,
    |e^{7 i eps} - 1| on z^7, is factor * sv_cutoff; the others exceed 2 sin(pi / 7)."""
    return MobiusMap(2 * np.pi / 7 + 2 * np.arcsin(factor * sv_cutoff / 2) / 7, 0)


def gamma_kernel_cases():
    for name, gens, _ in generator_sets():
        yield pytest.param(gens, 60, id=name)
    for order in range(3, 9):
        yield pytest.param([MobiusMap(2 * np.pi / order, 0)], 60, id=f"rotation-order-{order}")
    yield pytest.param([elliptic(np.random.default_rng(5), 3)], 60, id="elliptic-alone")
    yield pytest.param([near_identity_rotation(0.5)], 12, id="singular-value-at-half-the-cutoff")
    yield pytest.param([near_identity_rotation(2.0)], 12, id="singular-value-at-twice-the-cutoff")


class TestGammaKernelReference:
    @pytest.mark.parametrize("gens, degree", gamma_kernel_cases())
    def test_same_kept_space_as_the_full_svd(self, gens, degree, monkeypatch):
        basis, residuals = full_svd_kernel(gens, degree)
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
        k = gamma_kernel(gens, degree)
        assert k.rank == len(basis)
        assert np.max(np.abs(k.basis.conj().T @ k.basis - basis.conj().T @ basis)) <= 1e-12
        assert np.max(np.abs(k.residuals - residuals)) <= 1e-12
        assert k.residuals[0] == 0.0 and np.array_equal(k.basis[0], np.eye(1, degree + 1)[0])
        # The Cholesky screen settles every case that keeps the constant alone, Schottky groups included.
        assert len(calls) == (k.rank > 1)


class TestEllipticDetection:
    def test_rotation_flagged(self):
        warns = generator_warnings([MobiusMap(1.0, 0)])
        assert len(warns) == 1 and "elliptic" in warns[0]

    def test_hyperbolic_clean(self):
        assert generator_warnings([HYPERBOLIC]) == []
        assert interior_fixed_point(HYPERBOLIC) is None

    def test_identity_flagged(self):
        warns = generator_warnings([IDENTITY])
        assert len(warns) == 1 and "identity" in warns[0]

    @pytest.mark.parametrize("order", [2, 3, 5, 8, 40])
    def test_conjugated_rotation_fixes_its_point(self, rng, order):
        for _ in range(20):
            m = elliptic(rng, order)
            p = interior_fixed_point(m)
            assert abs(p) < 1.0
            assert abs(m(p) - p) <= 1e-12

    def test_schottky_words_are_hyperbolic(self):
        # Every element of a Schottky group other than the identity is hyperbolic.
        group = enumerate_group([MobiusMap(0, 0.8), MobiusMap(0, 0.8j)], 4)
        words = map(MobiusMap, group.theta[1:].tolist(), group.a[1:].tolist())
        assert all(interior_fixed_point(m) is None for m in words)


class TestAnalyzeGammaSequence:
    def test_trivial_group_reduces_to_disk_analysis(self):
        rep = analyze_gamma_sequence([0, 0.5], [], 50, 2)
        disk = riesz_bounds(normalized_gramian([0, 0.5], SZEGO))
        assert rep.gamma_riesz.lambda_min == pytest.approx(disk.lambda_min, abs=1e-8)
        assert rep.gamma_riesz.lambda_max == pytest.approx(disk.lambda_max, abs=1e-8)
        assert rep.gamma_weak_separation == pytest.approx(
            weak_separation([0, 0.5], SZEGO), abs=1e-8
        )
        assert rep.orbit_strong_separation == pytest.approx(
            log_separations(pseudo_hyperbolic_matrix(check_distinct([0, 0.5])))[0].min(), abs=1e-12
        )
        assert rep.orbit_point_count == 2

    def test_single_point_riesz_trivial(self):
        rep = analyze_gamma_sequence([0.2], [HYPERBOLIC], 20, 1)
        assert rep.gamma_riesz.lambda_min == rep.gamma_riesz.lambda_max == 1.0
        assert rep.gamma_weak_separation is None

    def test_cyclic_smoke_all_fields(self):
        rep = analyze_gamma_sequence([0.2, 0.2j], [HYPERBOLIC], 40, 2)
        assert rep.group_size == 5
        assert rep.orbit_point_count == 10
        assert rep.invariance_residual < 1e-4
        assert rep.orbit_weak_separation is not None and rep.orbit_weak_separation > 0
        assert 0 < rep.orbit_strong_separation <= 1
        assert rep.orbit_riesz.lambda_max >= 1.0
        assert np.isfinite(rep.gamma_riesz.lambda_min)

    def test_collision_propagates(self):
        with pytest.raises(ArgumentError):
            analyze_gamma_sequence([0, -0.5], [HYPERBOLIC], 20, 2)

    @pytest.mark.parametrize("analysis", [pytest.param(lambda pts: normalized_gramian(pts, SZEGO),
                                                       id="normalized_gramian"),
                                          lambda pts: analyze_gamma_sequence(pts, [HYPERBOLIC], 20, 1)])
    def test_coinciding_points_named_as_check_distinct_names_them(self, analysis):
        pts = [0.1, 0.5j, -0.3, 0.5j + 1e-13, -0.3]
        with pytest.raises(ArgumentError) as expected:
            check_distinct(pts)
        assert "points 1 and 3 coincide" in str(expected.value)
        with pytest.raises(ArgumentError, match=re.escape(str(expected.value))):
            analysis(pts)

    def test_points_whose_free_orbits_meet_are_named_with_their_words(self):
        # z1 = g^3(z0) lies beyond the length-2 truncation, so only the images g(z0)
        # and g^-2(z1), elements 1 and 12, meet.
        g = MobiusMap(0, 0.8)
        z0 = 0.1 + 0.05j
        with pytest.raises(ArgumentError, match="^points 0 and 1 lie on the same orbit: elements 1 and 12 "
                                                "of the truncated group send them "
                                                "within pseudo-hyperbolic distance 1e-09 of each other$"):
            analyze_gamma_sequence([z0, g(g(g(z0)))], [g, MobiusMap(0, 0.8j)], 20, 2)

    def test_meeting_orbits_are_named_alike_without_a_ping_pong_proof(self):
        # The same configuration with overlapping isometric circles: the orbit filter
        # merges only a point's own images, so the meeting images raise as for a free pair.
        g = MobiusMap(0, 0.3)
        group = enumerate_group([g, MobiusMap(0, 0.3j)], 2)
        assert not group.free and group.size == 17
        z0 = 0.1 + 0.05j
        with pytest.raises(ArgumentError, match="^points 0 and 1 lie on the same orbit: elements 1 and 12 "
                                                "of the truncated group send them "
                                                "within pseudo-hyperbolic distance 1e-09 of each other$"):
            analyze_gamma_sequence([z0, g(g(g(z0)))], [g, MobiusMap(0, 0.3j)], 20, 2)

    @pytest.mark.parametrize("power", [1, 3])
    def test_a_point_near_another_orbit_is_on_it_at_any_word_length(self, power):
        # z1 = g^power(w), w at pseudo-hyperbolic distance 1e-10 from z0.  For power 1, g^-1(z1) = w
        # lies that close to z0 itself.  For power 3 no word of length <= 2 takes z1 near z0, but g(z0)
        # and g^-2(z1) = g(w) are as close, since rho is invariant under the group.
        g, z0 = MobiusMap(0, 0.8), 0.1 + 0.05j
        w = (1e-10 + z0) / (1.0 + z0.conjugate() * 1e-10)
        assert abs((w - z0) / (1.0 - z0.conjugate() * w)) == pytest.approx(1e-10, rel=1e-6)
        z1 = w
        for _ in range(power):
            z1 = g(z1)
        with pytest.raises(ArgumentError, match="^points 0 and 1 lie on the same orbit: elements [0-9]+ and [0-9]+ "
                                                "of the truncated group send them within pseudo-hyperbolic "
                                                "distance 1e-09 of each other$"):
            analyze_gamma_sequence([z0, z1], [g, MobiusMap(0, 0.8j)], 20, 2)

    def test_orbit_of_a_nearly_coinciding_pair_has_lambda_min_from_the_closed_form(self):
        # z1 = g^3(z0) + 5e-11 is off z0's orbit (rho = 7.5e-9), so eigvalsh's lambda_min of the 34-point
        # orbit Gramian is rounding (-1.6e-15); below n eps ||G||_F the closed form takes over.
        g, z0 = MobiusMap(0, 0.8), 0.1 + 0.05j
        pts, gens = [z0, g(g(g(z0))) + 5e-11], [g, MobiusMap(0, 0.8j)]
        rep = analyze_gamma_sequence(pts, gens, 20, 2)
        orbit = orbit_set(pts, enumerate_group(gens, 2))[0]
        ph = pseudo_hyperbolic_matrix(orbit)
        delta = np.prod(ph, axis=1)
        expected = 1.0 / np.linalg.eigvalsh(normalized_gramian(orbit, SZEGO) / np.outer(delta, delta))[-1]
        assert rep.orbit_point_count == 34
        assert 0.0 <= rep.orbit_riesz.lambda_min and abs(rep.orbit_riesz.lambda_min - expected) <= 1e-12 * expected
        assert rep.orbit_weak_separation == np.min(ph) and rep.orbit_strong_separation == np.min(delta)

    def test_anchor_orbit_riesz_bounds_without_an_eigensolve(self, monkeypatch):
        # The 483-point anchor orbit is above the crossover 6 * LANCZOS_STEPS = 384: no eigvalsh
        # on it, and bounds within 4 n eps ||G||_F of eigvalsh's, with the same verdict.
        sizes, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or eigvalsh(a))
        gens, pts = [MobiusMap(0.0, 0.8), MobiusMap(0.0, 0.8j)], [0.1 + 0.2j, -0.3 + 0.1j, 0.25 - 0.35j]
        rep = analyze_gamma_sequence(pts, gens, 60, 4)
        assert rep.orbit_point_count == 483 and max(sizes) == 3
        g = normalized_gramian(orbit_set(pts, enumerate_group(gens, 4))[0], SZEGO)
        w = eigvalsh(g)
        bound = 4 * len(g) * np.finfo(float).eps * np.linalg.norm(g)
        assert abs(rep.orbit_riesz.lambda_min - w[0]) <= bound
        assert abs(rep.orbit_riesz.lambda_max - w[-1]) <= bound
        assert rep.orbit_riesz.is_riesz == (w[0] > rep.orbit_riesz.riesz_tolerance)

    def test_anchor_report_checks_distinct_points_at_most_three_times(self, monkeypatch):
        from interp_lab import fuchsian, gramian

        calls, check = [], gramian.check_distinct

        def spy(points, *args):
            calls.append(len(points))
            return check(points, *args)

        monkeypatch.setattr(gramian, "check_distinct", spy)
        monkeypatch.setattr(fuchsian, "check_distinct", spy)
        gens = [MobiusMap(0.0, 0.8), MobiusMap(0.0, 0.8j)]
        rep = analyze_gamma_sequence([0.1 + 0.2j, -0.3 + 0.1j, 0.25 - 0.35j], gens, 60, 4)
        assert rep.orbit_point_count == 483
        assert len(calls) <= 3


class TestEnumerateGroupCellEdges:
    def test_copies_across_a_cell_edge_are_one_element(self):
        # Two words of one element land 2.8e-17 apart on either side of an
        # edge of the 1e-8 grid; a free group on two generators has
        # 2 * 3**3 - 1 = 53 reduced words of length <= 3.
        gens = [MobiusMap(0, 0.063696175), MobiusMap(0, 0.6j)]
        assert enumerate_group(gens, 3).size == 53
        assert enumerate_group([MobiusMap(0, 0.063696175 + 2.5e-9), gens[1]], 3).size == 53

    def test_generators_at_cell_midpoints(self):
        sizes = {enumerate_group([MobiusMap(0, (k + 0.5) * 1e-8), MobiusMap(0, 0.6j)], 3).size
                 for k in range(0, 3000, 30)}
        assert sizes == {53}


def reference_group(gens, length):
    """Breadth-first words of ``gens`` up to ``length``, each kept unless some kept
    element's scalar action on ACTION_TEST_POINTS agrees with its own within
    ACTION_TOL at every point: the pairwise rule, O(N^2), with no grid."""
    steps = list(gens) + [g.inverse() for g in gens]
    kept, frontier = [IDENTITY], [IDENTITY]
    actions = [[IDENTITY(t) for t in ACTION_TEST_POINTS]]
    for _ in range(length):
        new = []
        for word in frontier:
            for step in steps:
                cand = compose(step, word)
                action = [cand(t) for t in ACTION_TEST_POINTS]
                if all(max(abs(a - b) for a, b in zip(action, other)) > ACTION_TOL for other in actions):
                    kept.append(cand)
                    actions.append(action)
                    new.append(cand)
        frontier = new
    return kept


def elliptic(rng, order):
    """A rotation by 2*pi/order conjugated by a random automorphism: elliptic, of that order."""
    phi = random_mobius(rng)
    return compose(phi.inverse(), compose(MobiusMap(2 * np.pi / order, 0), phi))


def generator_sets():
    rng = np.random.default_rng(1207)
    for i in range(3):  # Schottky pairs as in the benchmark: |a| in [0.8, 0.9], a quarter turn apart
        r1, r2 = rng.uniform(0.8, 0.9, size=2)
        phi = rng.uniform(0, 2 * np.pi)
        yield f"schottky-{i}", [MobiusMap(0, r1 * np.exp(1j * phi)), MobiusMap(0, 1j * r2 * np.exp(1j * phi))], 4
    for order in (3, 5):
        yield f"elliptic-{order}", [elliptic(rng, order), random_mobius(rng)], 3
    yield "elliptic-pair", [elliptic(rng, 4), elliptic(rng, 6)], 4
    for order in (3, 7, 8):
        yield f"rotation-{order}", [MobiusMap(2 * np.pi / order, 0)], order
    for p, q in ((4, 6), (5, 3), (9, 12)):
        yield f"two-rotations-{p}-{q}", [MobiusMap(2 * np.pi / p, 0), MobiusMap(2 * np.pi / q, 0)], 12
    yield "cell-edge", [MobiusMap(0, 0.063696175), MobiusMap(0, 0.6j)], 3
    yield "overlapping-circles", [MobiusMap(0, 0.3), MobiusMap(0, 0.3j)], 3


class TestEnumerateGroupReference:
    @pytest.mark.parametrize("gens, length", [pytest.param(gens, length, id=name)
                                              for name, gens, length in generator_sets()])
    def test_same_elements_in_the_same_order_as_the_pairwise_rule(self, gens, length):
        expected = reference_group(gens, length)
        found = enumerate_group(gens, length)
        assert list(zip(found.theta.tolist(), found.a.tolist())) == [(g.theta, g.a) for g in expected]


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: MobiusMap(0.0, 1.0), DomainError,
                 "automorphism parameter must satisfy |a| < 1, got |a| = 1", id="parameter-on-circle"),
    pytest.param(lambda: MobiusMap(0.0, np.nan), DomainError,
                 "automorphism parameter must satisfy |a| < 1, got |a| = nan", id="parameter-nan"),
    pytest.param(lambda: MobiusMap(np.nan, 0.5), DomainError,
                 "automorphism angle must be finite, got nan", id="angle-nan"),
    pytest.param(lambda: MobiusMap(np.inf, 0.5), DomainError,
                 "automorphism angle must be finite, got inf", id="angle-inf"),
    pytest.param(lambda: IDENTITY(1.0), DomainError,
                 "automorphisms act on the open disk, got |z| = 1", id="point-on-circle"),
    pytest.param(lambda: enumerate_group([MobiusMap(0, 1 - 1e-13)], 2), DomainError,
                 "automorphism parameter must satisfy |a| < 1, got |a| = 1", id="word-on-circle"),
    pytest.param(lambda: enumerate_group([0.5], 1), ArgumentError,
                 "generators must be MobiusMap, got float", id="generator-type"),
    pytest.param(lambda: gamma_kernel([HYPERBOLIC, 0.5], 4), ArgumentError,
                 "generators must be MobiusMap, got float", id="generator-type-gamma-kernel"),
    pytest.param(lambda: composition_matrix(0.5, 3), ArgumentError,
                 "m must be MobiusMap, got float", id="generator-type-composition-matrix"),
    pytest.param(lambda: invariance_residual(gamma_kernel([], 3), [0.5]), ArgumentError,
                 "maps must be MobiusMap, got float", id="generator-type-invariance-residual"),
    pytest.param(lambda: interior_fixed_point(0.5), ArgumentError,
                 "m must be MobiusMap, got float", id="map-type-fixed-point"),
    pytest.param(lambda: generator_warnings([0.5]), ArgumentError,
                 "generators must be MobiusMap, got float", id="generator-type-warnings"),
    pytest.param(lambda: analyze_gamma_sequence([0.1], [0.5], 4, 1), ArgumentError,
                 "generators must be MobiusMap, got float", id="generator-type-analysis"),
    pytest.param(lambda: enumerate_group([HYPERBOLIC], -1), ArgumentError,
                 "max_word_length must be nonnegative, got -1", id="negative-length"),
    pytest.param(lambda: enumerate_group([HYPERBOLIC], 1, max_elements=0), ArgumentError,
                 "max_elements must be at least 1", id="zero-cap"),
    pytest.param(lambda: enumerate_group([HYPERBOLIC], 2, max_elements=np.nan), ArgumentError,
                 "max_elements must be an integer, got nan", id="nan-cap"),
    pytest.param(lambda: enumerate_group([HYPERBOLIC], 2, max_elements=2.5), ArgumentError,
                 "max_elements must be an integer, got 2.5", id="fractional-cap"),
    pytest.param(lambda: enumerate_group([HYPERBOLIC], 2.5), ArgumentError,
                 "max_word_length must be an integer, got 2.5", id="fractional-length"),
    pytest.param(lambda: enumerate_group([HYPERBOLIC], True), ArgumentError,
                 "max_word_length must be an integer, got True", id="bool-length"),
    pytest.param(lambda: enumerate_group([HYPERBOLIC], 2, max_elements=True), ArgumentError,
                 "max_elements must be an integer, got True", id="bool-cap"),
    pytest.param(lambda: gamma_kernel([HYPERBOLIC], True), ArgumentError,
                 "degree must be an integer, got True", id="bool-kernel-degree"),
    pytest.param(lambda: composition_matrix(HYPERBOLIC, False), ArgumentError,
                 "degree must be an integer, got False", id="bool-series-degree"),
    pytest.param(lambda: gamma_kernel([HYPERBOLIC], 2.5), ArgumentError,
                 "degree must be an integer, got 2.5", id="fractional-kernel-degree"),
    pytest.param(lambda: composition_matrix(HYPERBOLIC, 2.5), ArgumentError,
                 "degree must be an integer, got 2.5", id="fractional-series-degree"),
    pytest.param(lambda: HYPERBOLIC(np.nan), DomainError,
                 "automorphisms act on the open disk, got |z| = nan", id="point-nan"),
    pytest.param(lambda: composition_matrix(HYPERBOLIC, -1), ArgumentError,
                 "degree must be nonnegative", id="negative-series-degree"),
    pytest.param(lambda: gamma_kernel([HYPERBOLIC], 0), ArgumentError,
                 "degree must be at least 1, got 0", id="kernel-degree"),
    pytest.param(lambda: gamma_kernel([HYPERBOLIC], 4, sv_cutoff=0.0), ArgumentError,
                 "sv_cutoff must be finite and > 0, got 0.0", id="sv-cutoff"),
    pytest.param(lambda: gamma_kernel([HYPERBOLIC], 10, sv_cutoff=np.nan), ArgumentError,
                 "sv_cutoff must be finite and > 0, got nan", id="sv-cutoff-nan"),
    pytest.param(lambda: gamma_kernel([HYPERBOLIC], 10, sv_cutoff=np.inf), ArgumentError,
                 "sv_cutoff must be finite and > 0, got inf", id="sv-cutoff-inf"),
])
def test_rejects_invalid_arguments(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
