import numpy as np
import pytest

from interp_lab import (
    SZEGO,
    DomainError,
    ArgumentError,
    NumericError,
    KernelSpec,
    MobiusMap,
    ProductKernelSpec,
    eval_kernel,
    gamma_kernel,
    inv_kernel_form,
    kernel_matrix,
    product_kernel,
    pseudo_hyperbolic,
    rho_semimetric,
)
from interp_lab.kernels import as_disk_point
from conftest import random_disk_point, random_kernel_spec


class TestEvalKernel:
    def test_szego_at_origin(self):
        assert eval_kernel(SZEGO, 0, 0) == 1

    def test_szego_half(self):
        assert eval_kernel(SZEGO, 0.5, 0.5) == pytest.approx(4 / 3, rel=1e-12)

    def test_two_coefficients(self):
        spec = KernelSpec((0.5, 0.5))
        assert eval_kernel(spec, 0.5, 0.5) == pytest.approx(1 / 0.84375, rel=1e-12)

    def test_rejects_boundary_point(self):
        with pytest.raises(DomainError):
            eval_kernel(SZEGO, 1.0, 0.0)
        with pytest.raises(DomainError):
            eval_kernel(SZEGO, 0.0, 1 - 1e-12)

    def test_rejects_nan_point(self):
        with pytest.raises(DomainError):
            as_disk_point(complex("nan"))


class TestInvKernelForm:
    def test_szego_cross(self):
        assert inv_kernel_form(SZEGO, 0.3, 0.4) == pytest.approx(0.88, rel=1e-12)

    def test_zero_annihilates(self):
        assert inv_kernel_form(KernelSpec((0.5, 0.5)), 0, 0.7) == 1

    def test_two_coefficients(self):
        assert inv_kernel_form(KernelSpec((0.5, 0.5)), 0.5, 0.5) == pytest.approx(0.84375, rel=1e-12)

    def test_diagonal_in_unit_interval(self, rng):
        for _ in range(100):
            spec = random_kernel_spec(rng)
            z = random_disk_point(rng)
            v = inv_kernel_form(spec, z, z)
            assert abs(v.imag) < 1e-15
            assert 0.0 < v.real <= 1.0

    def test_reciprocal_identity(self, rng):
        for _ in range(200):
            spec = random_kernel_spec(rng)
            z, w = random_disk_point(rng), random_disk_point(rng)
            prod = eval_kernel(spec, z, w) * inv_kernel_form(spec, z, w)
            assert abs(prod - 1.0) < 1e-12


class TestKernelSpecValidation:
    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            KernelSpec((0.5, -0.1))

    def test_rejects_sum_above_one(self):
        with pytest.raises(DomainError):
            KernelSpec((0.7, 0.7))

    def test_rejects_all_zero(self):
        with pytest.raises(DomainError):
            KernelSpec((0.0, 0.0))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            KernelSpec(())


class TestProductKernel:
    def test_bidisc_szego(self):
        spec = ProductKernelSpec((SZEGO, SZEGO))
        assert product_kernel(spec, (0.5, 0.5), (0.5, 0.5)) == pytest.approx(16 / 9, rel=1e-12)

    def test_at_origin(self):
        spec = ProductKernelSpec((SZEGO, SZEGO))
        assert product_kernel(spec, (0, 0), (0, 0)) == 1

    def test_trivial_factors(self):
        spec = ProductKernelSpec((SZEGO, SZEGO, SZEGO))
        assert product_kernel(spec, (0.5, 0, 0), (0.5, 0, 0)) == pytest.approx(4 / 3, rel=1e-12)

    def test_dimension_mismatch(self):
        spec = ProductKernelSpec((SZEGO, SZEGO))
        with pytest.raises(ArgumentError):
            product_kernel(spec, (0.5,), (0.5, 0.5))


class TestRhoSemimetric:
    def test_identical_points(self):
        assert rho_semimetric(SZEGO, 0.5, 0.5) == 0.0

    def test_origin_to_half(self):
        assert rho_semimetric(SZEGO, 0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_half_to_minus_half(self):
        # oracle: 1 - |K(x,y)|^2/(K(x,x)K(y,y)) with K the Szego kernel
        k = lambda z, w: 1 / (1 - z * np.conj(w))
        expected = np.sqrt(1 - abs(k(0.5, -0.5)) ** 2 / (k(0.5, 0.5) * k(-0.5, -0.5)).real)
        assert expected == pytest.approx(0.8, abs=1e-12)
        assert rho_semimetric(SZEGO, 0.5, -0.5) == pytest.approx(0.8, abs=1e-12)

    def test_matches_pseudo_hyperbolic_for_szego(self, rng):
        for _ in range(300):
            z, w = random_disk_point(rng), random_disk_point(rng)
            assert abs(rho_semimetric(SZEGO, z, w) - pseudo_hyperbolic(z, w)) < 1e-12

    def test_range_symmetry_diagonal(self, rng):
        for _ in range(100):
            spec = random_kernel_spec(rng)
            z, w = random_disk_point(rng), random_disk_point(rng)
            r = rho_semimetric(spec, z, w)
            assert 0.0 <= r <= 1.0
            assert abs(r - rho_semimetric(spec, w, z)) < 1e-14
            assert rho_semimetric(spec, z, z) == 0.0

    def test_broken_kernel_raises(self):
        with pytest.raises(NumericError):
            rho_semimetric(lambda z, w: -1.0, 0.1, 0.2)


class TestHermitianSymmetry:
    def test_random_pairs(self, rng):
        for _ in range(200):
            spec = random_kernel_spec(rng)
            z, w = random_disk_point(rng), random_disk_point(rng)
            assert abs(eval_kernel(spec, z, w) - np.conj(eval_kernel(spec, w, z))) < 1e-13


class TestKernelMatrixPsd:
    def test_random_point_sets(self, rng):
        for _ in range(20):
            spec = random_kernel_spec(rng)
            pts = [random_disk_point(rng) for _ in range(8)]
            k = kernel_matrix(spec, pts)
            assert np.linalg.eigvalsh(k).min() >= -1e-10 * len(pts)


class TestKernelMatrixMatchesScalar:
    @pytest.mark.parametrize("kind", ["disk", "bidisc", "tridisc", "gamma"])
    def test_entrywise_and_hermitian(self, rng, kind):
        n = 9
        if kind == "disk":
            kernel = random_kernel_spec(rng)
        elif kind == "gamma":
            kernel = gamma_kernel([MobiusMap(2 * np.pi / 3, 0)], 30)
        else:
            d = 2 if kind == "bidisc" else 3
            kernel = ProductKernelSpec(tuple(random_kernel_spec(rng) for _ in range(d)))
        if isinstance(kernel, ProductKernelSpec):
            pts = [tuple(random_disk_point(rng) for _ in range(kernel.dimension)) for _ in range(n)]
        else:
            pts = [random_disk_point(rng) for _ in range(n)]
        k = kernel_matrix(kernel, pts)
        ref = np.array([[complex(kernel(p, q)) for q in pts] for p in pts])
        assert np.all(np.abs(k - ref) <= 1e-13 * np.abs(ref))
        assert np.array_equal(k, k.conj().T)

    def test_plain_callable_rejected(self):
        with pytest.raises(ArgumentError):
            kernel_matrix(lambda z, w: 1.0, [0.1, 0.2])
