import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interp_lab import SZEGO, KernelSpec, _linalg, normalized_gramian
from interp_lab._linalg import certified_top_eigenvalue
from conftest import random_disk_points

KERNELS = (SZEGO, KernelSpec((0.6, 0.3)))


def top_eigenvalue(a):
    return np.linalg.eigvalsh(a)[-1]


def count_calls(monkeypatch, owner, name):
    """Replaces ``owner.name`` by a wrapper that records the size of each matrix it is given."""
    sizes, original = [], getattr(owner, name)

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return sizes


@pytest.fixture
def counted_lanczos_steps(monkeypatch):
    """Counts tridiagonal eigensolves: one per Lanczos step."""
    return count_calls(monkeypatch, np.linalg, "eigh")


@pytest.fixture
def choleskys(monkeypatch):
    """Counts the Cholesky checks, accepted or not."""
    return count_calls(monkeypatch, np.linalg, "cholesky")


@pytest.fixture
def full_eigensolves(monkeypatch):
    """Counts the fallback's full eigensolves."""
    return count_calls(monkeypatch, _linalg, "eigvalsh_hermitian")


def planted(lam, rng):
    """Hermitian, with eigenvalues ``lam`` in a unitary basis drawn from ``rng`` (seed or Generator)."""
    rng = np.random.default_rng(rng)
    n = len(lam)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = (q * lam) @ q.conj().T
    return 0.5 * (a + a.conj().T)


class TestCertifiedTopEigenvalue:
    @pytest.mark.parametrize("kernel", KERNELS, ids=["szego", "two-coeff"])
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 400])
    @pytest.mark.parametrize("separation", [0.0, 0.1], ids=["dense", "separated"])
    def test_matches_full_eigensolve(self, kernel, n, separation, choleskys, full_eigensolves):
        rng = np.random.default_rng(9100 + n)
        g = normalized_gramian(random_disk_points(rng, n, 0.9, separation), kernel)
        expected = top_eigenvalue(g)
        value = certified_top_eigenvalue(g)
        assert abs(value - expected) <= 1e-12 * expected
        assert certified_top_eigenvalue(g) == value
        # The Kato-Temple bound accepted the Ritz value both times.
        assert choleskys == [] and full_eigensolves == []

    def test_start_vector_on_the_bottom_eigenvector(self, choleskys, full_eigensolves):
        # 1/sqrt(2) (1, 1) is the eigenvector of 0.5, so Lanczos stops at once with the
        # Ritz value rho = 0.5.  The Frobenius norm leaves room for another eigenvalue up to
        # b = sqrt(2.5 - 0.5^2) = 1.5 > rho, so the gap test rejects it; so does the Cholesky.
        a = np.array([[1.0, -0.5], [-0.5, 1.0]])
        np.testing.assert_allclose(a @ np.ones(2), 0.5 * np.ones(2))
        assert np.sqrt(np.linalg.norm(a) ** 2 - 0.5 ** 2) == pytest.approx(1.5, rel=1e-15)
        assert certified_top_eigenvalue(a) == pytest.approx(1.5, rel=1e-12)
        assert choleskys == [2] and full_eigensolves == [2]

    def test_heavy_spectrum_is_left_to_the_cholesky(self, choleskys, full_eigensolves):
        # lambda_max = 2 is well apart, but the other 49 eigenvalues carry ||A||_F^2 ~ 20, so
        # b > rho and the gap test rejects; the Cholesky proves the converged Ritz value.
        rng = np.random.default_rng(8)
        a = planted(np.concatenate([[2.0], rng.uniform(0.0, 1.0, 49)]), rng)
        assert np.linalg.norm(a) > 2.0 * np.sqrt(2.0)
        value = certified_top_eigenvalue(a)
        assert abs(value - 2.0) <= 1e-12 * 2.0
        assert choleskys == [50] and full_eigensolves == []

    def test_near_degenerate_top_pair_at_the_step_cap(self, counted_lanczos_steps, choleskys,
                                                       full_eigensolves):
        # After 64 steps the Ritz value is about 2.6e-10 below lambda_max: the gap test
        # (the pair alone makes b >= rho) and the Cholesky both reject it.
        rng = np.random.default_rng(5)
        n = 200
        a = planted(np.concatenate([[2.0, 2.0 - 2e-9], rng.uniform(0.0, 1.99, n - 2)]), rng)
        value = certified_top_eigenvalue(a)
        assert len(counted_lanczos_steps) == 64
        assert choleskys == [n] and full_eigensolves == [n]
        assert abs(value - top_eigenvalue(a)) <= 1e-12 * top_eigenvalue(a)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 60), st.floats(0.05, 0.999), st.floats(0.5, 20.0), st.integers(0, 2 ** 32 - 1))
def test_planted_spectrum_matches_full_eigensolve(n, ratio, top, seed):
    # lambda_max = top and the rest uniform in [0, ratio * top]: whichever check decides,
    # the value agrees with the full eigensolve.
    rng = np.random.default_rng(seed)
    a = planted(np.concatenate([[top], top * ratio * rng.uniform(size=n - 1)]), rng)
    expected = top_eigenvalue(a)
    assert abs(certified_top_eigenvalue(a) - expected) <= 1e-12 * expected
