import numpy as np
import pytest

from interp_lab import SZEGO, KernelSpec, _linalg, normalized_gramian
from interp_lab._linalg import certified_top_eigenvalue
from conftest import random_disk_points

KERNELS = (SZEGO, KernelSpec((0.6, 0.3)))


def top_eigenvalue(a):
    return np.linalg.eigvalsh(a)[-1]


@pytest.fixture
def counted_lanczos_steps(monkeypatch):
    """Counts tridiagonal eigensolves: one per Lanczos step."""
    steps = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        steps.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return steps


@pytest.fixture
def full_eigensolves(monkeypatch):
    """Counts the fallback's full eigensolves."""
    calls = []
    full = _linalg.eigvalsh_hermitian

    def counted(a):
        calls.append(len(a))
        return full(a)

    monkeypatch.setattr(_linalg, "eigvalsh_hermitian", counted)
    return calls


class TestCertifiedTopEigenvalue:
    @pytest.mark.parametrize("kernel", KERNELS, ids=["szego", "two-coeff"])
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 400])
    @pytest.mark.parametrize("separation", [0.0, 0.1], ids=["dense", "separated"])
    def test_matches_full_eigensolve(self, kernel, n, separation, full_eigensolves):
        rng = np.random.default_rng(9100 + n)
        g = normalized_gramian(random_disk_points(rng, n, 0.9, separation), kernel)
        expected = top_eigenvalue(g)
        value = certified_top_eigenvalue(g)
        assert abs(value - expected) <= 1e-12 * expected
        assert certified_top_eigenvalue(g) == value
        # The Cholesky check accepted the Ritz value both times.
        assert full_eigensolves == []

    def test_start_vector_on_the_bottom_eigenvector(self, full_eigensolves):
        # 1/sqrt(2) (1, 1) is the eigenvector of 0.5, so Lanczos stops at once
        # with the Ritz value 0.5; the Cholesky check must reject it.
        a = np.array([[1.0, -0.5], [-0.5, 1.0]])
        np.testing.assert_allclose(a @ np.ones(2), 0.5 * np.ones(2))
        assert certified_top_eigenvalue(a) == pytest.approx(1.5, rel=1e-12)
        assert full_eigensolves == [2]

    def test_near_degenerate_top_pair_at_the_step_cap(self, counted_lanczos_steps):
        rng = np.random.default_rng(5)
        n = 200
        lam = np.concatenate([[2.0, 2.0 - 2e-9], rng.uniform(0.0, 1.99, n - 2)])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a = (q * lam) @ q.conj().T
        a = 0.5 * (a + a.conj().T)
        value = certified_top_eigenvalue(a)
        assert len(counted_lanczos_steps) == 64
        assert abs(value - top_eigenvalue(a)) <= 1e-12 * top_eigenvalue(a)
