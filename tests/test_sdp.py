import re
import warnings

import numpy as np
import pytest

from interp_lab import (
    SZEGO,
    AffineConstraint,
    ArgumentError,
    check_certificate,
    dykstra_solve,
    inv_kernel_form,
    project_affine,
    project_psd,
)
from interp_lab._linalg import hermitian_part
from conftest import assert_checked_farkas


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return hermitian_part(a)


def random_psd(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T


def two_point_constraint(m):
    """d=1 Szego constraint at {0, 0.5} with target m*I - J."""
    pts = [0.0, 0.5]
    r = np.array([[[inv_kernel_form(SZEGO, zi, zj) for zj in pts] for zi in pts]])
    target = m * np.eye(2) - np.ones((2, 2))
    return AffineConstraint(r, target)


class TestProjectPsd:
    def test_clips_negative_eigenvalue(self):
        out = project_psd(np.diag([1.0, -1.0]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    def test_psd_fixed_point(self, rng):
        for _ in range(10):
            a = random_psd(rng, 4)
            assert np.linalg.norm(project_psd(a) - a) < 1e-12 * (1 + np.linalg.norm(a))

    def test_antidiagonal_case(self):
        out = project_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)

    def test_idempotent(self, rng):
        a = random_hermitian(rng, 5)
        once = project_psd(a)
        assert np.linalg.norm(project_psd(once) - once) < 1e-12

    def test_contractive_toward_psd_set(self, rng):
        # projecting never moves a matrix farther from any PSD matrix
        for _ in range(10):
            a = random_hermitian(rng, 4)
            q = random_psd(rng, 4)
            assert np.linalg.norm(project_psd(a) - q) <= np.linalg.norm(a - q) + 1e-12


class TestProjectAffine:
    def test_scalar_case(self):
        c = AffineConstraint(np.ones((1, 1, 1)), np.array([[2.0]]))
        out = project_affine(np.zeros((1, 1, 1)), c)
        assert np.allclose(out, [[[2.0]]])

    def test_least_norm_split(self):
        c = AffineConstraint(np.ones((2, 1, 1)), np.array([[1.0]]))
        out = project_affine(np.zeros((2, 1, 1)), c)
        assert np.allclose(out, [[[0.5]], [[0.5]]])

    def test_feasible_input_unchanged(self, rng):
        r = np.stack([random_hermitian(rng, 3) + 3 * np.eye(3) for _ in range(2)])
        blocks = np.stack([random_psd(rng, 3) for _ in range(2)])
        c = AffineConstraint(r, np.einsum("lij,lij->ij", blocks, hermitian_part(r)))
        out = project_affine(blocks, c)
        assert np.linalg.norm(out - blocks) < 1e-12 * (1 + np.linalg.norm(blocks))

    def test_result_satisfies_constraint(self, rng):
        for _ in range(10):
            r = np.stack([random_hermitian(rng, 4) + 4 * np.eye(4) for _ in range(3)])
            c = AffineConstraint(r, random_hermitian(rng, 4))
            out = project_affine(np.stack([random_hermitian(rng, 4) for _ in range(3)]), c)
            assert np.linalg.norm(c.target - c.apply(out)) <= 1e-13 * 4

    def test_adjoint_identity(self, rng):
        for _ in range(10):
            r = np.stack([random_hermitian(rng, 3) + 3 * np.eye(3) for _ in range(2)])
            c = AffineConstraint(r, np.zeros((3, 3)))
            blocks = np.stack([random_hermitian(rng, 3) for _ in range(2)])
            s = random_hermitian(rng, 3)
            lhs = np.trace(s.conj().T @ c.apply(blocks))
            rhs = np.einsum("lij,lij->", np.conj(c.adjoint(s)), blocks)
            assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))

    def test_zero_entry_rejected(self):
        with pytest.raises(ArgumentError):
            AffineConstraint(np.array([[[1.0, 0.0], [0.0, 1.0]]]), np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            AffineConstraint(np.ones((1, 2, 2)), np.eye(3))


class TestDykstraSolve:
    def test_scalar_success_fast(self):
        c = AffineConstraint(np.ones((1, 1, 1)), np.array([[0.5]]))
        res = dykstra_solve(c)
        assert res.feasible and res.iterations <= 2
        assert np.allclose(res.blocks, [[[0.5]]], atol=1e-12)

    def test_scalar_negative_target_stalls(self):
        c = AffineConstraint(np.ones((1, 1, 1)), np.array([[-0.5]]))
        res = dykstra_solve(c)
        assert not res.feasible
        assert res.affine_residual == pytest.approx(0.5, abs=1e-6)

    def test_boundary_feasible_two_points(self):
        res = dykstra_solve(two_point_constraint(1.8660254))
        assert res.feasible
        assert res.psd_margin >= -1e-7

    def test_infeasible_below_closed_form(self):
        res = dykstra_solve(two_point_constraint(1.5))
        assert not res.feasible

    def test_success_certificate_recheck(self, rng):
        # verdicts must be reproducible from the returned blocks alone
        for m in (2.0, 2.5, 3.0):
            c = two_point_constraint(m)
            res = dykstra_solve(c)
            assert res.feasible
            residual, margin = check_certificate(res.blocks, c)
            assert residual <= 1e-7
            assert margin >= -1e-7


class TestSchurProductPositivity:
    def test_random_psd_pairs(self, rng):
        for _ in range(20):
            a, b = random_psd(rng, 5), random_psd(rng, 5)
            assert np.linalg.eigvalsh(hermitian_part(a * b)).min() >= -1e-10 * 5


class TestPrimalLift:
    def test_negative_margin_lifted_within_d_times_deficit(self):
        from interp_lab.sdp import _certified_primal

        # Bidisc R stack of three points with distinct slices (Szego: R_ii <= 1).
        z = np.array([[0, 0.5, -0.4], [0, 0.3j, 0.2 - 0.5j]])
        r = 1.0 - z[:, :, None] * np.conj(z[:, None, :])
        eye, ones, u, e = np.eye(3), np.ones((3, 3)), 3.0, 1e-3
        # On the slice of u*I - J, but block 1 has eigenvalues near -e.
        blocks = np.stack([(u * eye - ones + e * eye) / r[0], -e * eye / r[1]])
        deficit = -np.min(np.linalg.eigvalsh(blocks))
        assert deficit > 0
        lifted_u, lifted = _certified_primal(r, eye, ones, u, blocks)
        assert u < lifted_u <= u + 2 * deficit
        residual, margin = check_certificate(lifted, AffineConstraint(r, lifted_u * eye - ones))
        assert residual <= 1e-12 and margin >= -1e-12


def barrier_along(mu, decrement, alpha):
    """φ(α) − φ(0) = α(δ² − Σμ) + Σ log(1 + αμ_i): the barrier along a Newton step."""
    return alpha * (decrement ** 2 - mu.sum()) + np.log1p(np.multiply.outer(alpha, mu)).sum(axis=-1)


class TestStepLength:
    # The μ_i of a Newton step have Σμ_i² = δ², so |μ_i| ≤ δ.  Nonnegative μ_i below 1 give
    # δ² < Σμ_i, the slope at infinity, so the barrier has a maximum with no boundary.
    @pytest.mark.parametrize("sign", ["mixed", "nonnegative"])
    def test_matches_a_grid_maximization(self, sign):
        from interp_lab.sdp import _step_length

        rng = np.random.default_rng(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(100):
                size = int(rng.integers(1, 40))
                if sign == "mixed":
                    mu = rng.normal(size=size) * 10 ** rng.uniform(-3, 1.5)
                    mu[0] = -abs(mu[0])
                else:
                    mu = rng.uniform(size=size) * 10 ** rng.uniform(-3, 0)
                decrement = float(np.sqrt(np.sum(mu * mu)))
                alpha, low = _step_length(mu.tolist(), decrement), 1.0 / (1.0 + decrement)
                # From the damped step to 0.9 of the boundary or, with none, past twice the step:
                # concavity puts any point better than the step on this grid.
                high = max(low, -0.9 / mu.min()) if mu.min() < 0.0 else 2.0 * alpha + 1.0
                assert low <= alpha <= high
                best = barrier_along(mu, decrement, np.linspace(low, high, 10001)).max()
                assert barrier_along(mu, decrement, alpha) >= best - 1e-10 * (1.0 + abs(best))

    def test_no_maximum_gives_the_damped_step(self):
        from interp_lab.sdp import _step_length

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _step_length([0.0] * 6, 0.0) == 1.0  # dY = 0
            assert _step_length([2.0], 2.0) == 1.0 / 3.0  # increasing without bound
            assert _step_length([1e-170, -1e-170], 0.0) == 1.0  # a curvature that underflows


def bidisc_constraint(points, target):
    z = np.array(points).T
    return AffineConstraint(1.0 - z[:, :, None] * np.conj(z[:, None, :]), target)


class TestFarkasStop:
    ANCHOR = [(0, 0), (0.5, 0.3 + 0.2j), (-0.4 + 0.1j, 0.2 - 0.5j)]

    def corpus(self, rng):
        eye, ones = np.eye(3), np.ones((3, 3))
        yield AffineConstraint(np.ones((1, 1, 1)), np.array([[-0.5]]))
        for m in (1.5, 1.8660254, 2.5):
            yield two_point_constraint(m)
        for m in (1.5, 2.0, 2.5, 3.0):  # M ≈ 2.519284 on this set
            yield bidisc_constraint(self.ANCHOR, m * eye - ones)
        for _ in range(10):
            z = rng.uniform(-0.6, 0.6, (4, 2)) + 1j * rng.uniform(-0.6, 0.6, (4, 2))
            w = rng.uniform(-0.8, 0.8, 4) + 1j * rng.uniform(-0.8, 0.8, 4)
            yield bidisc_constraint(z, rng.uniform(0.2, 1.0) ** 2 - np.outer(w, np.conj(w)))

    def test_every_infeasible_verdict_carries_a_checked_dual(self, rng):
        verdicts = []
        for c in self.corpus(rng):
            res = dykstra_solve(c, max_iters=2000)
            verdicts.append(res.feasible)
            if res.feasible is False:
                assert_checked_farkas(c.r_matrices, c.target, res.dual)
                # the stop comes at a power-of-two sweep
                assert res.iterations & (res.iterations - 1) == 0
                assert (res.affine_residual, res.psd_margin) == check_certificate(res.blocks, c)
            else:
                assert res.dual is None
        assert verdicts.count(False) >= 8 and verdicts.count(True) >= 3

    def test_scalar_infeasible_decided_in_one_sweep(self):
        c = AffineConstraint(np.ones((1, 1, 1)), np.array([[-0.5]]))
        res = dykstra_solve(c)
        assert res.feasible is False and res.iterations == 1
        assert_checked_farkas(c.r_matrices, c.target, res.dual)

    @pytest.mark.parametrize("eps,certified", [(1e-8, False), (1e-6, True)])
    def test_no_dual_for_data_feasible_within_tol(self, eps, certified):
        # T = -eps: the zero block has residual T, of norm eps, so for eps <= tol no dual
        # may rule it out, although Y = eps has <T,Y> = -eps^2 < 0.
        from interp_lab.sdp import _farkas_dual

        c = AffineConstraint(np.ones((1, 1, 1)), np.array([[-eps]]))
        assert (_farkas_dual(c.target - c.apply(c.zero_blocks()), c, 1e-7) is not None) is certified

    # J - N*I just below N ≈ 0.0735724 on the anchor: feasible, yet Dykstra
    # does not reach tol; neither exit may read as infeasible.
    def test_budget_exit_is_undecided(self):
        res = dykstra_solve(bidisc_constraint(self.ANCHOR, np.ones((3, 3)) - 0.0735 * np.eye(3)), max_iters=3)
        assert res.feasible is None and res.dual is None
        assert res.iterations == 3

    def test_stall_exit_is_undecided(self):
        res = dykstra_solve(bidisc_constraint(self.ANCHOR, np.ones((3, 3)) - 0.0735 * np.eye(3)), max_iters=2000)
        assert res.feasible is None and res.dual is None
        assert res.iterations < 2000


@pytest.mark.parametrize("kwargs, message", [
    pytest.param(dict(tol=np.nan), "tol must be finite and > 0, got nan", id="tol-nan"),
    pytest.param(dict(tol=0.0), "tol must be finite and > 0, got 0.0", id="tol-zero"),
    pytest.param(dict(tol=-5.0), "tol must be finite and > 0, got -5.0", id="tol-negative"),
    pytest.param(dict(max_iters=np.nan), "max_iters must be an integer >= 1, got nan", id="max-iters-nan"),
    pytest.param(dict(max_iters=0), "max_iters must be an integer >= 1, got 0", id="max-iters-zero"),
    pytest.param(dict(max_iters=-5), "max_iters must be an integer >= 1, got -5", id="max-iters-negative"),
    pytest.param(dict(max_iters=2.5), "max_iters must be an integer >= 1, got 2.5", id="max-iters-fractional"),
    pytest.param(dict(max_iters=True), "max_iters must be an integer >= 1, got True", id="max-iters-bool"),
])
def test_dykstra_rejects_invalid_run_parameters(kwargs, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        dykstra_solve(two_point_constraint(2.0), **kwargs)


class TestAffineConstraintShapes:
    def test_one_matrix_is_one_slice(self):
        r = two_point_constraint(2.0).r_matrices[0]
        c = AffineConstraint(r, np.eye(2))
        assert c.num_blocks == 1 and np.array_equal(c.r_matrices, r[None])

    @pytest.mark.parametrize("shape", [(2, 2, 3), (2,), (1, 2, 2, 2)])
    def test_rejects_non_square_or_unstacked_r(self, shape):
        message = f"R matrices must be square and stacked, got shape {shape}"
        with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
            AffineConstraint(np.ones(shape), np.eye(2))
