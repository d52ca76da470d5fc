import itertools
import math
import re
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from interp_lab import (
    SZEGO,
    ArgumentError,
    KernelSpec,
    ProductKernelSpec,
    kernel_matrix,
    multiplier_separation,
    normalized_gramian,
    pseudo_hyperbolic,
    riesz_bounds,
    weak_separation,
)
from interp_lab import gramian
from interp_lab._linalg import hermitian_part
from interp_lab.gramian import PSD_TOL_PER_POINT, check_distinct, pseudo_hyperbolic_matrix, semimetric_matrix
from conftest import random_disk_points, random_kernel_spec

TWO_COEFF = KernelSpec((0.6, 0.3))


def strong_separation(points):
    """analyze-disk's ``strong_separation``: the least row product of the pseudo-hyperbolic matrix."""
    return float(gramian.log_separations(pseudo_hyperbolic_matrix(check_distinct(points)))[0].min())


def reference_series(kernel, points):
    """Each factor's series ``1 - sum_i c_i (z * conj(w))**i`` on its coordinate's matrix, by Horner's rule."""
    factors = kernel.factors if isinstance(kernel, ProductKernelSpec) else (kernel,)
    p = np.asarray(points, dtype=complex).reshape(len(points), -1)
    for factor, z in zip(factors, p.T):
        s = z[:, None] * np.conj(z[None, :])
        acc = -factor.coeffs[-1] * s
        for c in factor.coeffs[-2::-1]:
            acc -= c
            acc *= s
        acc += 1.0
        yield acc


def reference_kernel_matrix(kernel, points):
    """The kernel matrix as built before the in-place builders: one fresh array per
    operation and the lower triangle filled through an n×n mask."""
    out = 1.0
    for acc in reference_series(kernel, points):
        out = out / acc
    return reference_hermitian(out)


def reference_hermitian(a):
    lower = np.tri(a.shape[0], k=-1, dtype=bool)
    a[lower] = a.T[lower].conj()
    np.fill_diagonal(a, a.diagonal().real)
    return a


def reciprocal_normalized_gramian(kernel, points):
    """The normalized Gramian as built before the one-division form: the kernel matrix, divided by
    the root of the outer product of its diagonal."""
    k = reference_kernel_matrix(kernel, points)
    d = k.diagonal().real.copy()
    k /= np.sqrt(np.outer(d, d))
    np.fill_diagonal(k, 1.0)
    return k


def reference_normalized_gramian(kernel, points):
    """``sqrt(R_ii) sqrt(R_jj) / R_ij``, ``R`` the product of the factors' series: one division per entry."""
    r = 1.0
    for acc in reference_series(kernel, points):
        r = r * acc
    d = np.sqrt(r.diagonal().real)
    g = reference_hermitian(np.outer(d, d) / r)
    np.fill_diagonal(g, 1.0)
    return g


def exact_gramian(kernel, points):
    """Off-diagonal entries ``(i, j, re, im)`` of ``G = sqrt(R_ii R_jj) / R_ij`` to 40 digits, from exact
    rational series ``R`` of the points' doubles."""
    factors = kernel.factors if isinstance(kernel, ProductKernelSpec) else (kernel,)
    q = [[(Fraction(c.real), Fraction(c.imag)) for c in row]
         for row in np.asarray(points, dtype=complex).reshape(len(points), -1)]

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def r(i, j):
        out = (Fraction(1), Fraction(0))
        for factor, a, b in zip(factors, q[i], q[j]):
            s, power, acc = mul(a, (b[0], -b[1])), (Fraction(1), Fraction(0)), (Fraction(1), Fraction(0))
            for c in factor.coeffs:
                power = mul(power, s)
                acc = (acc[0] - Fraction(c) * power[0], acc[1] - Fraction(c) * power[1])
            out = mul(out, acc)
        return out

    def dec(f):
        return Decimal(f.numerator) / Decimal(f.denominator)

    entries, n = [], len(points)
    with localcontext() as ctx:
        ctx.prec = 40
        diag = [r(i, i)[0] for i in range(n)]
        for i, j in itertools.permutations(range(n), 2):
            re, im = r(i, j)
            scale = dec(diag[i] * diag[j]).sqrt() / dec(re * re + im * im)
            entries.append((i, j, scale * dec(re), -scale * dec(im)))
    return entries


def largest_error(g, exact):
    with localcontext() as ctx:
        ctx.prec = 40
        return float(max(((Decimal(g[i, j].real) - re) ** 2 + (Decimal(g[i, j].imag) - im) ** 2).sqrt()
                         for i, j, re, im in exact))


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBuiltInPlace:
    """The in-place builders give the bits of the expressions they replaced."""

    @pytest.mark.parametrize("n", [1, 2, 17, 130])
    @pytest.mark.parametrize("kernel", [SZEGO, TWO_COEFF, ProductKernelSpec((SZEGO, SZEGO)),
                                        ProductKernelSpec((TWO_COEFF, SZEGO))],
                             ids=["szego", "two-coeff", "bidisc-szego", "bidisc-mixed"])
    def test_kernel_gramian_and_semimetric_bits(self, kernel, n):
        rng = np.random.default_rng(7100 + n)
        coords = [random_disk_points(rng, n) for _ in range(getattr(kernel, "dimension", 1))]
        points = list(zip(*coords)) if isinstance(kernel, ProductKernelSpec) else coords[0]
        assert same_bits(kernel_matrix(kernel, points), reference_kernel_matrix(kernel, points))
        g = normalized_gramian(points, kernel)
        assert same_bits(g, reference_normalized_gramian(kernel, points))
        assert same_bits(semimetric_matrix(g), np.sqrt(np.clip(1.0 - np.abs(g) ** 2, 0.0, 1.0)))

    @pytest.mark.parametrize("kernel", [SZEGO, TWO_COEFF, ProductKernelSpec((SZEGO, TWO_COEFF))],
                             ids=["szego", "two-coeff", "bidisc-mixed"])
    def test_one_division_is_as_accurate_as_the_reciprocal(self, kernel):
        # Against exact arithmetic on ten 17-point sets in |z| <= 0.99: the one-division form's largest
        # error per set is smaller on average, and its largest over the sets within 2^-53 of the
        # reciprocal form's.  Neither wins on every set: both round one complex division per entry.
        rng, new, old = np.random.default_rng(7200), [], []
        for _ in range(10):
            coords = [random_disk_points(rng, 17, 0.99) for _ in range(getattr(kernel, "dimension", 1))]
            points = list(zip(*coords)) if isinstance(kernel, ProductKernelSpec) else coords[0]
            exact = exact_gramian(kernel, points)
            new.append(largest_error(normalized_gramian(points, kernel), exact))
            old.append(largest_error(reciprocal_normalized_gramian(kernel, points), exact))
        assert np.mean(new) <= np.mean(old)
        assert max(new) <= max(old) + 2.0 ** -53

    @pytest.mark.parametrize("n", [1, 2, 17, 130])
    def test_hermitian_fill_bits(self, n):
        from interp_lab.kernels import _hermitian

        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert same_bits(_hermitian(a.copy()), reference_hermitian(a.copy()))


@pytest.mark.parametrize("call, before, after", [
    pytest.param(lambda z, g: normalized_gramian(z, SZEGO), 2.06, 1.59, id="normalized-gramian"),
    pytest.param(lambda z, g: semimetric_matrix(g), 1.00, 0.50, id="semimetric-matrix"),
    pytest.param(lambda z, g: strong_separation(z), 3.00, 1.09, id="strong-separation"),
    pytest.param(lambda z, g: riesz_bounds(g), 1.18, 0.41, id="riesz-bounds"),
])
def test_scratch_peak(call, before, after):
    # Peak traced memory of one call at n = 300, in units of one complex n×n array
    # (16 n^2 bytes), the result included; measured before -> after the in-place builders.
    n = 300
    z = random_disk_points(np.random.default_rng(300), n)
    g = normalized_gramian(z, SZEGO)
    call(z, g)
    tracemalloc.start()
    try:
        call(z, g)
        peak = tracemalloc.get_traced_memory()[1] / (16 * n * n)
    finally:
        tracemalloc.stop()
    assert peak < (before + after) / 2


def dense_first_close_pair(points):
    """The dense rule ``check_distinct`` replaced: every pair tested, the first close one in (i, j) order."""
    p = np.asarray(points, dtype=complex).reshape(len(points), -1)
    if p.shape[1] == 1:
        close = np.abs(p - p.T) <= 1e-12
    else:
        close = sum(np.abs(c[:, None] - c[None, :]) ** 2 for c in p.T) <= 1e-24
    pairs = np.argwhere(np.triu(close, 1))
    return tuple(pairs[0]) if len(pairs) else None


def assert_named_as_the_dense_rule(points):
    pair = dense_first_close_pair(points)
    if pair is None:
        assert same_bits(check_distinct(points), np.asarray(points, dtype=complex).reshape(len(points), -1))
    else:
        with pytest.raises(ArgumentError, match=rf"^points {pair[0]} and {pair[1]} coincide within 1e-12$"):
            check_distinct(points)
    return pair


class TestCheckDistinct:
    def test_names_first_coinciding_polydisc_pair(self):
        pts = [(0, 0), (0.5, 0.1), (0.2, 0.2), (0.5, 0.1 + 1e-13), (0.2, 0.2), (0, 0.5)]
        with pytest.raises(ArgumentError, match="points 1 and 3 coincide"):
            check_distinct(pts)
        check_distinct([(0, 0), (0, 0.5), (0.5, 0)])

    @pytest.mark.parametrize("n", [2, 3, 64, 483])
    @pytest.mark.parametrize("gap", [0.5e-12, 2e-12])
    def test_planted_pairs_as_the_dense_rule(self, n, gap):
        rng = np.random.default_rng(n)
        pts = random_disk_points(rng, n, 0.9)
        # Two planted pairs, the later one in (i, j) order first in the sort by real part.
        for i, j in [(0, n - 1), (n // 3, n // 2)]:
            if i < j:
                pts[j] = pts[i] + gap * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        assert (assert_named_as_the_dense_rule(pts) is None) == (gap > 1e-12)

    @pytest.mark.parametrize("gap", [0.5e-12, 2e-12])
    def test_every_real_part_equal(self, gap):
        y = np.linspace(-0.9, 0.9, 200)
        y[150] = y[40] + gap
        y[120] = y[70] - gap
        assert assert_named_as_the_dense_rule(list(1j * y)) == ((40, 150) if gap < 1e-12 else None)

    def test_bidisc_points_equal_in_the_first_coordinate_only(self):
        pts = [(0.1, 0.2), (0.3, 0.1j), (0.1, 0.2 + 2e-12), (0.3, -0.1j), (0.1 + 1e-13, 0.2 + 0.5e-12j)]
        assert assert_named_as_the_dense_rule(pts) == (0, 4)
        assert assert_named_as_the_dense_rule(pts[:4]) is None


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

    @pytest.fixture
    def solver_inputs(self, monkeypatch):
        """Records each matrix handed to ``np.linalg.eigvalsh``."""
        given, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: given.append(a) or eigvalsh(a))
        return given

    def test_hermitian_gramian_goes_to_the_eigensolver_as_it_is(self, solver_inputs):
        g = normalized_gramian(random_disk_points(np.random.default_rng(4), 140), TWO_COEFF)
        expected = np.linalg.eigvalsh(hermitian_part(g))
        r = riesz_bounds(g)
        assert solver_inputs[-1] is g
        assert (r.lambda_min, r.lambda_max) == (expected[0], expected[-1])

    @pytest.mark.parametrize("one_bit", [False, True], ids=["noisy", "one-bit-off"])
    def test_non_hermitian_input_gets_its_hermitian_part(self, one_bit, solver_inputs):
        rng = np.random.default_rng(6)
        g = np.eye(70) + 0.01 * (rng.standard_normal((70, 70)) + 1j * rng.standard_normal((70, 70)))
        np.fill_diagonal(g, 1.0)
        if one_bit:
            # Exactly Hermitian but one entry above the diagonal, past the first 64 columns.
            g = hermitian_part(g)
            g[1, 69] = np.nextafter(g[1, 69].real, 2.0) + 1j * g[1, 69].imag
        expected = np.linalg.eigvalsh(hermitian_part(g))
        r = riesz_bounds(g)
        assert solver_inputs[-1] is not g and same_bits(solver_inputs[-1], hermitian_part(g))
        assert (r.lambda_min, r.lambda_max) == (expected[0], expected[-1])

    def test_requires_unit_diagonal(self):
        with pytest.raises(ArgumentError):
            riesz_bounds(np.array([[2.0, 0.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("tolerance", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_rejects_negative_or_nonfinite_tolerance(self, tolerance):
        with pytest.raises(ArgumentError, match="tolerance"):
            riesz_bounds(normalized_gramian([0, 0.5], SZEGO), tolerance)

    def test_zero_tolerance_accepted(self):
        assert riesz_bounds(np.eye(2), 0).riesz_tolerance == 0.0


class TestStackedRieszBounds:
    """A stack of same-size Gramians: one report per member, bit for bit its own call's."""

    @staticmethod
    def bits(report):
        return report.lambda_min.hex(), report.lambda_max.hex(), report.is_riesz

    @staticmethod
    def stack(k, n):
        rng = np.random.default_rng(7500 + n)
        return np.stack([normalized_gramian(random_disk_points(rng, n, 0.95, 0.5), SZEGO) for _ in range(k)])

    @pytest.mark.parametrize("k, n", [(1, 2), (5, 3), (7, 17), (3, 70)])
    def test_members_match_their_own_calls(self, k, n):
        gs = self.stack(k, n)
        tolerance = float(np.median([riesz_bounds(g).lambda_min for g in gs]))  # both verdicts for k > 1
        reports = riesz_bounds(gs, tolerance)
        assert isinstance(reports, tuple) and len(reports) == k
        assert [self.bits(r) for r in reports] == [self.bits(riesz_bounds(g, tolerance)) for g in gs]
        assert len({r.is_riesz for r in reports}) == min(k, 2)

    def test_member_not_exactly_hermitian_gets_its_hermitian_part(self):
        gs = self.stack(4, 70)
        gs[2, 1, 69] = np.nextafter(gs[2, 1, 69].real, 2.0) + 1j * gs[2, 1, 69].imag
        gs[3] += 1e-3 * np.random.default_rng(1).standard_normal((70, 70))
        np.fill_diagonal(gs[3], 1.0)
        reports = riesz_bounds(gs)
        assert [self.bits(r) for r in reports] == [self.bits(riesz_bounds(g)) for g in gs]
        assert self.bits(reports[3]) == self.bits(riesz_bounds(hermitian_part(gs[3])))

    def test_one_eigensolve(self, monkeypatch):
        given, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: given.append(a.shape) or eigvalsh(a))
        riesz_bounds(self.stack(6, 9))
        assert given == [(6, 9, 9)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)], ids=["nan", "inf", "inf-imag"])
    def test_non_finite_member(self, bad):
        gs = self.stack(3, 5)
        gs[1, 0, 3] = bad
        with pytest.raises(ArgumentError, match="^expected a matrix of finite entries$"):
            riesz_bounds(gs)

    def test_log_separations_refused_for_a_stack(self):
        gs = self.stack(2, 5)
        with pytest.raises(ArgumentError, match="^log separations mark one Szego Gramian, not a stack$"):
            riesz_bounds(gs, log_delta=np.zeros(5))
        with pytest.raises(ArgumentError, match="^log separations mark one Szego Gramian, not a stack$"):
            riesz_bounds(gs, log_delta=np.zeros(2))

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 2, 3, 3)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ArgumentError, match="expected a square matrix"):
            riesz_bounds(np.ones(shape))


def log_separations(points):
    """Carleson's log delta_j = sum_{k != j} log rho(z_j, z_k), as the callers of riesz_bounds pass them."""
    return np.log(pseudo_hyperbolic_matrix(points)).sum(axis=1)


class TestSzegoRieszFromSeparations:
    """Above 6 * LANCZOS_STEPS = 384 points, a Szego Gramian's bounds come without an eigensolve."""

    @pytest.fixture
    def eigvalsh_sizes(self, monkeypatch):
        """The size of each matrix handed to ``np.linalg.eigvalsh``."""
        sizes, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or eigvalsh(a))
        return sizes

    @pytest.mark.parametrize("n, solved", [(384, [384]), (385, [])])
    def test_eigvalsh_runs_up_to_the_crossover_only(self, n, solved, eigvalsh_sizes):
        pts = random_disk_points(np.random.default_rng(3), n)
        r = riesz_bounds(normalized_gramian(pts, SZEGO), log_delta=log_separations(pts))
        assert eigvalsh_sizes == solved
        assert r.carleson_constant == r.lambda_max and not r.is_riesz

    def test_without_separations_eigvalsh_runs_at_any_size(self, eigvalsh_sizes):
        riesz_bounds(normalized_gramian(random_disk_points(np.random.default_rng(3), 385), SZEGO))
        assert eigvalsh_sizes == [385]

    def test_dense_set_where_one_over_delta_overflows(self, monkeypatch, eigvalsh_sizes):
        # 300 points in |z| <= 0.9: delta_min < 1e-76, so diag(1 / delta) G diag(1 / delta) has
        # entries beyond 1e152 and the squared norms Lanczos forms overflow; S G S has none above 1.
        pts = random_disk_points(np.random.default_rng(1), 300)
        log_delta = log_separations(pts)
        assert np.min(log_delta) < math.log(1e-76)
        monkeypatch.setattr("interp_lab.gramian.LANCZOS_STEPS", 32)  # crossover 192 < 300
        r = riesz_bounds(normalized_gramian(pts, SZEGO), log_delta=log_delta)
        assert eigvalsh_sizes == []
        assert math.isfinite(r.lambda_min) and r.lambda_min >= 0.0 and math.isfinite(r.lambda_max)

    def test_non_finite_separations_fall_back_to_eigvalsh(self, eigvalsh_sizes):
        pts = random_disk_points(np.random.default_rng(3), 385)
        log_delta = log_separations(pts)
        log_delta[7] = -np.inf
        g = normalized_gramian(pts, SZEGO)
        assert riesz_bounds(g, log_delta=log_delta) == riesz_bounds(g)
        assert eigvalsh_sizes == [385, 385]

    def test_separations_must_match_the_gramian(self):
        with pytest.raises(ArgumentError, match=re.escape("expected 2 log separations, got shape (3,)")):
            riesz_bounds(normalized_gramian([0, 0.5], SZEGO), log_delta=np.zeros(3))


class TestSzegoNumbersFromRho:
    """Weak separation, Carleson's log delta_j and the sub-crossover lambda_min from the one rho matrix."""

    @pytest.mark.parametrize("seed", range(4))
    def test_min_off_diagonal_rho_is_the_weak_separation(self, seed):
        pts = random_disk_points(np.random.default_rng(seed), 60, 0.95, 0.02)
        ph = pseudo_hyperbolic_matrix(pts)
        assert np.all(ph.diagonal() == 1.0)
        assert abs(np.min(ph) - weak_separation(pts, SZEGO)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 60, 300])
    def test_log_of_the_product_is_the_sum_of_logs(self, n):
        ph = pseudo_hyperbolic_matrix(random_disk_points(np.random.default_rng(n), n, 0.9))
        delta, logs = gramian.log_separations(ph)
        assert same_bits(delta, np.prod(ph, axis=1))
        summed = np.log(ph).sum(axis=1)
        assert np.all(np.abs(logs - summed) <= 4 * n * np.finfo(float).eps * np.maximum(1.0, np.abs(summed)))

    def test_underflowing_row_takes_the_sum_of_logs(self):
        # Row 0's product is subnormal, row 1's is 0; row 2's is a normal double.
        ph = np.array([[1.0, 1e-160, 1e-160], [1e-160, 1.0, 1e-200], [0.5, 0.25, 1.0]])
        delta, logs = gramian.log_separations(ph)
        assert 0.0 < delta[0] < np.finfo(float).tiny and delta[1] == 0.0
        assert same_bits(logs[:2], np.log(ph[:2]).sum(axis=1)) and logs[2] == np.log(0.125)

    @pytest.fixture
    def closed_forms(self, monkeypatch):
        """The size of each matrix whose top eigenvalue riesz_bounds certifies."""
        sizes, original = [], gramian.certified_top_eigenvalue
        monkeypatch.setattr(gramian, "certified_top_eigenvalue", lambda a: sizes.append(len(a)) or original(a))
        return sizes

    def test_lambda_min_below_eigvalsh_resolution_from_the_closed_form(self, closed_forms):
        pts = random_disk_points(np.random.default_rng(0), 40, 0.9)
        g = normalized_gramian(pts, SZEGO)
        w = np.linalg.eigvalsh(g)
        assert w[0] < 0.0
        delta, log_delta = gramian.log_separations(pseudo_hyperbolic_matrix(pts))
        r = riesz_bounds(g, log_delta=log_delta)
        assert closed_forms == [40]
        # G^-1 is unitarily similar to diag(1/delta) conj(G) diag(1/delta).
        expected = 1.0 / np.linalg.eigvalsh(g / np.outer(delta, delta))[-1]
        assert 0.0 <= r.lambda_min and abs(r.lambda_min - expected) <= 1e-12 * expected
        assert r.lambda_max == w[-1]

    def test_lambda_min_above_the_threshold_stays_eigvalsh(self, closed_forms):
        pts = random_disk_points(np.random.default_rng(0), 40, 0.9, 0.3)  # lambda_min 1.4e-12, six times n eps ||G||_F
        g = normalized_gramian(pts, SZEGO)
        r = riesz_bounds(g, log_delta=gramian.log_separations(pseudo_hyperbolic_matrix(pts))[1])
        assert closed_forms == [] and r == riesz_bounds(g)


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
        assert strong_separation([0.7]) == 1.0

    def test_pair(self):
        assert strong_separation([0, 0.5]) == pytest.approx(0.5, abs=1e-12)

    def test_three_points_brute_force(self):
        pts = [0, 0.5, -0.5]
        prods = [
            np.prod([pseudo_hyperbolic(pts[j], pts[k]) for k in range(3) if k != j])
            for j in range(3)
        ]
        assert min(prods) == pytest.approx(0.25, abs=1e-12)
        assert strong_separation(pts) == pytest.approx(0.25, abs=1e-12)

    def test_matches_exact_rational_arithmetic(self):
        # The squared product sum over exact rationals: |z - w|^2 / |1 - z conj(w)|^2.
        rng = np.random.default_rng(11)
        pts = random_disk_points(rng, 24, 0.9)
        exact = [(Fraction(z.real), Fraction(z.imag)) for z in pts]

        def rho2(a, b):
            d2 = (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
            re, im = 1 - (a[0] * b[0] + a[1] * b[1]), a[0] * b[1] - a[1] * b[0]
            return d2 / (re * re + im * im)

        squared = min(math.prod(rho2(a, b) for b in exact if b is not a) for a in exact)
        assert strong_separation(pts) == pytest.approx(math.sqrt(squared), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("gap", [0.0, 1e-13, 0.9e-12])
    def test_names_the_first_coinciding_pair(self, gap):
        pts = [0.1, 0.5j, -0.3, 0.5j + gap, -0.3, 0.2]
        with pytest.raises(ArgumentError, match=r"^points 1 and 3 coincide within 1e-12$"):
            strong_separation(pts)

    def test_monotone_under_refinement(self, rng):
        for _ in range(10):
            pts = random_disk_points(rng, 5, min_separation=0.05)
            for k in range(2, 5):
                assert strong_separation(pts[: k + 1]) <= strong_separation(pts[:k]) + 1e-12
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
    """Entry i of multiplier_separation: the largest value at z_i of a unit multiplier vanishing at the rest."""

    def test_schwarz_pick_oracle(self):
        assert multiplier_separation([0, 0.5], SZEGO)[1] == pytest.approx(0.5, abs=1e-6)

    def test_blaschke_product_oracle(self, rng):
        for _ in range(10):
            pts = random_disk_points(rng, 4, min_separation=0.1)
            expected = [np.prod([pseudo_hyperbolic(x, p) for p in pts if p is not x]) for x in pts]
            assert multiplier_separation(pts, SZEGO) == pytest.approx(expected, abs=1e-6)

    def test_monotone_in_set(self, rng):
        pts = random_disk_points(rng, 4, min_separation=0.1)
        x, s = pts[0], pts[1:]
        vals = [multiplier_separation([*s[:k], x], SZEGO)[-1] for k in range(1, len(s) + 1)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-9

    def test_alpha_scales_feasibility(self):
        # alpha > 1 loosens the Pick condition, so the distance cannot shrink
        base = multiplier_separation([0, 0.5], SZEGO, alpha=1.0)[1]
        loose = multiplier_separation([0, 0.5], SZEGO, alpha=2.0)[1]
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
            for i, (x, delta) in enumerate(zip(pts, multiplier_separation(pts, SZEGO, alpha=alpha))):
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


class TestMultiplierSeparation:
    def test_matches_per_point_cholesky_with_the_point_last(self):
        # The reference factors alpha^2 K + tau I once per point, with that
        # point ordered last: delta = |L_nn| / sqrt(K_nn).
        n = 20
        pts = random_disk_points(np.random.default_rng(8), n)
        assert np.linalg.cond(normalized_gramian(pts, SZEGO)) > 1e10
        tau = PSD_TOL_PER_POINT * n
        for alpha in (1.0, 0.7):
            deltas = multiplier_separation(pts, SZEGO, alpha=alpha)
            for i, x in enumerate(pts):
                k = kernel_matrix(SZEGO, [*pts[:i], *pts[i + 1:], x])
                factor = np.linalg.cholesky(alpha ** 2 * k + tau * np.eye(n))
                expected = min(1.0, abs(factor[-1, -1]) / np.sqrt(k[-1, -1].real))
                assert deltas[i] == pytest.approx(expected, abs=1e-8)

    def test_rejects_coinciding_points(self):
        with pytest.raises(ArgumentError):
            multiplier_separation([0.1, 0.5, 0.1], SZEGO)


class TestMultiplierSeparationWithoutFactor:
    def test_all_zero_when_cholesky_fails(self):
        n = 20
        z = (1 - 2e-9) * np.exp(1e-10j * np.arange(n))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(kernel_matrix(SZEGO, z) + PSD_TOL_PER_POINT * n * np.eye(n))
        assert multiplier_separation(z, SZEGO) == [0.0] * n


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: riesz_bounds(np.ones((2, 3))), "expected a square matrix, got shape (2, 3)",
                 id="riesz-shape"),
    pytest.param(lambda: riesz_bounds([[1, np.nan], [np.nan, 1]]), "expected a matrix of finite entries",
                 id="riesz-nan-entry"),
    pytest.param(lambda: riesz_bounds([[np.nan, 0], [0, 1]]), "expected a matrix of finite entries",
                 id="riesz-nan-diagonal"),
    pytest.param(lambda: multiplier_separation([0, 0.5], SZEGO, alpha=0.0), "alpha must be finite and > 0, got 0.0",
                 id="separation-alpha"),
    pytest.param(lambda: multiplier_separation([0, 0.5, -0.3j], SZEGO, alpha=np.nan),
                 "alpha must be finite and > 0, got nan", id="separation-alpha-nan"),
    pytest.param(lambda: multiplier_separation([0, 0.5, -0.3j], SZEGO, alpha=np.inf),
                 "alpha must be finite and > 0, got inf", id="separation-alpha-inf"),
    pytest.param(lambda: multiplier_separation([0.5, 0.1], SZEGO, alpha=-1.0), "alpha must be finite and > 0, got -1.0",
                 id="separation-alpha-negative"),
    pytest.param(lambda: riesz_bounds(np.zeros((0, 0))), "expected a nonempty matrix, got shape (0, 0)",
                 id="riesz-empty"),
    pytest.param(lambda: riesz_bounds(np.zeros((0, 3, 3))), "expected a nonempty matrix, got shape (0, 3, 3)",
                 id="riesz-empty-stack"),
])
def test_rejects_invalid_arguments(call, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        call()
