"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
All tolerances and runtime budgets are pinned here; random draws use fixed
seeds so every run checks identical instances.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from interp_lab import (
    SZEGO,
    PickProblem,
    ProductKernelSpec,
    agler_feasible,
    analyze_gamma_sequence,
    condition_a_constant,
    condition_b_constant,
    eval_kernel,
    gamma_kernel,
    inv_kernel_form,
    invariance_residual,
    kernel_matrix,
    normalized_gramian,
    partition_separated,
    pick_constant_for_values,
    pick_psd_test,
    pseudo_hyperbolic,
    rho_semimetric,
    riesz_bounds,
    verify_partition,
    weak_separation,
)
from interp_lab.fuchsian import MobiusMap
from interp_lab.pick import as_product_spec, inverse_kernel_stack
from conftest import random_disk_point, random_disk_points, random_kernel_spec

BIDISC = ProductKernelSpec((SZEGO, SZEGO))


@contextmanager
def criterion(number, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_s else "FAIL (over time budget)"
    print(f"[criterion {number:2d}] {name}: {verdict} ({elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeded budget {budget_s}s"


def test_criterion_1_kernel_laws():
    with criterion(1, "kernel-law suite", 5.0):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            spec = random_kernel_spec(rng)
            z, w = random_disk_point(rng), random_disk_point(rng)
            kzw = eval_kernel(spec, z, w)
            assert abs(kzw - np.conj(eval_kernel(spec, w, z))) <= 1e-12
            assert abs(kzw * inv_kernel_form(spec, z, w) - 1.0) <= 1e-12
        for _ in range(50):
            spec = random_kernel_spec(rng)
            pts = [random_disk_point(rng) for _ in range(8)]
            k = kernel_matrix(spec, pts)
            assert np.linalg.eigvalsh(k).min() >= -1e-10 * 8


def test_criterion_2_szego_semimetric_equivalence():
    with criterion(2, "Szego semimetric equals pseudo-hyperbolic", 1.0):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            z, w = random_disk_point(rng), random_disk_point(rng)
            assert abs(rho_semimetric(SZEGO, z, w) - pseudo_hyperbolic(z, w)) <= 1e-12


def test_criterion_3_two_point_closed_forms():
    with criterion(3, "two-point decomposition constants", 30.0):
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            expected_a = 1.0 + np.sqrt(1.0 - r * r)
            expected_b = 1.0 - np.sqrt(1.0 - r * r)
            got_a = condition_a_constant([0, r], SZEGO)
            got_b = condition_b_constant([0, r], SZEGO)
            assert got_a == pytest.approx(expected_a, abs=1e-4), f"r={r}"
            assert got_b == pytest.approx(expected_b, abs=1e-4), f"r={r}"


def test_criterion_4_one_variable_oracle_equivalence():
    with criterion(4, "pick test flips at the computed constant", 60.0):
        rng = np.random.default_rng(404)
        for trial in range(50):
            spec = SZEGO if trial % 2 == 0 else random_kernel_spec(rng)
            pts = tuple((p,) for p in random_disk_points(rng, 3, min_separation=0.15))
            vals = tuple(
                complex(rng.uniform(-0.85, 0.85), rng.uniform(-0.85, 0.85)) for _ in range(3)
            )
            c = pick_constant_for_values(pts, spec, vals)
            assert pick_psd_test(PickProblem(pts, vals, c + 1e-4), spec)[0], f"trial {trial}"
            below = max(c - 1e-4, 1e-9)
            assert not pick_psd_test(PickProblem(pts, vals, below), spec)[0], f"trial {trial}"


def test_criterion_5_diagonal_bidisc_oracle():
    with criterion(5, "diagonal bidisc matches one-variable constants", 60.0):
        rng = np.random.default_rng(505)
        for trial in range(20):
            z = random_disk_points(rng, 2, min_separation=0.2)
            vals = tuple(
                complex(rng.uniform(-0.85, 0.85), rng.uniform(-0.85, 0.85)) for _ in range(2)
            )
            diag_pts = [(p, p) for p in z]
            c_bidisc = pick_constant_for_values(diag_pts, BIDISC, vals)

            # independent one-variable oracle: direct eigenvalue bisection
            pts1 = tuple((p,) for p in z)
            lo = max(abs(v) for v in vals)
            if pick_psd_test(PickProblem(pts1, vals, max(lo, 1e-12)), SZEGO)[0]:
                c_oracle = lo
            else:
                hi = max(1.0, 2 * lo)
                while not pick_psd_test(PickProblem(pts1, vals, hi), SZEGO)[0]:
                    lo, hi = hi, 2 * hi
                while hi - lo > 1e-7:
                    mid = 0.5 * (lo + hi)
                    if pick_psd_test(PickProblem(pts1, vals, mid), SZEGO)[0]:
                        hi = mid
                    else:
                        lo = mid
                c_oracle = hi
            assert c_bidisc == pytest.approx(c_oracle, abs=1e-4), f"trial {trial}"


def test_criterion_6_gramian_pick_family():
    with criterion(6, "bounded-below Gramian gives PSD Pick family", 10.0):
        rng = np.random.default_rng(606)
        for _ in range(20):
            spec = random_kernel_spec(rng)
            n = int(rng.integers(3, 7))
            pts = random_disk_points(rng, n, min_separation=0.15)
            g = normalized_gramian(pts, spec)
            eigs = np.linalg.eigvalsh(g)
            lam_min, lam_max = eigs[0], eigs[-1]
            assert lam_min > 0
            b2 = lam_max / lam_min
            for _ in range(100):
                w = np.exp(2j * np.pi * rng.uniform(size=n))
                m = b2 * g - np.outer(w, np.conj(w)) * g
                m = 0.5 * (m + m.conj().T)
                assert np.linalg.eigvalsh(m).min() >= -1e-9


def test_criterion_7_trivial_group_reduction():
    with criterion(7, "trivial group reduces to the disk analysis", 10.0):
        kern = gamma_kernel([], 50)
        grid = [0.0, 0.4, -0.35 + 0.2j, 0.15j, -0.5 - 0.3j]
        for z in grid:
            for w in grid:
                truncated = sum((z * np.conj(w)) ** j for j in range(51))
                assert abs(kern(z, w) - truncated) <= 1e-8

        rep = analyze_gamma_sequence([0, 0.5], [], 50, 2)
        disk = riesz_bounds(normalized_gramian([0, 0.5], SZEGO))
        assert rep.gamma_riesz.lambda_min == pytest.approx(disk.lambda_min, abs=1e-8)
        assert rep.gamma_riesz.lambda_max == pytest.approx(disk.lambda_max, abs=1e-8)
        assert rep.gamma_weak_separation == pytest.approx(
            weak_separation([0, 0.5], SZEGO), abs=1e-8
        )
        assert rep.orbit_strong_separation == pytest.approx(0.5, abs=1e-8)


def test_criterion_8_cyclic_invariance_trend():
    with criterion(8, "cyclic-group invariance residual trend", 60.0):
        gen = MobiusMap(0.0, 0.5)
        residuals = {}
        for degree in (10, 20, 40):
            kern = gamma_kernel([gen], degree)
            residuals[degree] = invariance_residual(kern, [gen])
            # regression baseline: at the 1e-6 cutoff only the constant
            # direction survives at these degrees, so the kept kernel is
            # exactly invariant and the residual sits at machine zero
            assert kern.rank == 1
            assert residuals[degree] <= 1e-12
        # nonincreasing trend, with double-precision slack for machine zeros
        assert residuals[20] <= residuals[10] + 1e-12
        assert residuals[40] <= residuals[20] + 1e-12
        assert residuals[40] < 1e-4


def test_criterion_9_partition_suite():
    with criterion(9, "partition into Riesz classes", 10.0):
        rng = np.random.default_rng(77031)
        for trial in range(20):
            pts = random_disk_points(rng, 15, max_radius=0.94, min_separation=0.5)
            result = partition_separated(pts, SZEGO, 0.75)
            # covering and disjointness, exactly
            flat = sorted(i for idx in result.class_indices for i in idx)
            assert flat == list(range(15)), f"trial {trial}"
            # within-class separation, exactly
            for cls in result.classes:
                for i in range(len(cls)):
                    for j in range(i + 1, len(cls)):
                        assert rho_semimetric(SZEGO, cls[i], cls[j]) >= 0.75
            verified = verify_partition(result, SZEGO, 1e-3)
            assert verified.all_riesz is True, f"trial {trial}"
            assert all(lm > 1e-3 for lm in verified.per_class_lambda_min)


def test_criterion_10_certificate_honesty():
    with criterion(10, "success certificates re-check from scratch", 60.0):
        rng = np.random.default_rng(1010)
        corpus = []
        # one-variable instances around the two-point closed forms
        for r in (0.3, 0.5, 0.9):
            pts = [(0.0,), (complex(r),)]
            spec = as_product_spec(SZEGO)
            m_star = 1.0 + np.sqrt(1.0 - r * r)
            eye, ones = np.eye(2), np.ones((2, 2))
            for m in (m_star - 1e-3, m_star + 1e-3, m_star + 0.5):
                corpus.append((pts, spec, m * eye - ones))
        # genuine bidisc instances
        for _ in range(6):
            z = random_disk_points(rng, 3, max_radius=0.7, min_separation=0.2)
            w = random_disk_points(rng, 3, max_radius=0.7, min_separation=0.2)
            pts = [(a, b) for a, b in zip(z, w)]
            spec = BIDISC
            for m in (1.5, 3.0, 6.0):
                corpus.append((pts, spec, m * np.eye(3) - np.ones((3, 3))))
        # single-point trivia
        corpus.append(([(0.0, 0.0)], BIDISC, np.array([[0.5]])))
        corpus.append(([(0.0, 0.0)], BIDISC, np.array([[-0.1]])))

        tol = 1e-7
        successes = 0
        for pts, spec, target in corpus:
            dec = agler_feasible(pts, spec, target, tol=tol)
            if not dec.feasible:
                continue
            successes += 1
            # recompute the certificate from the returned blocks alone
            r = inverse_kernel_stack(pts, as_product_spec(spec))
            recomposed = np.einsum("lij,lij->ij", np.stack(dec.blocks), r)
            residual = np.linalg.norm(np.asarray(target, dtype=complex) - recomposed)
            margin = min(
                np.linalg.eigvalsh(0.5 * (b + b.conj().T)).min() for b in dec.blocks
            )
            assert residual <= tol, f"stale residual certificate: {residual}"
            assert margin >= -tol, f"stale margin certificate: {margin}"
            assert residual == pytest.approx(dec.affine_residual, abs=1e-12)
            assert margin == pytest.approx(dec.psd_margin, abs=1e-12)
        assert successes >= 10  # the corpus must actually exercise successes
