import re
from dataclasses import replace

import numpy as np
import pytest

from interp_lab import (
    SZEGO,
    ArgumentError,
    KernelSpec,
    normalized_gramian,
    partition,
    partition_separated,
    rho_semimetric,
    riesz_bounds,
    verify_partition,
    weak_separation,
)
from interp_lab.gramian import semimetric_matrix
from conftest import random_disk_points


class TestPartitionSeparated:
    def test_already_separated_single_class(self):
        result = partition_separated([0, 0.5, -0.5], SZEGO, 0.4)
        assert len(result.classes) == 1

    def test_close_pair_splits(self):
        result = partition_separated([0, 0.01], SZEGO, 0.5)
        assert len(result.classes) == 2

    def test_greedy_order_dependent(self):
        result = partition_separated([0, 0.01, 0.9], SZEGO, 0.5)
        assert result.class_indices == ((0, 2), (1,))

    def test_is_partition(self, rng):
        pts = random_disk_points(rng, 12, min_separation=0.01)
        result = partition_separated(pts, SZEGO, 0.3)
        flat = sorted(i for idx in result.class_indices for i in idx)
        assert flat == list(range(12))

    def test_within_class_separation(self, rng):
        pts = random_disk_points(rng, 12, min_separation=0.01)
        result = partition_separated(pts, SZEGO, 0.3)
        for cls in result.classes:
            for i in range(len(cls)):
                for j in range(i + 1, len(cls)):
                    assert rho_semimetric(SZEGO, cls[i], cls[j]) >= 0.3

    def test_class_count_bounded_by_proximity_degree(self, rng):
        pts = random_disk_points(rng, 12, min_separation=0.01)
        eps = 0.3
        result = partition_separated(pts, SZEGO, eps)
        degrees = [
            sum(
                1
                for j in range(len(pts))
                if j != i and rho_semimetric(SZEGO, pts[i], pts[j]) < eps
            )
            for i in range(len(pts))
        ]
        assert len(result.classes) <= 1 + max(degrees)

    def test_monotone_class_count_in_epsilon(self, rng):
        for _ in range(5):
            pts = random_disk_points(rng, 10, min_separation=0.01)
            counts = [
                len(partition_separated(pts, SZEGO, eps).classes)
                for eps in (0.8, 0.6, 0.4, 0.2, 0.1)
            ]
            for a, b in zip(counts, counts[1:]):
                assert b <= a

    def test_epsilon_range_checked(self):
        with pytest.raises(ArgumentError):
            partition_separated([0, 0.5], SZEGO, 1.5)


class TestVerifyPartition:
    def test_singletons_are_unit(self):
        result = partition_separated([0, 0.01], SZEGO, 0.5)
        verified = verify_partition(result, SZEGO)
        assert verified.per_class_lambda_min == (1.0, 1.0)
        assert verified.all_riesz is True

    def test_wide_pair_lambda_min(self):
        result = partition_separated([0, 0.9], SZEGO, 0.5)
        assert len(result.classes) == 1
        verified = verify_partition(result, SZEGO)
        assert verified.per_class_lambda_min[0] == pytest.approx(0.5641101056459327, abs=1e-9)

    def test_near_duplicate_flagged(self):
        # lambda_min ~ 5e-5 sits below the 1e-3 tolerance
        result = partition_separated([0, 0.01], SZEGO, 0.001)
        assert len(result.classes) == 1
        verified = verify_partition(result, SZEGO)
        assert verified.per_class_lambda_min[0] == pytest.approx(5e-5, rel=0.05)
        assert verified.all_riesz is False

    def test_separated_carleson_prefix_single_class(self, rng):
        # a well-separated, moderate-radius configuration stays one Riesz class
        pts = random_disk_points(rng, 8, max_radius=0.85, min_separation=0.45)
        sep = weak_separation(pts, SZEGO)
        result = partition_separated(pts, SZEGO, min(0.4, sep))
        assert len(result.classes) == 1
        verified = verify_partition(result, SZEGO)
        assert verified.all_riesz is True


def per_class_build(classes, kernel):
    """Bottom eigenvalue of each class's own normalized Gramian, built afresh."""
    return tuple(1.0 if len(cls) == 1 else riesz_bounds(normalized_gramian(cls, kernel)).lambda_min
                 for cls in classes)


class TestStoredClassGramians:
    @pytest.mark.parametrize("n, kernel", [(200, SZEGO), (300, KernelSpec((0.6, 0.3))), (400, SZEGO)],
                             ids=["szego-200", "two-coeff-300", "szego-400"])
    def test_lambda_min_equals_a_per_class_build(self, n, kernel):
        pts = random_disk_points(np.random.default_rng(7300 + n), n)
        verified = verify_partition(partition_separated(pts, kernel, 0.5), kernel)
        assert max(len(cls) for cls in verified.classes) > 1
        assert verified.per_class_lambda_min == per_class_build(verified.classes, kernel)

    def test_equal_kernel_uses_the_stored_blocks(self, monkeypatch):
        pts = random_disk_points(np.random.default_rng(7301), 60)
        result = partition_separated(pts, SZEGO, 0.5)

        def refuse(*args):
            raise AssertionError("a class Gramian was rebuilt")

        monkeypatch.setattr(partition, "normalized_gramian", refuse)
        verified = verify_partition(result, KernelSpec((1.0,)))
        monkeypatch.undo()
        assert verified.per_class_lambda_min == per_class_build(result.classes, SZEGO)

    def test_other_kernel_builds_each_class(self):
        pts = random_disk_points(np.random.default_rng(7302), 200)
        result = partition_separated(pts, SZEGO, 0.5)
        other = KernelSpec((0.6, 0.3))
        verified = verify_partition(result, other)
        assert verified.per_class_lambda_min == per_class_build(result.classes, other)
        assert verified.per_class_lambda_min != verify_partition(result, SZEGO).per_class_lambda_min

    def test_blocks_stay_out_of_repr_and_equality(self):
        result = partition_separated([0, 0.01, 0.9], SZEGO, 0.5)
        assert "_blocks" not in repr(result)
        assert result == replace(result, _blocks=None)


class TestCloseRule:
    def test_every_semimetric_value_and_its_neighbours(self):
        # The close matrix flips exactly at each pair's semimetric value, as semimetric_matrix(g) < epsilon does.
        g = normalized_gramian(random_disk_points(np.random.default_rng(7400), 30, max_radius=0.99), SZEGO)
        rho = semimetric_matrix(g)
        for value in np.unique(rho[rho > 0.0]):
            for epsilon in (np.nextafter(value, 0.0), value, np.nextafter(value, 1.0)):
                if 0.0 < epsilon < 1.0:
                    assert np.array_equal(partition._close(g, float(epsilon)), rho < epsilon)

    @pytest.mark.parametrize("epsilon", [5e-324, 1e-300, 1e-160, 3e-8, 0.5, 1.0 - 2.0 ** -53])
    def test_extreme_epsilon(self, epsilon):
        pts = [0, 1e-9, 2e-9j, 0.5, 0.5 + 1e-8, 0.999]
        g = normalized_gramian(pts, SZEGO)
        assert np.array_equal(partition._close(g, epsilon), semimetric_matrix(g) < epsilon)


class TestVerifyPartitionTolerance:
    @pytest.mark.parametrize("tolerance", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_rejects_negative_or_nonfinite_tolerance(self, tolerance):
        result = partition_separated([0, 0.01, 0.9], SZEGO, 0.5)
        with pytest.raises(ArgumentError, match="tolerance"):
            verify_partition(result, SZEGO, tolerance)

    def test_singleton_classes_alone_still_checked(self):
        result = partition_separated([0, 0.01], SZEGO, 0.5)
        with pytest.raises(ArgumentError, match="tolerance"):
            verify_partition(result, SZEGO, -1)
        assert verify_partition(result, SZEGO, 0).all_riesz is True


@pytest.mark.parametrize("classes, indices, message", [
    pytest.param((), (), "partition has no classes", id="no-class"),
    pytest.param(((0.0,), ()), ((0,), ()), "partition contains an empty class", id="empty-class"),
])
def test_verify_rejects_malformed_partitions(classes, indices, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        verify_partition(partition.PartitionResult(classes, indices, 0.5), SZEGO)
