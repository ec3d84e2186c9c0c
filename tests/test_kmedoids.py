"""Tests for repro.baselines.kmedoids."""

import numpy as np
import pytest

from repro.baselines.kmedoids import kmedoids, validate_distance_matrix


def blob_matrix():
    """Two tight groups of 4 points each, far apart."""
    n = 8
    matrix = np.full((n, n), 10.0)
    np.fill_diagonal(matrix, 0.0)
    for group in ([0, 1, 2, 3], [4, 5, 6, 7]):
        for i in group:
            for j in group:
                if i != j:
                    matrix[i, j] = 1.0
    return matrix


class TestValidation:
    def test_valid_matrix(self):
        validate_distance_matrix(blob_matrix())

    def test_non_square(self):
        with pytest.raises(ValueError, match="square"):
            validate_distance_matrix(np.zeros((2, 3)))

    def test_negative(self):
        matrix = blob_matrix()
        matrix[0, 1] = matrix[1, 0] = -1
        with pytest.raises(ValueError, match="non-negative"):
            validate_distance_matrix(matrix)

    def test_nonzero_diagonal(self):
        matrix = blob_matrix()
        matrix[0, 0] = 1
        with pytest.raises(ValueError, match="diagonal"):
            validate_distance_matrix(matrix)

    def test_asymmetric(self):
        matrix = blob_matrix()
        matrix[0, 1] = 5
        with pytest.raises(ValueError, match="symmetric"):
            validate_distance_matrix(matrix)

    def test_bad_cluster_count(self):
        with pytest.raises(ValueError):
            kmedoids(blob_matrix(), 0)
        with pytest.raises(ValueError):
            kmedoids(blob_matrix(), 9)


class TestClustering:
    def test_recovers_blobs(self):
        labels, medoids = kmedoids(blob_matrix(), 2, seed=0)
        assert len(set(labels[:4])) == 1
        assert len(set(labels[4:])) == 1
        assert labels[0] != labels[4]
        assert len(medoids) == 2

    def test_medoids_are_members(self):
        labels, medoids = kmedoids(blob_matrix(), 2, seed=1)
        for c, medoid in enumerate(medoids):
            assert labels[medoid] == c

    def test_single_cluster(self):
        labels, medoids = kmedoids(blob_matrix(), 1, seed=0)
        assert set(labels) == {0}
        assert len(medoids) == 1

    def test_k_equals_n(self):
        matrix = blob_matrix()
        labels, medoids = kmedoids(matrix, 8, seed=0)
        assert sorted(set(labels)) == list(range(8))

    def test_deterministic_with_seed(self):
        a = kmedoids(blob_matrix(), 2, seed=7)
        b = kmedoids(blob_matrix(), 2, seed=7)
        assert a == b

    def test_cost_reasonable(self):
        matrix = blob_matrix()
        labels, medoids = kmedoids(matrix, 2, seed=0)
        # Perfect clustering: each point is distance ≤ 1 from its medoid.
        cost = sum(matrix[i, medoids[label]] for i, label in enumerate(labels))
        assert cost <= 6.0

    def test_identical_points(self):
        matrix = np.zeros((5, 5))
        labels, medoids = kmedoids(matrix, 2, seed=0)
        assert len(labels) == 5
        assert len(medoids) == 2
