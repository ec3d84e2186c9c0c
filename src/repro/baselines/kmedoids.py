"""k-medoids (PAM-style) clustering over a precomputed distance matrix.

The edit-distance baselines (ED and EDBO) are *distance* models with no
vector-space embedding, so they cluster with k-medoids: medoids are
actual sequences, assignment is nearest-medoid, and updates pick the
member minimising the within-cluster distance sum. Initialisation uses
the k-means++-style D² weighting for robustness.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt


def validate_distance_matrix(distances: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """Check shape/symmetry/diagonal and return a float64 view."""
    matrix = np.asarray(distances, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"distance matrix must be square, got {matrix.shape}")
    if np.any(matrix < 0):
        raise ValueError("distances must be non-negative")
    if not np.allclose(np.diag(matrix), 0.0):
        raise ValueError("distance matrix diagonal must be zero")
    if not np.allclose(matrix, matrix.T, atol=1e-9):
        raise ValueError("distance matrix must be symmetric")
    return matrix


def _dsquared_init(
    matrix: npt.NDArray[np.float64], k: int, rng: np.random.Generator
) -> list[int]:
    """k-means++-style medoid initialisation on a distance matrix."""
    n = matrix.shape[0]
    first = int(rng.integers(n))
    medoids = [first]
    closest = matrix[first].copy()
    while len(medoids) < k:
        weights = closest**2
        total = weights.sum()
        if total <= 0:
            # All remaining points coincide with a medoid; pick any
            # non-medoid deterministically.
            remaining = [i for i in range(n) if i not in medoids]
            medoids.append(remaining[0])
            continue
        choice = int(rng.choice(n, p=weights / total))
        if choice in medoids:
            order = np.argsort(-closest)
            choice = next(int(i) for i in order if int(i) not in medoids)
        medoids.append(choice)
        closest = np.minimum(closest, matrix[choice])
    return medoids


def kmedoids(
    distances: npt.NDArray[np.float64],
    num_clusters: int,
    max_iterations: int = 50,
    seed: int = 0,
) -> tuple[list[int], list[int]]:
    """Cluster points given a pairwise distance matrix.

    Returns ``(labels, medoids)`` where ``labels[i]`` is the cluster
    index of point ``i`` and ``medoids[c]`` the point index serving as
    cluster ``c``'s medoid.

    The update step is the classic alternation: assign every point to
    its nearest medoid, then re-pick each cluster's medoid as the
    member minimising the summed distance to the others, until
    assignments stop changing or *max_iterations* is reached.
    """
    matrix = validate_distance_matrix(distances)
    n = matrix.shape[0]
    if not 1 <= num_clusters <= n:
        raise ValueError(f"num_clusters must be in [1, {n}]")
    rng = np.random.default_rng(seed)

    medoids = _dsquared_init(matrix, num_clusters, rng)
    labels = np.argmin(matrix[:, medoids], axis=1)

    for _ in range(max_iterations):
        new_medoids: list[int] = []
        for c in range(num_clusters):
            members = np.flatnonzero(labels == c)
            if members.size == 0:
                # Re-seed an empty cluster with the point farthest from
                # its current medoid (splits the loosest cluster).
                distances_to_medoid = matrix[np.arange(n), np.array(medoids)[labels]]
                new_medoids.append(int(np.argmax(distances_to_medoid)))
                continue
            within = matrix[np.ix_(members, members)].sum(axis=1)
            new_medoids.append(int(members[int(np.argmin(within))]))
        new_labels = np.argmin(matrix[:, new_medoids], axis=1)
        if new_medoids == medoids and np.array_equal(new_labels, labels):
            break
        medoids = new_medoids
        labels = new_labels

    return [int(label) for label in labels], medoids
