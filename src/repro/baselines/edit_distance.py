"""Edit-distance (ED) baseline.

The classic Levenshtein distance via dynamic programming, vectorised
one row at a time with numpy. The in-row dependency of the deletion
case (``D[i][j-1] + 1``) is resolved in closed form: for candidate
costs ``c[j] = min(D[i-1][j] + 1, D[i-1][j-1] + sub)``, the final row is

    D[i][j] = min_{k ≤ j} ( c[k] + (j − k) )
            = j + cummin( c[k] − k )

computed with ``numpy.minimum.accumulate`` — the whole DP is
``O(n·m)`` cell work but only ``O(n)`` Python-level iterations.

Clustering uses k-medoids over the pairwise (optionally normalised)
distance matrix. As the paper stresses, ED captures only the global
alignment, so sequences sharing strong local features but differing
globally land far apart — its Table 2 accuracy collapses.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

from ..sequences.database import SequenceDatabase
from .base import SequenceClusterer
from .kmedoids import kmedoids


def edit_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Levenshtein distance between two encoded sequences."""
    if len(a) == 0:
        return len(b)
    if len(b) == 0:
        return len(a)
    if len(a) < len(b):
        a, b = b, a  # iterate over the longer one, vectorise the shorter
    b_arr = np.asarray(b, dtype=np.int64)
    m = b_arr.size
    offsets = np.arange(1, m + 1, dtype=np.float64)
    prev = np.arange(m + 1, dtype=np.float64)
    for i, symbol in enumerate(a, start=1):
        substitution = prev[:-1] + (b_arr != symbol)
        deletion_up = prev[1:] + 1.0
        candidate = np.minimum(substitution, deletion_up)
        # Resolve the left-to-right insertion chain in closed form.
        seed = np.concatenate(([float(i)], candidate - offsets))
        best = np.minimum.accumulate(seed)[1:] + offsets
        prev = np.concatenate(([float(i)], best))
    return int(prev[-1])


def normalized_edit_distance(a: Sequence[int], b: Sequence[int]) -> float:
    """Edit distance divided by the longer length (range [0, 1]).

    Normalisation keeps k-medoids from clustering by sequence length
    when lengths vary widely.
    """
    longer = max(len(a), len(b))
    if longer == 0:
        return 0.0
    return edit_distance(a, b) / longer


def pairwise_distance_matrix(
    sequences: Sequence[Sequence[int]], normalized: bool = True
) -> npt.NDArray[np.float64]:
    """Symmetric pairwise edit-distance matrix."""
    n = len(sequences)
    matrix = np.zeros((n, n), dtype=np.float64)
    metric = normalized_edit_distance if normalized else edit_distance
    for i in range(n):
        for j in range(i + 1, n):
            d = metric(sequences[i], sequences[j])
            matrix[i, j] = matrix[j, i] = d
    return matrix


class EditDistanceClusterer(SequenceClusterer):
    """Table 2's "ED" model: edit distance + k-medoids.

    Parameters
    ----------
    normalized:
        Divide each distance by the longer sequence length.
    seed:
        Random seed for the k-medoids initialisation.
    """

    name = "ED"

    def __init__(self, normalized: bool = True, seed: int = 0) -> None:
        self.normalized = normalized
        self.seed = seed

    def _cluster(
        self, db: SequenceDatabase, num_clusters: int
    ) -> list[int | None]:
        sequences = [db.encoded(i) for i in range(len(db))]
        matrix = pairwise_distance_matrix(sequences, normalized=self.normalized)
        labels, _ = kmedoids(matrix, num_clusters, seed=self.seed)
        return list(labels)
