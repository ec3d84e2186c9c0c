"""Similarity-distribution inspection helpers (the paper's Figure 3).

These utilities expose the sequence-cluster similarity histogram that
drives the threshold adjustment, for diagnostics, the ablation benches
and the documentation plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..core.cluseq import ClusteringResult
from ..core.similarity import similarities
from ..core.threshold import VALLEY_METHODS, build_histogram
from ..sequences.database import SequenceDatabase


@dataclass(frozen=True)
class SimilarityDistribution:
    """All sequence×cluster log-similarities of a fitted clustering."""

    log_similarities: np.ndarray
    member_mask: np.ndarray  # True where the pair is a current membership

    @property
    def member_values(self) -> np.ndarray:
        return self.log_similarities[self.member_mask]

    @property
    def non_member_values(self) -> np.ndarray:
        return self.log_similarities[~self.member_mask]


def similarity_distribution(
    result: ClusteringResult, db: SequenceDatabase
) -> SimilarityDistribution:
    """Recompute every sequence×cluster similarity for a fitted result."""
    values: list[float] = []
    member: list[bool] = []
    psts = [cluster.pst for cluster in result.clusters]
    for index in range(len(db)):
        scores = similarities(psts, db.encoded(index), result.background)
        for cluster, scored in zip(result.clusters, scores):
            values.append(scored.log_similarity)
            member.append(cluster.contains(index))
    return SimilarityDistribution(
        log_similarities=np.asarray(values, dtype=np.float64),
        member_mask=np.asarray(member, dtype=bool),
    )


def histogram_series(
    log_similarities: Sequence[float], buckets: int = 50
) -> list[tuple[float, int]]:
    """``(bucket_center, count)`` pairs — the paper's Figure 3 series."""
    centers, counts = build_histogram(log_similarities, buckets=buckets)
    return [(float(x), int(y)) for x, y in zip(centers, counts)]


def valley_comparison(
    log_similarities: Sequence[float], buckets: int = 100
) -> dict[str, float | None]:
    """Valley estimate (in log scale) from every registered method."""
    out: dict[str, float | None] = {}
    for name, finder in VALLEY_METHODS.items():
        found = finder(log_similarities, buckets=buckets)
        out[name] = None if found is None else found.log_threshold
    return out
