"""Baseline models compared against CLUSEQ in the paper's Table 2."""

from .base import BaselineResult, SequenceClusterer
from .block_edit import (
    BlockEditClusterer,
    block_edit_distance,
    longest_common_substring,
    normalized_block_edit_distance,
    pairwise_block_distance_matrix,
)
from .edit_distance import (
    EditDistanceClusterer,
    edit_distance,
    normalized_edit_distance,
    pairwise_distance_matrix,
)
from .hmm import DiscreteHMM, HMMClusterer
from .kmedoids import kmedoids, validate_distance_matrix
from .qgram import (
    QGramClusterer,
    cosine_similarity,
    qgram_profile,
    spherical_kmeans,
)

__all__ = [
    "BaselineResult",
    "SequenceClusterer",
    "BlockEditClusterer",
    "block_edit_distance",
    "longest_common_substring",
    "normalized_block_edit_distance",
    "pairwise_block_distance_matrix",
    "EditDistanceClusterer",
    "edit_distance",
    "normalized_edit_distance",
    "pairwise_distance_matrix",
    "DiscreteHMM",
    "HMMClusterer",
    "kmedoids",
    "validate_distance_matrix",
    "QGramClusterer",
    "cosine_similarity",
    "qgram_profile",
    "spherical_kmeans",
]
