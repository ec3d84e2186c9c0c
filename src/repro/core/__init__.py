"""CLUSEQ core: the probabilistic suffix tree, the similarity measure
and the clustering algorithm itself."""

from .cluster import Cluster, Membership
from .cluseq import (
    CLUSEQ,
    CluseqParams,
    ClusteringResult,
    IterationHook,
    IterationSnapshot,
    IterationStats,
    cluster_sequences,
)
from .consolidation import consolidate
from .estimator import CluseqClusterer, NotFittedError
from .persistence import load_result, result_from_dict, result_to_dict, save_result
from .segmentation import BACKGROUND, Domain, domain_summary, segment_sequence
from .pruning import STRATEGIES as PRUNE_STRATEGIES
from .pruning import prune_to
from .pst import APPROX_BYTES_PER_NODE, PSTNode, ProbabilisticSuffixTree
from .seeding import SeedChoice, build_seed_pst, select_seeds
from .similarity import (
    SimilarityResult,
    log_symbol_ratios,
    similarities,
    similarity,
)
from .smoothing import (
    adjust_probability,
    default_p_min,
    validate_p_min,
)
from .threshold import (
    ValleyResult,
    blend_log_threshold,
    build_histogram,
    find_valley,
)

__all__ = [
    "Cluster",
    "Membership",
    "CLUSEQ",
    "CluseqParams",
    "ClusteringResult",
    "IterationHook",
    "IterationSnapshot",
    "IterationStats",
    "cluster_sequences",
    "CluseqClusterer",
    "NotFittedError",
    "load_result",
    "result_from_dict",
    "result_to_dict",
    "save_result",
    "BACKGROUND",
    "Domain",
    "domain_summary",
    "segment_sequence",
    "consolidate",
    "PRUNE_STRATEGIES",
    "prune_to",
    "APPROX_BYTES_PER_NODE",
    "PSTNode",
    "ProbabilisticSuffixTree",
    "SeedChoice",
    "build_seed_pst",
    "select_seeds",
    "SimilarityResult",
    "log_symbol_ratios",
    "similarities",
    "similarity",
    "adjust_probability",
    "default_p_min",
    "validate_p_min",
    "ValleyResult",
    "blend_log_threshold",
    "build_histogram",
    "find_valley",
]
