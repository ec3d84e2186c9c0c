"""Evaluation: metrics against ground truth, reports and diagnostics."""

from .histogram import (
    SimilarityDistribution,
    histogram_series,
    similarity_distribution,
    valley_comparison,
)
from .metrics import (
    EvaluationReport,
    FamilyScore,
    accuracy_score,
    adjusted_rand_index,
    contingency_table,
    evaluate_clustering,
    family_scores,
    map_clusters_to_families,
    normalized_mutual_information,
    purity_score,
)
from .reporting import (
    format_cell,
    percent,
    print_table,
    render_table,
)

__all__ = [
    "SimilarityDistribution",
    "histogram_series",
    "similarity_distribution",
    "valley_comparison",
    "EvaluationReport",
    "FamilyScore",
    "accuracy_score",
    "adjusted_rand_index",
    "contingency_table",
    "evaluate_clustering",
    "family_scores",
    "map_clusters_to_families",
    "normalized_mutual_information",
    "purity_score",
    "format_cell",
    "percent",
    "print_table",
    "render_table",
]
