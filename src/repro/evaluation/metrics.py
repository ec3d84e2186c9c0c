"""Clustering-quality metrics against ground-truth labels.

The paper scores clusterings three ways:

* **Percentage of correctly labeled sequences** (Table 2) — each
  cluster is mapped to a ground-truth family and a sequence counts as
  correct when its primary cluster maps to its true family (a known
  outlier counts as correct when left unclustered).
* **Per-family precision / recall** (Tables 3 and 4) — with ``F`` the
  true member set of a family and ``F'`` the set assigned to it,
  precision is ``|F ∩ F'| / |F'|`` and recall ``|F ∩ F'| / |F|``.
* Response time, reported alongside.

Clusters map to families by majority, the Table 2 rule: each cluster
maps to the family most represented among its members, and several
clusters may map to one family.

For completeness the module also provides standard external indices
(purity, adjusted Rand index, normalised mutual information) computed
from scratch.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from collections.abc import Hashable, Mapping, Sequence

from ..sequences.database import OUTLIER_LABEL

ClusterId = Hashable
FamilyLabel = str


@dataclass(frozen=True)
class FamilyScore:
    """Precision/recall of one ground-truth family."""

    family: str
    size: int
    assigned: int
    correct: int

    @property
    def precision(self) -> float:
        """``|F ∩ F'| / |F'|`` (1.0 when nothing was assigned)."""
        if self.assigned == 0:
            return 1.0 if self.size == 0 else 0.0
        return self.correct / self.assigned

    @property
    def recall(self) -> float:
        """``|F ∩ F'| / |F|`` (1.0 for an empty family)."""
        if self.size == 0:
            return 1.0
        return self.correct / self.size

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        if p + r == 0:
            return 0.0
        return 2 * p * r / (p + r)


@dataclass
class EvaluationReport:
    """Full scoring of one clustering against ground truth."""

    accuracy: float
    family_scores: list[FamilyScore]
    cluster_to_family: dict[ClusterId, str | None]
    purity: float
    adjusted_rand_index: float
    normalized_mutual_information: float
    num_clusters: int
    num_sequences: int
    num_predicted_outliers: int

    @property
    def macro_precision(self) -> float:
        """Unweighted mean precision over families."""
        if not self.family_scores:
            return 0.0
        return sum(s.precision for s in self.family_scores) / len(self.family_scores)

    @property
    def macro_recall(self) -> float:
        """Unweighted mean recall over families."""
        if not self.family_scores:
            return 0.0
        return sum(s.recall for s in self.family_scores) / len(self.family_scores)


def _validate_inputs(
    true_labels: Sequence[str | None],
    predicted_clusters: Sequence[ClusterId | None],
) -> None:
    if len(true_labels) != len(predicted_clusters):
        raise ValueError(
            f"{len(true_labels)} true labels but "
            f"{len(predicted_clusters)} predictions"
        )
    if not true_labels:
        raise ValueError("cannot evaluate an empty clustering")


def contingency_table(
    true_labels: Sequence[str | None],
    predicted_clusters: Sequence[ClusterId | None],
) -> dict[ClusterId, Counter]:
    """Per-cluster counters of true labels (outliers/None excluded).

    Only sequences with a non-outlier true label *and* a predicted
    cluster contribute.
    """
    table: dict[ClusterId, Counter] = defaultdict(Counter)
    for truth, cluster in zip(true_labels, predicted_clusters):
        if cluster is None or truth is None or truth == OUTLIER_LABEL:
            continue
        table[cluster][truth] += 1
    return dict(table)


def map_clusters_to_families(
    true_labels: Sequence[str | None],
    predicted_clusters: Sequence[ClusterId | None],
) -> dict[ClusterId, str | None]:
    """Map each predicted cluster to a ground-truth family.

    Each cluster independently maps to its most common member family
    (many clusters may share a family); a cluster with no labelled
    member maps to ``None``.
    """
    _validate_inputs(true_labels, predicted_clusters)
    mapping: dict[ClusterId, str | None] = {
        c: None for c in predicted_clusters if c is not None
    }
    for cluster, counts in contingency_table(true_labels, predicted_clusters).items():
        mapping[cluster] = counts.most_common(1)[0][0]
    return mapping


def accuracy_score(
    true_labels: Sequence[str | None],
    predicted_clusters: Sequence[ClusterId | None],
    mapping: Mapping[ClusterId, str | None] | None = None,
) -> float:
    """Fraction of correctly labeled sequences (the paper's Table 2).

    A sequence is correct when its cluster maps to its true family, or
    when it is a known outlier left unclustered. Sequences with no
    ground-truth label are skipped.
    """
    _validate_inputs(true_labels, predicted_clusters)
    if mapping is None:
        mapping = map_clusters_to_families(true_labels, predicted_clusters)
    correct = 0
    scored = 0
    for truth, cluster in zip(true_labels, predicted_clusters):
        if truth is None:
            continue
        scored += 1
        if truth == OUTLIER_LABEL:
            if cluster is None:
                correct += 1
        elif cluster is not None and mapping.get(cluster) == truth:
            correct += 1
    if scored == 0:
        raise ValueError("no ground-truth labels to score against")
    return correct / scored


def family_scores(
    true_labels: Sequence[str | None],
    predicted_clusters: Sequence[ClusterId | None],
    mapping: Mapping[ClusterId, str | None] | None = None,
) -> list[FamilyScore]:
    """Per-family precision/recall (the paper's Tables 3 and 4).

    ``F'`` for a family is the union of members of every cluster mapped
    to it.
    """
    _validate_inputs(true_labels, predicted_clusters)
    if mapping is None:
        mapping = map_clusters_to_families(true_labels, predicted_clusters)

    families = sorted(
        {t for t in true_labels if t is not None and t != OUTLIER_LABEL}
    )
    sizes = Counter(t for t in true_labels if t is not None and t != OUTLIER_LABEL)
    assigned: Counter = Counter()
    correct: Counter = Counter()
    for truth, cluster in zip(true_labels, predicted_clusters):
        if cluster is None:
            continue
        family = mapping.get(cluster)
        if family is None:
            continue
        assigned[family] += 1
        if truth == family:
            correct[family] += 1
    return [
        FamilyScore(
            family=family,
            size=sizes[family],
            assigned=assigned[family],
            correct=correct[family],
        )
        for family in families
    ]


def purity_score(
    true_labels: Sequence[str | None],
    predicted_clusters: Sequence[ClusterId | None],
) -> float:
    """Weighted majority purity over clusters (clustered sequences only)."""
    table = contingency_table(true_labels, predicted_clusters)
    total = sum(sum(c.values()) for c in table.values())
    if total == 0:
        return 0.0
    dominant = sum(c.most_common(1)[0][1] for c in table.values())
    return dominant / total


def _comb2(n: int) -> float:
    return n * (n - 1) / 2.0


def adjusted_rand_index(
    true_labels: Sequence[str | None],
    predicted_clusters: Sequence[ClusterId | None],
) -> float:
    """Adjusted Rand index over sequences with both a label and a cluster.

    Implemented from the standard pair-counting formulation; returns
    0.0 for degenerate inputs (a single cluster or a single family).
    """
    pairs = [
        (t, c)
        for t, c in zip(true_labels, predicted_clusters)
        if t is not None and t != OUTLIER_LABEL and c is not None
    ]
    if len(pairs) < 2:
        return 0.0
    truth_counts = Counter(t for t, _ in pairs)
    cluster_counts = Counter(c for _, c in pairs)
    joint_counts = Counter(pairs)
    sum_joint = sum(_comb2(n) for n in joint_counts.values())
    sum_truth = sum(_comb2(n) for n in truth_counts.values())
    sum_cluster = sum(_comb2(n) for n in cluster_counts.values())
    total_pairs = _comb2(len(pairs))
    if total_pairs == 0:
        return 0.0
    expected = sum_truth * sum_cluster / total_pairs
    maximum = (sum_truth + sum_cluster) / 2.0
    if maximum == expected:
        # Degenerate: all-singleton or single-block partitions. By the
        # usual convention (matching scikit-learn) identical pair
        # structures score 1.0.
        return 1.0 if sum_joint == sum_truth == sum_cluster else 0.0
    return (sum_joint - expected) / (maximum - expected)


def normalized_mutual_information(
    true_labels: Sequence[str | None],
    predicted_clusters: Sequence[ClusterId | None],
) -> float:
    """NMI (arithmetic normalisation) over labelled, clustered sequences."""
    pairs = [
        (t, c)
        for t, c in zip(true_labels, predicted_clusters)
        if t is not None and t != OUTLIER_LABEL and c is not None
    ]
    n = len(pairs)
    if n == 0:
        return 0.0
    truth_counts = Counter(t for t, _ in pairs)
    cluster_counts = Counter(c for _, c in pairs)
    joint_counts = Counter(pairs)

    def entropy(counts: Counter) -> float:
        return -sum(
            (v / n) * math.log(v / n) for v in counts.values() if v > 0
        )

    h_truth = entropy(truth_counts)
    h_cluster = entropy(cluster_counts)
    mutual = 0.0
    for (t, c), v in joint_counts.items():
        p_joint = v / n
        p_t = truth_counts[t] / n
        p_c = cluster_counts[c] / n
        mutual += p_joint * math.log(p_joint / (p_t * p_c))
    denominator = (h_truth + h_cluster) / 2.0
    if denominator <= 0:
        return 0.0
    return max(0.0, mutual / denominator)


def evaluate_clustering(
    true_labels: Sequence[str | None],
    predicted_clusters: Sequence[ClusterId | None],
) -> EvaluationReport:
    """One-call evaluation producing every metric the experiments need."""
    _validate_inputs(true_labels, predicted_clusters)
    mapping = map_clusters_to_families(true_labels, predicted_clusters)
    return EvaluationReport(
        accuracy=accuracy_score(true_labels, predicted_clusters, mapping),
        family_scores=family_scores(true_labels, predicted_clusters, mapping),
        cluster_to_family=mapping,
        purity=purity_score(true_labels, predicted_clusters),
        adjusted_rand_index=adjusted_rand_index(true_labels, predicted_clusters),
        normalized_mutual_information=normalized_mutual_information(
            true_labels, predicted_clusters
        ),
        num_clusters=len({c for c in predicted_clusters if c is not None}),
        num_sequences=len(true_labels),
        num_predicted_outliers=sum(1 for c in predicted_clusters if c is None),
    )
