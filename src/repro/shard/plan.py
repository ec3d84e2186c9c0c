"""Deterministic cross-shard merge planning.

A consolidation round looks at every *cross-shard* pair of cluster
exports, scores it with
:func:`~repro.shard.dissimilarity.context_tree_distance` (from one
:class:`~repro.shard.dissimilarity.ContextProfile` per export, built
once per round), and greedily
merges pairs below the configured threshold — closest pair first, each
cluster consumed at most once as a merge *source*. The keeper of a
pair is the model with more observed mass (``total_symbols``), ties
broken toward the lower ``(shard, cluster_id)``, so the plan is a pure
deterministic function of the exports.

Clusters whose tree has no walkable node but the root carry no
significant context structure yet; they are excluded from pairing
(two near-empty models look identical under any model distance, and
merging them would be noise, not signal).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..core.pst import ProbabilisticSuffixTree
from .dissimilarity import ContextProfile

__all__ = ["ClusterExport", "MergeOp", "plan_merges"]


@dataclass(frozen=True)
class ClusterExport:
    """One shard-local cluster as seen by the consolidation pass.

    The tree is the live cluster model: the pass reads it and changes
    nothing until the whole plan has been scored.
    """

    shard: int
    cluster_id: int
    #: The PST's total observed symbol mass — the keeper rule's weight.
    weight: int
    pst: ProbabilisticSuffixTree


@dataclass(frozen=True)
class MergeOp:
    """Merge cluster (drop_shard, drop_cluster) into (keep_shard, keep_cluster)."""

    keep_shard: int
    keep_cluster: int
    drop_shard: int
    drop_cluster: int
    distance: float


def plan_merges(
    exports: Sequence[Sequence[ClusterExport]],
    threshold: float,
) -> tuple[list[MergeOp], int]:
    """Plan cross-shard merges over per-shard *exports*.

    Returns ``(ops, pairs_scored)``: the ordered merge operations and
    the number of cross-shard pairs that were distance-scored (the
    ``shard.pairs_scored`` metric).
    """
    profiled = [
        (export, ContextProfile.of(export.pst))
        for shard_exports in exports
        for export in shard_exports
    ]
    candidates = [
        (export, profile) for export, profile in profiled if len(profile.labels) > 1
    ]
    scored: list[tuple[float, ClusterExport, ClusterExport]] = []
    pairs = 0
    for i, (a, profile_a) in enumerate(candidates):
        for b, profile_b in candidates[i + 1 :]:
            if a.shard == b.shard:
                continue
            pairs += 1
            distance = profile_a.distance(profile_b)
            if distance <= threshold:
                scored.append((distance, a, b))
    scored.sort(
        key=lambda item: (
            item[0],
            item[1].shard,
            item[1].cluster_id,
            item[2].shard,
            item[2].cluster_id,
        )
    )
    dropped: set[tuple[int, int]] = set()
    ops: list[MergeOp] = []
    for distance, a, b in scored:
        key_a = (a.shard, a.cluster_id)
        key_b = (b.shard, b.cluster_id)
        if key_a in dropped or key_b in dropped:
            continue
        # Keeper = heavier model; exact-weight ties keep the lower
        # (shard, cluster_id) so the choice never depends on pair order.
        if (a.weight, key_b) > (b.weight, key_a):
            keep, drop = a, b
        else:
            keep, drop = b, a
        dropped.add((drop.shard, drop.cluster_id))
        ops.append(
            MergeOp(
                keep_shard=keep.shard,
                keep_cluster=keep.cluster_id,
                drop_shard=drop.shard,
                drop_cluster=drop.cluster_id,
                distance=distance,
            )
        )
    return ops, pairs
