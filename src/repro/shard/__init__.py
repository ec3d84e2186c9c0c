"""Sharded streaming: N streaming engines behind one coordinator.

:class:`ShardedStreamingCluseq` spreads an unbounded stream across N
independent :class:`~repro.stream.engine.StreamingCluseq` shards in
one process, with content-hash routing, a shared-nothing per-shard
durability story, and a periodic cross-shard consolidation pass that
merges heavily-overlapping clusters via a context-tree distance over
flat PST exports. See ``docs/SHARDING.md`` for the architecture, the
on-disk layout and the determinism contract.

Layering: ``repro.shard`` may import :mod:`repro.stream`,
:mod:`repro.core`, :mod:`repro.sequences`, :mod:`repro.obs` and
:mod:`repro.typing`; nothing below it may import this package
(enforced by checker rule CLQ001).
"""

from .dissimilarity import context_tree_distance, flat_labels, predict_row
from .engine import (
    DISPATCH_FILENAME,
    MANIFEST_FILENAME,
    RUNNERS,
    SHARD_FORMAT,
    LocalShard,
    ShardConfig,
    ShardedStreamingCluseq,
    ShardEngine,
    ShardStats,
    build_shard_engine,
    dispatch_path,
    manifest_path,
    read_manifest,
    shard_dir,
    shard_state_digest,
)
from .plan import ClusterExport, MergeOp, plan_merges
from .router import fnv1a, route

__all__ = [
    "DISPATCH_FILENAME",
    "MANIFEST_FILENAME",
    "RUNNERS",
    "SHARD_FORMAT",
    "ClusterExport",
    "LocalShard",
    "MergeOp",
    "ShardConfig",
    "ShardEngine",
    "ShardStats",
    "ShardedStreamingCluseq",
    "build_shard_engine",
    "context_tree_distance",
    "dispatch_path",
    "flat_labels",
    "fnv1a",
    "manifest_path",
    "plan_merges",
    "predict_row",
    "read_manifest",
    "route",
    "shard_dir",
    "shard_state_digest",
]
