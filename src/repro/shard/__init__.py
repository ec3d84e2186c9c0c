"""Sharded streaming: horizontal scale-out of the streaming engine.

:class:`ShardedStreamingCluseq` spreads an unbounded stream across N
independent :class:`~repro.stream.engine.StreamingCluseq` shards in
one process, with deterministic routing, a shared-nothing per-shard
durability story, and a periodic cross-shard consolidation pass that
merges heavily-overlapping clusters via a context-tree distance over
flat PST exports. See ``docs/SHARDING.md`` for the architecture, the
on-disk layout and the determinism contract.

Layering: ``repro.shard`` may import :mod:`repro.stream`,
:mod:`repro.core`, :mod:`repro.sequences`, :mod:`repro.obs` and
:mod:`repro.typing`; nothing below it may import this package
(enforced by checker rule CLQ001).
"""

from .dissimilarity import (
    context_tree_distance,
    flat_labels,
    flat_log_likelihood,
    predict_row,
)
from .engine import (
    DISPATCH_FILENAME,
    MANIFEST_FILENAME,
    ROUTER_STATE_FILENAME,
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
    router_state_path,
    shard_dir,
    shard_state_digest,
)
from .plan import ClusterExport, MergeOp, plan_merges
from .router import (
    ROUTERS,
    HashRouter,
    PstRouter,
    Router,
    build_router,
    fnv1a,
)

__all__ = [
    "DISPATCH_FILENAME",
    "MANIFEST_FILENAME",
    "ROUTERS",
    "ROUTER_STATE_FILENAME",
    "RUNNERS",
    "SHARD_FORMAT",
    "ClusterExport",
    "HashRouter",
    "LocalShard",
    "MergeOp",
    "PstRouter",
    "Router",
    "ShardConfig",
    "ShardEngine",
    "ShardStats",
    "ShardedStreamingCluseq",
    "build_router",
    "build_shard_engine",
    "context_tree_distance",
    "dispatch_path",
    "flat_labels",
    "flat_log_likelihood",
    "fnv1a",
    "manifest_path",
    "plan_merges",
    "predict_row",
    "read_manifest",
    "router_state_path",
    "shard_dir",
    "shard_state_digest",
]
