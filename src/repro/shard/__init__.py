"""Sharded streaming: N streaming engines behind one coordinator.

:class:`ShardedStreamingCluseq` spreads a stream across N independent
in-memory :class:`~repro.stream.engine.StreamingCluseq` shards in one
process, with content-hash routing and a periodic cross-shard
consolidation pass that merges heavily-overlapping clusters via a
context-tree distance between their PSTs. Durable runs use a single
``StreamingCluseq(state_dir=...)``. See ``docs/SHARDING.md`` for the
architecture and the determinism contract.

Layering: ``repro.shard`` may import :mod:`repro.stream`,
:mod:`repro.core`, :mod:`repro.sequences`, :mod:`repro.obs` and
:mod:`repro.typing`; nothing below it may import this package
(enforced by checker rule CLQ001).
"""

from .dissimilarity import context_tree_distance
from .engine import LocalShard, ShardConfig, ShardedStreamingCluseq, ShardStats
from .plan import ClusterExport, MergeOp, plan_merges
from .router import fnv1a, route

__all__ = [
    "ClusterExport",
    "LocalShard",
    "MergeOp",
    "ShardConfig",
    "ShardStats",
    "ShardedStreamingCluseq",
    "context_tree_distance",
    "fnv1a",
    "plan_merges",
    "route",
]
