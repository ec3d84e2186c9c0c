"""Sharded streaming CLUSEQ: N in-memory shards with consolidation.

:class:`ShardedStreamingCluseq` partitions an incoming stream across
``N`` independent :class:`~repro.stream.engine.StreamingCluseq` shards
in one process, routed by content hash
(:func:`repro.shard.router.route`). Each shard stays bit-deterministic
exactly as the single-shard engine does; a periodic **cross-shard
consolidation** pass compares cluster PSTs across shards with the
context-tree distance of :mod:`repro.shard.dissimilarity` and merges
heavily-overlapping clusters (:mod:`repro.shard.plan`), generalizing
the paper's §4.5 overlap test to models that never share members.

Shards run in memory only. A durable online run is a single
``StreamingCluseq(state_dir=...)`` (``cluseq stream --state-dir``),
whose journal and checkpoints are the package's one durability
protocol.

With ``shards=1``, every global batch is dispatched whole to shard 0,
so the composite is bit-identical to a plain ``StreamingCluseq`` run
(asserted by the differential suite).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..obs import get_logger, get_registry, span
from ..sequences.alphabet import Alphabet
from ..stream.engine import StreamConfig, StreamingCluseq, StreamStats, check_batch
from ..stream.sources import batched
from .plan import ClusterExport, plan_merges
from .router import route

_logger = get_logger("shard.engine")

__all__ = [
    "LocalShard",
    "ShardConfig",
    "ShardStats",
    "ShardedStreamingCluseq",
]


@dataclass(frozen=True)
class ShardConfig:
    """Coordinator-level knobs; per-shard behavior lives in ``stream``.

    ``consolidate_every`` counts *global* batches between cross-shard
    consolidation rounds (0 disables them); it is independent of the
    per-shard §4.5 dismissal schedule in ``stream.consolidate_every``.
    ``merge_threshold`` is the context-tree distance at or below which
    two cross-shard clusters merge (range [0, 2]; see
    :mod:`repro.shard.dissimilarity`). ``router`` names the routing
    policy and ``runner`` where the shards run; content hashing
    (``"hash"``) and one process (``"inprocess"``) are the only ones.
    """

    shards: int = 2
    router: str = "hash"
    runner: str = "inprocess"
    consolidate_every: int = 16
    merge_threshold: float = 0.25
    stream: StreamConfig = field(default_factory=StreamConfig)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.router != "hash":
            raise ValueError(
                f"unknown router {self.router!r} (only 'hash' routing "
                "exists; the 'pst' router was removed)"
            )
        if self.runner != "inprocess":
            raise ValueError(
                f"unknown runner {self.runner!r} (only 'inprocess' exists)"
            )
        if self.consolidate_every < 0:
            raise ValueError("consolidate_every must be >= 0")
        if not 0.0 <= self.merge_threshold <= 2.0:
            raise ValueError("merge_threshold must be within [0, 2]")


@dataclass(frozen=True)
class ShardStats:
    """Aggregated run statistics across every shard."""

    shards: int
    batches: int
    sequences: int
    absorbed: int
    outliers: int
    clusters: int
    clusters_spawned: int
    clusters_dismissed: int
    consolidations: int
    cross_merges: int
    per_shard: tuple[StreamStats, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "shards": self.shards,
            "batches": self.batches,
            "sequences": self.sequences,
            "absorbed": self.absorbed,
            "outliers": self.outliers,
            "clusters": self.clusters,
            "clusters_spawned": self.clusters_spawned,
            "clusters_dismissed": self.clusters_dismissed,
            "consolidations": self.consolidations,
            "cross_merges": self.cross_merges,
            "per_shard": [stats.to_dict() for stats in self.per_shard],
        }


class LocalShard:
    """Coordinator-side view of one in-process shard engine."""

    def __init__(self, engine: StreamingCluseq) -> None:
        self.engine = engine

    @property
    def batches(self) -> int:
        return self.engine.batches_ingested


class ShardedStreamingCluseq:
    """N independent in-memory streaming shards behind the single-engine API.

    Construct with :meth:`cold_start`. Public surface mirrors
    :class:`StreamingCluseq`: ``ingest_batch`` / ``run`` / ``stats`` /
    ``close``.
    """

    def __init__(
        self,
        handles: Sequence[LocalShard],
        config: ShardConfig,
        *,
        alphabet: Alphabet | None = None,
    ) -> None:
        if len(handles) != config.shards:
            raise ValueError(
                f"{len(handles)} handles for {config.shards} shards"
            )
        self._handles = list(handles)
        self.config = config
        self.alphabet = alphabet
        self._batches = 0
        self._sequences = 0
        self._rounds = 0
        self._cross_merges = 0

    # -- construction ------------------------------------------------------------

    @classmethod
    def cold_start(
        cls,
        alphabet_size: "int | None" = None,
        *,
        alphabet: "Alphabet | None" = None,
        significance_threshold: int = 3,
        similarity_threshold: float = 1.2,
        max_depth: int = 4,
        p_min: "float | None" = None,
        max_nodes: "int | None" = None,
        prune_strategy: str = "paper",
        config: "ShardConfig | None" = None,
    ) -> "ShardedStreamingCluseq":
        """A sharded engine whose shards have no clusters yet."""
        config = config if config is not None else ShardConfig()
        handles = [
            LocalShard(
                StreamingCluseq.cold_start(
                    alphabet_size,
                    alphabet=alphabet,
                    significance_threshold=significance_threshold,
                    similarity_threshold=similarity_threshold,
                    max_depth=max_depth,
                    p_min=p_min,
                    max_nodes=max_nodes,
                    prune_strategy=prune_strategy,
                    config=config.stream,
                )
            )
            for _ in range(config.shards)
        ]
        return cls(handles, config, alphabet=alphabet)

    # -- ingestion ----------------------------------------------------------------

    def ingest_batch(
        self, batch: Sequence[Sequence[int]]
    ) -> "list[int | None]":
        """Route and dispatch one global micro-batch.

        Returns per-sequence cluster assignments (cluster ids are only
        unique *per shard*). Empty sequences are dropped, mirroring the
        single-shard engine. Every other sequence is checked before any
        is routed: a symbol id outside the alphabet raises
        ``ValueError`` naming its position in *batch*, and no shard
        applies anything.
        """
        cleaned = check_batch(batch, self._alphabet_size)
        if not cleaned:
            return []
        routes = [route(seq, self.config.shards) for seq in cleaned]
        assigned = self._dispatch_batch(cleaned, routes)
        self._batches += 1
        self._sequences += len(cleaned)
        cfg = self.config
        if (
            cfg.consolidate_every > 0
            and self._batches % cfg.consolidate_every == 0
        ):
            self._consolidate(self._batches // cfg.consolidate_every)
        return assigned

    def run(self, source: Iterable[Sequence[int]]) -> ShardStats:
        """Consume *source* to exhaustion in ``config.stream.batch_size``
        chunks, each one :meth:`ingest_batch` call."""
        for batch in batched(source, self.config.stream.batch_size):
            self.ingest_batch(batch)
        return self.stats()

    @property
    def _alphabet_size(self) -> int:
        """The symbol count every shard's model is over."""
        return len(self._handles[0].engine.result.background)

    def _dispatch_batch(
        self, cleaned: list[list[int]], routes: list[int]
    ) -> "list[int | None]":
        """Send routed sub-batches to their shards, in shard order.

        The shard engines keep no journal, so each applies its checked
        sub-batch directly: its own ``ingest_batch`` would only check
        every sequence a second time.
        """
        subs: list[list[list[int]]] = [[] for _ in self._handles]
        for seq, shard in zip(cleaned, routes):
            subs[shard].append(seq)
        with span("shard.batch"):
            results: list[list[int | None]] = [[] for _ in self._handles]
            for index, sub in enumerate(subs):
                if sub:
                    results[index] = self._handles[index].engine._apply_batch(sub)
        cursors = [0] * len(self._handles)
        assigned: list[int | None] = []
        for shard in routes:
            assigned.append(results[shard][cursors[shard]])
            cursors[shard] += 1
        return assigned

    # -- consolidation ------------------------------------------------------------

    def _consolidate(self, round_: int) -> None:
        """One cross-shard consolidation round, folded into the live trees.

        Every merge reads its dropped cluster's pre-round tree. A cluster
        that keeps one pair and is dropped by a later pair of the round
        is dismissed anyway, so the merges into it are skipped and its
        own keeper gets the tree it had before the round.
        (:func:`plan_merges` never pairs a cluster once it is dropped,
        so a dropped keeper is always dropped later.)
        """
        registry = get_registry()
        with span("shard.consolidate"):
            exports = [
                [
                    ClusterExport(
                        shard=index,
                        cluster_id=cluster.cluster_id,
                        weight=cluster.pst.total_symbols,
                        pst=cluster.pst,
                    )
                    for cluster in handle.engine.result.clusters
                ]
                for index, handle in enumerate(self._handles)
            ]
            ops, pairs = plan_merges(exports, self.config.merge_threshold)
            trees = {
                (export.shard, export.cluster_id): export.pst
                for shard_exports in exports
                for export in shard_exports
            }
            dropped = {(op.drop_shard, op.drop_cluster) for op in ops}
            for op in ops:
                if (op.keep_shard, op.keep_cluster) not in dropped:
                    trees[op.keep_shard, op.keep_cluster].merge_counts(
                        trees[op.drop_shard, op.drop_cluster]
                    )
            for index, handle in enumerate(self._handles):
                handle.engine.dismiss(
                    cluster for shard, cluster in dropped if shard == index
                )
        self._rounds += 1
        self._cross_merges += len(ops)
        if registry.enabled:
            registry.counter("shard.pairs_scored").inc(pairs)
            registry.counter("shard.cross_merges").inc(len(ops))
        if ops:
            _logger.info(
                "cross-shard consolidation merged %d cluster(s)",
                len(ops),
                extra={"round": round_, "pairs_scored": pairs},
            )

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Close every shard."""
        for handle in self._handles:
            handle.engine.close()

    def __enter__(self) -> "ShardedStreamingCluseq":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection ------------------------------------------------------------

    @property
    def handles(self) -> list[LocalShard]:
        return list(self._handles)

    @property
    def batches_ingested(self) -> int:
        return self._batches

    @property
    def sequences_ingested(self) -> int:
        return self._sequences

    def stats(self) -> ShardStats:
        per = tuple(handle.engine.stats() for handle in self._handles)
        return ShardStats(
            shards=len(per),
            batches=self._batches,
            sequences=self._sequences,
            absorbed=sum(stats.absorbed for stats in per),
            outliers=sum(stats.outliers for stats in per),
            clusters=sum(stats.clusters for stats in per),
            clusters_spawned=sum(stats.clusters_spawned for stats in per),
            clusters_dismissed=sum(
                stats.clusters_dismissed for stats in per
            ),
            consolidations=self._rounds,
            cross_merges=self._cross_merges,
            per_shard=per,
        )

    def __repr__(self) -> str:
        return (
            f"ShardedStreamingCluseq(shards={len(self._handles)}, "
            f"batches={self._batches}, sequences={self._sequences})"
        )
