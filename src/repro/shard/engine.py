"""Sharded streaming CLUSEQ: N in-process shards with consolidation.

:class:`ShardedStreamingCluseq` partitions an incoming stream across
``N`` independent :class:`~repro.stream.engine.StreamingCluseq` shards
(one :class:`ShardEngine` each) in one process, routed by content hash
(:func:`repro.shard.router.route`). Each shard keeps its own WAL +
checkpoint state directory and stays bit-deterministic exactly as the
single-shard engine does; a periodic **cross-shard consolidation**
pass compares cluster PSTs across shards with the context-tree
distance of :mod:`repro.shard.dissimilarity` and merges
heavily-overlapping clusters (:mod:`repro.shard.plan`), generalizing
the paper's §4.5 overlap test to models that never share members.

Durability protocol (``repro.shard/v1`` state layout)::

    state_dir/
      manifest.json     # config + cold-start spec (atomic write)
      dispatch.jsonl    # coordinator WAL: batches w/ routes + plans
      shard-00/         # ordinary StreamingCluseq state dir
      shard-01/
      ...

Write ordering per global batch: the batch (with its per-sequence
routes) is appended to ``dispatch.jsonl`` and fsynced *before* any
shard sees a sub-batch, so the coordinator log is always a superset of
every shard's journal. A consolidation round writes the plan record,
then applies shard-local plans — each shard write-aheads the plan into
its own journal before mutating state. Recovery therefore never
invents work: shards first recover themselves (checkpoint + journal
replay, batches *and* plans interleaved in order), then the
coordinator scans ``dispatch.jsonl`` from the top and rolls forward
anything a shard had not made durable, re-partitioning from the
*recorded* routes. A consolidation round is re-derived from scratch
only when its record is missing entirely — i.e. the crash hit before
the plan became durable, at which point every shard provably holds the
exact pre-consolidation state, and the plan is a deterministic
function of that state.

With ``shards=1``, every global batch is dispatched whole to shard 0,
so the composite is bit-identical to a plain ``StreamingCluseq`` run
(asserted by the differential suite).
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field
from typing import Any, Union

from ..core.cluster import Cluster
from ..core.persistence import result_to_dict
from ..core.pst import ProbabilisticSuffixTree
from ..obs import get_logger, get_registry, span
from ..sequences.alphabet import Alphabet
from ..stream.checkpoint import (
    CheckpointError,
    journal_path,
    write_json_atomic,
)
from ..stream.engine import StreamConfig, StreamingCluseq, StreamStats
from ..stream.journal import (
    BatchRecord,
    JournalError,
    StreamJournal,
    read_journal,
)
from .plan import ClusterExport, plan_merges
from .router import route

_logger = get_logger("shard.engine")

PathLike = Union[str, "os.PathLike[str]"]

#: On-disk schema identifier for the coordinator manifest.
SHARD_FORMAT = "repro.shard/v1"
MANIFEST_FILENAME = "manifest.json"
DISPATCH_FILENAME = "dispatch.jsonl"

#: Recognized runner names (the ``ShardConfig.runner`` values).
RUNNERS = ("inprocess",)

#: Runners that older manifests may name. The on-disk state never
#: depended on the runner, so such a state dir resumes in-process.
RETIRED_RUNNERS = frozenset({"process"})

__all__ = [
    "DISPATCH_FILENAME",
    "MANIFEST_FILENAME",
    "RUNNERS",
    "SHARD_FORMAT",
    "LocalShard",
    "ShardConfig",
    "ShardEngine",
    "ShardStats",
    "ShardedStreamingCluseq",
    "build_shard_engine",
    "dispatch_path",
    "manifest_path",
    "read_manifest",
    "shard_dir",
    "shard_state_digest",
]


def manifest_path(state_dir: PathLike) -> str:
    """Canonical manifest location inside a sharded state directory."""
    return os.path.join(os.fspath(state_dir), MANIFEST_FILENAME)


def dispatch_path(state_dir: PathLike) -> str:
    """Canonical coordinator-WAL location."""
    return os.path.join(os.fspath(state_dir), DISPATCH_FILENAME)


def shard_dir(state_dir: PathLike, shard: int) -> str:
    """Per-shard state directory (an ordinary stream state dir)."""
    return os.path.join(os.fspath(state_dir), f"shard-{shard:02d}")


@dataclass(frozen=True)
class ShardConfig:
    """Coordinator-level knobs; per-shard behavior lives in ``stream``.

    ``consolidate_every`` counts *global* batches between cross-shard
    consolidation rounds (0 disables them); it is independent of the
    per-shard §4.5 dismissal schedule in ``stream.consolidate_every``.
    ``merge_threshold`` is the context-tree distance at or below which
    two cross-shard clusters merge (range [0, 2]; see
    :mod:`repro.shard.dissimilarity`). ``router`` names the routing
    policy; content hashing (``"hash"``) is the only one.
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
        if self.runner not in RUNNERS:
            raise ValueError(
                f"unknown runner {self.runner!r} (expected one of {RUNNERS})"
            )
        if self.consolidate_every < 0:
            raise ValueError("consolidate_every must be >= 0")
        if not 0.0 <= self.merge_threshold <= 2.0:
            raise ValueError("merge_threshold must be within [0, 2]")

    def to_dict(self) -> dict[str, Any]:
        return {
            "shards": self.shards,
            "router": self.router,
            "runner": self.runner,
            "consolidate_every": self.consolidate_every,
            "merge_threshold": self.merge_threshold,
            "stream": self.stream.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShardConfig":
        return cls(
            shards=int(data["shards"]),
            router=str(data["router"]),
            runner=(
                "inprocess" if data["runner"] in RETIRED_RUNNERS
                else str(data["runner"])
            ),
            consolidate_every=int(data["consolidate_every"]),
            merge_threshold=float(data["merge_threshold"]),
            stream=StreamConfig.from_dict(data["stream"]),
        )


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


class ShardEngine(StreamingCluseq):
    """One shard: a ``StreamingCluseq`` that can apply merge plans.

    Adds exactly one piece of state — ``last_round``, the newest
    cross-shard consolidation round already folded into this shard —
    checkpointed via the ``extra`` hook and used during recovery to
    skip plans the checkpoint already reflects. Plan application is
    write-ahead journaled into the shard's own WAL (a ``consolidate``
    record at the current batch ordinal) so per-shard recovery replays
    batches and plans interleaved in their original order.
    """

    def __init__(
        self,
        result: Any,
        config: StreamConfig | None = None,
        alphabet: Alphabet | None = None,
        state_dir: PathLike | None = None,
    ) -> None:
        self.last_round = -1
        super().__init__(
            result, config=config, alphabet=alphabet, state_dir=state_dir
        )

    def _checkpoint_extra(self) -> dict[str, Any]:
        return {"last_round": self.last_round}

    def _restore_extra(self, extra: dict[str, Any]) -> None:
        self.last_round = int(extra.get("last_round", -1))

    def apply_plan(self, round_: int, plan: dict[str, Any]) -> tuple[int, int]:
        """Apply one shard-local consolidation plan; returns (merged, dropped).

        *plan* holds ``merge`` ops (fold a serialized foreign PST into
        a local cluster) and ``dismiss`` ops (local cluster ids whose
        model moved to another shard). Every merge target and foreign
        PST is checked before the plan is journaled (unless replaying)
        or any cluster changes, so a bad plan raises ``ValueError`` and
        leaves both the shard and its journal untouched.
        """
        by_id = {
            cluster.cluster_id: cluster for cluster in self.result.clusters
        }
        merges: list[tuple[Cluster, ProbabilisticSuffixTree]] = []
        for op in plan.get("merge", ()):
            cluster = by_id.get(int(op["into"]))
            if cluster is None:
                raise ValueError(
                    f"merge target cluster {op['into']} not on this shard"
                )
            foreign = ProbabilisticSuffixTree.from_dict(op["pst"])
            if foreign.alphabet_size != cluster.pst.alphabet_size:
                raise ValueError(
                    f"merge source for cluster {op['into']} has alphabet "
                    f"size {foreign.alphabet_size}, expected "
                    f"{cluster.pst.alphabet_size}"
                )
            merges.append((cluster, foreign))
        if self._journal is not None and not self._replaying:
            self._journal.append_plan(self._batches, round_, plan)
        for cluster, foreign in merges:
            cluster.pst.merge_counts(foreign)
        drop_ids = {int(cid) for cid in plan.get("dismiss", ())}
        if drop_ids:
            self.result.clusters = [
                cluster
                for cluster in self.result.clusters
                if cluster.cluster_id not in drop_ids
            ]
            for index, ids in self.result.assignments.items():
                if ids & drop_ids:
                    self.result.assignments[index] = ids - drop_ids
            self._clusters_dismissed += len(drop_ids)
        self.last_round = round_
        return len(merges), len(drop_ids)

    @classmethod
    def recover(cls, state_dir: PathLike) -> "ShardEngine":
        """Checkpoint restore + interleaved batch/plan journal replay."""
        engine = cls.restore(state_dir)
        assert isinstance(engine, ShardEngine)
        replayed = 0
        with engine.replaying(), span("stream.recover"):
            for record in read_journal(journal_path(state_dir)):
                if isinstance(record, BatchRecord):
                    if record.ordinal < engine._batches:
                        continue
                    engine.replay_batch(record)
                    replayed += 1
                elif record.round > engine.last_round:
                    engine.apply_plan(record.round, record.plan)
        registry = get_registry()
        if registry.enabled:
            registry.counter("stream.recover_passes").inc()
            registry.counter("stream.recover_replayed_batches").inc(replayed)
        return engine


def build_shard_engine(
    spec: dict[str, Any],
    stream_config: StreamConfig,
    state_dir: PathLike | None,
    resume: bool,
) -> ShardEngine:
    """Build or recover one shard engine from the manifest *spec*.

    On resume, a shard directory holding no durable checkpoint (the
    coordinator crashed before that shard's initial checkpoint became
    durable) is cold-started in place: the shard provably processed
    nothing, so starting fresh is the bit-exact continuation.
    """
    if resume and state_dir is not None:
        try:
            return ShardEngine.recover(state_dir)
        except CheckpointError:
            pass
    symbols = spec.get("alphabet")
    alphabet = Alphabet(symbols) if symbols else None
    engine = ShardEngine.cold_start(
        alphabet_size=int(spec["alphabet_size"]),
        alphabet=alphabet,
        significance_threshold=int(spec["significance_threshold"]),
        similarity_threshold=float(spec["similarity_threshold"]),
        max_depth=int(spec["max_depth"]),
        p_min=spec.get("p_min"),
        max_nodes=spec.get("max_nodes"),
        prune_strategy=str(spec.get("prune_strategy", "paper")),
        config=stream_config,
        state_dir=state_dir,
    )
    assert isinstance(engine, ShardEngine)
    return engine


def shard_state_digest(engine: ShardEngine) -> dict[str, Any]:
    """A JSON-able digest of everything recovery must reproduce.

    Used by the chaos/differential suites to compare recovered shards
    bit-for-bit against the uncrashed run; excludes
    ``checkpoints_written``, which legitimately differs across crash
    schedules.
    """
    stats = asdict(engine.stats())
    stats.pop("checkpoints_written")
    return {
        "result": result_to_dict(engine.result, engine.alphabet),
        "pool": engine.pool.to_list(),
        "stats": stats,
        "last_round": engine.last_round,
    }


class LocalShard:
    """Coordinator-side view of one in-process shard engine."""

    def __init__(self, engine: ShardEngine) -> None:
        self.engine = engine

    @property
    def batches(self) -> int:
        return self.engine.batches_ingested

    @property
    def last_round(self) -> int:
        return self.engine.last_round

    def ingest_batch(
        self, batch: Sequence[Sequence[int]]
    ) -> "list[int | None]":
        return self.engine.ingest_batch(batch)

    def apply_plan(
        self, round_: int, plan: dict[str, Any]
    ) -> tuple[int, int]:
        return self.engine.apply_plan(round_, plan)

    def export_clusters(self, shard: int) -> list[ClusterExport]:
        return [
            ClusterExport(
                shard=shard,
                cluster_id=cluster.cluster_id,
                weight=cluster.pst.total_symbols,
                flat=cluster.pst.flattened(),
            )
            for cluster in self.engine.result.clusters
        ]

    def export_pst(self, cluster_id: int) -> dict[str, Any]:
        for cluster in self.engine.result.clusters:
            if cluster.cluster_id == cluster_id:
                return cluster.pst.to_dict()
        raise ValueError(f"no cluster {cluster_id} on this shard")

    def checkpoint(self) -> None:
        if self.engine.state_dir is not None:
            self.engine.checkpoint()

    def stats(self) -> StreamStats:
        return self.engine.stats()

    def state_digest(self) -> dict[str, Any]:
        return shard_state_digest(self.engine)

    def cluster_summaries(self) -> list[tuple[int, int, int, int]]:
        """Per-cluster ``(cluster_id, size, created_at, nodes)`` rows."""
        return [
            (
                cluster.cluster_id,
                cluster.size,
                cluster.created_at_iteration,
                cluster.pst.node_count,
            )
            for cluster in self.engine.result.clusters
        ]

    def close(self) -> None:
        self.engine.close()


def read_manifest(state_dir: PathLike) -> dict[str, Any]:
    """Load and validate the coordinator manifest."""
    target = manifest_path(state_dir)
    if not os.path.exists(target):
        raise CheckpointError(f"no shard manifest at {target}")
    with open(target, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"{target}: corrupt manifest") from exc
    if (
        not isinstance(payload, dict)
        or payload.get("format") != SHARD_FORMAT
    ):
        raise CheckpointError(
            f"{target}: not a {SHARD_FORMAT} manifest"
        )
    return payload


def _make_handles(
    config: ShardConfig,
    spec: dict[str, Any],
    state_dir: "str | None",
    resume: bool,
) -> list[LocalShard]:
    return [
        LocalShard(
            build_shard_engine(
                spec,
                config.stream,
                shard_dir(state_dir, i) if state_dir is not None else None,
                resume,
            )
        )
        for i in range(config.shards)
    ]


class ShardedStreamingCluseq:
    """N independent streaming shards behind the single-engine API.

    Construct with :meth:`cold_start` or :meth:`recover`; see the
    module docstring for the durability protocol. Public surface
    mirrors :class:`StreamingCluseq`: ``ingest`` / ``ingest_batch`` /
    ``flush`` / ``run`` / ``stats`` / ``checkpoint`` / ``close``.
    """

    def __init__(
        self,
        handles: Sequence[LocalShard],
        config: ShardConfig,
        *,
        spec: dict[str, Any],
        state_dir: PathLike | None = None,
    ) -> None:
        if len(handles) != config.shards:
            raise ValueError(
                f"{len(handles)} handles for {config.shards} shards"
            )
        self._handles = list(handles)
        self.config = config
        self.spec = dict(spec)
        self.state_dir = (
            os.fspath(state_dir) if state_dir is not None else None
        )
        symbols = self.spec.get("alphabet")
        self.alphabet = Alphabet(symbols) if symbols else None
        self._pending: list[list[int]] = []
        self._batches = 0
        self._sequences = 0
        self._rounds = 0
        self._cross_merges = 0
        self._dispatch: StreamJournal | None = None
        if self.state_dir is not None:
            self._dispatch = StreamJournal(
                dispatch_path(self.state_dir),
                fsync=config.stream.journal_fsync,
            )

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
        state_dir: PathLike | None = None,
    ) -> "ShardedStreamingCluseq":
        """A sharded engine with no clusters yet.

        Persists the manifest (config + this cold-start spec) before
        creating any shard so a crash at any later point can always
        rebuild the same topology.
        """
        config = config if config is not None else ShardConfig()
        if alphabet is not None:
            alphabet_size = alphabet.size
        if alphabet_size is None or alphabet_size <= 0:
            raise ValueError("pass alphabet or a positive alphabet_size")
        symbols = list(alphabet.symbols) if alphabet is not None else None
        spec: dict[str, Any] = {
            # Embedded only for string alphabets, mirroring
            # ``result_to_dict`` — a resumed CLI run re-encodes text
            # identically; non-string alphabets stay caller-side.
            "alphabet": (
                "".join(symbols)
                if symbols is not None
                and all(isinstance(s, str) for s in symbols)
                else None
            ),
            "alphabet_size": alphabet_size,
            "significance_threshold": significance_threshold,
            "similarity_threshold": similarity_threshold,
            "max_depth": max_depth,
            "p_min": p_min,
            "max_nodes": max_nodes,
            "prune_strategy": prune_strategy,
        }
        root = os.fspath(state_dir) if state_dir is not None else None
        if root is not None:
            os.makedirs(root, exist_ok=True)
            write_json_atomic(
                manifest_path(root),
                {
                    "format": SHARD_FORMAT,
                    "config": config.to_dict(),
                    "spec": spec,
                },
            )
        handles = _make_handles(config, spec, root, resume=False)
        return cls(handles, config, spec=spec, state_dir=root)

    @classmethod
    def recover(cls, state_dir: PathLike) -> "ShardedStreamingCluseq":
        """Rebuild the whole sharded engine after a crash.

        Each shard recovers itself first; the coordinator then scans
        its dispatch WAL from the top and rolls forward any batch or
        plan a shard had not made durable. A manifest whose config
        does not parse (a missing key, a removed router) raises
        :class:`CheckpointError` before any shard is touched.
        """
        manifest = read_manifest(state_dir)
        try:
            config = ShardConfig.from_dict(manifest["config"])
            spec = dict(manifest["spec"])
        except KeyError as exc:
            raise CheckpointError(
                f"{manifest_path(state_dir)}: config is missing key {exc}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"{manifest_path(state_dir)}: unusable config: {exc}"
            ) from exc
        root = os.fspath(state_dir)
        handles = _make_handles(config, spec, root, resume=True)
        engine = cls(handles, config, spec=spec, state_dir=root)
        engine._roll_forward()
        registry = get_registry()
        if registry.enabled:
            registry.counter("shard.recover_passes").inc()
        return engine

    # -- ingestion ----------------------------------------------------------------

    def ingest(self, encoded: Sequence[int]) -> None:
        """Buffer one encoded sequence; dispatches a full micro-batch."""
        if len(encoded) == 0:
            return
        self._pending.append(list(encoded))
        if len(self._pending) >= self.config.stream.batch_size:
            batch, self._pending = self._pending, []
            self.ingest_batch(batch)

    def flush(self) -> None:
        """Dispatch any buffered partial batch."""
        if self._pending:
            batch, self._pending = self._pending, []
            self.ingest_batch(batch)

    def ingest_batch(
        self, batch: Sequence[Sequence[int]]
    ) -> "list[int | None]":
        """Route, write-ahead and dispatch one global micro-batch.

        Returns per-sequence cluster assignments (cluster ids are only
        unique *per shard*). Empty sequences are dropped before
        journaling, mirroring the single-shard engine.
        """
        cleaned = [list(seq) for seq in batch if len(seq) > 0]
        if not cleaned:
            return []
        shards = self.config.shards
        routes = [route(seq, shards) for seq in cleaned]
        if self._dispatch is not None:
            self._dispatch.append_batch(self._batches, cleaned, routes=routes)
        assigned = self._dispatch_batch(cleaned, routes)
        self._batches += 1
        self._sequences += len(cleaned)
        registry = get_registry()
        if registry.enabled:
            registry.counter("shard.batches").inc()
            registry.counter("shard.sequences").inc(len(cleaned))
        cfg = self.config
        if (
            cfg.consolidate_every > 0
            and self._batches % cfg.consolidate_every == 0
        ):
            self._consolidate(self._batches // cfg.consolidate_every)
        return assigned

    def run(self, source: Iterable[Sequence[int]]) -> ShardStats:
        """Consume *source* to exhaustion (micro-batching internally)."""
        for encoded in source:
            self.ingest(encoded)
        self.flush()
        return self.stats()

    def _partition(
        self, sequences: list[list[int]], routes: list[int]
    ) -> list[list[list[int]]]:
        subs: list[list[list[int]]] = [[] for _ in self._handles]
        for seq, route in zip(sequences, routes):
            subs[route].append(seq)
        return subs

    def _dispatch_batch(
        self, cleaned: list[list[int]], routes: list[int]
    ) -> "list[int | None]":
        """Send routed sub-batches to their shards, in shard order."""
        subs = self._partition(cleaned, routes)
        with span("shard.batch") as batch_span:
            if batch_span.span_id is not None:
                batch_span.set_attr("batch", self._batches)
                batch_span.set_attr("size", len(cleaned))
            results: list[list[int | None]] = [[] for _ in self._handles]
            for index, sub in enumerate(subs):
                if sub:
                    results[index] = self._handles[index].ingest_batch(sub)
        cursors = [0] * len(self._handles)
        assigned: list[int | None] = []
        for route in routes:
            assigned.append(results[route][cursors[route]])
            cursors[route] += 1
        return assigned

    # -- consolidation ------------------------------------------------------------

    def _consolidate(self, round_: int) -> None:
        """One cross-shard consolidation round (see module docstring)."""
        registry = get_registry()
        with span("shard.consolidate") as round_span:
            if round_span.span_id is not None:
                round_span.set_attr("round", round_)
            exports = [
                handle.export_clusters(index)
                for index, handle in enumerate(self._handles)
            ]
            ops, pairs = plan_merges(exports, self.config.merge_threshold)
            plans: dict[str, dict[str, Any]] = {}
            for op in ops:
                keeper = plans.setdefault(
                    str(op.keep_shard), {"merge": [], "dismiss": []}
                )
                keeper["merge"].append(
                    {
                        "into": op.keep_cluster,
                        "pst": self._handles[op.drop_shard].export_pst(
                            op.drop_cluster
                        ),
                        "from": [op.drop_shard, op.drop_cluster],
                        "distance": op.distance,
                    }
                )
                dropper = plans.setdefault(
                    str(op.drop_shard), {"merge": [], "dismiss": []}
                )
                dropper["dismiss"].append(op.drop_cluster)
            if self._dispatch is not None:
                # Always durable, even when empty: a present record is
                # recovery's proof the round completed its planning.
                self._dispatch.append_plan(self._batches, round_, plans)
            for index, handle in enumerate(self._handles):
                local = plans.get(str(index))
                if local:
                    handle.apply_plan(round_, local)
        self._rounds += 1
        self._cross_merges += len(ops)
        if registry.enabled:
            registry.counter("shard.consolidations").inc()
            registry.counter("shard.pairs_scored").inc(pairs)
            registry.counter("shard.cross_merges").inc(len(ops))
            registry.gauge("shard.clusters").set(
                sum(handle.stats().clusters for handle in self._handles)
            )
        if ops:
            _logger.info(
                "cross-shard consolidation merged %d cluster(s)",
                len(ops),
                extra={"round": round_, "pairs_scored": pairs},
            )

    # -- recovery -----------------------------------------------------------------

    def _roll_forward(self) -> None:
        """Re-drive the dispatch WAL over the recovered shards.

        Scans from the top: recorded routes re-partition each batch
        exactly as the original run did; a shard receives only the
        sub-batches beyond what its own recovery already replayed.
        Plans re-apply wherever a shard's ``last_round`` lags. If a
        consolidation was due at the durable tail but its record is
        missing (crash mid-round, before the plan fsync), the round is
        re-derived from scratch — the shards provably hold the exact
        pre-consolidation state, and planning is deterministic.
        """
        if self.state_dir is None:
            return
        target = dispatch_path(self.state_dir)
        delivered = [0] * len(self._handles)
        durable = [handle.batches for handle in self._handles]
        forwarded_batches = 0
        forwarded_plans = 0
        last_round = 0
        with span("shard.recover"):
            if os.path.exists(target):
                for record in read_journal(target):
                    if isinstance(record, BatchRecord):
                        if record.ordinal != self._batches:
                            raise JournalError(
                                f"dispatch gap: expected batch "
                                f"{self._batches}, found {record.ordinal}"
                            )
                        if record.routes is None or len(
                            record.routes
                        ) != len(record.sequences):
                            raise JournalError(
                                f"{target}: batch {record.ordinal} "
                                "has no usable route record"
                            )
                        subs = self._partition(
                            record.sequences, record.routes
                        )
                        for index, sub in enumerate(subs):
                            if not sub:
                                continue
                            delivered[index] += 1
                            if delivered[index] > durable[index]:
                                self._handles[index].ingest_batch(sub)
                                forwarded_batches += 1
                        self._batches += 1
                        self._sequences += len(record.sequences)
                    else:
                        self._rounds += 1
                        last_round = record.round
                        for index, handle in enumerate(self._handles):
                            local = record.plan.get(str(index))
                            if not local:
                                continue
                            self._cross_merges += len(
                                local.get("dismiss", ())
                            )
                            if record.round > handle.last_round:
                                handle.apply_plan(record.round, local)
                                forwarded_plans += 1
        cfg = self.config
        if (
            cfg.consolidate_every > 0
            and self._batches > 0
            and self._batches % cfg.consolidate_every == 0
            and self._batches // cfg.consolidate_every > last_round
        ):
            self._consolidate(self._batches // cfg.consolidate_every)
        registry = get_registry()
        if registry.enabled:
            registry.counter("shard.rollforward_batches").inc(
                forwarded_batches
            )
            registry.counter("shard.rollforward_plans").inc(forwarded_plans)
        _logger.info(
            "recovered sharded engine",
            extra={
                "state_dir": self.state_dir,
                "batches": self._batches,
                "rolled_batches": forwarded_batches,
                "rolled_plans": forwarded_plans,
            },
        )

    # -- durability / lifecycle ---------------------------------------------------

    def checkpoint(self) -> None:
        """Checkpoint every shard (each write is independently atomic)."""
        for handle in self._handles:
            handle.checkpoint()

    def close(self) -> None:
        """Flush buffered sequences, close the WAL and every shard."""
        self.flush()
        if self._dispatch is not None:
            self._dispatch.close()
        errors: list[str] = []
        for handle in self._handles:
            try:
                handle.close()
            except Exception as exc:  # noqa: BLE001 - best-effort teardown
                errors.append(str(exc))
        if errors:
            _logger.warning(
                "shard teardown reported errors", extra={"errors": errors}
            )

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

    def shard_states(self) -> list[dict[str, Any]]:
        """Every shard's recovery digest (testing / diagnostics)."""
        return [handle.state_digest() for handle in self._handles]

    def stats(self) -> ShardStats:
        per = tuple(handle.stats() for handle in self._handles)
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
