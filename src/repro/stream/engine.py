"""The streaming CLUSEQ engine: micro-batch online clustering.

:class:`StreamingCluseq` wraps a fitted (or cold-started)
:class:`~repro.core.cluseq.ClusteringResult` and consumes an unbounded
stream in micro-batches. Per sequence it runs the incremental
§4.2–§4.4 join rule of :mod:`repro.core.examine` — score against every
cluster PST, join the best cluster when the similarity clears the
threshold, absorb the best-scoring segment — the same routine
``assign_and_absorb`` uses for one-off additions.
Non-joiners accumulate in a bounded :class:`~repro.stream.pool.OutlierPool`
that the periodic maintenance pass mines for *new* clusters via the
paper's §4.1 min-max seeding, so the clustering keeps growing with the
stream instead of being frozen at fit time.

Periodic maintenance (all on deterministic batch-counter schedules):

* **decay** — rescale every cluster PST's counts per the
  :class:`~repro.stream.decay.DecayPolicy`, so models track concept
  drift instead of fossilizing;
* **re-seed** — spawn up to ``reseed_k`` clusters from the outlier
  pool one at a time (§4.1 min-max selection), rescuing the pool
  members that clear the threshold against each new model before the
  next seed is drawn;
* **consolidation** — §4.5 dismissal of covered clusters;
* **checkpoint** — durable snapshot (see below).

The join threshold is the wrapped model's: the cold-start ``t`` or a
fitted result's ``final_log_threshold``. No stream phase moves it.

Durability: with a ``state_dir`` every ingested batch is first
appended to a write-ahead :mod:`journal <repro.stream.journal>` and
the engine periodically writes atomic
:mod:`checkpoints <repro.stream.checkpoint>`.
:meth:`StreamingCluseq.recover` loads the newest checkpoint and
replays the journal suffix; because every decision here is a
deterministic function of (state, batch sequence) — maintenance fires
on batch counters, and the re-seed RNG is derived from
``(seed, batch counter)`` — recovery reproduces the pre-crash state
bit-for-bit.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Union

import numpy as np

from ..core.cluseq import CluseqParams, ClusteringResult
from ..core.cluster import Cluster, Membership
from ..core.examine import join_best
from ..core.consolidation import consolidate, drop_dismissed
from ..core.persistence import result_from_dict, result_to_dict
from ..core.seeding import select_seeds
from ..core.similarity import check_sequence, score_row
from ..obs import (
    get_logger,
    get_registry,
    peak_rss_bytes,
    span,
)
from ..sequences.alphabet import Alphabet
from .checkpoint import (
    CheckpointError,
    checkpoint_path,
    journal_path,
    read_checkpoint,
    write_checkpoint,
)
from .decay import DecayPolicy
from .journal import JournalError, StreamJournal, journal_batches_after
from .pool import OutlierPool
from .sources import batched

_logger = get_logger("stream.engine")

PathLike = Union[str, "os.PathLike[str]"]

#: Config keys older checkpoints still carry; they are dropped on
#: load. Any other unknown key still fails.
RETIRED_KEYS = frozenset(
    {"backend", "valley_method", "adjust_every", "score_window", "sample_multiplier"}
)


@dataclass(frozen=True)
class StreamConfig:
    """Tunable parameters of a streaming run.

    Every interval is measured in ingested micro-batches; ``0``
    disables the corresponding maintenance phase. All schedules key
    off the batch counter (never wall clock), which is what makes
    crash-recovery replay deterministic.
    """

    batch_size: int = 32
    pool_size: int = 512
    reseed_every: int = 4
    reseed_k: int = 2
    reseed_min_pool: int = 8
    consolidate_every: int = 16
    min_unique_members: int = 1
    decay: DecayPolicy = field(default_factory=DecayPolicy)
    checkpoint_every: int = 0
    journal_fsync: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        if self.reseed_k < 1:
            raise ValueError("reseed_k must be at least 1")
        if self.reseed_min_pool < 1:
            raise ValueError("reseed_min_pool must be at least 1")
        if self.min_unique_members < 0:
            raise ValueError("min_unique_members must be non-negative")
        for name in ("reseed_every", "consolidate_every", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def to_dict(self) -> dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "StreamConfig":
        payload = {
            key: value for key, value in data.items() if key not in RETIRED_KEYS
        }
        decay = payload.pop("decay", None)
        policy = (
            DecayPolicy.from_dict(decay)  # type: ignore[arg-type]
            if decay is not None
            else DecayPolicy()
        )
        return cls(decay=policy, **payload)  # type: ignore[arg-type]


@dataclass(frozen=True)
class StreamStats:
    """A point-in-time summary of a streaming run."""

    batches: int
    sequences: int
    absorbed: int
    outliers: int
    pool_size: int
    pool_evicted: int
    clusters: int
    clusters_spawned: int
    clusters_dismissed: int
    decay_events: int
    decay_pruned_nodes: int
    checkpoints_written: int
    log_threshold: float

    @property
    def absorb_rate(self) -> float:
        """Fraction of ingested sequences that joined a cluster."""
        if self.sequences == 0:
            return 0.0
        return self.absorbed / self.sequences

    def to_dict(self) -> dict[str, object]:
        return {
            "batches": self.batches,
            "sequences": self.sequences,
            "absorbed": self.absorbed,
            "outliers": self.outliers,
            "absorb_rate": self.absorb_rate,
            "pool_size": self.pool_size,
            "pool_evicted": self.pool_evicted,
            "clusters": self.clusters,
            "clusters_spawned": self.clusters_spawned,
            "clusters_dismissed": self.clusters_dismissed,
            "decay_events": self.decay_events,
            "decay_pruned_nodes": self.decay_pruned_nodes,
            "checkpoints_written": self.checkpoints_written,
            "log_threshold": self.log_threshold,
        }


@dataclass
class _Counters:
    """An engine's running counts. A checkpoint stores them under
    their field names, and recovery reads them back the same way; it
    ignores other keys, such as the derived ``outliers`` and
    ``next_index`` that older builds wrote."""

    batches: int = 0
    sequences: int = 0
    absorbed: int = 0
    clusters_spawned: int = 0
    clusters_dismissed: int = 0
    decay_events: int = 0
    decay_pruned_nodes: int = 0
    checkpoints_written: int = 0
    next_cluster_id: int = 0

    @property
    def outliers(self) -> int:
        """Sequences that joined no cluster: every ingested sequence
        is either absorbed or pooled, and a re-seed or rescue moves one
        from the pool into a cluster."""
        return self.sequences - self.absorbed


def check_batch(
    batch: Sequence[Sequence[int]], alphabet_size: int
) -> list[list[int]]:
    """The non-empty sequences of *batch*, as lists, once every one is
    checked: a symbol id outside the alphabet raises ``ValueError``
    naming its position in *batch*."""
    cleaned: list[list[int]] = []
    for position, seq in enumerate(batch):
        if len(seq) == 0:
            continue
        try:
            check_sequence(seq, alphabet_size)
        except ValueError as exc:
            raise ValueError(f"batch position {position}: {exc}") from None
        cleaned.append(list(seq))
    return cleaned


class StreamingCluseq:
    """Online clustering engine over a wrapped ``ClusteringResult``.

    Parameters
    ----------
    result:
        The clustering to grow — a fitted §4 end state, or the empty
        result produced by :meth:`cold_start`.
    config:
        Streaming knobs; defaults are sensible for exploratory use.
    alphabet:
        Optional training alphabet; embedded into checkpoints so a
        resumed CLI run can encode raw text identically.
    state_dir:
        Directory for the write-ahead journal and checkpoints. ``None``
        runs fully in-memory (no durability). A fresh directory gets an
        initial batch-0 checkpoint immediately, so :meth:`recover`
        always has a baseline to replay from. A directory that already
        holds a checkpoint or a journal belongs to another run: it
        raises ``FileExistsError`` before anything is written, and only
        :meth:`recover` attaches to it.
    """

    def __init__(
        self,
        result: ClusteringResult,
        config: StreamConfig | None = None,
        alphabet: Alphabet | None = None,
        state_dir: PathLike | None = None,
    ) -> None:
        self.result = result
        self.config = config if config is not None else StreamConfig()
        self.alphabet = alphabet
        self._pool = OutlierPool(self.config.pool_size)
        self._counts = _Counters(
            next_cluster_id=(
                max((c.cluster_id for c in result.clusters), default=-1) + 1
            ),
        )
        self._replaying = False
        self._pst_factory = result.params.pst_factory(len(result.background))
        self.state_dir: str | None = None
        self._journal: StreamJournal | None = None
        if state_dir is not None:
            for path in (checkpoint_path(state_dir), journal_path(state_dir)):
                if os.path.exists(path):
                    raise FileExistsError(
                        f"state directory {os.fspath(state_dir)} already "
                        f"holds stream state ({os.path.basename(path)})"
                    )
            self._attach(state_dir)

    def _attach(self, state_dir: PathLike) -> None:
        """Journal to *state_dir*, checkpointing first when it holds
        no checkpoint yet."""
        self.state_dir = os.fspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self._journal = StreamJournal(
            journal_path(self.state_dir), fsync=self.config.journal_fsync
        )
        if not os.path.exists(checkpoint_path(self.state_dir)):
            self.checkpoint()

    # -- construction ------------------------------------------------------------

    @classmethod
    def cold_start(
        cls,
        alphabet_size: int | None = None,
        *,
        alphabet: Alphabet | None = None,
        significance_threshold: int = 3,
        similarity_threshold: float = 1.2,
        max_depth: int = 4,
        p_min: float | None = None,
        max_nodes: int | None = None,
        prune_strategy: str = "paper",
        config: StreamConfig | None = None,
        state_dir: PathLike | None = None,
    ) -> "StreamingCluseq":
        """An engine with no clusters yet — everything grows from the
        stream.

        The background model starts uniform (no data has been seen);
        the first clusters appear once the outlier pool is deep enough
        for a re-seed pass.
        """
        if alphabet is not None:
            alphabet_size = alphabet.size
        if alphabet_size is None or alphabet_size <= 0:
            raise ValueError("pass alphabet or a positive alphabet_size")
        params = CluseqParams(
            k=1,
            significance_threshold=significance_threshold,
            similarity_threshold=similarity_threshold,
            max_depth=max_depth,
            p_min=p_min,
            max_nodes=max_nodes,
            prune_strategy=prune_strategy,
            adjust_threshold=False,
        )
        result = ClusteringResult(
            clusters=[],
            assignments={},
            params=params,
            background=np.full(
                alphabet_size, 1.0 / alphabet_size, dtype=np.float64
            ),
            final_log_threshold=math.log(similarity_threshold),
        )
        return cls(result, config=config, alphabet=alphabet, state_dir=state_dir)

    @classmethod
    def recover(cls, state_dir: PathLike) -> "StreamingCluseq":
        """Rebuild an engine from its state directory after a crash.

        Loads the newest checkpoint, restores every piece of engine
        state it captured, then replays the journal records the
        checkpoint had not yet absorbed. The result is bit-identical
        to the engine that wrote the journal — same clusters, PST
        counts, pool, counters and threshold — provided the state
        directory was produced by the same build.

        A checkpoint that parses as JSON but does not hold a usable
        state (a missing key, an unknown config key, a bad value)
        raises :class:`CheckpointError`; a journal with a missing
        record raises :class:`JournalError`.
        """
        target = checkpoint_path(state_dir)
        state = read_checkpoint(target)
        try:
            config = StreamConfig.from_dict(state["config"])
            symbols = state["result"].get("alphabet")
            engine = cls(
                result_from_dict(state["result"]),
                config=config,
                alphabet=Alphabet(symbols) if symbols else None,
            )
            counters = state["counters"]
            pooled = [(int(i), [int(s) for s in seq]) for i, seq in state["pool"]]
            # Pooled sequences are scored unchecked from here on.
            for _, seq in pooled:
                check_sequence(seq, len(engine.result.background))
            engine._pool = OutlierPool.from_list(
                pooled, config.pool_size, evicted=int(counters["pool_evicted"])
            )
            engine._counts = _Counters(
                **{f.name: int(counters[f.name]) for f in fields(_Counters)}
            )
        except KeyError as exc:
            raise CheckpointError(f"{target}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{target}: unusable state: {exc}") from exc
        engine._attach(state_dir)
        checkpoint_batches = engine._counts.batches
        journal = journal_path(state_dir)
        records = journal_batches_after(journal, after=checkpoint_batches)
        # The replay runs under its own span so crash-recovery cost
        # shows up in the ``span.stream.recover`` timer, and a replayed
        # batch's span path is ``stream.recover.stream.batch``.
        engine._replaying = True
        try:
            with span("stream.recover"):
                for record in records:
                    if record.ordinal != engine._counts.batches:
                        raise JournalError(
                            f"{journal}: journal gap: expected batch "
                            f"{engine._counts.batches}, found {record.ordinal}"
                        )
                    try:
                        batch = check_batch(
                            record.sequences, len(engine.result.background)
                        )
                    except ValueError as exc:
                        raise JournalError(
                            f"{journal}: batch {record.ordinal}: {exc}"
                        ) from None
                    engine._apply_batch(batch)
        finally:
            engine._replaying = False
        _logger.info(
            "recovered stream engine",
            extra={
                "state_dir": os.fspath(state_dir),
                "checkpoint_batches": checkpoint_batches,
                "replayed_batches": len(records),
            },
        )
        return engine

    # -- ingestion ----------------------------------------------------------------

    def ingest_batch(
        self, batch: Sequence[Sequence[int]]
    ) -> list[int | None]:
        """Journal and process one micro-batch immediately.

        Returns the per-sequence cluster assignment (``None`` =
        outlier, pooled). Empty sequences are dropped before
        journaling so replay sees exactly what was applied. Every other
        sequence is checked before the batch is journaled: a symbol id
        outside the alphabet raises ``ValueError`` naming its position
        in *batch*, and nothing is journaled or applied, so no batch
        that replay would fail on ever reaches the journal.
        """
        cleaned = check_batch(batch, len(self.result.background))
        if not cleaned:
            return []
        if self._journal is not None and not self._replaying:
            self._journal.append_batch(self._counts.batches, cleaned)
        return self._apply_batch(cleaned)

    def run(self, source: Iterable[Sequence[int]]) -> StreamStats:
        """Consume *source* to exhaustion in ``config.batch_size``
        chunks, each one :meth:`ingest_batch` call."""
        for batch in batched(source, self.config.batch_size):
            self.ingest_batch(batch)
        return self.stats()

    # -- batch processing ---------------------------------------------------------

    def _apply_batch(self, batch: list[list[int]]) -> list[int | None]:
        registry = get_registry()
        assigned: list[int | None] = []
        with span("stream.batch"):
            with span("stream.score"):
                # check_batch checked every sequence; the trees and the
                # log background are fixed until maintenance runs.
                trees = [cluster.pst for cluster in self.result.clusters]
                log_bg = self.result.log_background()
                for encoded in batch:
                    index = self.result.allocate_index()
                    logs, bounds = score_row(trees, encoded, log_bg)
                    assigned.append(self._assign(index, encoded, logs, bounds))
            self._counts.sequences += len(batch)
            self._counts.batches += 1
            self._maintain()
        if registry.enabled:
            registry.counter("stream.batches").inc()
            registry.gauge("stream.clusters").set(len(self.result.clusters))
            peak_rss = peak_rss_bytes()
            if peak_rss is not None:
                registry.gauge("stream.peak_rss_bytes").set(peak_rss)
        if _logger.isEnabledFor(10):  # logging.DEBUG
            joined = sum(1 for cid in assigned if cid is not None)
            _logger.debug(
                "batch %d: %d/%d absorbed",
                self._counts.batches - 1,
                joined,
                len(batch),
                extra={
                    "batch": self._counts.batches - 1,
                    "absorbed": joined,
                    "size": len(batch),
                    "pool": len(self._pool),
                    "clusters": len(self.result.clusters),
                },
            )
        return assigned

    def _assign(
        self, index: int, encoded: list[int], logs: list[float], bounds: list[int]
    ) -> int | None:
        """The incremental §4.2–§4.4 join rule for one stream sequence,
        given its :func:`~repro.core.similarity.score_row` row."""
        cluster = join_best(
            index, encoded, self.result.clusters, logs, bounds, self.log_threshold
        )
        if cluster is None:
            self.result.record_join(index, None)
            self._pool.add(index, encoded)
            return None
        self.result.record_join(index, cluster.cluster_id)
        self._counts.absorbed += 1
        return cluster.cluster_id

    # -- maintenance --------------------------------------------------------------

    def _maintain(self) -> None:
        config = self.config
        batches = self._counts.batches
        if config.decay.due(batches):
            with span("stream.decay"):
                self._decay()
        if (
            config.reseed_every > 0
            and batches % config.reseed_every == 0
            and len(self._pool) >= config.reseed_min_pool
        ):
            with span("stream.reseed"):
                self._reseed()
        if (
            config.consolidate_every > 0
            and batches % config.consolidate_every == 0
        ):
            with span("stream.consolidate"):
                self._consolidate()
        if (
            config.checkpoint_every > 0
            and batches % config.checkpoint_every == 0
            and self.state_dir is not None
            and not self._replaying
        ):
            with span("stream.checkpoint"):
                self.checkpoint()

    def _decay(self) -> None:
        policy = self.config.decay
        pruned = 0
        for cluster in self.result.clusters:
            pruned += cluster.pst.decay_counts(
                policy.factor, min_count=policy.min_count
            )
        self._counts.decay_events += 1
        self._counts.decay_pruned_nodes += pruned
        if pruned and _logger.isEnabledFor(20):  # logging.INFO
            _logger.info(
                "decay pruned %d nodes",
                pruned,
                extra={"batch": self._counts.batches, "pruned_nodes": pruned},
            )

    def _reseed(self) -> None:
        """Spawn up to ``reseed_k`` clusters from the outlier pool, one
        at a time (§4.1 seeding, §4.2 re-examination).

        Each step draws one seed from the current pool, spawns its
        cluster, and moves every pool member that clears the threshold
        against it into it (the rescue) before the next draw, so a
        later seed does not come from a source that an earlier cluster
        of the round already models. That matters because the stream
        joins best-only: two clusters of one source would share no
        member, and §4.5 could never merge them. The round stops early
        when the pool empties.

        The RNG is derived from ``(config.seed, batch counter)`` and
        shared by the round's draws, so a replayed run draws the
        identical samples regardless of where the last checkpoint fell.
        """
        rng = np.random.default_rng([self.config.seed, self._counts.batches])
        log_bg = self.result.log_background()
        spawned: list[Cluster] = []
        rescued = 0
        while len(spawned) < self.config.reseed_k and len(self._pool):
            cluster = self._spawn(rng, log_bg)
            spawned.append(cluster)
            rescued += self._rescue(cluster, log_bg)
        registry = get_registry()
        if registry.enabled:
            registry.counter("stream.pool_rescued").inc(rescued)
        if spawned and _logger.isEnabledFor(20):  # logging.INFO
            _logger.info(
                "re-seeded %d clusters (%d pool members rescued)",
                len(spawned),
                rescued,
                extra={
                    "batch": self._counts.batches,
                    "spawned": [c.cluster_id for c in spawned],
                    "rescued": rescued,
                },
            )

    def _spawn(self, rng: np.random.Generator, log_bg: list[float]) -> Cluster:
        """Draw one §4.1 seed from the (non-empty) pool and make it a
        cluster of its own."""
        (choice,) = select_seeds(
            candidates=self._pool.indices(),
            encoded_lookup=self._pool.get,
            existing_clusters=self.result.clusters,
            background=self.result.background,
            count=1,
            sample_multiplier=self.result.params.sample_multiplier,
            rng=rng,
            pst_factory=self._pst_factory,
        )
        index = choice.sequence_index
        cluster = Cluster(
            cluster_id=self._counts.next_cluster_id,
            pst=choice.pst,
            seed_index=index,
            created_at_iteration=self._counts.batches,
        )
        self._counts.next_cluster_id += 1
        (log_sim,), (start, end) = score_row([choice.pst], self._pool.get(index), log_bg)
        cluster.set_member(Membership(index, log_sim, start, end))
        self.result.clusters.append(cluster)
        self.result.record_join(index, cluster.cluster_id)
        self._pool.remove(index)
        self._counts.absorbed += 1
        self._counts.clusters_spawned += 1
        return cluster

    def _rescue(self, cluster: Cluster, log_bg: list[float]) -> int:
        """Move every pool member that clears the threshold against the
        freshly spawned *cluster* into it; returns how many moved."""
        rescued = 0
        for index, encoded in self._pool:
            logs, bounds = score_row([cluster.pst], encoded, log_bg)
            joined = join_best(
                index, encoded, [cluster], logs, bounds, self.log_threshold
            )
            if joined is not None:
                self.result.record_join(index, cluster.cluster_id)
                self._pool.remove(index)
                self._counts.absorbed += 1
                rescued += 1
        return rescued

    def _consolidate(self) -> None:
        _, removed = consolidate(
            list(self.result.clusters), self.config.min_unique_members
        )
        if removed:
            self.dismiss({cluster.cluster_id for cluster in removed})

    def dismiss(self, cluster_ids: Iterable[int]) -> int:
        """Drop the clusters *cluster_ids* and their memberships; returns
        how many were dropped.

        The one dismissal path: §4.5 consolidation and a cross-shard
        merge that moved a cluster's model to another shard both end
        here. Ids not on this engine are ignored.
        """
        drop = set(cluster_ids)
        kept = [c for c in self.result.clusters if c.cluster_id not in drop]
        dropped = len(self.result.clusters) - len(kept)
        if dropped:
            self.result.clusters = kept
            drop_dismissed(self.result.assignments, drop)
            self._counts.clusters_dismissed += dropped
            registry = get_registry()
            if registry.enabled:
                registry.counter("stream.clusters_dismissed").inc(dropped)
        return dropped

    # -- durability ----------------------------------------------------------------

    def checkpoint(self) -> int:
        """Write an atomic checkpoint; returns its size in bytes."""
        if self.state_dir is None:
            raise RuntimeError("checkpoint() requires a state_dir")
        # Count this checkpoint before serializing so a recovered
        # engine's counter matches the uninterrupted run exactly.
        counts = self._counts
        counts.checkpoints_written += 1
        state: dict[str, Any] = {
            "journal_batches": counts.batches,
            "config": self.config.to_dict(),
            "result": result_to_dict(self.result, self.alphabet),
            "pool": self._pool.to_list(),
            "counters": {**asdict(counts), "pool_evicted": self._pool.evicted},
        }
        nbytes = write_checkpoint(checkpoint_path(self.state_dir), state)
        if _logger.isEnabledFor(20):  # logging.INFO
            _logger.info(
                "checkpoint written (%d bytes)",
                nbytes,
                extra={"batch": counts.batches, "bytes": nbytes},
            )
        return nbytes

    def close(self) -> None:
        """Close the journal."""
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "StreamingCluseq":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection -------------------------------------------------------------

    @property
    def log_threshold(self) -> float:
        """The live ``log t``: the wrapped result's final threshold."""
        return self.result.final_log_threshold

    @property
    def pool(self) -> OutlierPool:
        return self._pool

    @property
    def batches_ingested(self) -> int:
        return self._counts.batches

    @property
    def sequences_ingested(self) -> int:
        return self._counts.sequences

    def clusters_spawned_after(self, batch: int) -> list[Cluster]:
        """Clusters created at or after micro-batch *batch* (drift probe)."""
        return [
            cluster
            for cluster in self.result.clusters
            if cluster.created_at_iteration >= batch
        ]

    def stats(self) -> StreamStats:
        counts = self._counts
        return StreamStats(
            batches=counts.batches,
            sequences=counts.sequences,
            absorbed=counts.absorbed,
            outliers=counts.outliers,
            pool_size=len(self._pool),
            pool_evicted=self._pool.evicted,
            clusters=len(self.result.clusters),
            clusters_spawned=counts.clusters_spawned,
            clusters_dismissed=counts.clusters_dismissed,
            decay_events=counts.decay_events,
            decay_pruned_nodes=counts.decay_pruned_nodes,
            checkpoints_written=counts.checkpoints_written,
            log_threshold=self.log_threshold,
        )

    def __repr__(self) -> str:
        return (
            f"StreamingCluseq(batches={self._counts.batches}, "
            f"sequences={self._counts.sequences}, "
            f"clusters={len(self.result.clusters)}, "
            f"pool={len(self._pool)})"
        )
