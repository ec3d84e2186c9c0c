"""Versioned model registry with build-then-swap hot reload.

A *model* is a fitted :class:`~repro.core.cluseq.ClusteringResult`
plus its alphabet — exactly what ``cluster --save-model`` writes via
:mod:`repro.core.persistence`, or what the streaming engine captures
in a ``repro.stream/v1`` checkpoint. The registry loads either format
(:func:`load_model_payload` sniffs the ``format``/``format_version``
tag, and accepts a stream state *directory* by resolving its
``checkpoint.json``), wraps it in a :class:`ModelVersion` carrying its
own :class:`~repro.core.backends.dispatch.PstBatchScorer`, and hands
it to request handlers:

* ``get()`` returns the live version. Every scoring pass runs against
  the one version it got.
* ``reload()`` builds the replacement *completely* — parsed, scored
  against nothing, ready to serve — and then swaps the registry slot
  in one assignment under the lock, with the next epoch number.
  In-flight requests finish on the version they hold; later ``get()``
  calls see only the new epoch. There is never a moment where a
  half-loaded model is visible.
* A retired version is a plain object: it, its trees and its scorer's
  tables are freed with the last reference to it.

Thread-safe by a plain mutex around the name → version map, far off
any hot path (scoring happens *outside* the lock).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..core.backends.dispatch import PstBatchScorer
from ..core.cluseq import ClusteringResult
from ..core.examine import best_cluster, live_scores
from ..core.persistence import FORMAT_VERSION, result_from_dict
from ..core.similarity import SimilarityResult
from ..obs import get_registry
from ..sequences.alphabet import Alphabet
from ..stream.checkpoint import CHECKPOINT_FILENAME, read_checkpoint
from ..stream.journal import STREAM_FORMAT

__all__ = [
    "ClassifyOutcome",
    "ModelLoadError",
    "ModelRegistry",
    "ModelVersion",
    "load_model_payload",
]


class ModelLoadError(ValueError):
    """A model source that cannot be loaded (missing, foreign, corrupt)."""


def load_model_payload(path: str) -> tuple[ClusteringResult, Alphabet, str]:
    """Load ``(result, alphabet, kind)`` from any supported source.

    *path* may be a ``core.persistence`` snapshot (``kind="snapshot"``),
    a ``repro.stream/v1`` checkpoint file (``kind="checkpoint"``), or a
    stream state directory containing ``checkpoint.json``. The alphabet
    must be embedded — a server cannot encode requests without one.
    Every failure, a tagged payload that does not decode included, is a
    :class:`ModelLoadError` naming the file.
    """
    target = path
    if os.path.isdir(target):
        target = os.path.join(target, CHECKPOINT_FILENAME)
    if not os.path.exists(target):
        raise ModelLoadError(f"no model source at {target}")
    with open(target, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise ModelLoadError(f"{target}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelLoadError(f"{target}: model source must be a JSON object")
    if payload.get("format") == STREAM_FORMAT:
        # Re-read through the checkpoint reader so its validation
        # (format tag, object shape) stays the single source of truth.
        state = read_checkpoint(target)
        result_payload = state.get("result")
        if not isinstance(result_payload, dict):
            raise ModelLoadError(f"{target}: checkpoint carries no model state")
        kind = "checkpoint"
    elif payload.get("format_version") == FORMAT_VERSION:
        result_payload = payload
        kind = "snapshot"
    else:
        raise ModelLoadError(
            f"{target}: neither a persistence snapshot nor a "
            f"{STREAM_FORMAT} checkpoint"
        )
    symbols = result_payload.get("alphabet")
    if not symbols:
        raise ModelLoadError(
            f"{target}: model does not embed an alphabet; a server "
            "cannot encode request sequences without one"
        )
    try:
        return result_from_dict(result_payload), Alphabet(symbols), kind
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelLoadError(
            f"{target}: cannot decode the model: {type(exc).__name__}: {exc}"
        ) from exc


@dataclass
class ClassifyOutcome:
    """One sequence's classification against one model version."""

    cluster_id: int | None
    #: ``None`` only when the model has no clusters to score against.
    log_similarity: float | None
    best_start: int
    best_end: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "cluster": self.cluster_id,
            "log_similarity": self.log_similarity,
            "segment": [self.best_start, self.best_end],
        }


class ModelVersion:
    """One loaded model generation.

    Classification never mutates the model; ``/v1/stream/ingest``
    does (absorbing §4.4 segments). The version's :attr:`scorer`, built
    with its trees, decides which trees the batch kernel scores
    (:meth:`~repro.core.backends.dispatch.PstBatchScorer.rows`): those
    that are closed and that no ingest has written since the build.
    Classify scores every other tree with the reference
    ``similarity()`` DP, without re-flattening it: a written tree, and a
    tree that is not closed — one pruned by ``max_nodes``, say — on
    which the kernel's prediction-node automaton does not hold (see
    :meth:`~repro.core.pst.ProbabilisticSuffixTree.transitions`). Both
    paths are bit-identical. A reload builds a fresh version whose
    trees start unchanged; a version lives as long as something refers
    to it.
    """

    def __init__(
        self,
        name: str,
        epoch: int,
        result: ClusteringResult,
        alphabet: Alphabet,
        source: str,
        kind: str,
    ) -> None:
        self.name = name
        self.epoch = epoch
        self.result = result
        self.alphabet = alphabet
        self.source = source
        self.kind = kind
        self.loaded_unix = time.time()
        self.scorer = PstBatchScorer(
            result.background, [cluster.pst for cluster in result.clusters]
        )
        # The next ingested sequence's index, allocated once here as
        # StreamingCluseq does, not rescanned per sequence.
        self._next_index = result.next_sequence_index()

    def classify_batch(
        self, sequences: list[list[str]]
    ) -> list[ClassifyOutcome | None]:
        """Classify raw symbol sequences; ``None`` marks an unencodable one.

        The scorer's rows (closed trees unchanged since this version
        was built) are scored for all encodable sequences in **one**
        batch-kernel matrix call, amortizing the flat/stack caches
        across every request in the micro-batch. A tree an ingest has
        absorbed into, or one that is not closed, is scored pair by
        pair with the reference ``similarity()`` DP, as ``predict``
        does, and is not flattened again. Both paths are bit-identical;
        the decision is
        :func:`~repro.core.examine.best_cluster` at the model's final
        threshold, the same one ``ClusteringResult.predict`` makes.
        """
        from ..sequences.alphabet import AlphabetError

        encoded: list[list[int]] = []
        positions: list[int] = []
        for position, symbols in enumerate(sequences):
            try:
                row = self.alphabet.encode(symbols)
            except AlphabetError:
                continue
            if len(row) == 0:
                continue
            encoded.append(list(row))
            positions.append(position)
        outcomes: list[ClassifyOutcome | None] = [None] * len(sequences)
        if not encoded:
            return outcomes
        clusters = self.result.clusters
        # Kernel rows first; the rest (written by an ingest, or not
        # closed) are scored by the DP.
        fixed = self.scorer.rows()
        written = [p for p in range(len(clusters)) if p not in fixed]
        written_clusters = [clusters[p] for p in written]
        # slot[p]: cluster p's row in a merged column, kernel rows first.
        slot = [0] * len(clusters)
        for row, p in enumerate([*fixed, *written]):
            slot[p] = row
        # No kernel call (and no flatten) when no tree is on the kernel.
        matrix = self.scorer.score_matrix_full(encoded)
        # One bulk convert to per-sequence columns of Python floats.
        kernel_columns: list[list[float]] = matrix.log_z.T.tolist()
        threshold = self.result.final_log_threshold
        for column, position in enumerate(positions):
            log_sims = kernel_columns[column]
            live: list[SimilarityResult] = []
            if written:  # else the kernel column is already in cluster order
                live = live_scores(
                    written_clusters, encoded[column], self.result.background
                )
                merged = log_sims + [scored.log_similarity for scored in live]
                log_sims = [merged[row] for row in slot]
            best = best_cluster(log_sims, threshold)
            if best is None:
                outcomes[position] = ClassifyOutcome(
                    cluster_id=None,
                    log_similarity=max(log_sims) if log_sims else None,
                    best_start=0,
                    best_end=0,
                )
                continue
            row = slot[best]
            result = (
                live[row - len(fixed)]
                if row >= len(fixed)
                else matrix.result(row, column)
            )
            outcomes[position] = ClassifyOutcome(
                cluster_id=clusters[best].cluster_id,
                log_similarity=result.log_similarity,
                best_start=result.best_start,
                best_end=result.best_end,
            )
        return outcomes

    def absorb(self, encoded: list[int]) -> int | None:
        """Join *encoded* to its best cluster, or record it as an outlier,
        under the next sequence index (see
        :meth:`~repro.core.cluseq.ClusteringResult.assign_and_absorb`)."""
        cluster_id = self.result.assign_and_absorb(encoded, index=self._next_index)
        self._next_index += 1
        return cluster_id

    def describe(self) -> dict[str, Any]:
        return {
            "model": self.name,
            "epoch": self.epoch,
            "source": self.source,
            "kind": self.kind,
            "loaded_unix": self.loaded_unix,
            "clusters": len(self.result.clusters),
            "log_threshold": self.result.final_log_threshold,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelVersion(name={self.name!r}, epoch={self.epoch})"


class ModelRegistry:
    """Named models, each at some epoch, hot-swappable under load."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._models: dict[str, ModelVersion] = {}
        self._sources: dict[str, str] = {}

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._models)

    def load(self, name: str, source: str) -> ModelVersion:
        """Load *source* as epoch 1 of *name* (or swap if it exists)."""
        return self._install(name, source)

    def reload(self, name: str, source: str | None = None) -> ModelVersion:
        """Re-read the model's source (or a new one) and hot-swap it.

        The old epoch keeps serving the requests that hold it; a caller
        that got it before the swap is never torn between generations.
        """
        with self._lock:
            if name not in self._models:
                raise KeyError(f"no model named {name!r}")
            resolved = source if source is not None else self._sources[name]
        return self._install(name, resolved)

    def _install(self, name: str, source: str) -> ModelVersion:
        started = time.perf_counter()
        result, alphabet, kind = load_model_payload(source)
        with self._lock:
            previous = self._models.get(name)
            epoch = previous.epoch + 1 if previous is not None else 1
            try:
                version = ModelVersion(name, epoch, result, alphabet, source, kind)
            except ValueError as exc:  # a background its trees disagree with
                raise ModelLoadError(f"{source}: {exc}") from exc
            self._models[name] = version
            self._sources[name] = source
        registry = get_registry()
        if registry.enabled:
            registry.counter("serve.reloads").inc()
            registry.timer("serve.reload_seconds").record(
                time.perf_counter() - started
            )
            registry.gauge("serve.model_epoch").set(epoch)
        return version

    def get(self, name: str) -> ModelVersion:
        """The live version of *name*."""
        with self._lock:
            version = self._models.get(name)
        if version is None:
            raise KeyError(f"no model named {name!r}")
        return version
