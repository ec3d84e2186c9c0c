"""The served model's slot, with build-then-swap hot reload.

A *model* is a fitted :class:`~repro.core.cluseq.ClusteringResult`
plus its alphabet — exactly what ``cluster --save-model`` writes via
:mod:`repro.core.persistence`, or what the streaming engine captures
in a ``repro.stream/v1`` checkpoint. The registry loads either format
(:func:`load_model_payload` sniffs the ``format``/``format_version``
tag, and accepts a stream state *directory* by resolving its
``checkpoint.json``), wraps it in a :class:`ModelVersion` carrying its
own :class:`~repro.core.backends.dispatch.PstBatchScorer`, and hands
it to request handlers. A server serves one model, so the registry is
one slot:

* ``load(name, source)`` fills the slot with *source* under *name*.
* ``get()`` returns the live version. Every scoring pass runs against
  the one version it got.
* ``reload(name)`` builds the replacement *completely* — parsed, scored
  against nothing, ready to serve — and then swaps the slot in one
  assignment under the lock, with the next epoch number. A name other
  than the served one is a ``KeyError``. In-flight requests finish on
  the version they hold; later ``get()`` calls see only the new epoch.
  There is never a moment where a half-loaded model is visible.
* A retired version is a plain object: it, its trees and its scorer's
  tables are freed with the last reference to it.

Thread-safe by a plain mutex around the slot, far off any hot path
(scoring happens *outside* the lock).
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
from ..core.examine import best_cluster
from ..core.persistence import FORMAT_VERSION, result_from_dict
from ..obs import get_registry
from ..sequences.alphabet import Alphabet, AlphabetError
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
    does (absorbing §4.4 segments through
    :meth:`~repro.core.cluseq.ClusteringResult.assign_and_absorb`,
    which also allocates the ingested sequence's index). The version's
    :attr:`scorer`, built with its trees, scores all of them and
    decides alone which go through the batch kernel (see
    :class:`~repro.core.backends.dispatch.PstBatchScorer`). A reload
    builds a fresh version whose trees start unchanged; a version lives
    as long as something refers to it.
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

    def encode(self, symbols: list[str]) -> list[int] | None:
        """*symbols* as alphabet ids; ``None`` for a sequence that is
        empty or holds a symbol outside the alphabet."""
        try:
            return self.alphabet.encode(symbols) or None
        except AlphabetError:
            return None

    def classify_batch(
        self, sequences: list[list[str]]
    ) -> list[ClassifyOutcome | None]:
        """Classify raw symbol sequences; ``None`` marks an unencodable one.

        All encodable sequences are scored against every tree in one
        :meth:`~repro.core.backends.dispatch.PstBatchScorer.score_matrix_full`
        call, which amortizes the flat/stack caches across every
        request in the micro-batch. The decision is
        :func:`~repro.core.examine.best_cluster` on each sequence's
        column at the model's final threshold, the same one
        ``ClusteringResult.predict`` makes.
        """
        encoded: list[list[int]] = []
        positions: list[int] = []
        for position, symbols in enumerate(sequences):
            row = self.encode(symbols)
            if row is not None:
                encoded.append(row)
                positions.append(position)
        outcomes: list[ClassifyOutcome | None] = [None] * len(sequences)
        if not encoded:
            return outcomes
        matrix = self.scorer.score_matrix_full(encoded)
        # One bulk convert to per-sequence columns of Python floats.
        columns: list[list[float]] = matrix.log_z.T.tolist()
        clusters = self.result.clusters
        threshold = self.result.final_log_threshold
        for column, position in enumerate(positions):
            log_sims = columns[column]
            best = best_cluster(log_sims, threshold)
            if best is None:
                outcomes[position] = ClassifyOutcome(
                    cluster_id=None,
                    log_similarity=max(log_sims) if log_sims else None,
                    best_start=0,
                    best_end=0,
                )
                continue
            result = matrix.result(best, column)
            outcomes[position] = ClassifyOutcome(
                cluster_id=clusters[best].cluster_id,
                log_similarity=result.log_similarity,
                best_start=result.best_start,
                best_end=result.best_end,
            )
        return outcomes

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
    """The served model: one slot, hot-swappable under load."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._version: ModelVersion | None = None

    def load(self, name: str, source: str) -> ModelVersion:
        """Serve *source* under *name*, at the slot's next epoch."""
        started = time.perf_counter()
        result, alphabet, kind = load_model_payload(source)
        with self._lock:
            previous = self._version
            epoch = previous.epoch + 1 if previous is not None else 1
            try:
                version = ModelVersion(name, epoch, result, alphabet, source, kind)
            except ValueError as exc:  # a background its trees disagree with
                raise ModelLoadError(f"{source}: {exc}") from exc
            self._version = version
        registry = get_registry()
        if registry.enabled:
            registry.counter("serve.reloads").inc()
            registry.timer("serve.reload_seconds").record(
                time.perf_counter() - started
            )
            registry.gauge("serve.model_epoch").set(epoch)
        return version

    def reload(self, name: str, source: str | None = None) -> ModelVersion:
        """Re-read the served model's source (or a new one) and hot-swap it.

        Raises ``KeyError`` when *name* is not the served model. The
        old epoch keeps serving the requests that hold it; a caller
        that got it before the swap is never torn between generations.
        """
        with self._lock:
            current = self._version
            if current is None or current.name != name:
                raise KeyError(f"no model named {name!r}")
            resolved = source if source is not None else current.source
        return self.load(name, resolved)

    def get(self) -> ModelVersion:
        """The live version; ``KeyError`` when no model is loaded."""
        with self._lock:
            version = self._version
        if version is None:
            raise KeyError("no model loaded")
        return version
