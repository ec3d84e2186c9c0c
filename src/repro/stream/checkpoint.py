"""Atomic checkpoints of streaming-engine state.

Durability half two (see :mod:`repro.stream.journal` for the write-
ahead half): a checkpoint is one JSON document holding the complete
engine state — the wrapped clustering in the ``core/persistence``
schema, the outlier pool, the maintenance counters and the config —
plus ``journal_batches``, the number of journal records the state
already reflects. Recovery loads the checkpoint and replays only the
journal records at or past that mark.

Writes are atomic: the document goes to a same-directory temp file
which is fsynced and then ``os.replace``d over the target, so a crash
mid-checkpoint leaves the previous checkpoint intact — there is never
a moment with a half-written ``checkpoint.json`` on disk.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Union

from ..obs import LATENCY_BUCKETS, get_registry
from .journal import STREAM_FORMAT

PathLike = Union[str, "os.PathLike[str]"]

#: Default file names inside a stream state directory.
CHECKPOINT_FILENAME = "checkpoint.json"
JOURNAL_FILENAME = "journal.jsonl"


class CheckpointError(ValueError):
    """Raised when a checkpoint file is missing, corrupt or incompatible."""


def write_json_atomic(path: PathLike, payload: dict[str, Any]) -> int:
    """Atomically persist *payload* as compact JSON at *path*.

    The temp-file/fsync/``os.replace`` writer behind stream
    checkpoints. Returns the document size in bytes.
    """
    target = os.fspath(path)
    started = time.perf_counter()
    text = json.dumps(payload, separators=(",", ":"))
    tmp_path = target + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        fsync_started = time.perf_counter()
        os.fsync(handle.fileno())
        fsynced = time.perf_counter()
    os.replace(tmp_path, target)
    registry = get_registry()
    if registry.enabled:
        registry.histogram(
            "stream.checkpoint_fsync_seconds", buckets=LATENCY_BUCKETS
        ).observe(fsynced - fsync_started)
        registry.histogram(
            "stream.checkpoint_write_seconds", buckets=LATENCY_BUCKETS
        ).observe(time.perf_counter() - started)
    return len(text.encode("utf-8"))


def write_checkpoint(path: PathLike, state: dict[str, Any]) -> int:
    """Atomically write *state* (plus the format tag) to *path*.

    Returns the checkpoint size in bytes. *state* must already contain
    ``journal_batches``.
    """
    if "journal_batches" not in state:
        raise CheckpointError("checkpoint state must record journal_batches")
    return write_json_atomic(path, {"format": STREAM_FORMAT, **state})


def read_checkpoint(path: PathLike) -> dict[str, Any]:
    """Load and validate a checkpoint written by :func:`write_checkpoint`."""
    target = os.fspath(path)
    if not os.path.exists(target):
        raise CheckpointError(f"no checkpoint at {target}")
    with open(target, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"{target}: corrupt checkpoint") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"{target}: checkpoint must be a JSON object")
    if payload.get("format") != STREAM_FORMAT:
        raise CheckpointError(
            f"{target}: unsupported checkpoint format "
            f"{payload.get('format')!r}; this build reads {STREAM_FORMAT}"
        )
    return payload


def ensure_resumable(state_dir: PathLike) -> str:
    """Validate that *state_dir* looks like a resumable state directory.

    Raises :class:`CheckpointError` with an operator-readable message
    when the directory is missing, is not a directory, or holds no
    durable state at all (no checkpoint or journal) — the cases
    that previously surfaced as raw tracebacks from ``--resume``.
    Returns the normalized path.
    """
    target = os.fspath(state_dir)
    if not os.path.exists(target):
        raise CheckpointError(f"state directory {target} does not exist")
    if not os.path.isdir(target):
        raise CheckpointError(f"{target} is not a directory")
    durable = [
        name
        for name in os.listdir(target)
        if not name.endswith(".tmp")
    ]
    if not durable:
        raise CheckpointError(
            f"state directory {target} is empty — nothing to resume"
        )
    return target


def checkpoint_path(state_dir: PathLike) -> str:
    """Canonical checkpoint location inside a state directory."""
    return os.path.join(os.fspath(state_dir), CHECKPOINT_FILENAME)


def journal_path(state_dir: PathLike) -> str:
    """Canonical journal location inside a state directory."""
    return os.path.join(os.fspath(state_dir), JOURNAL_FILENAME)
