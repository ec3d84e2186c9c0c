"""Append-only ingest journal (write-ahead log) for the stream engine.

Durability half one: every micro-batch is appended to a JSONL journal
*before* it is applied to the in-memory clustering, so a crash can
lose at most the batch whose write was interrupted — and a torn final
line is detected and ignored on replay. Combined with periodic
checkpoints (the other half), recovery is: load the newest checkpoint,
then re-apply the journal suffix. Because the engine is a
deterministic function of (state, batch sequence), replay reproduces
the pre-crash state bit-for-bit.

Format (``repro.stream/v1``): line 1 is a header record; every further
line is one batch record::

    {"type": "header", "format": "repro.stream/v1", ...}
    {"type": "batch", "n": 0, "sequences": [[0, 1, 2], ...]}
    {"type": "batch", "n": 1, "sequences": [...]}

``n`` is the 0-based batch ordinal — replay after a checkpoint taken
at ``journal_batches = K`` applies exactly the records with
``n >= K``.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any, Union

from ..obs import LATENCY_BUCKETS, get_registry

#: On-disk schema identifier, shared with the checkpoint format.
STREAM_FORMAT = "repro.stream/v1"

PathLike = Union[str, "os.PathLike[str]"]


class JournalError(ValueError):
    """Raised when a journal file cannot be parsed or is incompatible."""


@dataclass(frozen=True)
class BatchRecord:
    """One replayable journal entry: a micro-batch of encoded sequences."""

    ordinal: int
    sequences: list[list[int]]


class StreamJournal:
    """Appender for the ingest write-ahead log.

    Opens lazily in append mode; ``append_batch`` writes one JSONL
    record and fsyncs, so an acknowledged batch survives process death.
    A fresh (empty) journal receives a header record first.
    """

    def __init__(self, path: PathLike, fsync: bool = True) -> None:
        self.path = os.fspath(path)
        self.fsync = fsync
        self._handle: Any = None

    def _ensure_open(self) -> None:
        if self._handle is not None:
            return
        fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        if not fresh:
            self._trim_torn_tail()
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._write_line({"type": "header", "format": STREAM_FORMAT})

    def _trim_torn_tail(self) -> None:
        """Truncate a torn (newline-less) final line before appending.

        Readers already ignore a torn final line, but appending *after*
        one would weld the new record onto the torn fragment and turn a
        harmless torn tail into mid-file corruption. Trimming back to
        the last complete line keeps append-after-recovery safe.
        """
        with open(self.path, "rb+") as handle:
            data = handle.read()
            if not data or data.endswith(b"\n"):
                return
            cut = data.rfind(b"\n")
            handle.truncate(cut + 1 if cut >= 0 else 0)
            handle.flush()
            os.fsync(handle.fileno())

    def _write_line(self, payload: dict[str, Any]) -> None:
        assert self._handle is not None
        started = time.perf_counter()
        self._handle.write(json.dumps(payload, separators=(",", ":")) + "\n")
        self._handle.flush()
        fsync_started = time.perf_counter()
        if self.fsync:
            os.fsync(self._handle.fileno())
        finished = time.perf_counter()
        registry = get_registry()
        if registry.enabled:
            if self.fsync:
                registry.histogram(
                    "stream.wal_fsync_seconds", buckets=LATENCY_BUCKETS
                ).observe(finished - fsync_started)
            registry.histogram(
                "stream.wal_append_seconds", buckets=LATENCY_BUCKETS
            ).observe(finished - started)

    def append_batch(self, ordinal: int, sequences: list[list[int]]) -> None:
        """Write-ahead one micro-batch under 0-based *ordinal*."""
        self._ensure_open()
        self._write_line({"type": "batch", "n": ordinal, "sequences": sequences})

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "StreamJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_journal(path: PathLike) -> Iterator[BatchRecord]:
    """Yield every intact batch record of the journal at *path*, in order.

    A torn final line (crash mid-append) is silently ignored; a torn
    line anywhere *before* the end means real corruption and raises
    :class:`JournalError`, as does a header announcing an unknown
    format or a record of any other type. A *missing* file yields
    nothing: the journal is created lazily on first append, so a state
    dir checkpointed before any batch arrived (or killed right after
    the cold-start checkpoint) legitimately has no journal yet.
    """
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
        trailing_complete = True
    else:
        trailing_complete = False
    for lineno, line in enumerate(lines):
        last = lineno == len(lines) - 1
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            if last and not trailing_complete:
                return  # torn final append — the batch was never acked
            raise JournalError(
                f"{path}:{lineno + 1}: corrupt journal line"
            ) from None
        kind = payload.get("type")
        if lineno == 0:
            if kind != "header" or payload.get("format") != STREAM_FORMAT:
                raise JournalError(
                    f"{path}: not a {STREAM_FORMAT} journal "
                    f"(header: {payload!r})"
                )
            continue
        if kind != "batch":
            raise JournalError(f"{path}:{lineno + 1}: unknown record {kind!r}")
        yield BatchRecord(
            ordinal=int(payload["n"]),
            sequences=[[int(s) for s in seq] for seq in payload["sequences"]],
        )


def journal_batches_after(path: PathLike, after: int) -> list[BatchRecord]:
    """The replay suffix: intact batch records with ``ordinal >= after``."""
    return [record for record in read_journal(path) if record.ordinal >= after]
