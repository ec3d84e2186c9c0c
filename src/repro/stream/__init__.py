"""Streaming CLUSEQ: online micro-batch clustering over the core engine.

This package layers an *online* mode on top of :mod:`repro.core`:
:class:`StreamingCluseq` consumes micro-batches of encoded sequences,
absorbs joiners into existing cluster PSTs, pools outliers for
periodic re-seeding, decays counts to track drift, and (optionally)
journals + checkpoints its state for crash recovery. See
``docs/STREAMING.md`` for the architecture and on-disk format.

Layering: ``repro.stream`` may import :mod:`repro.core`,
:mod:`repro.sequences` and :mod:`repro.obs`; nothing in
:mod:`repro.core` may import this package (enforced by checker rule
CLQ001).
"""

from .checkpoint import (
    CheckpointError,
    checkpoint_path,
    ensure_resumable,
    journal_path,
    read_checkpoint,
    write_checkpoint,
    write_json_atomic,
)
from .decay import DecayPolicy
from .engine import StreamConfig, StreamingCluseq, StreamStats
from .journal import (
    STREAM_FORMAT,
    BatchRecord,
    JournalError,
    StreamJournal,
    journal_batches_after,
    read_journal,
)
from .pool import OutlierPool
from .sources import (
    DriftingStream,
    batched,
    drifting_markov_stream,
    read_encoded_lines,
)

__all__ = [
    "STREAM_FORMAT",
    "BatchRecord",
    "CheckpointError",
    "DecayPolicy",
    "DriftingStream",
    "JournalError",
    "OutlierPool",
    "StreamConfig",
    "StreamJournal",
    "StreamStats",
    "StreamingCluseq",
    "batched",
    "checkpoint_path",
    "drifting_markov_stream",
    "ensure_resumable",
    "journal_batches_after",
    "journal_path",
    "read_checkpoint",
    "read_journal",
    "read_encoded_lines",
    "write_checkpoint",
    "write_json_atomic",
]
