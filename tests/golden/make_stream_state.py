"""Write ``tests/golden/stream_state/``: a stream state directory to pin
the checkpoint and journal format across builds.

The committed directory was written by the build at commit ``5548a20``.
``tests/test_stream_recovery.py::TestPinnedStateDir`` recovers it with
the current build and checks that replaying its journal from the
checkpoint ends where ingesting the same batches live from that
checkpoint ends, so a change to what a checkpoint holds or how recovery
reads it fails there. It was written with the stream's rolling
threshold adjuster on, so its config carries keys now in
``RETIRED_KEYS``, its checkpoint a score window and the derived
``outliers`` and ``next_index`` counters; recovery ignores them. That
build drew all of a re-seed round's seeds before any rescue, so a run
from batch 0 with the current build no longer reproduces the
checkpointed state. Rewrite the fixture only on purpose, when the
on-disk format changes; from the repository root::

    PYTHONPATH=src python tests/golden/make_stream_state.py

The writer stops after ``WRITTEN_BATCHES`` batches without a closing
checkpoint, so recovery both loads a checkpoint and replays a journal
suffix. It calls only ``cold_start`` and ``ingest_batch``, which the
writing build and the current one share.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.stream import (
    DecayPolicy,
    StreamConfig,
    StreamingCluseq,
    drifting_markov_stream,
)

STATE_DIR = Path(__file__).resolve().parent / "stream_state"

#: Seven batches of 10: checkpoints after batches 3 and 6, the journal
#: holds all seven, so recovery replays batch 6 onward.
BATCH_SIZE = 10
WRITTEN_BATCHES = 7
CONFIG = StreamConfig(
    batch_size=BATCH_SIZE,
    pool_size=64,
    reseed_every=2,
    reseed_k=2,
    reseed_min_pool=6,
    consolidate_every=4,
    min_unique_members=2,
    decay=DecayPolicy(factor=0.9, every_batches=3),
    checkpoint_every=3,
    journal_fsync=False,
    seed=3,
)


def stream() -> list[list[int]]:
    """The whole stream: the fixture holds its first ``WRITTEN_BATCHES``
    batches."""
    return drifting_markov_stream(
        120, 60, alphabet_size=6, mean_length=24, concentration=0.05, seed=11
    ).sequences


def make_engine(state_dir: Path | None = None) -> StreamingCluseq:
    return StreamingCluseq.cold_start(
        alphabet_size=6,
        similarity_threshold=10.0,
        significance_threshold=3,
        max_depth=3,
        config=CONFIG,
        state_dir=state_dir,
    )


def main() -> None:
    shutil.rmtree(STATE_DIR, ignore_errors=True)
    engine = make_engine(STATE_DIR)
    sequences = stream()
    for start in range(0, WRITTEN_BATCHES * BATCH_SIZE, BATCH_SIZE):
        engine.ingest_batch(sequences[start : start + BATCH_SIZE])
    engine.close()
    print(f"wrote {STATE_DIR} ({engine.batches_ingested} batches)")


if __name__ == "__main__":
    main()
