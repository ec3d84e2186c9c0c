"""Scoring backends: flattened-array batch kernels for the SIM measure.

See docs/PERFORMANCE.md for the architecture. ``repro.core.similarity``
is the normative transcription of the paper; the kernel here
reproduces it bit-for-bit from flattened PST arrays, batched over many
(sequence, tree) pairs, in one process. It is an accelerator with two
callers, serve classify and the shard plan export; nothing else in
``repro.core`` imports it (CLQ001).
"""

from .dispatch import PstBatchScorer
from .flatten import FlattenedPST, flatten_pst
from .vectorized import (
    KadaneBatchResult,
    PreparedStack,
    ScoreMatrixResult,
    kadane_columns,
    pad_sequences,
    prepare_stack,
    walk_states_matrix,
)

__all__ = [
    "FlattenedPST",
    "KadaneBatchResult",
    "PreparedStack",
    "PstBatchScorer",
    "ScoreMatrixResult",
    "flatten_pst",
    "kadane_columns",
    "pad_sequences",
    "prepare_stack",
    "walk_states_matrix",
]
