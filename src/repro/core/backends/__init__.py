"""Scoring backends: flattened-array batch kernels for the SIM measure.

See docs/PERFORMANCE.md for the architecture. ``repro.core.similarity``
is the normative transcription of the paper; the kernel here
reproduces it bit-for-bit from each tree's prediction-node automaton
and log-probability table, batched over many (sequence, tree) pairs,
in one process. It is a serving accelerator: only ``repro.serve``
imports it (CLQ001).
"""

from .dispatch import PstBatchScorer
from .flatten import FlattenedPST, flatten_pst
from .vectorized import (
    PreparedStack,
    ScoreMatrixResult,
    kadane_columns,
    pad_sequences,
    prepare_stack,
    walk_states_matrix,
)

__all__ = [
    "FlattenedPST",
    "PreparedStack",
    "PstBatchScorer",
    "ScoreMatrixResult",
    "flatten_pst",
    "kadane_columns",
    "pad_sequences",
    "prepare_stack",
    "walk_states_matrix",
]
