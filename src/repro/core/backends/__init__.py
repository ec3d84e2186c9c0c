"""Scoring backends: flattened-array batch kernels for the SIM measure.

See docs/PERFORMANCE.md for the architecture. The ``reference``
backend (``repro.core.similarity``) is the normative transcription of
the paper; the ``vectorized`` backend here reproduces it bit-for-bit
from flattened PST arrays, batched over many (sequence, tree) pairs,
with an optional multiprocessing fan-out for the serving scoring
matrix.
"""

from .dispatch import BACKENDS, PstBatchScorer, resolve_backend
from .flatten import FlattenedPST, flatten_pst
from .parallel import ScoringPool
from .shm import SharedFlatSpec, ShmFlatStore, attach_flat, publish_flat
from .vectorized import (
    KADANE_NUMPY_MIN_ROWS,
    KadaneBatchResult,
    PreparedStack,
    ScoreMatrixResult,
    StackedFlats,
    kadane_columns,
    pad_sequences,
    prepare_stack,
    score_matrix_stacked,
    stack_flats,
    walk_states_matrix,
)

__all__ = [
    "BACKENDS",
    "KADANE_NUMPY_MIN_ROWS",
    "FlattenedPST",
    "KadaneBatchResult",
    "PreparedStack",
    "PstBatchScorer",
    "ScoreMatrixResult",
    "ScoringPool",
    "SharedFlatSpec",
    "ShmFlatStore",
    "StackedFlats",
    "attach_flat",
    "flatten_pst",
    "kadane_columns",
    "pad_sequences",
    "prepare_stack",
    "publish_flat",
    "resolve_backend",
    "score_matrix_stacked",
    "stack_flats",
    "walk_states_matrix",
]
