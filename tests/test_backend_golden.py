"""Golden end-to-end regression: the seeded clustering never drifts.

A seeded CLUSEQ run over synthetic two-family Markov data, checked
against the committed fixture ``tests/golden/backend_clustering.json``;
the run must reproduce the fixture *exactly* (assignments, threshold,
history and recall). The fixture was recorded on the reference
per-pair loop, and the fit scores only with that loop, so this
pins the clustering output itself: an algorithm regression trips it.
It does not exercise the batch kernel; the kernel's bit-identity
with the reference DP is pinned by ``tests/test_backends_differential.py``.

Regenerate after an *intentional* algorithm change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_backend_golden.py -k matches_golden

and commit the diff alongside the change that explains it.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from repro.core.cluseq import CLUSEQ, CluseqParams
from repro.evaluation.metrics import evaluate_clustering
from repro.sequences.database import SequenceDatabase

GOLDEN_PATH = Path(__file__).parent / "golden" / "backend_clustering.json"

ALPHABET = "abcdefgh"
N_SEQUENCES = 80
LENGTH = 60
SEED = 20260806


def _two_family_database() -> tuple[SequenceDatabase, list[str]]:
    """Synthetic two-family first-order Markov data, fully seeded."""
    size = len(ALPHABET)

    def transition_matrix(seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        matrix = rng.random((size, size)) ** 6
        return matrix / matrix.sum(axis=1, keepdims=True)

    families = [transition_matrix(SEED + 1), transition_matrix(SEED + 2)]
    rng = np.random.default_rng(SEED)
    strings: list[str] = []
    labels: list[str] = []
    for i in range(N_SEQUENCES):
        family = i % 2
        chain = families[family]
        state = int(rng.integers(size))
        symbols = [state]
        for _ in range(LENGTH - 1):
            state = int(rng.choice(size, p=chain[state]))
            symbols.append(state)
        strings.append("".join(ALPHABET[s] for s in symbols))
        labels.append(f"family{family}")
    return SequenceDatabase.from_strings(strings), labels


def _run() -> dict[str, object]:
    db, truth = _two_family_database()
    params = CluseqParams(
        k=4,
        significance_threshold=2,
        similarity_threshold=1.2,
        max_depth=4,
        max_iterations=6,
        seed=7,
    )
    result = CLUSEQ(params).fit(db)
    report = evaluate_clustering(truth, result.labels())
    return {
        "assignments": {
            str(index): sorted(ids)
            for index, ids in sorted(result.assignments.items())
        },
        "final_log_threshold": result.final_log_threshold,
        "clusters": [
            [cluster.cluster_id, len(cluster.members)]
            for cluster in result.clusters
        ],
        "history": [
            [entry.iteration, entry.new_clusters, entry.membership_changes]
            for entry in result.history
        ],
        "macro_recall": report.macro_recall,
        "accuracy": report.accuracy,
    }


def test_clustering_matches_golden_fixture() -> None:
    observed = _run()
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(observed, indent=2) + "\n")
    expected = json.loads(GOLDEN_PATH.read_text())
    assert observed["assignments"] == expected["assignments"]
    assert observed["clusters"] == expected["clusters"]
    assert observed["history"] == expected["history"]
    assert math.isclose(
        observed["final_log_threshold"],
        expected["final_log_threshold"],
        rel_tol=0.0,
        abs_tol=0.0,
    ), "threshold must be bit-identical to the fixture"
    assert observed["macro_recall"] == expected["macro_recall"]
    assert observed["accuracy"] == expected["accuracy"]


def test_fixture_represents_a_meaningful_clustering() -> None:
    """Guard against silently committing a degenerate fixture."""
    expected = json.loads(GOLDEN_PATH.read_text())
    assert expected["macro_recall"] >= 0.9
    assert len(expected["clusters"]) >= 2
