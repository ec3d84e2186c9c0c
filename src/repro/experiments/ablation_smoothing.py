"""§5.2 ablation — adjusted probability estimation (smoothing).

The paper motivates smoothing with the zero-probability failure mode:
a small cluster's empirical CPD assigns probability 0 to unseen
symbols, zeroing the predict probability of any sequence containing
one. This ablation clusters the shared workload with smoothing on
(the paper's adjustment) and off, and also measures the direct effect
on similarity scores of held-out same-cluster sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..core.pst import ProbabilisticSuffixTree
from ..core.similarity import log_symbol_ratios
from ..evaluation.reporting import percent, print_table
from ..sequences.database import SequenceDatabase
from ..sequences.generators import generate_clustered_database
from .common import CluseqRun, run_cluseq, scaled_params
from .table5_initial_k import default_database


@dataclass(frozen=True)
class SmoothingRow:
    """Clustering quality with one smoothing setting."""

    p_min_scale: float
    accuracy: float
    precision: float
    recall: float
    final_clusters: int


@dataclass(frozen=True)
class ZeroProbabilityStats:
    """Direct measurement of the §5.2 failure mode.

    ``fraction_zeroed``: share of held-out same-cluster sequences whose
    whole-sequence predict probability collapses to (effectively) zero
    without smoothing.
    """

    fraction_zeroed_unsmoothed: float
    fraction_zeroed_smoothed: float
    mean_log_sim_unsmoothed: float
    mean_log_sim_smoothed: float


def run_ablation_smoothing(
    db: SequenceDatabase | None = None,
    p_min_scales: Sequence[float] = (0.0, 1e-4, 1e-3, 1e-2),
    true_k: int = 10,
    seed: int = 3,
) -> list[SmoothingRow]:
    """Cluster with several smoothing strengths (0.0 disables it)."""
    if db is None:
        db = default_database(true_k=true_k, seed=seed)
    rows: list[SmoothingRow] = []
    for scale in p_min_scales:
        p_min = scale / db.alphabet.size if scale > 0 else 0.0
        run: CluseqRun = run_cluseq(
            db,
            **scaled_params(
                db,
                k=true_k,
                significance_threshold=5,
                min_unique_members=5,
                p_min=p_min,
                seed=seed,
            ),
        )
        rows.append(
            SmoothingRow(
                p_min_scale=scale,
                accuracy=run.accuracy,
                precision=run.precision,
                recall=run.recall,
                final_clusters=run.result.num_clusters,
            )
        )
    return rows


def measure_zero_probability_effect(
    cluster_size: int = 4,
    holdout: int = 10,
    avg_length: int = 150,
    alphabet_size: int = 20,
    seed: int = 5,
) -> ZeroProbabilityStats:
    """Quantify the zero-probability failure on a deliberately small cluster.

    Builds a PST from only *cluster_size* sequences of one synthetic
    cluster and scores *holdout* held-out members with and without
    smoothing, comparing whole-sequence predict scores.
    """
    ds = generate_clustered_database(
        num_sequences=cluster_size + holdout,
        num_clusters=1,
        avg_length=avg_length,
        alphabet_size=alphabet_size,
        outlier_fraction=0.0,
        seed=seed,
    )
    db = ds.database
    background = db.background_probabilities()
    training = [db.encoded(i) for i in range(cluster_size)]
    held_out = [db.encoded(i) for i in range(cluster_size, cluster_size + holdout)]

    def build(p_min: float) -> ProbabilisticSuffixTree:
        pst = ProbabilisticSuffixTree(
            alphabet_size=alphabet_size,
            max_depth=6,
            significance_threshold=3,
            p_min=p_min,
        )
        for seq in training:
            pst.add_sequence(seq)
        return pst

    unsmoothed = build(0.0)
    smoothed = build(1e-3 / alphabet_size)

    def whole_log(pst: ProbabilisticSuffixTree, seq: Sequence[int]) -> float:
        # log sim_S(σ) of the whole sequence, summed in position order
        # (``sum()`` would compensate and round differently).
        total = 0.0
        for ratio in log_symbol_ratios(pst, seq, background):
            total += ratio
        return total

    zeroed_u = zeroed_s = 0
    logs_u: list[float] = []
    logs_s: list[float] = []
    for seq in held_out:
        whole_u = whole_log(unsmoothed, seq)
        whole_s = whole_log(smoothed, seq)
        # A zeroed conditional contributes ~-700 per occurrence, and
        # affected sequences typically hit many; smoothed scores bottom
        # out around (length · log(p_min/background)) ≈ -10³. -2000
        # separates the regimes with a wide margin.
        if whole_u < -2000:
            zeroed_u += 1
        if whole_s < -2000:
            zeroed_s += 1
        logs_u.append(whole_u)
        logs_s.append(whole_s)
    return ZeroProbabilityStats(
        fraction_zeroed_unsmoothed=zeroed_u / holdout,
        fraction_zeroed_smoothed=zeroed_s / holdout,
        mean_log_sim_unsmoothed=float(np.mean(logs_u)),
        mean_log_sim_smoothed=float(np.mean(logs_s)),
    )


def print_ablation_smoothing(
    rows: list[SmoothingRow], stats: ZeroProbabilityStats | None = None
) -> None:
    print_table(
        headers=["n·p_min", "accuracy", "precision", "recall", "clusters"],
        rows=[
            (
                row.p_min_scale,
                percent(row.accuracy),
                percent(row.precision),
                percent(row.recall),
                row.final_clusters,
            )
            for row in rows
        ],
        title="§5.2 ablation — adjusted probability estimation",
    )
    if stats is not None:
        print(
            "zero-probability failure on a small cluster: "
            f"{percent(stats.fraction_zeroed_unsmoothed)} of held-out members "
            f"zeroed without smoothing vs "
            f"{percent(stats.fraction_zeroed_smoothed)} with smoothing\n"
        )
