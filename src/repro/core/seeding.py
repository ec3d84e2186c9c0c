"""New-cluster seed selection (paper §4.1).

Each CLUSEQ iteration may generate new clusters from the unclustered
sequences. Seeds should resemble existing clusters — and each other —
as little as possible, so the paper uses a sampled greedy min-max
procedure:

1. Sample ``m`` unclustered sequences uniformly (``m = 5 · k_n`` by
   default).
2. Repeat ``k_n`` times: score every remaining sample against all
   existing clusters *and already-chosen seeds*, take each sample's
   highest similarity, and pick the sample whose highest similarity is
   lowest. Only a picked sample gets a single-sequence PST, since
   only a chosen seed is ever scored against.

The fit keeps its cluster trees in holders, part of them in its pass
worker; it hands :func:`select_seeds` no existing clusters and every
tree as a :class:`ScoredElsewhere`, which scores the sample against the
trees in both processes at once.

The sampling keeps the cost at ``O(m · (m + k') · l²)`` instead of the
quadratic-in-N pairwise alternative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Protocol

import numpy as np
import numpy.typing as npt

from ..obs import get_logger, get_registry
from ..typing import EncodedLookup, PSTFactory
from .cluster import Cluster
from .pst import ProbabilisticSuffixTree
from .similarity import _log_background, score_row

_logger = get_logger("core.seeding")


@dataclass(frozen=True)
class SeedChoice:
    """One selected seed and the evidence behind the choice."""

    sequence_index: int
    max_similarity_log: float  # highest log-sim to any prior cluster/seed
    #: The seed's single-sequence tree, built once at selection; the
    #: new cluster starts from it.
    pst: ProbabilisticSuffixTree


class ScoredElsewhere(Protocol):
    """Reference trees held outside *existing_clusters* (the fit's
    :class:`~repro.core.fit_worker.FitTrees`)."""

    @property
    def references(self) -> int:
        """How many references each sample is scored against there."""

    def best(self, sampled: list[int]) -> list[float]:
        """Each sample's best ``log SIM`` over those references, in
        sample order (*sampled*: database indices)."""


def build_seed_pst(
    encoded: Sequence[int],
    alphabet_size: int,
    max_depth: int,
    significance_threshold: int,
    p_min: float,
    max_nodes: int | None = None,
    prune_strategy: str = "paper",
) -> ProbabilisticSuffixTree:
    """A PST modelling a single seed sequence (§4.1's new-cluster
    initial state)."""
    pst = ProbabilisticSuffixTree(
        alphabet_size=alphabet_size,
        max_depth=max_depth,
        significance_threshold=significance_threshold,
        p_min=p_min,
        max_nodes=max_nodes,
        prune_strategy=prune_strategy,
    )
    pst.add_sequence(encoded)
    return pst


def select_seeds(
    candidates: Sequence[int],
    encoded_lookup: EncodedLookup,
    existing_clusters: Sequence[Cluster],
    background: npt.NDArray[np.float64],
    count: int,
    sample_multiplier: int,
    rng: np.random.Generator,
    pst_factory: PSTFactory,
    elsewhere: ScoredElsewhere | None = None,
) -> list[SeedChoice]:
    """Choose up to *count* seed sequences from *candidates*.

    Parameters
    ----------
    candidates:
        Database indices of currently-unclustered sequences.
    encoded_lookup:
        Callable mapping a database index to its encoded sequence.
    existing_clusters:
        The clusters already in play; seeds are pushed away from them.
    background:
        Background symbol probabilities for the similarity measure.
    count:
        ``k_n`` — how many seeds to select.
    sample_multiplier:
        The ``m = multiplier · k_n`` sample-size rule; the paper uses 5.
    rng:
        Random generator for the sample draw.
    pst_factory:
        Callable ``encoded -> ProbabilisticSuffixTree`` building a
        single-sequence PST over *background*'s alphabet (bind cluster
        parameters with ``functools.partial`` around
        :func:`build_seed_pst`).
    elsewhere:
        Reference trees held elsewhere; each sample's best score is the
        larger of theirs and the one against *existing_clusters*.

    Returns fewer than *count* choices when there are not enough
    candidates.
    """
    if count <= 0 or not candidates:
        return []
    sample_size = min(len(candidates), max(count, sample_multiplier * count))
    sampled = list(
        rng.choice(np.asarray(candidates), size=sample_size, replace=False)
    )
    sampled = [int(i) for i in sampled]

    reference_psts: list[ProbabilisticSuffixTree] = [
        cluster.pst for cluster in existing_clusters
    ]

    # The one input check of the call: every sample, and the
    # background against the references.
    log_bg = _log_background(
        reference_psts, [encoded_lookup(i) for i in sampled], background
    )

    # Each sample's best log-similarity against the current references;
    # incremental: adding a seed only requires scoring remaining samples
    # against that one new reference, so a sample's PST is built only
    # once it is picked.
    best_log: dict[int, float] = {}
    for i in sampled:
        logs, _ = score_row(reference_psts, encoded_lookup(i), log_bg)
        best_log[i] = max(logs, default=-math.inf)
    references = len(reference_psts)
    if elsewhere is not None:
        references += elsewhere.references
        for i, score in zip(sampled, elsewhere.best(sampled)):
            if score > best_log[i]:
                best_log[i] = score

    chosen: list[SeedChoice] = []
    remaining = list(sampled)
    while remaining and len(chosen) < count:
        pick = min(remaining, key=lambda i: (best_log[i], i))
        remaining.remove(pick)
        new_pst = pst_factory(encoded_lookup(pick))
        chosen.append(SeedChoice(pick, best_log[pick], new_pst))
        for i in remaining:
            (score,), _ = score_row([new_pst], encoded_lookup(i), log_bg)
            if score > best_log[i]:
                best_log[i] = score
    registry = get_registry()
    if registry.enabled:
        registry.counter("seeding.selections").inc()
        registry.counter("seeding.seeds_selected").inc(len(chosen))
    if chosen and _logger.isEnabledFor(10):  # logging.DEBUG
        _logger.debug(
            "selected seeds",
            extra={
                "seeds": [choice.sequence_index for choice in chosen],
                "sample_size": sample_size,
                "references": references,
            },
        )
    return chosen
