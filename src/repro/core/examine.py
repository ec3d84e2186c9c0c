"""The §4.2–§4.4 examination step: score, decide, join.

Every path that examines a sequence against the cluster models goes
through this module: the fit's reclustering phase,
``ClusteringResult.predict`` / ``assign_and_absorb`` (and with it
``/v1/stream/ingest``), the streaming engine (and with it every shard)
and the serving classifier. Two join rules exist:

* **overlap** (:func:`join_all`, the fit): a sequence joins *every*
  cluster whose similarity reaches ``t`` — §4.2 clusters overlap;
* **best** (:func:`join_best`, the incremental paths): a sequence joins
  only its best-scoring cluster (:func:`best_cluster`), and only when
  that score reaches ``t``.

A join records the membership and absorbs the sequence's best-scoring
segment into the cluster PST (:meth:`Cluster.join`, §4.4).

Scores arrive as a list of
:class:`~repro.core.similarity.SimilarityResult`, one per cluster in
cluster order. Every examiner that joins scores one sequence at a time
against the live models (:func:`live_scores`, one
:func:`~repro.core.similarity.similarities` call per sequence, which
checks the sequence once and then runs the §4.3 DP per cluster): each
join mutates a PST that the next sequence is scored against, so scores
taken up front would go stale within the batch. The one exception is
the fit replaying a recorded pass: under the overlap rule a cluster's
pass is a function of its starting model (its build input), ``log t``
and the examination order alone, so when a recent pass from the same
build input ran under the same ``log t`` and order — the cluster's
previous pass, an earlier one it returns to, or the pass of an earlier
cluster seeded from the same sequence — its recorded scores *are* the
live ones and :func:`join_all` records the memberships without
absorbing (see ``CLUSEQ._recluster_vectorized``). Everything in
``repro.core`` scores with the reference DP. The batch kernel runs only outside it, in serve
classify, over the trees no ``/v1/stream/ingest`` has written since
the model was loaded; the shard consolidation compares the PSTs
themselves.
"""

from __future__ import annotations

from collections.abc import Container, Sequence

import numpy as np
import numpy.typing as npt

from .cluster import Cluster
from .similarity import SimilarityResult, similarities


def best_cluster(log_sims: Sequence[float], log_t: float) -> int | None:
    """The §4.2 decision: position of the first strictly greatest
    log-SIM, or ``None`` when there are no clusters or the best score
    is below ``log t``."""
    best: int | None = None
    best_log = 0.0
    for position, log_sim in enumerate(log_sims):
        if best is None or log_sim > best_log:
            best, best_log = position, log_sim
    if best is None or best_log < log_t:
        return None
    return best


def live_scores(
    clusters: Sequence[Cluster],
    seq: Sequence[int],
    background: npt.NDArray[np.float64],
) -> list[SimilarityResult]:
    """*seq* scored against each cluster's live model, in cluster
    order, with the reference §4.3 DP
    (:func:`~repro.core.similarity.similarities`).

    The input check runs also when there are no clusters, so a
    zero-cluster model rejects what a fitted one rejects.
    """
    return similarities([cluster.pst for cluster in clusters], seq, background)


def join_all(
    index: int,
    seq: Sequence[int],
    clusters: Sequence[Cluster],
    scores: Sequence[SimilarityResult],
    log_t: float,
    replayed: Container[int] = (),
) -> set[int]:
    """The fit's §4.2 overlap rule: join every cluster with SIM ≥ t.

    Every other cluster drops the sequence. *Each* join — a re-join on
    a later iteration included — absorbs the current best segment:
    re-absorption is what lets a young model mature, its members' best
    segments extending towards whole sequences. A cluster whose id is
    in *replayed* is replaying a recorded pass: its joins record the
    membership but absorb nothing, because the absorbs would only
    reproduce a model the rebuild then discards. Returns the joined
    ids.
    """
    joined: set[int] = set()
    for cluster, result in zip(clusters, scores):
        if result.log_similarity >= log_t:
            cluster.join(
                index, seq, result, absorb=cluster.cluster_id not in replayed
            )
            joined.add(cluster.cluster_id)
        else:
            cluster.drop_member(index)
    return joined


def join_best(
    index: int,
    seq: Sequence[int],
    clusters: Sequence[Cluster],
    scores: Sequence[SimilarityResult],
    log_t: float,
) -> Cluster | None:
    """The incremental §4.2–§4.4 rule: join only the best cluster, if
    SIM ≥ t. Returns the joined cluster, or ``None`` for an outlier.
    """
    position = best_cluster([result.log_similarity for result in scores], log_t)
    if position is None:
        return None
    cluster = clusters[position]
    cluster.join(index, seq, scores[position])
    return cluster
