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
segment into the cluster PST (§4.4).

The best rule is sequence-major: its join depends on every cluster's
score, and it mutates a PST the next sequence is scored against. So
each sequence is scored against the live models as one row
(:func:`~repro.core.similarity.score_row`, over a log background the
caller built once) and then joins with :func:`join_best`. The overlap
rule is column-major: a join depends only on the cluster's own score
and absorbs only into its own tree, so the fit runs each cluster's
pass as one column (:func:`~repro.core.similarity.score_pass`,
absorbing as it goes), or reuses a recorded column
(``CLUSEQ._recluster_vectorized``), and :func:`join_all` merges the
columns into memberships, absorbing nothing. Both joins take the
scores as ``(logs, bounds)``: ``log SIM`` per entry and
``best_start``, ``best_end`` two per entry. Everything in
``repro.core`` scores with the reference DP. The batch kernel runs
only outside it, in serve classify: one
:meth:`~repro.core.backends.dispatch.PstBatchScorer.score_matrix_full`
call per flush scores every tree, the ones no ``/v1/stream/ingest``
has written since the model was loaded on the kernel, the rest with
one :func:`~repro.core.similarity.score_row` per sequence; the
decision is :func:`best_cluster` on each column. The shard consolidation compares
the PSTs themselves.
"""

from __future__ import annotations

from collections.abc import Sequence

from .cluster import Cluster, Membership


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


def join_all(
    index: int,
    position: int,
    clusters: Sequence[Cluster],
    logs: Sequence[Sequence[float]],
    bounds: Sequence[Sequence[int]],
    log_t: float,
) -> set[int]:
    """The fit's §4.2 overlap rule: join every cluster with SIM ≥ t.

    *index* sits at *position* of each cluster's column (``logs`` and
    ``bounds`` as :func:`~repro.core.similarity.score_pass` returns
    them, in cluster order). It joins, with that score and segment,
    every cluster whose ``log SIM ≥ log t`` there; every other cluster
    drops it. The pass already absorbed *each* join's segment — a
    re-join included, which is what lets a young model mature — so
    nothing is absorbed here. Returns the joined ids, added in cluster
    order.
    """
    joined: set[int] = set()
    end = 2 * position + 1
    for cluster, column, segments in zip(clusters, logs, bounds):
        log_sim = column[position]
        if log_sim >= log_t:
            cluster.set_member(
                Membership(index, log_sim, segments[end - 1], segments[end])
            )
            joined.add(cluster.cluster_id)
        else:
            cluster.drop_member(index)
    return joined


def join_best(
    index: int,
    seq: Sequence[int],
    clusters: Sequence[Cluster],
    logs: Sequence[float],
    bounds: Sequence[int],
    log_t: float,
) -> Cluster | None:
    """The incremental §4.2–§4.4 rule: join only the best cluster, if
    SIM ≥ t. Returns the joined cluster, or ``None`` for an outlier.

    *logs* and *bounds* are *seq*'s row against *clusters*, as
    :func:`~repro.core.similarity.score_row` returns it, in cluster
    order.
    """
    position = best_cluster(logs, log_t)
    if position is None:
        return None
    cluster = clusters[position]
    cluster.join(
        index, seq, logs[position], bounds[2 * position], bounds[2 * position + 1]
    )
    return cluster
