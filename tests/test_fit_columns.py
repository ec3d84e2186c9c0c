"""Column-major reclustering: the fit equals the interleaved loop.

Under the §4.2 overlap rule a cluster's join depends only on its own
score and an absorb touches only its own tree, so the fit runs each
cluster's pass as one column (``score_pass``: score the examination
order against the live tree, absorbing every join's best segment) and
then merges the columns sequence by sequence into memberships.

The oracle is the loop the columns replaced, kept here as a stand-in
for ``CLUSEQ._recluster_vectorized``: one ``similarities()`` call per
sequence over every live tree, then a join that absorbs at once
(``Cluster.join``), before the next sequence is scored. It runs with
replay and tree keeping off (``_built_from`` reports every tree's build
input as unknown), so it shares no memo with the fit under test.
Every scenario compares labels, history (all but ``elapsed_seconds``),
the final ``log t``, assignments, each cluster's ordered membership
records and each cluster's ``pst.to_dict()``.
"""

from __future__ import annotations

import math

import pytest

import repro.core.cluseq as cluseq
from repro.core.cluseq import CLUSEQ, CluseqParams
from repro.core.cluster import Cluster
from repro.core.examine import join_all
from repro.core.similarity import _log_background, score_pass, similarities
from repro.obs import MetricsRegistry, use_registry

from test_fit_replay import fit_state, outlier_draw, small_draw
from test_fit_worker import force_worker, needs_fork

#: ``similarity.context_walks`` of ``small_draw(2)`` on the worker path.
WORKER_WALKS = 9684


def interleaved(background):
    """The sequence-major reclustering loop, scoring against
    *background*, with ``_recluster_vectorized``'s signature."""

    def recluster(
        self,
        order,
        encoded,
        clusters,
        assignments,
        unclustered_streak,
        log_bg,
        log_t,
        all_log_sims,
        built,
        passes,
        iteration,
        worker,
    ):
        membership_changes = work = 0
        for index in order:
            seq = encoded[index]
            scores = similarities([c.pst for c in clusters], seq, background)
            work += len(seq) * len(clusters)
            all_log_sims.extend(result.log_similarity for result in scores)
            joined = set()
            for cluster, result in zip(clusters, scores):
                if result.log_similarity >= log_t:
                    cluster.join(
                        index, seq, result.log_similarity,
                        result.best_start, result.best_end,
                    )
                    joined.add(cluster.cluster_id)
                else:
                    cluster.drop_member(index)
            if joined != assignments[index]:
                membership_changes += 1
            assignments[index] = joined
            unclustered_streak[index] = 0 if joined else unclustered_streak[index] + 1
        return membership_changes, work, 0

    return recluster


def fit(db, params, *, oracle=False, replay=True, worker=None):
    """*worker* forces the fit's pass worker on or off; by default the
    host decides."""
    registry = MetricsRegistry()
    with pytest.MonkeyPatch.context() as patch:
        if worker is not None:
            force_worker(patch, worker)
        if oracle or not replay:
            patch.setattr(cluseq, "_built_from", lambda built, pst: None)
        if oracle:
            patch.setattr(
                cluseq.CLUSEQ,
                "_recluster_vectorized",
                interleaved(db.background_probabilities()),
            )
        with use_registry(registry):
            result = CLUSEQ(params).fit(db)
    return result, registry


def assert_columns_match_interleaved(db, params):
    columns, _ = fit(db, params)
    oracle, _ = fit(db, params, oracle=True)
    assert fit_state(columns) == fit_state(oracle)
    return columns


@pytest.mark.parametrize("ordering", ["fixed", "random", "cluster"])
def test_orderings_match(ordering):
    assert_columns_match_interleaved(
        small_draw(1),
        CluseqParams(k=2, significance_threshold=3, ordering=ordering, seed=1),
    )


def test_additive_models_match():
    """Without the rebuild every absorb stays in the tree, so each pass
    starts from the trees all earlier passes grew."""
    assert_columns_match_interleaved(
        small_draw(0),
        CluseqParams(
            k=2, significance_threshold=3, rebuild_each_iteration=False, seed=0
        ),
    )


def test_pruned_models_match():
    """``max_nodes`` pruning fires inside a pass's absorbs."""
    result = assert_columns_match_interleaved(
        small_draw(1),
        CluseqParams(k=2, significance_threshold=3, max_nodes=30, seed=1),
    )
    assert not any(cluster.pst.transitions()[1] for cluster in result.clusters)


def test_outlier_draw_matches():
    assert_columns_match_interleaved(
        outlier_draw(3), CluseqParams(k=2, significance_threshold=3, seed=3)
    )


def test_similarity_totals_equal_the_per_pair_loop():
    """Recorded once per column, the ``similarity.*`` totals equal those
    of one ``similarities()`` call per sequence (replay off on both
    sides, so both score the same pairs). ``context_walks`` counts the
    walks the in-process trees cache, so the pass worker is off."""
    db = small_draw(2)
    params = CluseqParams(k=2, significance_threshold=3, seed=2)
    _, columns = fit(db, params, replay=False, worker=False)
    _, oracle = fit(db, params, oracle=True, worker=False)
    for name in ("calls", "dp_cells", "context_walks"):
        counter = f"similarity.{name}"
        assert columns.counter(counter).value == oracle.counter(counter).value > 0
    mine = columns.histogram("similarity.segment_length")
    theirs = oracle.histogram("similarity.segment_length")
    assert (mine.count, mine.total, mine.min, mine.max, mine.bucket_counts) == (
        theirs.count,
        theirs.total,
        theirs.min,
        theirs.max,
        theirs.bucket_counts,
    )


@needs_fork
def test_similarity_totals_on_the_worker_path():
    """With replay on and every second live pass run by the pass worker,
    the ``similarity.*`` totals the fit records for the worker's passes
    equal the in-process fit's, all but ``context_walks``: the worker's
    freshly rebuilt trees have no walks cached, so its count is pinned
    on its own."""
    db = small_draw(2)
    params = CluseqParams(k=2, significance_threshold=3, seed=2)
    on_result, on = fit(db, params, worker=True)
    off_result, off = fit(db, params, worker=False)
    assert fit_state(on_result) == fit_state(off_result)
    for name in ("calls", "dp_cells"):
        counter = f"similarity.{name}"
        assert on.counter(counter).value == off.counter(counter).value > 0
    assert on.counter("similarity.context_walks").value == WORKER_WALKS
    mine = on.histogram("similarity.segment_length")
    theirs = off.histogram("similarity.segment_length")
    assert (mine.count, mine.total, mine.min, mine.max, mine.bucket_counts) == (
        theirs.count,
        theirs.total,
        theirs.min,
        theirs.max,
        theirs.bucket_counts,
    )


def test_a_pass_touches_only_its_own_tree(monkeypatch):
    """Each column absorbs into its own tree and leaves every other
    cluster's ``pst.version`` unchanged; a calibration column, which
    joins nothing, leaves its own tree unchanged too."""
    live = []
    recluster = cluseq.CLUSEQ._recluster_vectorized
    score_pass = cluseq.score_pass
    seen = []

    def spy_recluster(self, order, encoded, clusters, *args):
        live.append(clusters)
        try:
            return recluster(self, order, encoded, clusters, *args)
        finally:
            live.pop()

    def spy_pass(pst, seqs, log_bg, log_t=math.inf, absorb=None):
        clusters = live[-1] if live else []
        others = {c.cluster_id: c.pst.version for c in clusters if c.pst is not pst}
        before = pst.version
        column = score_pass(pst, seqs, log_bg, log_t, absorb)
        assert {
            c.cluster_id: c.pst.version for c in clusters if c.pst is not pst
        } == others
        if absorb is None:
            assert pst.version == before
        else:
            seen.append(pst.version != before)
        return column

    monkeypatch.setattr(cluseq.CLUSEQ, "_recluster_vectorized", spy_recluster)
    monkeypatch.setattr(cluseq, "score_pass", spy_pass)
    CLUSEQ(CluseqParams(k=3, significance_threshold=3, seed=0)).fit(small_draw(0))
    assert any(seen)


# -- what the fits above cannot see ----------------------------------------------
# No fit above scores a sequence exactly at ``t``, and none ends with a
# sequence in two clusters whose ids share a set slot, so the tie rule
# and the joined sets' insertion order are pinned directly.


def test_a_score_at_t_is_absorbed_and_joined():
    """SIM ≥ t, not SIM > t, in the pass and in the merge alike."""
    factory = CluseqParams(significance_threshold=1).pst_factory(4)
    seqs = [[0, 1, 2, 3, 0, 1], [1, 2, 3, 0, 1, 2]]
    background = [0.25] * 4
    log_bg = _log_background([], seqs, background)
    tree = factory(seqs[0])
    (log_t, _), _ = score_pass(factory(seqs[0]), seqs, log_bg)
    cluster = Cluster(5, tree, seed_index=0)
    absorbed = []
    logs, bounds = score_pass(tree, seqs, log_bg, log_t, absorbed.append)
    assert logs[0] == log_t and absorbed[0] == seqs[0][bounds[0] : bounds[1]]
    assert join_all(7, 0, [cluster], [logs], [bounds], log_t) == {5}
    assert cluster.membership_of(7).log_similarity == log_t


def test_joined_ids_are_added_in_cluster_order():
    """``labels()`` breaks ties by set iteration order, which for ids
    that share a slot (1 and 9 in an eight-slot set) is insertion
    order."""

    def built_in(order):
        ids = set()
        for cluster_id in order:
            ids.add(cluster_id)
        return list(ids)

    assert built_in([1, 9]) != built_in([9, 1])
    factory = CluseqParams(significance_threshold=1).pst_factory(4)
    for order in ([1, 9], [9, 1]):
        clusters = [Cluster(cid, factory([0, 1]), seed_index=0) for cid in order]
        joined = join_all(0, 0, clusters, [[1.0], [1.0]], [[0, 2], [0, 2]], 0.0)
        assert list(joined) == built_in(order)
