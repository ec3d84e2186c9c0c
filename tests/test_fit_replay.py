"""Replayed cluster passes: the fit with replay equals the fit without.

With ``rebuild_each_iteration`` a cluster's tree at the start of
reclustering is a function of its build input (seed index plus the
ordered member segments; a fresh seed's is the seed alone), and under
the overlap rule its whole pass is a function of that tree, ``log t``
and the examination order. The fit memoizes each pass under its build
input for ``REPLAY_WINDOW`` iterations and replays a record whose
``log t`` and order repeat too — a cluster's previous pass, an earlier
one it returns to, or the pass of an earlier cluster seeded from the
same sequence. A rebuild keeps a tree whose build input repeats and
that no absorb has touched.

The oracle is the live path: the same fit in-process with replay and
tree keeping disabled, by making ``repro.core.cluseq._built_from``
report every tree's build input as unknown. (A tree the pass worker
built has a build input the parent sent, so the oracle runs without the
worker.) Every scenario compares labels, history
(all but ``elapsed_seconds``), the final ``log t``, assignments, each
cluster's ordered membership records and each cluster's
``pst.to_dict()``. One test per guard runs a scenario where deleting
that guard changes the result.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

import repro.core.cluseq as cluseq
import repro.core.fit_worker as fit_worker
from repro.core.cluseq import CLUSEQ, CluseqParams
from repro.core.cluster import Cluster, Membership
from repro.core.pst import ProbabilisticSuffixTree
from repro.obs import MetricsRegistry, use_registry
from repro.sequences.generators import generate_clustered_database


def small_draw(seed, num_sequences=90, avg_length=50):
    return generate_clustered_database(
        num_sequences=num_sequences,
        num_clusters=3,
        avg_length=avg_length,
        alphabet_size=6,
        seed=seed,
    ).database


def outlier_draw(seed):
    """A small draw with 20% outliers: the fit re-seeds them."""
    return generate_clustered_database(
        num_sequences=90,
        num_clusters=3,
        avg_length=50,
        alphabet_size=6,
        outlier_fraction=0.2,
        seed=seed,
    ).database


def fit(db, params, *, replay=True, hooks=()):
    registry = MetricsRegistry()
    with pytest.MonkeyPatch.context() as patch:
        if not replay:
            patch.setattr(fit_worker, "second_cpu", lambda: False)
            patch.setattr(cluseq, "_built_from", lambda built, pst: None)
        with use_registry(registry):
            result = CLUSEQ(params, hooks=hooks).fit(db)
    return result, registry


def fit_state(result):
    return {
        "labels": result.labels(),
        "history": [
            {k: v for k, v in asdict(stats).items() if k != "elapsed_seconds"}
            for stats in result.history
        ],
        "log_t": result.final_log_threshold,
        "assignments": {i: sorted(ids) for i, ids in result.assignments.items()},
        "clusters": [
            (
                cluster.cluster_id,
                [
                    (m.sequence_index, m.log_similarity, m.best_start, m.best_end)
                    for m in cluster._members.values()
                ],
                cluster.pst.to_dict(),
            )
            for cluster in result.clusters
        ],
    }


def assert_replay_matches_live(db, params, hooks=()):
    """Fit with and without replay; return the replaying run's result
    and registry once the two agree. *hooks* observe the replaying fit
    only."""
    replayed, replay_registry = fit(db, params, hooks=hooks)
    live, live_registry = fit(db, params, replay=False)
    assert fit_state(replayed) == fit_state(live)
    passes = replay_registry.counter("cluseq.replayed_passes").value
    assert live_registry.counter("cluseq.replayed_passes").value == 0
    assert live_registry.counter("cluseq.models_kept").value == 0
    # A replayed pass skips exactly one DP call per sequence.
    assert live_registry.counter("similarity.calls").value == (
        replay_registry.counter("similarity.calls").value + len(db) * passes
    )
    # The §4.7 work model counts replayed symbols as scored.
    assert (
        replay_registry.counter("cluseq.reclustering_work").value
        == live_registry.counter("cluseq.reclustering_work").value
    )
    return replayed, replay_registry


def spy_replay_checks(monkeypatch):
    """Record, for every replay decision with a known build input,
    ``(record under this build input, its log t matches, its order
    matches)``. Without a record, the last two say whether a record
    under *another* build input matches both ``log t`` and order."""
    seen = []
    decide = cluseq._replayable

    def spy(passes, build_input, log_t, order):
        if build_input is not None:
            record = passes.get(build_input)
            if record is not None:
                seen.append((True, record.log_t == log_t, record.order == order))
            else:
                other = any(
                    r.log_t == log_t and r.order == order for r in passes.values()
                )
                seen.append((False, other, other))
        return decide(passes, build_input, log_t, order)

    monkeypatch.setattr(cluseq, "_replayable", spy)
    return seen


def spy_memo(monkeypatch):
    """Record ``(build input, lag, oldest)`` for every replay decision
    with a known build input: *lag* counts the iterations since the
    replayed record was last recorded or replayed (``None`` when the
    pass goes live), *oldest* the same for the oldest record held.
    Returns the list and a per-iteration hook that keeps the iteration
    count."""
    seen = []
    iteration = [0]
    decide = cluseq._replayable

    def spy(passes, build_input, log_t, order):
        record = decide(passes, build_input, log_t, order)
        if build_input is not None:
            seen.append(
                (
                    build_input,
                    None if record is None else iteration[0] - record.used,
                    max((iteration[0] - r.used for r in passes.values()), default=0),
                )
            )
        return record

    def count(snapshot):
        iteration[0] = snapshot.stats.iteration + 1

    monkeypatch.setattr(cluseq, "_replayable", spy)
    return seen, count


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fixed_order_draws_replay_and_match(seed):
    _, registry = assert_replay_matches_live(
        small_draw(seed), CluseqParams(k=2, significance_threshold=3, seed=seed)
    )
    assert registry.counter("cluseq.replayed_passes").value > 0
    assert registry.counter("cluseq.models_kept").value > 0


@pytest.mark.parametrize("ordering, seed", [("random", 1), ("cluster", 2)])
def test_other_orderings_match(ordering, seed):
    assert_replay_matches_live(
        small_draw(seed),
        CluseqParams(k=2, significance_threshold=3, ordering=ordering, seed=seed),
    )


def test_pruned_models_replay_and_match():
    """With ``max_nodes`` pruning the tree depends on member order, so
    the build input is the ordered member list."""
    result, registry = assert_replay_matches_live(
        small_draw(1),
        CluseqParams(k=2, significance_threshold=3, max_nodes=30, seed=1),
    )
    assert registry.counter("cluseq.replayed_passes").value > 0
    assert not any(cluster.pst.transitions()[1] for cluster in result.clusters)


def test_additive_models_never_replay():
    """Without the rebuild there is no build input, so nothing replays."""
    _, registry = assert_replay_matches_live(
        small_draw(0),
        CluseqParams(
            k=2, significance_threshold=3, rebuild_each_iteration=False, seed=0
        ),
    )
    assert registry.counter("cluseq.replayed_passes").value == 0
    assert registry.counter("cluseq.models_kept").value == 0


# -- what the build-input memo replays -------------------------------------------


def test_lag_two_revisit_replays_and_matches(monkeypatch):
    """A cluster whose members flip back to those of two iterations
    earlier replays the pass it ran then."""
    seen, count = spy_memo(monkeypatch)
    assert_replay_matches_live(
        small_draw(4), CluseqParams(k=2, significance_threshold=3, seed=4), [count]
    )
    assert any(lag == 2 and members for (_, members), lag, _ in seen)


def test_reseeded_sequence_replays_and_matches(monkeypatch):
    """A sequence seeded again starts from the tree its earlier seed
    cluster started from, so the new cluster replays that pass."""
    seen, count = spy_memo(monkeypatch)
    assert_replay_matches_live(
        outlier_draw(3), CluseqParams(k=2, significance_threshold=3, seed=3), [count]
    )
    assert any(lag is not None and not members for (_, members), lag, _ in seen)


def test_additive_seeds_never_replay(monkeypatch):
    """Additive models keep every absorb, so a re-seeded sequence's
    cluster must score live: no seed has a build record."""
    seeded = []
    select = cluseq.select_seeds

    def spy(**kwargs):
        choices = select(**kwargs)
        seeded.extend(choice.sequence_index for choice in choices)
        return choices

    monkeypatch.setattr(cluseq, "select_seeds", spy)
    _, registry = assert_replay_matches_live(
        outlier_draw(3),
        CluseqParams(
            k=2, significance_threshold=3, rebuild_each_iteration=False, seed=3
        ),
    )
    assert len(seeded) > len(set(seeded))
    assert registry.counter("cluseq.replayed_passes").value == 0


def test_window_drops_records_it_did_not_use(monkeypatch):
    """No record older than ``REPLAY_WINDOW`` iterations is kept or
    replayed; a narrower window replays fewer passes, with the same
    result."""
    seen, count = spy_memo(monkeypatch)
    _, wide = assert_replay_matches_live(
        small_draw(4), CluseqParams(k=2, significance_threshold=3, seed=4), [count]
    )
    assert all(oldest <= cluseq.REPLAY_WINDOW for _, _, oldest in seen)
    seen.clear()
    monkeypatch.setattr(cluseq, "REPLAY_WINDOW", 1)
    _, narrow = assert_replay_matches_live(
        small_draw(4), CluseqParams(k=2, significance_threshold=3, seed=4), [count]
    )
    assert seen and all(oldest <= 1 for _, _, oldest in seen)
    assert {lag for _, lag, _ in seen} == {None, 1}
    assert (
        0
        < narrow.counter("cluseq.replayed_passes").value
        < wide.counter("cluseq.replayed_passes").value
    )


# -- one test per guard --------------------------------------------------------


def test_guard_build_input(monkeypatch):
    """A cluster whose build input has no record goes live, even when a
    record of another build input has the same ``log t`` and order; nor
    does a cluster whose members moved keep the old tree."""
    seen = spy_replay_checks(monkeypatch)
    assert_replay_matches_live(
        small_draw(1), CluseqParams(k=2, significance_threshold=3, seed=1)
    )
    assert (False, True, True) in seen


def test_guard_log_threshold(monkeypatch):
    """A cluster at a fixed point must go live when ``log t`` moved:
    its join decisions, and with them its absorbs, change."""
    seen = spy_replay_checks(monkeypatch)
    result, _ = assert_replay_matches_live(
        small_draw(2, num_sequences=120, avg_length=60),
        CluseqParams(
            k=3,
            significance_threshold=3,
            similarity_threshold=1.2,
            calibrate_threshold=False,
            max_iterations=12,
            seed=2,
        ),
    )
    assert len({stats.log_threshold for stats in result.history}) > 1
    assert (True, False, True) in seen


def test_guard_examination_order(monkeypatch):
    """Recorded scores are aligned with the recorded order; a fresh
    ``random`` permutation must not replay them."""
    seen = spy_replay_checks(monkeypatch)
    assert_replay_matches_live(
        small_draw(1),
        CluseqParams(k=2, significance_threshold=3, ordering="random", seed=1),
    )
    assert (True, True, False) in seen


def test_guard_tree_version():
    """A live pass absorbs into its tree; the rebuild must replace that
    tree even when the members repeat."""
    _, registry = assert_replay_matches_live(
        small_draw(0), CluseqParams(k=2, significance_threshold=3, seed=0)
    )
    assert registry.counter("cluseq.models_kept").value > 0


def test_tree_known_only_while_untouched():
    """The identity/version check itself: another tree at the same
    version, or the same tree after an absorb, has no known input."""
    factory = CluseqParams().pst_factory(4)
    tree, twin = factory([0, 1, 2, 3]), factory([0, 1, 2, 3])
    assert twin.version == tree.version
    record = cluseq._Built((0, ()), tree, tree.version)
    assert cluseq._built_from(record, tree) == (0, ())
    assert cluseq._built_from(record, twin) is None
    tree.add_sequence([3, 2, 1])
    assert cluseq._built_from(record, tree) is None


def test_rebuild_keeps_tree_only_for_the_same_members():
    """The rebuild's build-input check: an untouched tree is kept while
    its members repeat and rebuilt once a member's segment moves."""
    encoded = [[0, 1, 2, 3, 0, 1], [1, 2, 3, 0, 1, 2], [2, 3, 0, 1, 2, 3]]
    factory = CluseqParams(significance_threshold=1).pst_factory(4)
    cluster = Cluster(0, factory(encoded[0]), seed_index=0)
    cluster.set_member(Membership(1, 0.0, 0, 6))
    built = {}
    rebuild = cluseq.CLUSEQ._rebuild_cluster_models
    assert rebuild([cluster], encoded, factory, built) == 0
    tree = cluster.pst
    assert rebuild([cluster], encoded, factory, built) == 1
    assert cluster.pst is tree
    cluster.set_member(Membership(1, 0.0, 0, 3))
    assert rebuild([cluster], encoded, factory, built) == 0
    assert cluster.pst is not tree
    expected = factory(encoded[0])
    expected.add_sequence(encoded[1][0:3])
    assert cluster.pst.to_dict() == expected.to_dict()
