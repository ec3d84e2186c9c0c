"""Replayed cluster passes: the fit with replay equals the fit without.

With ``rebuild_each_iteration`` a cluster's tree at the start of
reclustering is a function of its build input (seed index plus the
ordered member segments), and under the overlap rule its whole pass is
a function of that tree, ``log t`` and the examination order. The fit
replays a pass whose three inputs all repeat the cluster's previous
pass, and a rebuild keeps a tree whose build input repeats and that no
absorb has touched.

The oracle is the live path: the same fit with replay and tree keeping
disabled, by making ``repro.core.cluseq._built_from`` report every
tree's build input as unknown. Every scenario compares labels, history
(all but ``elapsed_seconds``), the final ``log t``, assignments, each
cluster's ordered membership records and each cluster's
``pst.to_dict()``. One test per guard runs a scenario where deleting
that guard changes the result.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

import repro.core.cluseq as cluseq
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


def fit(db, params, *, replay=True):
    registry = MetricsRegistry()
    with pytest.MonkeyPatch.context() as patch:
        if not replay:
            patch.setattr(cluseq, "_built_from", lambda built, pst: None)
        with use_registry(registry):
            result = CLUSEQ(params).fit(db)
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


def assert_replay_matches_live(db, params):
    """Fit with and without replay; return the replaying run's result
    and registry once the two agree."""
    replayed, replay_registry = fit(db, params)
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
    """Record, for every replay decision with a known build input, which
    of (build input, log t, order) matched the previous pass."""
    seen = []
    decide = cluseq._replays

    def spy(previous, build_input, log_t, order):
        if build_input is not None:
            seen.append(
                (
                    previous.build_input == build_input,
                    previous.log_t == log_t,
                    previous.order == order,
                )
            )
        return decide(previous, build_input, log_t, order)

    monkeypatch.setattr(cluseq, "_replays", spy)
    return seen


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


# -- one test per guard --------------------------------------------------------


def test_guard_build_input(monkeypatch):
    """A cluster whose members moved must not replay the old pass, nor
    keep the old tree."""
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
