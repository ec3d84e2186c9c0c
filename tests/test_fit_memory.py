"""The fit holds one generation of cluster trees, on each side.

A tree the fit stops reading must be unreachable at once: a dismissed
cluster's tree once consolidation has returned and its memberships are
dropped, a superseded tree once the rebuild has replaced it, and the
parent's tree of a cluster whose next pass the pass worker runs once the
worker is told to build that cluster's next tree. The fit runs with the
cyclic collector paused and a PST is acyclic, so reference counting
alone frees each one. The tests watch the parent's trees through weak
references taken at ``repro.core.cluseq.consolidate``,
``FitTrees.hand_over``, ``CLUSEQ._rebuild_cluster_models`` and
``repro.core.cluseq.build_tree``, with the pass worker forced on and
forced off, and the worker's trees with the worker run in this process.
"""

from __future__ import annotations

import weakref

import pytest

import repro.core.cluseq as cluseq
import repro.core.fit_worker as fit_worker
from repro.core.cluseq import CLUSEQ, CluseqParams
from repro.sequences.generators import generate_clustered_database

from test_fit_worker import force_worker, loopback_worker, needs_fork

WORKER = pytest.mark.parametrize(
    "worker", [pytest.param(True, marks=needs_fork), False], ids=["worker", "in-process"]
)


def draw():
    return generate_clustered_database(
        num_sequences=120,
        num_clusters=4,
        avg_length=50,
        alphabet_size=6,
        outlier_fraction=0.1,
        seed=2,
    ).database


PARAMS = CluseqParams(k=2, significance_threshold=3, max_iterations=8, seed=2)


def alive(refs):
    return sum(1 for ref in refs if ref() is not None)


def tree_of(cluster):
    """The parent's tree of *cluster*; ``None`` while the worker holds
    it."""
    return vars(cluster).get("pst")


def watch(clusters):
    """``(cluster, ref)`` pairs for each cluster the parent holds a tree
    of."""
    return [
        (cluster, weakref.ref(tree))
        for cluster in clusters
        if (tree := tree_of(cluster)) is not None
    ]


def superseded(before):
    """The weak references in *before* (``(cluster, ref)`` pairs taken
    before a rebuild) whose cluster no longer holds that tree."""
    return [ref for cluster, ref in before if ref() is not tree_of(cluster)]


@WORKER
def test_dismissed_and_superseded_trees_die_with_their_phase(monkeypatch, worker):
    force_worker(monkeypatch, worker)
    dropped: list[weakref.ref] = []  # dismissed, handed over and superseded trees
    seen = {"dismissed": 0, "handed over": 0, "superseded": 0}
    counts: list[int] = []

    def check():
        counts.append(alive(dropped))

    consolidate = cluseq.consolidate

    def watched_consolidate(*args, **kwargs):
        check()
        retained, removed = consolidate(*args, **kwargs)
        dropped.extend(ref for _, ref in watch(removed))
        seen["dismissed"] += len(removed)
        return retained, removed

    hand_over = fit_worker.FitTrees.hand_over

    def watched_hand_over(self, share, specs):
        before = watch(share)
        hand_over(self, share, specs)
        dropped.extend(ref for _, ref in before)
        seen["handed over"] += len(before)

    rebuild = CLUSEQ._rebuild_cluster_models

    def watched_rebuild(clusters, *args, **kwargs):
        check()
        before = watch(clusters)
        kept = rebuild(clusters, *args, **kwargs)
        replaced = superseded(before)
        dropped.extend(replaced)
        seen["superseded"] += len(replaced)
        check()
        return kept

    monkeypatch.setattr(cluseq, "consolidate", watched_consolidate)
    monkeypatch.setattr(fit_worker.FitTrees, "hand_over", watched_hand_over)
    monkeypatch.setattr(CLUSEQ, "_rebuild_cluster_models", staticmethod(watched_rebuild))
    result = CLUSEQ(PARAMS).fit(draw())
    check()
    assert seen["dismissed"] > 0 and seen["superseded"] > 0
    assert (seen["handed over"] > 0) is worker
    assert counts == [0] * len(counts)
    assert result.clusters


@WORKER
def test_a_rebuild_builds_beside_no_superseded_tree(monkeypatch, worker):
    force_worker(monkeypatch, worker)
    superseded_refs: list[weakref.ref] = []
    rebuilding: list[list[tuple[object, weakref.ref]]] = []
    counts: list[int] = []

    rebuild = CLUSEQ._rebuild_cluster_models

    def watched_rebuild(clusters, *args, **kwargs):
        rebuilding.append(watch(clusters))
        try:
            return rebuild(clusters, *args, **kwargs)
        finally:
            superseded_refs.extend(superseded(rebuilding.pop()))

    build_tree = cluseq.build_tree

    def watched_build_tree(*args, **kwargs):
        if rebuilding:
            counts.append(alive(superseded_refs) + alive(superseded(rebuilding[-1])))
        return build_tree(*args, **kwargs)

    monkeypatch.setattr(CLUSEQ, "_rebuild_cluster_models", staticmethod(watched_rebuild))
    monkeypatch.setattr(cluseq, "build_tree", watched_build_tree)
    CLUSEQ(PARAMS).fit(draw())
    assert len(counts) > 1
    assert max(counts) == 0


def test_the_worker_holds_one_tree_per_cluster_it_runs(monkeypatch):
    """With the worker run in this process: when a prebuild builds a
    tree, every other tree the worker ever built is dead or is held for
    a cluster of that prebuild; and at every iteration's end the worker
    holds exactly the trees of the clusters whose next passes it runs,
    all live, and no other tree it built is alive."""
    made = loopback_worker(monkeypatch)
    built: list[weakref.ref] = []
    holding: list[set[int]] = []  # the cluster ids of the prebuild running
    stray: list[int] = []
    shares: list[set[int]] = []

    real = fit_worker.build_tree

    def watched_build_tree(*args):
        if holding:
            held = {id(entry[1]) for entry in made[-1].held.values()}
            stray.append(
                sum(1 for ref in built if ref() is not None and id(ref()) not in held)
            )
        tree = real(*args)
        built.append(weakref.ref(tree))
        return tree

    hold = fit_worker.WorkerTrees._hold

    def watched_hold(self, specs):
        holding.append({key for key, _ in specs})
        try:
            return hold(self, specs)
        finally:
            shares.append(holding.pop())

    def at_iteration_end(snapshot):
        trees = made[-1].held
        assert set(trees) == (shares[-1] if shares else set())
        assert set(trees) <= set(snapshot.cluster_sizes)
        assert alive(built) == len(trees)

    monkeypatch.setattr(fit_worker, "build_tree", watched_build_tree)
    monkeypatch.setattr(fit_worker.WorkerTrees, "_hold", watched_hold)
    CLUSEQ(PARAMS, hooks=[at_iteration_end]).fit(draw())
    assert len(shares) > 2 and any(shares)
    assert stray and max(stray) == 0
