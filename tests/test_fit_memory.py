"""The fit holds one generation of cluster trees, in each process.

During a fit every cluster tree lives in a ``HeldTrees``
(``repro.core.fit_worker``): the parent's, or the pass worker's. A tree
the fit stops reading must be unreachable at once: a dismissed
cluster's tree once consolidation has dropped it, a superseded tree
once the rebuild has replaced it, the parent's tree of a cluster whose
next pass the worker runs once the rebuild hands that cluster over, and
a calibration reference's extra tree once its pass is scored. The fit
runs with the cyclic collector paused and a PST is acyclic, so
reference counting alone frees each one. The tests watch the trees
through weak references, with the pass worker off and with it run in
this process (``loopback_worker``), so that both holders are here to
watch.
"""

from __future__ import annotations

import weakref

import pytest

import repro.core.cluseq as cluseq
import repro.core.fit_worker as fit_worker
from repro.core.cluseq import CLUSEQ, CluseqParams
from repro.sequences.generators import generate_clustered_database

from test_fit_worker import force_worker, loopback_worker

WORKER = pytest.mark.parametrize("worker", [True, False], ids=["worker", "in-process"])


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


def held(holder):
    """The trees *holder* keeps, by cluster id."""
    return {key: tree for key, (_, tree, _) in holder.held.items()}


def watch_holders(patch, worker):
    """Run the fit's worker in this process (*worker*) or not at all.
    Returns the list of every ``HeldTrees`` made, the parent's first."""
    holders = []
    init = fit_worker.HeldTrees.__init__

    def spy_init(self, *args):
        init(self, *args)
        holders.append(self)

    if worker:
        loopback_worker(patch)
    else:
        force_worker(patch, False)
    patch.setattr(fit_worker.HeldTrees, "__init__", spy_init)
    return holders


@WORKER
def test_dismissed_and_superseded_trees_die_with_their_phase(monkeypatch, worker):
    holders = watch_holders(monkeypatch, worker)
    dropped: list[weakref.ref] = []  # dismissed, handed over and superseded trees
    seen = {"dismissed": 0, "handed over": 0, "superseded": 0}
    counts: list[int] = []

    def check():
        counts.append(alive(dropped))

    consolidate = cluseq.consolidate

    def watched_consolidate(*args, **kwargs):
        check()
        retained, removed = consolidate(*args, **kwargs)
        trees = held(holders[0])
        dropped.extend(
            weakref.ref(trees[c.cluster_id]) for c in removed if c.cluster_id in trees
        )
        seen["dismissed"] += len(removed)
        return retained, removed

    rebuild = CLUSEQ._rebuild_cluster_models

    def watched_rebuild(clusters, share, trees):
        # The dismissed trees died with the consolidation, before this.
        check()
        before = {key: weakref.ref(tree) for key, tree in held(holders[0]).items()}
        kept = rebuild(clusters, share, trees)
        after = held(holders[0])
        for key, ref in before.items():
            if key not in after:
                seen["handed over"] += 1
                dropped.append(ref)
            elif after[key] is not ref():
                seen["superseded"] += 1
                dropped.append(ref)
        check()
        return kept

    monkeypatch.setattr(cluseq, "consolidate", watched_consolidate)
    monkeypatch.setattr(CLUSEQ, "_rebuild_cluster_models", staticmethod(watched_rebuild))
    result = CLUSEQ(PARAMS).fit(draw())
    check()
    assert seen["dismissed"] > 0 and seen["superseded"] > 0
    assert (seen["handed over"] > 0) is worker
    assert counts == [0] * len(counts)
    assert result.clusters


@WORKER
def test_a_rebuild_builds_beside_no_superseded_tree(monkeypatch, worker):
    """No build, in either holder, runs beside a tree the fit no longer
    reads: a tree no holder keeps (a dismissed cluster's, the extra tree
    of an earlier calibration reference), or one a hold running or done
    superseded, even while the holder still keeps it."""
    holders = watch_holders(monkeypatch, worker)
    made: list[weakref.ref] = []
    superseded: list[weakref.ref] = []
    counts: list[int] = []

    def stray():
        kept = {id(tree) for holder in holders for tree in held(holder).values()}
        return alive(superseded) + sum(
            1 for ref in made if ref() is not None and id(ref()) not in kept
        )

    hold = fit_worker.HeldTrees._hold

    def watched_hold(self, specs):
        wanted = dict(specs)
        superseded.extend(
            weakref.ref(tree)
            for key, tree in held(self).items()
            if key not in wanted or self.built_from(key) != wanted[key]
        )
        return hold(self, specs)

    real = fit_worker.build_tree

    def watched_build_tree(*args):
        counts.append(stray())
        tree = real(*args)
        made.append(weakref.ref(tree))
        return tree

    put = fit_worker.HeldTrees.put

    def watched_put(self, key, tree, build_input):
        made.append(weakref.ref(tree))
        put(self, key, tree, build_input)

    monkeypatch.setattr(fit_worker, "build_tree", watched_build_tree)
    monkeypatch.setattr(fit_worker.HeldTrees, "put", watched_put)
    monkeypatch.setattr(fit_worker.HeldTrees, "_hold", watched_hold)
    CLUSEQ(PARAMS).fit(draw())
    assert len(holders) == (2 if worker else 1)
    assert len(counts) > 1 and superseded
    assert max(counts) == 0


def test_the_worker_holds_one_tree_per_cluster_it_runs(monkeypatch):
    """With the worker run in this process: when a hold builds a tree,
    every other tree the worker ever built is dead or is held for a
    cluster of that hold; and at every iteration's end the worker holds
    exactly the trees of the clusters whose next passes it runs, all
    live, and no other tree it built is alive."""
    made = loopback_worker(monkeypatch)
    built: list[weakref.ref] = []
    holding: list[set[int]] = []  # the cluster ids of the worker's hold running
    building: list[bool] = []  # whether the worker's holder is building
    stray: list[int] = []
    shares: list[set[int]] = []

    real = fit_worker.build_tree

    def watched_build_tree(*args):
        if not building[-1]:
            return real(*args)
        if holding:
            kept = {id(tree) for tree in held(made[-1]).values()}
            stray.append(
                sum(1 for ref in built if ref() is not None and id(ref()) not in kept)
            )
        tree = real(*args)
        built.append(weakref.ref(tree))
        return tree

    tree_of = fit_worker.HeldTrees.tree

    def watched_tree(self, key, build_input):
        building.append(bool(made) and self is made[-1])
        try:
            return tree_of(self, key, build_input)
        finally:
            building.pop()

    hold = fit_worker.HeldTrees._hold

    def watched_hold(self, specs):
        if not (made and self is made[-1]):
            return hold(self, specs)
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
    monkeypatch.setattr(fit_worker.HeldTrees, "tree", watched_tree)
    monkeypatch.setattr(fit_worker.HeldTrees, "_hold", watched_hold)
    CLUSEQ(PARAMS, hooks=[at_iteration_end]).fit(draw())
    assert len(shares) > 2 and any(shares)
    assert stray and max(stray) == 0
