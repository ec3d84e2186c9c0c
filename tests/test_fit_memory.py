"""The fit holds one generation of cluster trees.

A tree the fit stops reading must be unreachable at once: a dismissed
cluster's tree once consolidation has returned and its memberships are
dropped, and a superseded tree once the rebuild has replaced it. The
fit runs with the cyclic collector paused and a PST is acyclic, so
reference counting alone frees each one. The tests watch the trees
through weak references taken at ``repro.core.cluseq.consolidate``,
``CLUSEQ._rebuild_cluster_models`` and ``repro.core.cluseq.build_tree``,
with the pass worker forced on and forced off.
"""

from __future__ import annotations

import weakref

import pytest

import repro.core.cluseq as cluseq
from repro.core.cluseq import CLUSEQ, CluseqParams
from repro.sequences.generators import generate_clustered_database

from test_fit_worker import force_worker, needs_fork

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


def superseded(before):
    """The weak references in *before* (``(cluster, ref)`` pairs taken
    before a rebuild) whose cluster no longer holds that tree."""
    return [ref for cluster, ref in before if ref() is not cluster.pst]


@WORKER
def test_dismissed_and_superseded_trees_die_with_their_phase(monkeypatch, worker):
    force_worker(monkeypatch, worker)
    dropped: list[weakref.ref] = []  # dismissed and superseded trees
    seen = {"dismissed": 0, "superseded": 0}
    counts: list[int] = []

    def check():
        counts.append(alive(dropped))

    consolidate = cluseq.consolidate

    def watched_consolidate(*args, **kwargs):
        check()
        retained, removed = consolidate(*args, **kwargs)
        dropped.extend(weakref.ref(cluster.pst) for cluster in removed)
        seen["dismissed"] += len(removed)
        return retained, removed

    rebuild = CLUSEQ._rebuild_cluster_models

    def watched_rebuild(clusters, *args, **kwargs):
        check()
        before = [(cluster, weakref.ref(cluster.pst)) for cluster in clusters]
        kept = rebuild(clusters, *args, **kwargs)
        replaced = superseded(before)
        dropped.extend(replaced)
        seen["superseded"] += len(replaced)
        check()
        return kept

    monkeypatch.setattr(cluseq, "consolidate", watched_consolidate)
    monkeypatch.setattr(CLUSEQ, "_rebuild_cluster_models", staticmethod(watched_rebuild))
    result = CLUSEQ(PARAMS).fit(draw())
    check()
    assert seen["dismissed"] > 0 and seen["superseded"] > 0
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
        rebuilding.append([(cluster, weakref.ref(cluster.pst)) for cluster in clusters])
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
