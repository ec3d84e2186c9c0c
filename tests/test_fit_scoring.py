"""What the fit pays for around the §4.3 DP.

The fit checks every sequence once, when it builds ``log p(s)``, and
scores each cluster pass as one ``score_pass`` column, while the
telemetry still counts every (sequence, cluster) pair; and it runs with
the cyclic garbage collector paused, because its discarded trees are
acyclic and reference counting frees them.
"""

from __future__ import annotations

import gc
import math

import numpy as np
import pytest

from repro.core.cluseq import CLUSEQ, CluseqParams, ClusteringResult, cluster_sequences
from repro.obs import MetricsRegistry, use_registry
from repro.sequences.alphabet import Alphabet
from repro.sequences.database import SequenceDatabase
from repro.sequences.generators import (
    generate_clustered_database,
    generate_two_cluster_toy,
)

from test_fit_worker import force_worker, needs_fork

#: ``similarity.context_walks`` of the seeded fit on the worker path.
WORKER_WALKS = 10368


def small_draw():
    return generate_clustered_database(
        num_sequences=90,
        num_clusters=3,
        avg_length=50,
        alphabet_size=6,
        seed=0,
    ).database


def fit_counters(db, *, worker):
    """One seeded fit with the pass worker forced on or off."""
    registry = MetricsRegistry()
    with pytest.MonkeyPatch.context() as patch:
        force_worker(patch, worker)
        with use_registry(registry):
            result = CLUSEQ(CluseqParams(k=2, significance_threshold=3, seed=0)).fit(db)
    return result, registry


def test_similarity_counters_count_every_pair():
    """Per-pair totals of a seeded fit. ``calls`` and ``dp_cells`` are
    derived from the totals pinned from the per-pair ``similarity()``
    loop, which replayed one pass: each further replayed pass skips one
    DP call per sequence. ``context_walks`` and the segment total were
    re-pinned when the fit began replaying any recent pass with the same
    build input (3 passes replayed). ``context_walks`` fell again when a
    new cluster began from the tree ``select_seeds`` built and scored:
    the walks that tree already cached are not redone. Those cached
    walks exist only in-process, so this fit runs with the pass worker
    off; its twin below runs the worker path."""
    db = small_draw()
    result, registry = fit_counters(db, worker=False)
    assert (result.iterations, result.num_clusters) == (5, 3)
    extra = registry.counter("cluseq.replayed_passes").value - 1
    symbols = sum(len(db.encoded(i)) for i in range(len(db)))
    calls = 2652 - len(db) * extra
    assert registry.counter("similarity.calls").value == calls
    assert registry.counter("similarity.dp_cells").value == 132561 - symbols * extra
    assert registry.counter("similarity.context_walks").value == 10192
    segments = registry.histogram("similarity.segment_length")
    assert (segments.count, segments.total) == (calls, 16745)
    assert (segments.min, segments.max) == (1, 62)


@needs_fork
def test_similarity_counters_on_the_worker_path():
    """The same fit with every second live pass run by the pass worker:
    the fit records the worker's totals, so every per-pair total but
    ``context_walks`` equals the in-process fit's. Each side caches
    walks only on the trees it holds (a worker-run seed's tree is built
    again there, with none of the walks ``select_seeds`` cached), so the
    walk count is its own."""
    db = small_draw()
    result, registry = fit_counters(db, worker=True)
    _, in_process = fit_counters(db, worker=False)
    assert (result.iterations, result.num_clusters) == (5, 3)
    for name in ("calls", "dp_cells"):
        counter = f"similarity.{name}"
        assert registry.counter(counter).value == in_process.counter(counter).value
    assert registry.counter("similarity.context_walks").value == WORKER_WALKS
    mine = registry.histogram("similarity.segment_length")
    theirs = in_process.histogram("similarity.segment_length")
    assert (mine.count, mine.total, mine.min, mine.max, mine.bucket_counts) == (
        theirs.count,
        theirs.total,
        theirs.min,
        theirs.max,
        theirs.bucket_counts,
    )


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_paused_inside_and_restored_after(self, restore_gc, enabled):
        seen = []
        (gc.enable if enabled else gc.disable)()
        CLUSEQ(
            CluseqParams(k=2, significance_threshold=3, max_iterations=3, seed=0),
            hooks=[lambda _snapshot: seen.append(gc.isenabled())],
        ).fit(small_draw())
        assert seen and not any(seen)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_restored_when_the_fit_raises(self, restore_gc, enabled):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(ValueError, match="empty database"):
            CLUSEQ(CluseqParams()).fit(SequenceDatabase(Alphabet("ab")))
        assert gc.isenabled() is enabled

    def test_a_fit_runs_no_collection(self, restore_gc):
        def collections():
            return [generation["collections"] for generation in gc.get_stats()]

        seen = []
        engine = CLUSEQ(
            CluseqParams(k=2, significance_threshold=3, seed=0),
            hooks=[lambda _snapshot: seen.append(collections())],
        )
        db = small_draw()
        gc.enable()
        gc.collect()  # so no collection falls due before the fit pauses it
        before = collections()
        engine.fit(db)
        assert len(seen) > 1
        assert all(during == before for during in seen)


@pytest.fixture(scope="module")
def models():
    fitted = cluster_sequences(
        generate_two_cluster_toy(size_per_cluster=30, length=40, seed=7),
        k=2,
        significance_threshold=2,
        min_unique_members=3,
        max_iterations=10,
        seed=1,
    )
    assert fitted.clusters
    return fitted


def zero_cluster_model(fitted):
    return ClusteringResult(
        clusters=[],
        assignments={},
        params=fitted.params,
        background=np.asarray(fitted.background),
        final_log_threshold=math.log(1.2),
    )


@pytest.mark.parametrize("clusters", [False, True], ids=["no-clusters", "clusters"])
@pytest.mark.parametrize(
    "encoded, match",
    [([], "empty"), ([-3, 1], "out of range"), ([1, 99], "out of range")],
    ids=["empty", "negative", "too-large"],
)
def test_bad_input_is_rejected_with_or_without_clusters(
    models, clusters, encoded, match
):
    """A model with no clusters rejects what a fitted one rejects,
    through ``predict``, ``score_sequence`` and ``assign_and_absorb``,
    and records nothing."""
    model = models if clusters else zero_cluster_model(models)
    assignments = dict(model.assignments)
    with pytest.raises(ValueError, match=match):
        model.predict(encoded)
    with pytest.raises(ValueError, match=match):
        model.score_sequence(encoded)
    with pytest.raises(ValueError, match=match):
        model.assign_and_absorb(encoded)
    assert model.assignments == assignments
