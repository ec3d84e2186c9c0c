"""The fit's pass worker: the same fit whichever process ran a pass.

With two or more live cluster passes of known build input, the fit
hands every second one to a forked worker (``repro.core.fit_worker``),
which rebuilds the tree from its build input and runs the same pass.
Every scenario fits with the worker forced on and forced off (by
patching ``fit_worker.second_cpu``) and compares labels, history (all
but ``elapsed_seconds``), the final ``log t``, assignments, each
cluster's ordered membership records, ``pst.to_dict()`` and
``node_count``, and ``cluseq.replayed_passes``. The worker-on side must
really have offloaded passes.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import signal
import threading
import types

import pytest

import repro.core.fit_worker as fit_worker
from repro.core.cluseq import CLUSEQ, CluseqParams
from repro.core.fit_worker import PassWorker, build_tree
from repro.core.similarity import _log_background, pass_totals
from repro.obs import MetricsRegistry, use_registry
from repro.sequences.generators import generate_clustered_database

from test_fit_replay import fit_state, outlier_draw, small_draw

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pass worker needs the fork start method",
)
pytestmark = needs_fork

#: Seconds any test here may run before its alarm fails it.
WATCHDOG_SECONDS = 120


@pytest.fixture(autouse=True)
def watchdog():
    """Fail a test that hangs (a protocol deadlock, a worker never
    reaped) instead of blocking the run."""

    def expire(signum, frame):
        raise TimeoutError(f"test ran past {WATCHDOG_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def force_worker(patch, on):
    """Make every fit under *patch* fork its worker (*on*) or never."""
    patch.setattr(fit_worker, "second_cpu", lambda: on)


def spy_submissions(patch):
    """Record the number of passes each accepted ``submit`` handed over."""
    sent = []
    submit = PassWorker.submit

    def spy(self, order, log_t, build_inputs):
        accepted = submit(self, order, log_t, build_inputs)
        if accepted:
            sent.append(len(build_inputs))
        return accepted

    patch.setattr(PassWorker, "submit", spy)
    return sent


def fit(db, params, *, worker, hooks=(), patch_child=None):
    """One fit with the worker forced on or off. Returns the result,
    its registry and the passes handed to the worker."""
    registry = MetricsRegistry()
    with pytest.MonkeyPatch.context() as patch:
        force_worker(patch, worker)
        sent = spy_submissions(patch)
        if patch_child is not None:
            patch_child(patch)
        with use_registry(registry):
            result = CLUSEQ(params, hooks=hooks).fit(db)
    return result, registry, sum(sent)


def state(result, registry):
    return {
        **fit_state(result),
        "nodes": [cluster.pst.node_count for cluster in result.clusters],
        "replayed": registry.counter("cluseq.replayed_passes").value,
    }


def assert_worker_matches_in_process(db, params, patch_child=None):
    on, on_registry, offloaded = fit(db, params, worker=True, patch_child=patch_child)
    off, off_registry, none = fit(db, params, worker=False)
    assert offloaded > 0 and none == 0
    assert state(on, on_registry) == state(off, off_registry)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "ordering, seed", [("fixed", 0), ("fixed", 1), ("random", 1), ("cluster", 2)]
)
def test_orderings_match(ordering, seed):
    assert_worker_matches_in_process(
        small_draw(seed),
        CluseqParams(k=2, significance_threshold=3, ordering=ordering, seed=seed),
    )


def test_pruned_models_match():
    """``max_nodes`` pruning fires inside the worker's rebuilds and
    absorbs as it does in-process."""
    assert_worker_matches_in_process(
        small_draw(1),
        CluseqParams(k=2, significance_threshold=3, max_nodes=30, seed=1),
    )


def test_unsmoothed_models_match():
    assert_worker_matches_in_process(
        small_draw(2), CluseqParams(k=2, significance_threshold=3, p_min=0.0, seed=2)
    )


def test_outlier_draw_matches():
    assert_worker_matches_in_process(
        outlier_draw(3), CluseqParams(k=2, significance_threshold=3, seed=3)
    )


def test_additive_models_never_fork():
    """Without the rebuild no tree has a known build input, so every
    pass stays in-process."""
    _, _, offloaded = fit(
        small_draw(0),
        CluseqParams(
            k=2, significance_threshold=3, rebuild_each_iteration=False, seed=0
        ),
        worker=True,
    )
    assert offloaded == 0


# -- failures -------------------------------------------------------------------


def kill_worker_at(build):
    """Patch the worker's tree builder to signal the worker itself on its
    *build*-th build (after ``build - 1`` replies)."""
    parent = os.getpid()
    real = fit_worker.build_tree
    builds = [0]

    def dying(*args):
        if os.getpid() != parent:
            builds[0] += 1
            if builds[0] == build:
                os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    return lambda patch: patch.setattr(fit_worker, "build_tree", dying)


@pytest.mark.parametrize("build", [1, 2], ids=["before-any-reply", "after-first"])
def test_killed_worker_gives_the_same_result(build, caplog):
    """The fit scores the dead worker's passes from its own untouched
    trees, and scores in-process for the rest of the fit."""
    assert_worker_matches_in_process(
        small_draw(0),
        CluseqParams(k=2, significance_threshold=3, seed=0),
        patch_child=kill_worker_at(build),
    )
    assert "pass worker failed" in caplog.text


def test_raising_worker_gives_the_same_result(caplog):
    """An exception in the worker comes back as its traceback."""
    parent = os.getpid()
    real = fit_worker.build_tree

    def failing(*args):
        if os.getpid() != parent:
            raise RuntimeError("boom in the worker")
        return real(*args)

    assert_worker_matches_in_process(
        small_draw(0),
        CluseqParams(k=2, significance_threshold=3, seed=0),
        patch_child=lambda patch: patch.setattr(fit_worker, "build_tree", failing),
    )
    assert "boom in the worker" in caplog.text


class HookError(Exception):
    pass


@pytest.mark.parametrize("error", [HookError, KeyboardInterrupt])
def test_a_raising_hook_leaves_no_worker(error):
    def hook(snapshot):
        if snapshot.stats.iteration == 1:
            raise error

    with pytest.raises(error):
        fit(
            small_draw(0),
            CluseqParams(k=2, significance_threshold=3, seed=0),
            worker=True,
            hooks=[hook],
        )
    assert multiprocessing.active_children() == []


def test_a_pass_larger_than_the_pipe_buffer_finishes():
    """6,000 short sequences: one pass's reply is larger than a pipe
    buffer (64 KiB), so a protocol where both sides can block writing
    would hang here (the watchdog turns a hang into a failure)."""
    db = generate_clustered_database(
        num_sequences=6000, num_clusters=3, avg_length=8, alphabet_size=4, seed=0
    ).database
    encoded = [db.encoded(i) for i in range(len(db))]
    params = CluseqParams(k=2, significance_threshold=3, max_iterations=3, seed=0)
    factory = params.pst_factory(db.alphabet.size)
    log_bg = _log_background([], encoded, db.background_probabilities())
    tree = build_tree((0, ()), encoded, factory)
    reply = pass_totals(tree, encoded, log_bg, math.inf)
    assert len(pickle.dumps(reply)) > 64 * 1024
    _, _, offloaded = fit(db, params, worker=True)
    assert offloaded > 0
    assert multiprocessing.active_children() == []


def test_policy_needs_one_thread_and_two_cpus(monkeypatch):
    """The unpatched policy: a one-CPU affinity mask, a daemonic
    ``multiprocessing`` worker or a second thread keeps the fit
    in-process."""
    if not fit_worker.second_cpu():
        pytest.skip("this host has no second CPU for the fit")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not fit_worker.second_cpu()
    monkeypatch.undo()
    daemon = types.SimpleNamespace(daemon=True)
    monkeypatch.setattr(multiprocessing, "current_process", lambda: daemon)
    assert not fit_worker.second_cpu()
    monkeypatch.undo()
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not fit_worker.second_cpu()
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert fit_worker.second_cpu()
