"""The fit's pass worker: the same fit whichever process held a tree.

A forked worker (``repro.core.fit_worker``) scores every second
calibration reference, builds the trees of every second live cluster
pass at the end of the iteration before, scores the seed sample against
the trees it holds, and runs those passes. Every scenario fits with the
worker forced on and forced off (by patching ``fit_worker.second_cpu``)
and compares labels, history (all but ``elapsed_seconds``), the final
``log t``, assignments, each cluster's ordered membership records,
``pst.to_dict()`` and ``node_count``, ``cluseq.replayed_passes`` and
``similarity.calls``/``dp_cells``. The worker-on side must really have
offloaded passes.

``loopback_worker`` runs the worker's side in this process instead of a
fork, answering each request when the fit reads its replies, so that
tests can watch the worker's trees.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import signal
import threading
import types
from collections import deque

import pytest

import repro.core.cluseq as cluseq
import repro.core.fit_worker as fit_worker
from repro.core.cluseq import CLUSEQ, CluseqParams
from repro.core.fit_worker import PassWorker, WorkerTrees, build_tree
from repro.core.similarity import _log_background, pass_totals
from repro.obs import MetricsRegistry, use_registry
from repro.sequences.generators import generate_clustered_database

from test_fit_replay import fit_state, outlier_draw, small_draw
from test_observability_integration import logged_iterations

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


class Loopback:
    """The worker's end of the pipe, in this process: a request is
    answered when the fit reads its replies, as a forked worker answers
    while the fit does its own share."""

    def __init__(self, trees):
        self.trees = trees
        self.requests = deque()
        self.replies = deque()

    def send(self, request):
        self.requests.append(request)

    def recv(self):
        while not self.replies:
            self.replies.extend(self.trees.handle(self.requests.popleft()))
        return self.replies.popleft()

    def close(self):
        self.requests.clear()


class NoProcess:
    def kill(self):
        pass

    def join(self, timeout=None):
        pass

    def is_alive(self):
        return False

    def close(self):
        pass


def loopback_worker(patch):
    """Make every fit under *patch* run its pass worker in this process.
    Returns the list of the workers' ``WorkerTrees``, one per fit."""
    made = []

    def start(self):
        trees = WorkerTrees(*self._inputs)
        made.append(trees)
        self._process, self._conn = NoProcess(), Loopback(trees)
        return True

    force_worker(patch, True)
    patch.setattr(PassWorker, "_start", start)
    return made


def spy_submissions(patch):
    """Record the number of passes each accepted ``passes`` request
    handed over (calibration references included)."""
    sent = []
    passes = PassWorker.passes

    def spy(self, order, log_t, specs):
        accepted = passes(self, order, log_t, specs)
        if accepted:
            sent.append(len(specs))
        return accepted

    patch.setattr(PassWorker, "passes", spy)
    return sent


def fit(db, params, *, worker, hooks=(), patch_child=None):
    """One fit with the worker forced on (``"loopback"``: in this
    process) or off. Returns the result, its registry and the passes
    handed to the worker."""
    registry = MetricsRegistry()
    with pytest.MonkeyPatch.context() as patch:
        if worker == "loopback":
            loopback_worker(patch)
        else:
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
        "calls": registry.counter("similarity.calls").value,
        "cells": registry.counter("similarity.dp_cells").value,
    }


def assert_worker_matches_in_process(db, params, patch_child=None, worker=True):
    on, on_registry, offloaded = fit(db, params, worker=worker, patch_child=patch_child)
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


def test_loopback_worker_matches():
    """The in-process stand-in the tree-lifetime tests watch runs the
    same protocol as the fork."""
    assert_worker_matches_in_process(
        outlier_draw(3),
        CluseqParams(k=2, significance_threshold=3, seed=3),
        worker="loopback",
    )


def test_node_counts_match():
    """The node counts the worker reports for the trees it holds give
    the same ``IterationSnapshot.pst_node_counts`` as the in-process
    fit."""
    seen = {True: [], False: []}
    for worker in (True, False):
        fit(
            outlier_draw(3),
            CluseqParams(k=2, significance_threshold=3, seed=3),
            worker=worker,
            hooks=[lambda snapshot, worker=worker: seen[worker].append(
                snapshot.pst_node_counts
            )],
        )
    assert len(seen[True]) > 2
    assert seen[True] == seen[False]


@pytest.mark.parametrize("worker", [True, False], ids=["worker", "in-process"])
def test_iteration_events_carry_the_history(worker):
    """The per-iteration trajectory lives in the ``iteration`` INFO log
    events: one per ``history`` entry, carrying its ``IterationStats``
    fields and the PST node total a hook sees, whichever process holds
    the trees."""
    totals = []
    (result, _, _), events = logged_iterations(
        lambda: fit(
            outlier_draw(3),
            CluseqParams(k=2, significance_threshold=3, seed=3),
            worker=worker,
            hooks=[lambda snapshot: totals.append(
                sum(snapshot.pst_node_counts.values())
            )],
        )
    )
    assert len(events) == len(result.history) == len(totals) > 2
    for event, stats, total in zip(events, result.history, totals):
        assert event["iteration"] == stats.iteration
        assert event["clusters"] == stats.clusters_after
        assert event["unclustered"] == stats.unclustered
        assert event["membership_changes"] == stats.membership_changes
        assert event["log_threshold"] == stats.log_threshold
        assert event["pst_nodes"] == total


def test_the_worker_owes_no_reply_at_any_hook(monkeypatch):
    """Every request's replies are read before the iteration ends, so
    the worker is idle while hooks (and anything timed between
    iterations) run."""
    workers = []
    init = PassWorker.__init__

    def spy_init(self, *args):
        init(self, *args)
        workers.append(self)

    monkeypatch.setattr(PassWorker, "__init__", spy_init)
    owed = []
    _, _, offloaded = fit(
        outlier_draw(3),
        CluseqParams(k=2, significance_threshold=3, seed=3),
        worker=True,
        hooks=[lambda snapshot: owed.append(workers[-1]._pending)],
    )
    assert offloaded > 0 and len(owed) > 2
    assert owed == [0] * len(owed)


def test_no_build_input_is_built_on_both_sides(monkeypatch):
    """Within an iteration, no build input the parent builds is one the
    worker was asked to build, and the parent builds fewer trees than
    the in-process fit. Seed-only build inputs are exempt: a seed the
    worker runs is built there again from its index."""
    iteration = [0]
    parent = []
    asked = []
    real = cluseq.build_tree

    def spy_build(build_input, *args):
        parent.append((iteration[0], build_input))
        return real(build_input, *args)

    hold = PassWorker.hold

    def spy_hold(self, specs):
        sent = hold(self, specs)
        if sent:
            asked.extend((iteration[0], build_input) for _, build_input in specs)
        return sent

    def count(snapshot):
        iteration[0] += 1

    monkeypatch.setattr(cluseq, "build_tree", spy_build)
    monkeypatch.setattr(PassWorker, "hold", spy_hold)
    db = outlier_draw(3)
    params = CluseqParams(k=2, significance_threshold=3, seed=3)
    fit(db, params, worker=True, hooks=[count])
    on = list(parent)
    parent.clear()
    fit(db, params, worker=False)
    assert asked and on
    assert not {
        (at, build_input) for at, build_input in on if build_input[1]
    } & set(asked)
    assert len(on) < len(parent)


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


def in_worker(name, act):
    """Patch ``WorkerTrees.<name>`` to run *act* in the worker on its
    first call there."""
    parent = os.getpid()
    real = getattr(WorkerTrees, name)

    def patched(self, *args):
        if os.getpid() != parent:
            act()
        return real(self, *args)

    return lambda patch: patch.setattr(WorkerTrees, name, patched)


def die():
    os.kill(os.getpid(), signal.SIGKILL)


def boom():
    raise RuntimeError("boom in the worker")


@pytest.mark.parametrize("act", [die, boom], ids=["killed", "raising"])
@pytest.mark.parametrize(
    "step", ["_hold", "_sample"], ids=["during-prebuild", "during-seed-scoring"]
)
def test_failed_worker_mid_step_gives_the_same_result(step, act, caplog):
    """A worker lost while it builds the next passes' trees, or while
    it scores the seed sample, leaves the parent to build those trees
    from the build inputs it kept and to finish in-process."""
    assert_worker_matches_in_process(
        outlier_draw(3),
        CluseqParams(k=2, significance_threshold=3, seed=3),
        patch_child=in_worker(step, act),
    )
    assert "pass worker failed" in caplog.text


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
