"""The fit's second CPU: one forked worker per fit holds part of the
cluster trees and runs every step that reads them.

Under the §4.2 overlap rule a cluster's reclustering pass is a function
of its starting tree, ``log t`` and the examination order (see
``CLUSEQ._recluster_vectorized``). With ``rebuild_each_iteration`` the
starting tree is a function of the cluster's build input
(:func:`build_tree`), so another process that holds the encoded
database can build the same tree and run the same pass. Its column is
bit-identical to the one the fit would score in-process: the DP reads
only the tree's counts, and its caches change no score.

:class:`PassWorker` is that process. It is forked on the fit's first
request and inherits the encoded database, the PST factory and
``log p(s)``. It keeps the trees it is handed by cluster id, each with
the build input it was built from, and answers three requests:

- **passes** — ``(order, log t, [(cluster id, build input)])``: run
  each pass with absorbs, on the tree it holds for that build input or
  on one it builds, and reply ``(logs, bounds, cells, walks)`` per
  pass. The iteration-0 calibration sends its reference passes this
  way with ``log t = inf``, which joins nothing; a reference that is
  no cluster's comes with the id ``None`` and is not kept.
- **sample** — a seed sample's database indices: reply each sample's
  best ``log SIM`` over the trees held, with the pairs' DP totals.
- **hold** — ``[(cluster id, build input)]``, the clusters whose next
  passes the worker runs: keep each tree that is still the one built
  from that input, drop every other tree, build the rest, and reply
  their node counts and how many were kept.

It records no telemetry: the fit records each reply's totals as its
own.

Protocol: the parent sends one request at a time, only while the
worker owes it nothing, and reads every reply before it sends again.
So at most one side is ever blocked writing, and the other is reading:
a reply larger than the pipe buffer cannot deadlock.

The fit forks only where :func:`second_cpu` holds: Linux with the
``fork`` start method, two or more CPUs in the process's affinity mask,
a single-threaded caller (forking a threaded process can copy a lock
another thread holds) that is not itself a daemonic ``multiprocessing``
worker (which may not have children). Everywhere else, and after the
worker fails, the fit runs every step in-process.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import traceback
from array import array
from collections.abc import Callable, Iterator, Mapping, Sequence
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, cast

from ..obs import get_logger, set_registry
from ..typing import PSTFactory
from .cluster import Cluster
from .pst import ProbabilisticSuffixTree
from .similarity import _count_pairs, pass_totals, score_row

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

#: What a rebuilt cluster tree is a function of: the seed index and each
#: member's ``(sequence_index, best_start, best_end)``, in member order
#: (order matters once ``max_nodes`` pruning fires mid-build).
BuildInput = tuple[int, tuple[tuple[int, int, int], ...]]

#: A tree the worker is asked for: its cluster id (``None``: a
#: calibration reference, dropped after its pass) and its build input.
TreeSpec = tuple["int | None", BuildInput]

#: One pass's reply: its column ``(logs, bounds)`` as
#: :func:`~repro.core.similarity.score_pass` returns it, then its DP
#: cells and root walks.
PassResult = tuple["array[float]", "array[int]", int, int]

#: A seed sample's reply: each sample's best ``log SIM`` over the
#: worker's trees, then the DP cells, root walks and bounds of every
#: pair scored.
SampleResult = tuple[list[float], int, int, "array[int]"]

#: A prebuild's reply: each tree's node count, in request order, and
#: how many trees were kept rather than built.
HoldResult = tuple[list[int], int]

#: Seconds :meth:`PassWorker.close` waits for an idle worker to exit
#: before it kills it.
JOIN_SECONDS = 5.0

_logger = get_logger("core.fit_worker")


def build_tree(
    build_input: BuildInput,
    encoded: Sequence[Sequence[int]],
    pst_factory: PSTFactory,
) -> ProbabilisticSuffixTree:
    """The cluster tree of *build_input* (§4.1, §4.4): the seed's tree,
    then each member's best segment absorbed in member order.

    The one tree-from-build-input builder: the fit's rebuild and the
    pass worker both call it, so both make the same tree.
    """
    seed_index, members = build_input
    tree = pst_factory(encoded[seed_index])
    for index, start, end in members:
        segment = encoded[index][start:end]
        if segment:
            tree.add_sequence(segment)
    return tree


def build_input_of(cluster: Cluster) -> BuildInput:
    """What *cluster*'s rebuilt tree is a function of (§4.4): its seed
    and its members' best segments, in member order."""
    return (
        cluster.seed_index,
        tuple(
            (m.sequence_index, m.best_start, m.best_end)
            for m in cluster._members.values()
        ),
    )


class Replayable(Protocol):
    """A recorded pass (``repro.core.cluseq._Pass``)."""

    def repeats(self, log_t: float, order: list[int]) -> bool: ...


@dataclass(frozen=True)
class Built:
    """A tree the fit built: its build input, and the tree and its
    version right after the build."""

    build_input: BuildInput
    pst: ProbabilisticSuffixTree
    version: int


def second_cpu() -> bool:
    """Whether a fit may fork a worker for its §4.2 passes (see the
    module notes)."""
    # Imported here, not with the module: ``multiprocessing`` loads
    # ``socket``, ``selectors`` and more (about 0.6 MB resident), which
    # serve and the stream never need.
    import multiprocessing

    return (
        sys.platform.startswith("linux")
        and "fork" in multiprocessing.get_all_start_methods()
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
        and not multiprocessing.current_process().daemon
    )


class PassWorker:
    """One fit's pass worker, forked on first need.

    Each request method returns ``False`` when the fit must do that
    step itself: after a failure, or where :func:`second_cpu` does not
    hold. Otherwise the matching result method reads the replies, with
    ``None`` for each one the worker did not send. :meth:`close`, which
    the fit calls on every exit path, stops the worker.
    """

    def __init__(
        self,
        encoded: Sequence[Sequence[int]],
        pst_factory: PSTFactory,
        log_bg: list[float],
    ) -> None:
        self._inputs = (encoded, pst_factory, log_bg)
        self._process: BaseProcess | None = None
        self._conn: Connection | None = None
        #: Replies owed to requests sent.
        self._pending = 0
        #: Set once the fit works in-process for good.
        self._off = False

    def passes(self, order: list[int], log_t: float, specs: list[TreeSpec]) -> bool:
        """Send passes over the examination *order* under ``log t``, one
        per tree of *specs*; read them with :meth:`pass_results`."""
        return self._send(("passes", order, log_t, specs), len(specs))

    def pass_results(self) -> list[PassResult | None]:
        """The passes' results, in request order."""
        return cast("list[PassResult | None]", self._replies())

    def sample(self, indices: list[int]) -> bool:
        """Send a seed sample to score against every tree held; read it
        with :meth:`sample_result`."""
        return self._send(("sample", indices), 1)

    def sample_result(self) -> SampleResult | None:
        (reply,) = self._replies()
        return cast("SampleResult | None", reply)

    def hold(self, specs: list[TreeSpec]) -> bool:
        """Send the trees to hold from now on; read their node counts
        with :meth:`hold_result`. An empty request starts no worker."""
        if not specs and self._conn is None:
            return False
        return self._send(("hold", specs), 1)

    def hold_result(self) -> HoldResult | None:
        (reply,) = self._replies()
        return cast("HoldResult | None", reply)

    def close(self) -> None:
        """Stop the worker and reap it. An idle worker exits on end of
        file; one that still owes replies (the fit is unwinding from an
        exception) is killed."""
        self._off = True
        process, conn = self._process, self._conn
        self._process = self._conn = None
        if process is None or conn is None:
            return
        conn.close()
        if self._pending:
            process.kill()
        self._pending = 0
        process.join(JOIN_SECONDS)
        if process.is_alive():
            process.kill()
            process.join()
        process.close()

    def _send(self, request: tuple[object, ...], replies: int) -> bool:
        if self._off:
            return False
        if self._conn is None and not (second_cpu() and self._start()):
            self._off = True
            return False
        assert self._conn is not None
        try:
            self._conn.send(request)
        except OSError as error:
            self._fail(f"send failed: {error!r}")
            return False
        self._pending = replies
        return True

    def _replies(self) -> list[object | None]:
        out: list[object | None] = []
        while self._pending:
            assert self._conn is not None
            try:
                reply = self._conn.recv()
            except (EOFError, OSError) as error:
                reply = f"worker lost: {error!r}"
            if isinstance(reply, str):
                out.extend([None] * self._pending)
                self._fail(reply)
                break
            out.append(reply)
            self._pending -= 1
        return out

    def _start(self) -> bool:
        """Fork the worker; ``False`` when the fork fails."""
        import multiprocessing

        context = multiprocessing.get_context("fork")
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=_serve,
            args=(child_end, parent_end, *self._inputs),
            name="cluseq-pass-worker",
            daemon=True,
        )
        try:
            process.start()
        except OSError as error:
            parent_end.close()
            _logger.warning("pass worker not started: %r", error)
            return False
        finally:
            # The parent keeps only its own end, so the worker's exit
            # reads as end of file here.
            child_end.close()
        self._process, self._conn = process, parent_end
        return True

    def _fail(self, detail: str) -> None:
        _logger.warning(
            "pass worker failed; the fit works in-process from here: %s", detail
        )
        self.close()


class WorkerTrees:
    """The worker's side of the protocol: the trees it holds, by cluster
    id, each with its build input and its version right after the
    build.

    A tree is reused only while it is the one built from the build input
    asked for and no absorb has touched it; any other tree of that
    cluster is dropped before the new one is built, so a build runs
    beside no superseded tree.
    """

    def __init__(
        self,
        encoded: Sequence[Sequence[int]],
        pst_factory: PSTFactory,
        log_bg: list[float],
    ) -> None:
        self.encoded = encoded
        self.pst_factory = pst_factory
        self.log_bg = log_bg
        self.held: dict[int, tuple[BuildInput, ProbabilisticSuffixTree, int]] = {}

    def handle(self, request: tuple[object, ...]) -> Iterator[object]:
        """The replies to one request, in order."""
        kind, *args = request
        if kind == "passes":
            order, log_t, specs = args
            seqs = [self.encoded[index] for index in cast("list[int]", order)]
            for spec in cast("list[TreeSpec]", specs):
                tree = self._tree(*spec)
                yield pass_totals(
                    tree, seqs, self.log_bg, cast(float, log_t), tree.add_sequence
                )
        elif kind == "sample":
            yield self._sample(cast("list[int]", args[0]))
        elif kind == "hold":
            yield self._hold(cast("list[TreeSpec]", args[0]))
        else:
            raise ValueError(f"unknown request {kind!r}")

    def _kept(self, key: int, build_input: BuildInput) -> bool:
        """Whether the tree held for *key* is still the one built from
        *build_input*."""
        entry = self.held.get(key)
        return (
            entry is not None
            and entry[0] == build_input
            and entry[1].version == entry[2]
        )

    def _tree(
        self, key: int | None, build_input: BuildInput
    ) -> ProbabilisticSuffixTree:
        if key is not None:
            if self._kept(key, build_input):
                return self.held[key][1]
            self.held.pop(key, None)
        tree = build_tree(build_input, self.encoded, self.pst_factory)
        if key is not None:
            self.held[key] = (build_input, tree, tree.version)
        return tree

    def _sample(self, indices: list[int]) -> SampleResult:
        seqs = [self.encoded[index] for index in indices]
        best = [-math.inf] * len(seqs)
        bounds: array[int] = array("i")
        cells = walks = 0
        for _, tree, _ in self.held.values():
            logs, tree_bounds, tree_cells, tree_walks = pass_totals(
                tree, seqs, self.log_bg
            )
            best = [max(pair) for pair in zip(best, logs)]
            bounds += tree_bounds
            cells += tree_cells
            walks += tree_walks
        return best, cells, walks, bounds

    def _hold(self, specs: list[TreeSpec]) -> HoldResult:
        kept = {
            key: self.held[key]
            for key, build_input in specs
            if key is not None and self._kept(key, build_input)
        }
        reused = len(kept)
        # Every other tree dies here, before the first build.
        self.held = kept
        return [self._tree(*spec).node_count for spec in specs], reused


class FitTrees:
    """The fit's side of the split: which process holds each cluster's
    tree, and what it was built from (``rebuild_each_iteration`` only).

    The parent holds a tree in ``Cluster.pst`` and records it in
    *built*. The worker holds the trees of the clusters in *away*, each
    built from the build input recorded there for this iteration's
    passes; the parent holds none of those (their ``Cluster.pst`` is
    deleted) until it adopts one: when the worker fails, or when a
    rebuild places the cluster back in the parent.
    """

    def __init__(
        self,
        worker: PassWorker,
        encoded: Sequence[Sequence[int]],
        pst_factory: PSTFactory,
        log_bg: list[float],
    ) -> None:
        self.worker = worker
        self.encoded = encoded
        self.pst_factory = pst_factory
        self.log_bg = log_bg
        self.built: dict[int, Built] = {}
        self.away: dict[int, BuildInput] = {}

    def adopt(self, cluster: Cluster) -> ProbabilisticSuffixTree:
        """Build in the parent the tree the worker holds for *cluster*."""
        build_input = self.away.pop(cluster.cluster_id)
        tree = cluster.pst = build_tree(build_input, self.encoded, self.pst_factory)
        self.built[cluster.cluster_id] = Built(build_input, tree, tree.version)
        return tree

    def forget(self, cluster_ids: AbstractSet[int]) -> None:
        """Drop the records of dismissed clusters."""
        for cluster_id in cluster_ids:
            self.built.pop(cluster_id, None)
            self.away.pop(cluster_id, None)

    def hand_over(self, share: list[Cluster], specs: list[TreeSpec]) -> None:
        """Record that the worker now holds the trees of *share*, built
        from *specs*, and drop the parent's own tree of each."""
        for cluster in share:
            self.built.pop(cluster.cluster_id, None)
            if cluster.cluster_id not in self.away:
                del cluster.pst
        self.away = {
            cast(int, cluster_id): build_input for cluster_id, build_input in specs
        }

    def share(
        self,
        clusters: list[Cluster],
        passes: Mapping[BuildInput, Replayable],
        log_t: float,
        order: list[int] | None,
    ) -> list[Cluster]:
        """The clusters whose next pass the worker runs: every second
        one, in cluster order, whose next pass under ``log t`` and
        *order* cannot replay one of *passes* (the split
        ``CLUSEQ._recluster_vectorized`` makes, where new seeds continue
        it). With no *order* every pass counts as live."""
        live = []
        for cluster in clusters:
            record = passes.get(build_input_of(cluster))
            if order is None or record is None or not record.repeats(log_t, order):
                live.append(cluster)
        return live[1::2]

    def rebuild(
        self,
        clusters: list[Cluster],
        share: list[Cluster],
        rebuild_here: Callable[[list[Cluster]], int],
    ) -> tuple[int, dict[int, int]]:
        """The rebuild on both CPUs: the worker builds (or keeps) the
        trees of *share*, which it holds for their next passes, while
        the parent drops its own tree of each and rebuilds every other
        cluster's with *rebuild_here*. No tree is built on both sides;
        when the worker fails, the parent builds the shared trees too.
        Returns how many clusters kept their tree, and the node count of
        each tree the worker holds."""
        specs: list[TreeSpec] = [
            (cluster.cluster_id, build_input_of(cluster)) for cluster in share
        ]
        sent = self.worker.hold(specs)
        if not sent:
            share, specs = [], []
        self.hand_over(share, specs)
        kept = rebuild_here([c for c in clusters if c.cluster_id not in self.away])
        reply = self.worker.hold_result() if sent else None
        if reply is None:
            self.away = {}
            return kept + rebuild_here(share), {}
        counts, worker_kept = reply
        return kept + worker_kept, {
            cast(int, cluster_id): count for (cluster_id, _), count in zip(specs, counts)
        }


class WorkerReferences:
    """The seed sample's references on the worker (a
    :class:`~repro.core.seeding.ScoredElsewhere`): the trees of the
    clusters in ``trees.away``. When the worker fails, the parent builds
    those trees and scores the sample against them itself."""

    def __init__(self, trees: FitTrees, clusters: list[Cluster]) -> None:
        self._trees = trees
        self._away = [c for c in clusters if c.cluster_id in trees.away]
        self.references = len(self._away)
        self._sampled: list[int] = []
        self._sent = False

    def start(self, sampled: list[int]) -> None:
        self._sampled = sampled
        self._sent = self._trees.worker.sample(sampled)

    def best(self) -> list[float]:
        reply = self._trees.worker.sample_result() if self._sent else None
        if reply is not None:
            best, cells, walks, bounds = reply
            _count_pairs(cells, walks, bounds)
            return best
        trees = self._trees
        psts = [trees.adopt(cluster) for cluster in self._away]
        return [
            max(score_row(psts, trees.encoded[i], trees.log_bg)[0], default=-math.inf)
            for i in self._sampled
        ]


def _serve(
    conn: Connection,
    parent_end: Connection,
    encoded: Sequence[Sequence[int]],
    pst_factory: PSTFactory,
    log_bg: list[float],
) -> None:
    """The worker's loop: answer each request. Exits when the parent
    closes its end; an exception is sent back as its traceback before
    the worker exits."""
    parent_end.close()
    # Ctrl-C reaches the whole process group; the parent handles it
    # and stops the worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    set_registry(None)
    trees = WorkerTrees(encoded, pst_factory, log_bg)
    try:
        while True:
            for reply in trees.handle(conn.recv()):
                conn.send(reply)
    except (EOFError, OSError):
        return
    except Exception:
        try:
            conn.send(traceback.format_exc())
        except OSError:
            pass
