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

During a fit every cluster tree lives in a :class:`HeldTrees`, the
parent's or the worker's, keyed by cluster id; ``Cluster.pst`` is set
only when the fit returns. :class:`PassWorker` is the worker: it is
forked on the fit's first request and inherits the encoded database,
the PST factory and ``log p(s)``. Both processes answer the same three
requests with :meth:`HeldTrees.handle`:

- **passes** — ``(order, log t, [(cluster id, build input)])``: run
  each pass with absorbs, on the tree held for that cluster or on one
  built from the build input, and reply ``(logs, bounds, cells,
  walks)`` per pass. The iteration-0 calibration sends its reference
  passes this way with ``log t = inf``, which joins nothing; a
  reference that is no cluster's comes with the id ``None`` and is not
  kept.
- **sample** — a seed sample's database indices and the cluster ids of
  the trees to score it against: reply each sample's best ``log SIM``
  over those trees, with the pairs' DP totals.
- **hold** — ``[(cluster id, build input)]``, the clusters whose next
  passes this process runs: keep each tree that is still the one built
  from that input, drop every other tree, build the rest, and reply
  their node counts and how many were kept.

:class:`FitTrees` sends the worker its share of each request and has
the parent's holder answer the rest meanwhile. When the worker declines
a request or fails, the parent takes back the worker's trees (builds
each one from its build input) and answers whatever the worker left
unanswered. The worker records no telemetry: the fit records each
reply's totals as its own.

Protocol: the parent sends one request at a time, only while the
worker owes it nothing, and reads every reply before it sends again.
So at most one side is ever blocked writing, and the other is reading:
a reply larger than the pipe buffer cannot deadlock.

The fit forks only where :func:`second_cpu` holds: Linux with the
``fork`` start method, two or more CPUs in the process's affinity mask,
a single-threaded caller (forking a threaded process can copy a lock
another thread holds) that is not itself a daemonic ``multiprocessing``
worker (which may not have children). Everywhere else, and after the
worker fails, the parent's holder answers every request.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import traceback
from array import array
from collections.abc import Iterator, Mapping, Sequence
from collections.abc import Set as AbstractSet
from typing import TYPE_CHECKING, Protocol, cast

from ..obs import get_logger, set_registry
from ..typing import PSTFactory
from .cluster import Cluster
from .pst import ProbabilisticSuffixTree
from .similarity import _count_pairs, pass_totals

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

#: What a rebuilt cluster tree is a function of: the seed index and each
#: member's ``(sequence_index, best_start, best_end)``, in member order
#: (order matters once ``max_nodes`` pruning fires mid-build).
BuildInput = tuple[int, tuple[tuple[int, int, int], ...]]

#: A tree a request names: its cluster id (``None``: a calibration
#: reference, dropped after its pass) and its build input (``None``: the
#: tree held for that cluster, as it stands).
TreeSpec = tuple["int | None", "BuildInput | None"]

#: One pass's reply: its column ``(logs, bounds)``, then its DP cells
#: and root walks, as :func:`~repro.core.similarity.pass_totals`
#: returns them.
PassResult = tuple["array[float]", "array[int]", int, int]

#: A seed sample's reply: each sample's best ``log SIM`` over the trees
#: named, then the DP cells, root walks and bounds of every pair scored.
SampleResult = tuple[list[float], int, int, "array[int]"]

#: A hold's reply: each tree's node count, in request order, and how
#: many trees were kept rather than built.
HoldResult = tuple[list[int], int]

#: A request: its kind, its arguments, and last the trees it names.
Request = tuple[object, ...]

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

    Both processes' holders build their trees with it, so both make the
    same tree from the same build input.
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


def _replies_owed(request: Request) -> int:
    """How many replies *request* gets: one per pass, else one."""
    return len(cast("list[TreeSpec]", request[-1])) if request[0] == "passes" else 1


class Replayable(Protocol):
    """A recorded pass (``repro.core.cluseq._Pass``)."""

    def repeats(self, log_t: float, order: list[int]) -> bool: ...


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

    :meth:`send` returns ``False`` when the fit must answer the request
    itself: after a failure, or where :func:`second_cpu` does not hold.
    Otherwise :meth:`replies` reads the replies. :meth:`close`, which
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
        #: Replies owed to the request sent.
        self._pending = 0
        #: Set once the fit works in-process for good.
        self._off = False

    def send(self, request: Request) -> bool:
        """Send *request* (see the module notes). A request that names
        no tree starts no worker."""
        if self._off or (self._conn is None and not request[-1]):
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
        self._pending = _replies_owed(request)
        return True

    def replies(self) -> list[object]:
        """The replies to the request sent, in order; fewer than it
        owes when the worker failed."""
        out: list[object] = []
        while self._pending:
            assert self._conn is not None
            try:
                reply = self._conn.recv()
            except (EOFError, OSError) as error:
                reply = f"worker lost: {error!r}"
            if isinstance(reply, str):
                self._fail(reply)
                break
            out.append(reply)
            self._pending -= 1
        return out

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


class HeldTrees:
    """One process's cluster trees, by cluster id, each with its build
    input and its version right after the build. An additive tree
    (without ``rebuild_each_iteration``) has build input ``None`` and is
    never rebuilt.

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
        self.held: dict[
            int, tuple[BuildInput | None, ProbabilisticSuffixTree, int]
        ] = {}

    def put(
        self, key: int, tree: ProbabilisticSuffixTree, build_input: BuildInput | None
    ) -> None:
        """Hold *tree*, built from *build_input*, for cluster *key*."""
        self.held[key] = (build_input, tree, tree.version)

    def built_from(self, key: int) -> BuildInput | None:
        """The build input of the tree held for *key*, while no absorb
        has touched it; ``None`` when unknown."""
        entry = self.held.get(key)
        if entry is None or entry[1].version != entry[2]:
            return None
        return entry[0]

    def tree(
        self, key: int | None, build_input: BuildInput | None
    ) -> ProbabilisticSuffixTree:
        """The tree of *key* built from *build_input* (``None``: the one
        held, as it stands), built now unless it is held."""
        if key is not None:
            if key in self.held and (
                build_input is None or self.built_from(key) == build_input
            ):
                return self.held[key][1]
            self.held.pop(key, None)
        assert build_input is not None, f"no tree held for cluster {key}"
        tree = build_tree(build_input, self.encoded, self.pst_factory)
        if key is not None:
            self.put(key, tree, build_input)
        return tree

    def handle(self, request: Request) -> Iterator[object]:
        """The replies to one request, in order."""
        kind, *args = request
        if kind == "passes":
            order, log_t, specs = args
            seqs = [self.encoded[index] for index in cast("list[int]", order)]
            for spec in cast("list[TreeSpec]", specs):
                yield self._pass(spec, seqs, cast(float, log_t))
        elif kind == "sample":
            indices, keys = args
            yield self._sample(cast("list[int]", indices), cast("list[int]", keys))
        elif kind == "hold":
            yield self._hold(cast("list[TreeSpec]", args[0]))
        else:
            raise ValueError(f"unknown request {kind!r}")

    def _pass(
        self, spec: TreeSpec, seqs: list[Sequence[int]], log_t: float
    ) -> PassResult:
        # A call of its own, so that no frame of ``handle`` keeps this
        # pass's tree alive while the next one is built.
        tree = self.tree(*spec)
        return pass_totals(tree, seqs, self.log_bg, log_t, tree.add_sequence)

    def _sample(self, indices: list[int], keys: list[int]) -> SampleResult:
        seqs = [self.encoded[index] for index in indices]
        best = [-math.inf] * len(seqs)
        bounds: array[int] = array("i")
        cells = walks = 0
        for key in keys:
            logs, tree_bounds, tree_cells, tree_walks = pass_totals(
                self.held[key][1], seqs, self.log_bg
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
            if key is not None
            and build_input is not None
            and self.built_from(key) == build_input
        }
        reused = len(kept)
        # Every other tree dies here, before the first build.
        self.held = kept
        return [self.tree(*spec).node_count for spec in specs], reused


class FitTrees:
    """The fit's trees on both sides: the parent's holder *here*, and
    the build input of each tree the pass worker holds, in *away*, with
    its node count in *nodes*. Also the seed sample's
    :class:`~repro.core.seeding.ScoredElsewhere`: it scores the sample
    against the trees on both sides.
    """

    def __init__(
        self,
        worker: PassWorker,
        encoded: Sequence[Sequence[int]],
        pst_factory: PSTFactory,
        log_bg: list[float],
    ) -> None:
        self.worker = worker
        self.here = HeldTrees(encoded, pst_factory, log_bg)
        self.away: dict[int, BuildInput] = {}
        self.nodes: dict[int, int] = {}

    @property
    def references(self) -> int:
        """How many trees a seed sample is scored against."""
        return len(self.here.held) + len(self.away)

    def built_from(self, key: int) -> BuildInput | None:
        """The build input of cluster *key*'s tree, on either side, while
        no absorb has touched it; ``None`` when unknown."""
        return self.away.get(key) or self.here.built_from(key)

    def node_count(self, key: int) -> int:
        """The node count of cluster *key*'s tree, on either side."""
        if key in self.nodes:
            return self.nodes[key]
        return self.here.held[key][1].node_count

    def forget(self, cluster_ids: AbstractSet[int]) -> None:
        """Drop the trees of dismissed clusters."""
        for cluster_id in cluster_ids:
            self.here.held.pop(cluster_id, None)
            self.away.pop(cluster_id, None)

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

    def passes(
        self,
        order: list[int],
        log_t: float,
        here: list[TreeSpec],
        away: list[TreeSpec],
    ) -> list[PassResult]:
        """One pass over the examination *order* under ``log t`` per tree
        of *here*, then of *away*, whose passes the worker runs; their
        results in that order. Records each pass's DP totals."""
        results = cast(
            "list[PassResult]",
            self._ask(("passes", order, log_t, here), ("passes", order, log_t, away)),
        )
        for _, bounds, cells, walks in results:
            _count_pairs(cells, walks, bounds)
        return results

    def best(self, sampled: list[int]) -> list[float]:
        """Each of *sampled*'s best ``log SIM`` over every cluster tree,
        in sample order."""
        best = [-math.inf] * len(sampled)
        for logs, cells, walks, bounds in cast(
            "list[SampleResult]",
            self._ask(
                ("sample", sampled, list(self.here.held)),
                ("sample", sampled, list(self.away)),
            ),
        ):
            _count_pairs(cells, walks, bounds)
            best = [max(pair) for pair in zip(best, logs)]
        return best

    def rebuild(self, here: list[TreeSpec], away: list[TreeSpec]) -> int:
        """The §4.4 rebuild on both CPUs: from now on the parent holds
        the trees of *here* and the worker those of *away*, each kept
        while it is still the one built from its build input and built
        otherwise. Returns how many trees were kept."""
        replies = cast(
            "list[HoldResult]", self._ask(("hold", here), ("hold", away))
        )
        # The worker's reply comes last; a worker that declined or failed
        # holds nothing, its trees taken back.
        self.nodes = dict(zip(self.away, replies[-1][0])) if self.away else {}
        return sum(kept for _, kept in replies)

    def _ask(self, here: Request, away: Request) -> list[object]:
        """The replies to *here*, which the parent's holder answers, then
        to *away*, which the worker answers meanwhile. When the worker
        declines or fails, the parent takes its trees back and answers
        what the worker left unanswered: a declined request together
        with *here*, the passes after the last one answered, a sample
        in full. A hold needs no more: taking its trees back holds
        them."""
        if not self.worker.send(away):
            self._take_back()
            both = [*cast("list[object]", here[-1]), *cast("list[object]", away[-1])]
            return list(self.here.handle((*here[:-1], both)))
        if away[0] == "hold":
            self.away = dict(cast("list[tuple[int, BuildInput]]", away[-1]))
        replies = list(self.here.handle(here))
        answered = self.worker.replies()
        if len(answered) < _replies_owed(away):
            self._take_back()
            if away[0] != "hold":
                answered += self.here.handle(
                    (*away[:-1], cast("list[object]", away[-1])[len(answered):])
                )
        return replies + answered

    def _take_back(self) -> None:
        """Build in the parent every tree the worker holds."""
        for key, build_input in self.away.items():
            self.here.tree(key, build_input)
        self.away = {}
        self.nodes = {}


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
    trees = HeldTrees(encoded, pst_factory, log_bg)
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
