"""The fit's second CPU: one forked worker per fit runs cluster passes.

Under the §4.2 overlap rule a cluster's reclustering pass is a function
of its starting tree, ``log t`` and the examination order (see
``CLUSEQ._recluster_vectorized``). With ``rebuild_each_iteration`` the
starting tree is a function of the cluster's build input
(:func:`build_tree`), so another process that holds the encoded
database can rebuild the same tree and run the same pass. Its column is
bit-identical to the one the fit would score in-process: the DP reads
only the tree's counts, and its caches change no score.

:class:`PassWorker` is that process. It is forked on the fit's first
iteration with two or more live passes of known build input, inherits
the encoded database, the PST factory and ``log p(s)``, and then
receives per iteration the examination order once and, per offloaded
pass, the build input and ``log t``. For each pass it rebuilds the tree,
runs :func:`~repro.core.similarity.pass_totals` with absorbs and
returns ``(logs, bounds, cells, walks)``. It records no telemetry: the
fit records each offloaded pass's totals as its own.

Protocol: the parent sends one message per iteration, only while the
worker owes it nothing, and then reads every reply before it sends
again. So at most one side is ever blocked writing, and the other is
reading: a reply larger than the pipe buffer cannot deadlock.

The fit forks only where :func:`second_cpu` holds: Linux with the
``fork`` start method, two or more CPUs in the process's affinity mask,
a single-threaded caller (forking a threaded process can copy a lock
another thread holds) that is not itself a daemonic ``multiprocessing``
worker (which may not have children). Everywhere else, and after the
worker fails, the fit scores every pass in-process.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import traceback
from array import array
from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..obs import get_logger, set_registry
from ..typing import PSTFactory
from .pst import ProbabilisticSuffixTree
from .similarity import pass_totals

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

#: What a rebuilt cluster tree is a function of: the seed index and each
#: member's ``(sequence_index, best_start, best_end)``, in member order
#: (order matters once ``max_nodes`` pruning fires mid-build).
BuildInput = tuple[int, tuple[tuple[int, int, int], ...]]

#: One offloaded pass: its column ``(logs, bounds)`` as
#: :func:`~repro.core.similarity.score_pass` returns it, then its DP
#: cells and root walks.
PassResult = tuple["array[float]", "array[int]", int, int]

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

    :meth:`submit` hands it an iteration's offloaded passes,
    :meth:`results` reads their columns back, and :meth:`close` (which
    the fit calls on every exit path) stops it. After a failure, or
    where :func:`second_cpu` does not hold, :meth:`submit` returns
    ``False`` for the rest of the fit.
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
        #: Passes submitted whose reply has not been read.
        self._pending = 0
        #: Set once the fit scores in-process for good.
        self._off = False

    def submit(
        self, order: list[int], log_t: float, build_inputs: list[BuildInput]
    ) -> bool:
        """Send one iteration's offloaded passes: the examination
        *order*, ``log t`` and each pass's build input. Forks the worker
        on the first call. Returns ``False`` when the fit must score
        these passes itself."""
        if self._off:
            return False
        if self._conn is None and not (second_cpu() and self._start()):
            self._off = True
            return False
        assert self._conn is not None
        try:
            self._conn.send((order, log_t, build_inputs))
        except OSError as error:
            self._fail(f"send failed: {error!r}")
            return False
        self._pending = len(build_inputs)
        return True

    def results(self) -> list[PassResult | None]:
        """The submitted passes' results, in submission order; ``None``
        for each pass the worker did not return, which the fit then
        scores itself (its tree there is the pristine one)."""
        out: list[PassResult | None] = []
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
            "pass worker failed; the fit scores every pass in-process: %s", detail
        )
        self.close()


def _serve(
    conn: Connection,
    parent_end: Connection,
    encoded: Sequence[Sequence[int]],
    pst_factory: PSTFactory,
    log_bg: list[float],
) -> None:
    """The worker's loop: rebuild each offloaded tree, run its pass,
    reply. Exits when the parent closes its end; an exception is sent
    back as its traceback before the worker exits."""
    parent_end.close()
    # Ctrl-C reaches the whole process group; the parent handles it
    # and stops the worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    set_registry(None)
    try:
        while True:
            order, log_t, build_inputs = conn.recv()
            seqs = [encoded[index] for index in order]
            for build_input in build_inputs:
                tree = build_tree(build_input, encoded, pst_factory)
                conn.send(pass_totals(tree, seqs, log_bg, log_t, tree.add_sequence))
    except (EOFError, OSError):
        return
    except Exception:
        try:
            conn.send(traceback.format_exc())
        except OSError:
            pass
