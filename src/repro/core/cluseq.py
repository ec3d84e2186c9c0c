"""The CLUSEQ clustering algorithm (paper §4).

One :class:`CLUSEQ` run iterates four phases until the clustering is
stable:

1. **New cluster generation** (§4.1) — seed ``k_n`` fresh single-
   sequence clusters from the unclustered pool (``k_n = k`` on the
   first iteration, then ``k' · f`` with growth factor
   ``f = max(k'_n − k'_c, 0) / k'_n``; see DESIGN.md for why the
   denominator is ``k'_n``).
2. **Sequence reclustering** (§4.2–§4.4) — score every sequence against
   every cluster with the similarity DP; a sequence joins each cluster
   whose similarity reaches the threshold ``t`` (clusters may overlap),
   and each newly-joined cluster absorbs the sequence's best-scoring
   segment into its PST. A cluster whose starting model, ``t`` and
   examination order repeat a recent pass replays that pass's scores
   instead of rescoring. On a host with a second CPU every second live
   pass runs in a worker process (:mod:`~repro.core.fit_worker`), on a
   tree the worker built, with the same result.
3. **Cluster consolidation** (§4.5) — dismiss clusters covered by
   larger ones.
4. **Threshold adjustment** (§4.6, optional) — move ``t`` halfway
   towards the valley ``t̂`` of the similarity histogram.

The run terminates when an iteration changes neither the number of
clusters nor any sequence's membership (or at ``max_iterations``).

Thresholds are handled in log scale throughout: similarities span
hundreds of orders of magnitude, so the paper's arithmetic blend
``t ← (t + t̂)/2`` is applied to ``log t`` (a geometric mean in linear
scale) and the 1 % convergence test becomes ``|log t − log t̂| < 0.01``,
i.e. the thresholds agree within 1 % as a ratio.
"""

from __future__ import annotations

import gc
import math
import time
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from collections.abc import Callable, Sequence
from collections.abc import Set as AbstractSet
from typing import Any

import numpy as np
import numpy.typing as npt

from ..obs import (
    MetricsRegistry,
    get_logger,
    get_registry,
    peak_rss_bytes,
    span,
    use_registry,
)
from ..sequences.database import SequenceDatabase
from ..typing import PSTFactory
from .cluster import Cluster
from .examine import best_cluster, join_all, join_best
from .fit_worker import Built as _Built
from .fit_worker import (
    BuildInput,
    FitTrees,
    PassWorker,
    WorkerReferences,
    build_input_of,
    build_tree,
)
from .consolidation import consolidate, drop_dismissed
from .pruning import STRATEGIES
from .pst import ProbabilisticSuffixTree
from .seeding import build_seed_pst, select_seeds
from .similarity import (
    SimilarityResult,
    _count_pairs,
    _log_background,
    check_sequence,
    score_pass,
    score_row,
    similarities,
)
from .smoothing import default_p_min
from .threshold import (
    VALLEY_METHODS,
    blend_log_threshold,
    find_valley,
    linear_threshold,
)

#: Valid sequence-examination orders for the reclustering phase (§6.3).
ORDERINGS = ("fixed", "random", "cluster")

_logger = get_logger("core.cluseq")


@dataclass
class CluseqParams:
    """Tunable parameters of a CLUSEQ run.

    The three inputs of the paper's algorithm are *k* (initial cluster
    count), *significance_threshold* (``c``) and *similarity_threshold*
    (initial ``t``); the rest are engineering knobs the paper fixes in
    prose (sample multiplier, PST memory budget, smoothing, ordering).
    """

    k: int = 1
    significance_threshold: int = 30
    similarity_threshold: float = 1.2
    max_depth: int = 6
    sample_multiplier: int = 5
    adjust_threshold: bool = True
    calibrate_threshold: bool = True
    max_iterations: int = 25
    max_nodes: int | None = None
    prune_strategy: str = "paper"
    p_min: float | None = None
    ordering: str = "fixed"
    min_unique_members: int | None = None
    dissolve_covered: bool = True
    rebuild_each_iteration: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.significance_threshold < 1:
            raise ValueError("significance_threshold must be at least 1")
        if self.similarity_threshold <= 0:
            raise ValueError("similarity_threshold must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.sample_multiplier < 1:
            raise ValueError("sample_multiplier must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError("max_nodes must be at least 1 when set")
        if self.prune_strategy not in STRATEGIES:
            raise ValueError(f"prune_strategy must be one of {STRATEGIES}")
        if self.ordering not in ORDERINGS:
            raise ValueError(f"ordering must be one of {ORDERINGS}")

    def resolved_min_unique(self) -> int:
        """The consolidation threshold (defaults to ``c``, per the paper)."""
        if self.min_unique_members is not None:
            return self.min_unique_members
        return self.significance_threshold

    def pst_factory(self, alphabet_size: int) -> PSTFactory:
        """The §4.1 seed-model factory: one sequence in, a fresh PST
        with this run's tree parameters out. ``p_min`` falls back to
        :func:`~repro.core.smoothing.default_p_min`."""
        return partial(
            build_seed_pst,
            alphabet_size=alphabet_size,
            max_depth=self.max_depth,
            significance_threshold=self.significance_threshold,
            p_min=(
                self.p_min
                if self.p_min is not None
                else default_p_min(alphabet_size)
            ),
            max_nodes=self.max_nodes,
            prune_strategy=self.prune_strategy,
        )


@dataclass(frozen=True)
class IterationStats:
    """What one CLUSEQ iteration did, for history/diagnostics."""

    iteration: int
    new_clusters: int
    clusters_before_consolidation: int
    clusters_removed: int
    clusters_after: int
    unclustered: int
    membership_changes: int
    threshold: float
    log_threshold: float
    valley: float | None
    elapsed_seconds: float
    #: Symbols examined during this iteration's reclustering phase —
    #: the deterministic counterpart of wall time, ∝ N · k' · l̄ (the
    #: paper's §4.7 per-iteration cost model). A replayed cluster pass
    #: counts in full although it runs no DP; the cells actually scored
    #: are the ``similarity.dp_cells`` counter.
    reclustering_work: int = 0
    #: Whether this iteration triggered the paper's stability exit
    #: (same clustering as the previous iteration, threshold settled).
    #: ``True`` only ever on the final history entry.
    stable: bool = False


@dataclass(frozen=True)
class IterationSnapshot:
    """Per-iteration engine state handed to observer hooks.

    Hooks receive one snapshot after each completed iteration —
    including the terminating one — so external observers (progress
    bars, live dashboards, convergence monitors) can watch cluster
    counts, threshold trajectory and PST growth without re-deriving
    them from internals.
    """

    stats: IterationStats
    #: Current members per live cluster id.
    cluster_sizes: dict[int, int]
    #: Current PST node count per live cluster id.
    pst_node_counts: dict[int, int]
    log_threshold: float


#: The assignment of a sequence that joined no cluster, shared by all.
_UNASSIGNED: frozenset[int] = frozenset()

#: Signature of a per-iteration observer hook.
IterationHook = Callable[[IterationSnapshot], None]


@dataclass
class ClusteringResult:
    """Outcome of one CLUSEQ run.

    ``assignments`` maps each sequence index to the ids of every
    cluster it belongs to (CLUSEQ clusters can overlap); ``labels()``
    flattens that to one primary cluster per sequence for evaluation.
    """

    clusters: list[Cluster]
    assignments: dict[int, AbstractSet[int]]
    params: CluseqParams
    background: npt.NDArray[np.float64]
    final_log_threshold: float
    history: list[IterationStats] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: ``True`` when the run exited through the paper's stability rule,
    #: ``False`` when it was cut off at ``max_iterations``. Either way
    #: the final iteration's stats are the last ``history`` entry.
    converged: bool = False
    #: The index the next :meth:`allocate_index` call takes; ``None``
    #: until its first call scans for it.
    _next_index: int | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``log p(s)`` per symbol id; ``None`` until the first
    #: :meth:`log_background` call builds it.
    _log_bg: list[float] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The shared assignment value per cluster id that
    #: :meth:`record_join` hands out.
    _sole: dict[int, frozenset[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def final_threshold(self) -> float:
        """Final ``t`` in linear scale (``inf`` if beyond float range)."""
        return linear_threshold(self.final_log_threshold)

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @property
    def total_reclustering_work(self) -> int:
        """Total symbols examined across all reclustering phases.

        A deterministic, machine-independent cost measurement
        (∝ M · N · k' · l̄, the paper's §4.7 total); the scalability
        benchmarks assert on this rather than contention-prone wall
        time. Replayed cluster passes count as if rescored, so the
        model does not depend on replay; ``similarity.dp_cells`` is the
        work actually done.
        """
        return sum(stats.reclustering_work for stats in self.history)

    @property
    def iterations(self) -> int:
        return len(self.history)

    def cluster_by_id(self, cluster_id: int) -> Cluster:
        for cluster in self.clusters:
            if cluster.cluster_id == cluster_id:
                return cluster
        raise KeyError(f"no cluster with id {cluster_id}")

    def labels(self) -> list[int | None]:
        """Primary cluster id per sequence (``None`` for outliers).

        The primary cluster of a sequence is the member cluster with
        the highest recorded log-similarity.
        """
        size = max(self.assignments.keys(), default=-1) + 1
        out: list[int | None] = [None] * size
        for index, cluster_ids in self.assignments.items():
            best_id: int | None = None
            best_log = -math.inf
            for cid in cluster_ids:
                membership = self.cluster_by_id(cid).membership_of(index)
                if membership is not None and membership.log_similarity > best_log:
                    best_log = membership.log_similarity
                    best_id = cid
            out[index] = best_id
        return out

    def outliers(self) -> list[int]:
        """Indices of sequences assigned to no cluster."""
        return [index for index, ids in sorted(self.assignments.items()) if not ids]

    def score_sequence(self, encoded: Sequence[int]) -> dict[int, SimilarityResult]:
        """Score a (possibly unseen) encoded sequence against every cluster."""
        scores = similarities(
            [cluster.pst for cluster in self.clusters], encoded, self.background
        )
        return {
            cluster.cluster_id: result
            for cluster, result in zip(self.clusters, scores)
        }

    def log_background(self) -> list[float]:
        """``log p(s)`` per symbol id of :attr:`background`, the vector
        every incremental :func:`~repro.core.similarity.score_row` call
        takes.

        Built and checked against every cluster tree on the first call,
        then cached; ``background`` is fixed once the result exists.
        """
        if self._log_bg is None:
            self._log_bg = _log_background(
                [cluster.pst for cluster in self.clusters], (), self.background
            )
        return self._log_bg

    def predict(self, encoded: Sequence[int]) -> int | None:
        """Best cluster for an encoded sequence, or ``None`` (outlier).

        Uses the run's final similarity threshold.
        """
        check_sequence(encoded, len(self.background))
        logs, _ = score_row(
            [cluster.pst for cluster in self.clusters],
            encoded,
            self.log_background(),
        )
        position = best_cluster(logs, self.final_log_threshold)
        return None if position is None else self.clusters[position].cluster_id

    def next_sequence_index(self) -> int:
        """Smallest index that collides with no recorded sequence.

        Scans the assignment map *and* every cluster's membership (plus
        seed indices): a model loaded from disk may carry members that
        are absent from a trimmed assignment map, and appending at
        ``max(assignments) + 1`` alone would silently overwrite one of
        their membership records.
        """
        top = max(self.assignments.keys(), default=-1)
        for cluster in self.clusters:
            top = max(top, cluster.seed_index, max(cluster.members, default=-1))
        return top + 1

    def allocate_index(self) -> int:
        """Take the index the next recorded sequence gets.

        The first call scans with :meth:`next_sequence_index` (correct
        after a persistence round-trip), and later calls count up from
        there. A call scans again only when the counted index is
        already recorded — in the assignment map or as any cluster's
        member or seed — so an index is never handed out twice, even
        when sequences were recorded without this allocator.
        """
        index = self._next_index
        if index is None or index in self.assignments or any(
            index == cluster.seed_index or cluster.contains(index)
            for cluster in self.clusters
        ):
            index = self.next_sequence_index()
        self._next_index = index + 1
        return index

    def record_join(self, index: int, cluster_id: int | None) -> None:
        """Record that sequence *index* joined cluster *cluster_id*
        alone (``None``: no cluster) — the assignment every incremental
        join makes.

        Every sequence that joined one cluster gets the same
        ``frozenset``, and every unclustered one the same empty set, so
        a join allocates no set. Nothing changes an assignment value in
        place: :func:`~repro.core.consolidation.drop_dismissed` builds
        new ones.
        """
        if cluster_id is None:
            self.assignments[index] = _UNASSIGNED
            return
        ids = self._sole.get(cluster_id)
        if ids is None:
            ids = self._sole[cluster_id] = frozenset((cluster_id,))
        self.assignments[index] = ids

    def assign_and_absorb(self, encoded: Sequence[int]) -> int | None:
        """Incrementally add one new sequence to the fitted clustering.

        The streaming counterpart of ``fit``: the sequence is scored
        against every cluster; if its best similarity clears the final
        threshold it joins that cluster, the cluster's PST absorbs its
        best-scoring segment (§4.4) and the assignment map grows by one
        entry. Returns the cluster id, or ``None`` when the sequence is
        an outlier (which is also recorded).

        The index comes from :meth:`allocate_index`, the one allocator
        this call and a ``StreamingCluseq`` over this result share. A
        sequence the input check rejects takes no index.

        This performs no re-iteration — existing memberships are left
        untouched — so it suits append-only deployment; rerun ``fit``
        periodically if the data distribution drifts.
        """
        check_sequence(encoded, len(self.background))
        logs, bounds = score_row(
            [cluster.pst for cluster in self.clusters],
            encoded,
            self.log_background(),
        )
        index = self.allocate_index()
        cluster = join_best(
            index, encoded, self.clusters, logs, bounds, self.final_log_threshold
        )
        cluster_id = None if cluster is None else cluster.cluster_id
        self.record_join(index, cluster_id)
        return cluster_id

    def summary(self) -> str:
        """A short human-readable report of the run.

        The iteration count, the final iteration's timing and the
        membership-change trail all come from ``history``, which both
        exit paths (stability and ``max_iterations``) populate for
        every executed iteration, the terminating one included.
        """
        sizes = sorted((c.size for c in self.clusters), reverse=True)
        exit_reason = "converged" if self.converged else "hit max_iterations"
        last = self.history[-1] if self.history else None
        last_part = (
            f"; last iter {last.elapsed_seconds:.2f}s, "
            f"{last.membership_changes} membership changes"
            if last is not None
            else ""
        )
        return (
            f"CLUSEQ: {self.num_clusters} clusters after {self.iterations} "
            f"iterations ({self.elapsed_seconds:.2f}s, {exit_reason}); "
            f"final t={self.final_threshold:.4g}; "
            f"{len(self.outliers())} outliers; sizes={sizes}{last_part}"
        )


#: Iterations a recorded pass survives without being recorded again or
#: replayed. A pass record holds one ``log SIM`` and one
#: ``best_start``/``best_end`` pair per examined sequence (16 bytes),
#: and each iteration records at most one pass per cluster,
#: so the fit holds at most ``REPLAY_WINDOW · k' · N`` entries. On
#: ``fit-outliers`` 131 of the 135 repeats an unbounded memo finds lie
#: within 6 iterations (lag histogram in docs/PERFORMANCE.md).
REPLAY_WINDOW = 6


@dataclass
class _Pass:
    """One cluster's reclustering pass: the ``log t`` and examination
    order it ran under, its column (:func:`~repro.core.similarity.score_pass`)
    and the last iteration that recorded or replayed it."""

    log_t: float
    order: list[int]
    logs: array[float]  # log SIM; one per position
    bounds: array[int]  # best_start, best_end; two per position
    used: int

    def repeats(self, log_t: float, order: list[int]) -> bool:
        """Whether a pass under ``log t`` and *order* from the same
        starting model would repeat this one exactly."""
        return self.log_t == log_t and self.order == order


def _built_from(
    built: _Built | None, pst: ProbabilisticSuffixTree
) -> BuildInput | None:
    """The build input of *pst*, when it is the tree *built* records and
    no absorb has changed it since; ``None`` when unknown."""
    if built is None or built.pst is not pst or pst.version != built.version:
        return None
    return built.build_input


def _replayable(
    passes: dict[BuildInput, _Pass],
    build_input: BuildInput | None,
    log_t: float,
    order: list[int],
) -> _Pass | None:
    """The recorded pass a cluster starting from *build_input* would
    repeat exactly: the one recorded under the same starting model, with
    the same ``log t`` and the same examination order; ``None`` when
    there is none."""
    if build_input is None:
        return None
    previous = passes.get(build_input)
    if previous is None or not previous.repeats(log_t, order):
        return None
    return previous


class CLUSEQ:
    """The CLUSEQ clustering engine.

    Parameters
    ----------
    params:
        The run parameters (or pass them as keyword overrides).
    hooks:
        Optional per-iteration observer callbacks; each receives an
        :class:`IterationSnapshot` after every completed iteration.
        Use :meth:`add_hook` to register more later.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry` activated for the
        duration of :meth:`fit`; when omitted the process-wide active
        registry is used (the no-op one unless the application enabled
        collection).

    Example
    -------
    >>> from repro import CLUSEQ, CluseqParams, generate_two_cluster_toy
    >>> db = generate_two_cluster_toy()
    >>> params = CluseqParams(k=2, significance_threshold=2,
    ...                       min_unique_members=3, seed=1)
    >>> result = CLUSEQ(params).fit(db)
    >>> result.num_clusters >= 1
    True
    """

    def __init__(
        self,
        params: CluseqParams | None = None,
        hooks: Sequence[IterationHook] | None = None,
        registry: MetricsRegistry | None = None,
        **overrides: Any,
    ) -> None:
        if params is None:
            params = CluseqParams(**overrides)
        elif overrides:
            raise TypeError("pass either params or keyword overrides, not both")
        self.params = params
        self.hooks: list[IterationHook] = list(hooks or [])
        self.registry: MetricsRegistry | None = registry

    def add_hook(self, hook: IterationHook) -> "CLUSEQ":
        """Register a per-iteration observer; returns ``self`` for chaining."""
        self.hooks.append(hook)
        return self

    # -- public API -------------------------------------------------------------

    def fit(self, db: SequenceDatabase) -> ClusteringResult:
        """Cluster every sequence of *db* and return the result.

        The fit runs with Python's cyclic garbage collector paused and
        restores the caller's setting when it returns or raises. Every
        §4 rebuild discards whole trees, and a PST is acyclic by design:
        no node refers to anything outside its trie, and the transition
        table lives on the tree (see :class:`ProbabilisticSuffixTree`),
        so reference counting frees a discarded tree at once, and the
        collector's passes over the growing heap would find nothing to
        reclaim. A reference cycle that hook code creates is collected
        only after the fit returns.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            if self.registry is not None:
                with use_registry(self.registry):
                    with span("cluseq"):
                        return self._fit(db)
            with span("cluseq"):
                return self._fit(db)
        finally:
            if enabled:
                gc.enable()

    def _fit(self, db: SequenceDatabase) -> ClusteringResult:
        if len(db) == 0:
            raise ValueError("cannot cluster an empty database")
        params = self.params
        rng = np.random.default_rng(params.seed)
        background = db.background_probabilities()
        encoded = [db.encoded(i) for i in range(len(db))]
        # The scoring input check, once for the whole fit.
        log_bg = _log_background([], encoded, background)
        pst_factory = params.pst_factory(db.alphabet.size)

        clusters: list[Cluster] = []
        assignments: dict[int, AbstractSet[int]] = {i: set() for i in range(len(db))}
        # Consecutive iterations each sequence has spent unclustered.
        # Sequences with long streaks behave like outliers: greedy
        # min-max selection would keep choosing them as seeds (they are
        # maximally dissimilar from everything) and waste the iteration.
        unclustered_streak: dict[int, int] = {i: 0 for i in range(len(db))}
        history: list[IterationStats] = []
        log_t = math.log(params.similarity_threshold)
        log_t_floor = 0.0
        threshold_converged = not params.adjust_threshold
        next_cluster_id = 0
        k_n = params.k
        prev_snapshot: (
            tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] | None
        ) = None
        # Replay state (``rebuild_each_iteration`` only): the recent
        # passes, by the build input they started from.
        passes: dict[BuildInput, _Pass] = {}
        run_start = time.perf_counter()
        # Closed on every exit path: a return, a hook's exception, Ctrl-C.
        worker = PassWorker(encoded, pst_factory, log_bg)
        if not params.rebuild_each_iteration:
            # An additive tree has no build input to hand over.
            worker.close()
        trees = FitTrees(worker, encoded, pst_factory, log_bg)
        try:
            for iteration in range(params.max_iterations):
                iter_start = time.perf_counter()

                # -- phase 1: new cluster generation ---------------------------------
                with span("seed"):
                    unclustered = [i for i, ids in assignments.items() if not ids]
                    # While the similarity threshold is still being adjusted,
                    # keep seeds flowing from the unclustered pool: sequences
                    # ejected by a rising t must be able to found new clusters,
                    # otherwise an early over-merge is irreversible. The floor
                    # scales with the pool because greedy min-max selection
                    # favours outliers (they are maximally dissimilar), so with
                    # a large pool a single seed per iteration is usually
                    # wasted on noise.
                    requested = k_n
                    if requested == 0 and unclustered and not threshold_converged:
                        requested = max(1, len(unclustered) // 20)
                    # Prefer recently-ejected sequences as seed candidates; a
                    # sequence unclustered for many consecutive iterations is
                    # most likely a genuine outlier, not an undiscovered
                    # cluster. Fall back to the full pool when the filter would
                    # empty it (e.g. the first iterations).
                    fresh = [i for i in unclustered if unclustered_streak[i] <= 3]
                    candidates = fresh if fresh else unclustered
                    seeds = select_seeds(
                        candidates=candidates,
                        encoded_lookup=lambda i: encoded[i],
                        existing_clusters=[
                            c for c in clusters if c.cluster_id not in trees.away
                        ],
                        background=background,
                        count=min(requested, len(unclustered)),
                        sample_multiplier=params.sample_multiplier,
                        rng=rng,
                        pst_factory=pst_factory,
                        elsewhere=(
                            WorkerReferences(trees, clusters) if trees.away else None
                        ),
                    )
                    for choice in seeds:
                        clusters.append(
                            Cluster(
                                cluster_id=next_cluster_id,
                                pst=choice.pst,
                                seed_index=choice.sequence_index,
                                created_at_iteration=iteration,
                            )
                        )
                        # A seed's tree is the rebuild of a memberless
                        # cluster. Additive models keep their absorbs, so a
                        # replayed seed pass would lose them for good.
                        if params.rebuild_each_iteration:
                            trees.built[next_cluster_id] = _Built(
                                (choice.sequence_index, ()), choice.pst, choice.pst.version
                            )
                        next_cluster_id += 1
                    n_new = len(seeds)
                    # The seed trees now belong to their clusters alone: a
                    # dismissal or the rebuild's replacement frees each one.
                    if seeds:
                        del choice
                    del seeds

                # -- iteration-0 threshold calibration ---------------------------------
                # Committing memberships with a grossly under-set initial t
                # merges everything into one irreversible mixture cluster
                # before the paper's end-of-iteration adjustment can react.
                # A dry scoring pass against the fresh seed models lets the
                # valley heuristic pick the starting t; Table 6 shows the
                # final t should not depend on the initial one anyway.
                if (
                    iteration == 0
                    and params.adjust_threshold
                    and params.calibrate_threshold
                    and clusters
                ):
                    with span("calibrate"):
                        calibrated = self._calibrate_initial_threshold(
                            db, clusters, encoded, log_bg, pst_factory, rng, worker
                        )
                    if calibrated is not None:
                        log_t = calibrated
                        # Permanent floor: separation between a cluster and
                        # foreign sequences only improves as models mature,
                        # so any later valley estimate *below* the one seen
                        # against the pristine single-seed models is an
                        # artefact (half-grown patchwork models compress
                        # the similarity scale). Following it down is the
                        # irreversible everything-merges failure mode.
                        log_t_floor = log_t

                # -- phase 2: sequence reclustering ------------------------------------
                with span("recluster"):
                    order = self._examination_order(len(db), clusters, assignments, rng)
                    all_log_sims: list[float] = []
                    membership_changes, reclustering_work, replayed = (
                        self._recluster_vectorized(
                            order,
                            encoded,
                            clusters,
                            assignments,
                            unclustered_streak,
                            log_bg,
                            log_t,
                            all_log_sims,
                            trees,
                            passes,
                            iteration,
                        )
                    )

                # -- phase 3: consolidation ----------------------------------------------
                with span("consolidate"):
                    before = len(clusters)
                    clusters, removed = consolidate(
                        clusters,
                        params.resolved_min_unique(),
                        dissolve_covered=params.dissolve_covered,
                    )
                    dismissed = {cluster.cluster_id for cluster in removed}
                    n_removed = len(removed)
                    # Nothing reads a dismissed cluster again: its tree
                    # dies here, before the rebuild makes the next ones.
                    del removed
                    drop_dismissed(assignments, dismissed)
                    trees.forget(dismissed)

                # -- phase 4: threshold adjustment ------------------------------------------
                # It reads only the reclustering's scores, so the next
                # ``log t`` is settled before the rebuild, which places
                # each cluster's next pass.
                valley_linear: float | None = None
                threshold_moved = False
                if params.adjust_threshold and not threshold_converged:
                    with span("adjust_threshold"):
                        valley = find_valley(all_log_sims)
                    if valley is not None:
                        valley_linear = valley.threshold
                        if abs(log_t - valley.log_threshold) < 0.01:
                            threshold_converged = True
                        else:
                            # The calibration floor guards against artefact
                            # valleys from immature models (see the
                            # calibration comment above).
                            new_log_t = blend_log_threshold(
                                log_t, valley.log_threshold, log_t_floor
                            )
                            threshold_moved = abs(new_log_t - log_t) > 1e-12
                            log_t = new_log_t

                # -- growth factor & termination ---------------------------------------------
                if n_new > 0:
                    growth = max(n_new - n_removed, 0) / n_new
                else:
                    growth = 0.0
                k_n = int(round(len(clusters) * growth))

                # The paper terminates when "the clustering produced by the
                # current iteration remains the same as that of the previous
                # iteration" — compared *after* consolidation, so a seed
                # cluster that was immediately dismissed does not count as a
                # change. While t is still converging the run continues even
                # if memberships momentarily repeat.
                snapshot = (
                    tuple(sorted(cluster.cluster_id for cluster in clusters)),
                    tuple(
                        tuple(sorted(assignments[i])) for i in range(len(db))
                    ),
                )
                stable = (
                    prev_snapshot is not None
                    and snapshot == prev_snapshot
                    and not threshold_moved
                )
                prev_snapshot = snapshot

                kept = 0
                away_nodes: dict[int, int] = {}
                if params.rebuild_each_iteration:
                    with span("rebuild"):
                        share = (
                            []
                            if stable or iteration == params.max_iterations - 1
                            else trees.share(
                                clusters,
                                passes,
                                log_t,
                                # The ``random`` order is not drawn yet.
                                None
                                if params.ordering == "random"
                                else self._examination_order(
                                    len(db), clusters, assignments, rng
                                ),
                            )
                        )
                        kept, away_nodes = trees.rebuild(
                            clusters,
                            share,
                            lambda group: self._rebuild_cluster_models(
                                group, encoded, pst_factory, trees.built
                            ),
                        )

                # History is appended *after* the termination logic so the
                # final iteration — on either exit path (stability here,
                # max_iterations via loop exhaustion) — records its full
                # elapsed time, its membership-change count and whether it
                # was the stable one.
                stats = IterationStats(
                    iteration=iteration,
                    new_clusters=n_new,
                    clusters_before_consolidation=before,
                    clusters_removed=n_removed,
                    clusters_after=len(clusters),
                    unclustered=sum(1 for ids in assignments.values() if not ids),
                    membership_changes=membership_changes,
                    threshold=linear_threshold(log_t),
                    log_threshold=log_t,
                    valley=valley_linear,
                    elapsed_seconds=time.perf_counter() - iter_start,
                    reclustering_work=reclustering_work,
                    stable=stable,
                )
                history.append(stats)
                self._observe_iteration(
                    stats, clusters, log_t, replayed, kept, away_nodes
                )
                if stable:
                    break
        finally:
            worker.close()

        converged = bool(history) and history[-1].stable
        registry = get_registry()
        if registry.enabled:
            registry.gauge("cluseq.iterations").set(len(history))
            registry.gauge("cluseq.final_clusters").set(len(clusters))
            registry.gauge("cluseq.converged").set(1.0 if converged else 0.0)
            total_nodes = 0
            for cluster in clusters:
                tree_stats = cluster.pst.stats()
                total_nodes += tree_stats.node_count
                registry.histogram(
                    "pst.final_depth", buckets=tuple(range(1, 17))
                ).observe(tree_stats.max_depth)
                registry.histogram("pst.final_nodes").observe(
                    tree_stats.node_count
                )
            registry.gauge("cluseq.final_pst_nodes").set(total_nodes)
        _logger.info(
            "run finished",
            extra={
                "iterations": len(history),
                "clusters": len(clusters),
                "converged": converged,
                "log_threshold": log_t,
            },
        )
        return ClusteringResult(
            clusters=clusters,
            assignments=assignments,
            params=params,
            background=background,
            final_log_threshold=log_t,
            history=history,
            elapsed_seconds=time.perf_counter() - run_start,
            converged=converged,
        )

    # -- internals ------------------------------------------------------------------

    def _observe_iteration(
        self,
        stats: IterationStats,
        clusters: list[Cluster],
        log_t: float,
        replayed_passes: int,
        models_kept: int,
        away_nodes: dict[int, int],
    ) -> None:
        """Per-iteration telemetry: counters, one log line, hooks.

        The ``iteration`` INFO event carries the §4 trajectory (cluster
        and unclustered counts, membership changes, ``log t``) and §6's
        time and space (the PST node total and the peak RSS), one event
        per ``history`` entry. *replayed_passes* and *models_kept* are
        the iteration's replayed cluster passes and rebuilds that kept
        their tree, and *away_nodes* the node count of each tree the
        pass worker holds.
        """
        registry = get_registry()
        want_snapshot = bool(self.hooks)
        want_log = _logger.isEnabledFor(20)  # logging.INFO
        if want_log or want_snapshot:
            pst_nodes = {
                cluster.cluster_id: (
                    away_nodes[cluster.cluster_id]
                    if cluster.cluster_id in away_nodes
                    else cluster.pst.node_count
                )
                for cluster in clusters
            }
        if registry.enabled:
            registry.counter("cluseq.reclustering_work").inc(
                stats.reclustering_work
            )
            registry.counter("cluseq.replayed_passes").inc(replayed_passes)
            registry.counter("cluseq.models_kept").inc(models_kept)
        if want_log:
            _logger.info(
                "iteration %d: %d clusters, %d unclustered",
                stats.iteration,
                stats.clusters_after,
                stats.unclustered,
                extra={
                    "iteration": stats.iteration,
                    "clusters": stats.clusters_after,
                    "unclustered": stats.unclustered,
                    "membership_changes": stats.membership_changes,
                    "log_threshold": stats.log_threshold,
                    "pst_nodes": sum(pst_nodes.values()),
                    "peak_rss_bytes": peak_rss_bytes(),
                    "elapsed_seconds": round(stats.elapsed_seconds, 6),
                },
            )
        if want_snapshot:
            snapshot = IterationSnapshot(
                stats=stats,
                cluster_sizes={
                    cluster.cluster_id: cluster.size for cluster in clusters
                },
                pst_node_counts=pst_nodes,
                log_threshold=log_t,
            )
            for hook in self.hooks:
                hook(snapshot)

    def _recluster_vectorized(
        self,
        order: list[int],
        encoded: list[list[int]],
        clusters: list[Cluster],
        assignments: dict[int, AbstractSet[int]],
        unclustered_streak: dict[int, int],
        log_bg: list[float],
        log_t: float,
        all_log_sims: list[float],
        trees: FitTrees,
        passes: dict[BuildInput, _Pass],
        iteration: int,
    ) -> tuple[int, int, int]:
        """Phase 2: examine every sequence in *order* (§4.2–§4.4).

        Under the overlap rule a cluster's join depends only on its own
        score, and a join absorbs only into that cluster, so a cluster's
        whole pass is a function of its starting tree, ``log t`` and
        *order*: it runs as one column
        (:func:`~repro.core.similarity.score_pass`, absorbing as it
        goes). A rebuilt or freshly seeded tree is a function of its build
        input (*trees*), so *passes* memoizes each pass under the build
        input it started from. A cluster whose build input has a record
        with the same ``log t`` and *order* — its own previous pass, an
        earlier one it returns to, or the pass of an earlier cluster
        seeded from the same sequence — replays it: its column is the
        recorded one, with no DP scan and no absorb. This iteration's
        passes are recorded once every cluster has run; a record
        neither recorded nor replayed in the last :data:`REPLAY_WINDOW`
        iterations is dropped. One sequence-major merge
        (:func:`~repro.core.examine.join_all`) then records the
        memberships. Returns ``(membership changes, symbols scored,
        passes replayed)``; replayed symbols count as scored (§4.7).

        Every second live pass of known build input (so only with
        ``rebuild_each_iteration``) runs in the pass worker
        (:mod:`~repro.core.fit_worker`): the passes of the clusters whose
        trees it holds (the previous rebuild made the same split,
        :meth:`FitTrees.share`), and the new seeds that continue the
        alternation, whose trees it builds. A worker-run seed's tree here
        is left untouched, so the rebuild keeps it when its build input
        comes out unchanged. Each worker pass's totals and absorb count
        are recorded here. A pass the worker does not return is scored
        here, on a tree built from its build input when the parent holds
        none.
        """
        seqs = [encoded[index] for index in order]
        records: list[_Pass | None] = []
        known: dict[int, BuildInput] = {}  # build input by cluster position
        for position, cluster in enumerate(clusters):
            start = trees.away.get(cluster.cluster_id) or _built_from(
                trees.built.get(cluster.cluster_id), cluster.pst
            )
            records.append(_replayable(passes, start, log_t, order))
            if start is not None:
                known[position] = start
        live = [position for position, record in enumerate(records) if record is None]
        alternate = set([position for position in live if position in known][1::2])
        away = [
            position
            for position in live
            if clusters[position].cluster_id in trees.away
            or (
                position in alternate
                and clusters[position].created_at_iteration == iteration
            )
        ]
        if away and not trees.worker.passes(
            order, log_t, [(clusters[at].cluster_id, known[at]) for at in away]
        ):
            away = []

        def score_here(position: int) -> _Pass:
            cluster = clusters[position]
            if cluster.cluster_id in trees.away:
                trees.adopt(cluster)
            logs, bounds = score_pass(
                cluster.pst, seqs, log_bg, log_t, cluster.absorb_segment
            )
            return _Pass(log_t, order, logs, bounds, iteration)

        fresh = {
            position: score_here(position) for position in live if position not in away
        }
        for position, result in zip(away, trees.worker.pass_results()):
            if result is None:
                fresh[position] = score_here(position)
                continue
            logs, bounds, cells, walks = result
            _count_pairs(cells, walks, bounds)
            clusters[position].count_absorbed(sum(1 for x in logs if x >= log_t))
            fresh[position] = _Pass(log_t, order, logs, bounds, iteration)
        columns: list[_Pass] = []
        for position, record in enumerate(records):
            if record is None:
                record = fresh[position]
            else:
                record.used = iteration
            columns.append(record)
        for position in live:
            if position in known:
                passes[known[position]] = fresh[position]
        for stale in [
            key
            for key, record in passes.items()
            if record.used <= iteration - REPLAY_WINDOW
        ]:
            del passes[stale]

        logs_by_cluster = [column.logs for column in columns]
        bounds_by_cluster = [column.bounds for column in columns]
        all_log_sims.extend(chain.from_iterable(zip(*logs_by_cluster)))
        membership_changes = 0
        for position, index in enumerate(order):
            joined = join_all(
                index, position, clusters, logs_by_cluster, bounds_by_cluster, log_t
            )
            if joined != assignments[index]:
                membership_changes += 1
            assignments[index] = joined
            unclustered_streak[index] = 0 if joined else unclustered_streak[index] + 1
        return (
            membership_changes,
            sum(map(len, seqs)) * len(clusters),
            len(clusters) - len(live),
        )

    def _calibrate_initial_threshold(
        self,
        db: SequenceDatabase,
        clusters: list[Cluster],
        encoded: list[list[int]],
        log_bg: list[float],
        pst_factory: PSTFactory,
        rng: np.random.Generator,
        worker: PassWorker,
    ) -> float | None:
        """Iteration-0 dry scoring pass picking the starting ``log t``.

        Calibrates against at least a handful of single-sequence
        models: with only one or two seeds (or a seed that happens to
        be an outlier) the dry distribution is too thin for a reliable
        valley. The extra reference models are temporary — they never
        become clusters.

        Valleys are estimated per reference model, by every
        ``VALLEY_METHODS`` estimator, not on the pooled distribution:
        each reference's own similarity column is a clean bimodal "its
        class vs everything else", whereas pooling across references
        (some of which may be outlier seeds with no class at all)
        smears the modes together and drags the estimate into the
        merge zone. The final calibration is the 75th percentile of the
        per-reference estimates: estimates from outlier seeds sit at
        the bottom of the spread (no class mode to find) and single
        extreme estimates at the top are domain artefacts — a
        high-but-not-max statistic sits in the usable window between
        them. Leaning high is deliberate: an over-tight starting t
        merely grows clusters more slowly, while an under-set one
        triggers the irreversible full merge.

        Every second reference's column is scored by *worker*, which
        builds the single-sequence tree from its index (and keeps a seed
        cluster's for that cluster's first pass); the estimators run
        here, over every column in reference order.

        Returns the calibrated ``log t`` or ``None`` when no reference
        produced a valley estimate.
        """
        # Each reference: its cluster (``None`` for an extra) and index.
        references: list[tuple[Cluster | None, int]] = [
            (cluster, cluster.seed_index) for cluster in clusters
        ]
        min_references = 8
        if len(references) < min_references and len(db) > len(references):
            seeded = {cluster.seed_index for cluster in clusters}
            candidates = [i for i in range(len(db)) if i not in seeded]
            extra = rng.choice(
                np.asarray(candidates),
                size=min(
                    min_references - len(references),
                    len(candidates),
                ),
                replace=False,
            )
            references.extend((None, int(i)) for i in extra)
        away = references[1::2]
        sent = bool(away) and worker.passes(
            list(range(len(encoded))),
            math.inf,
            [
                (None if cluster is None else cluster.cluster_id, (index, ()))
                for cluster, index in away
            ],
        )

        def score_here(at: int) -> array[float]:
            cluster, index = references[at]
            pst = pst_factory(encoded[index]) if cluster is None else cluster.pst
            return score_pass(pst, encoded, log_bg)[0]

        columns: dict[int, array[float]] = {
            at: score_here(at) for at in range(0, len(references), 2 if sent else 1)
        }
        if sent:
            for at, result in zip(range(1, len(references), 2), worker.pass_results()):
                if result is None:
                    columns[at] = score_here(at)
                    continue
                logs, bounds, cells, walks = result
                _count_pairs(cells, walks, bounds)
                columns[at] = logs
        found: list[float] = []
        for at in range(len(references)):
            reference_sims = columns[at]
            for finder in VALLEY_METHODS.values():
                estimate = finder(reference_sims)
                if estimate is not None:
                    found.append(estimate.log_threshold)
        if not found:
            return None
        calibrated = max(float(np.quantile(found, 0.75)), 0.0)
        registry = get_registry()
        if registry.enabled:
            registry.counter("cluseq.calibration_references").inc(
                len(references)
            )
        _logger.info(
            "calibrated initial threshold",
            extra={
                "log_threshold": calibrated,
                "references": len(references),
                "estimates": len(found),
            },
        )
        return calibrated

    def _examination_order(
        self,
        n_sequences: int,
        clusters: list[Cluster],
        assignments: dict[int, AbstractSet[int]],
        rng: np.random.Generator,
    ) -> list[int]:
        """Sequence order for the reclustering phase (§6.3 policies).

        ``fixed`` scans by id every iteration, ``random`` draws a fresh
        permutation per iteration, and ``cluster`` examines each
        cluster's previous members consecutively before the rest (the
        policy the paper shows gets stuck in local optima).
        """
        ordering = self.params.ordering
        if ordering == "fixed":
            return list(range(n_sequences))
        if ordering == "random":
            return [int(i) for i in rng.permutation(n_sequences)]
        order: list[int] = []
        seen: set[int] = set()
        for cluster in clusters:
            for index in sorted(cluster.members):
                if index not in seen:
                    order.append(index)
                    seen.add(index)
        for index in range(n_sequences):
            if index not in seen:
                order.append(index)
        return order

    @staticmethod
    def _rebuild_cluster_models(
        clusters: list[Cluster],
        encoded: list[list[int]],
        pst_factory: PSTFactory,
        built: dict[int, _Built] | None = None,
    ) -> int:
        """Rebuild every cluster's PST from current members' best segments.

        The non-paper default (``rebuild_each_iteration``, DESIGN.md
        §6.1 #5): discards the additive history so departed sequences
        stop influencing the model. The rebuilt tree is a function of the
        cluster's build input, so a cluster whose build input equals
        the one its current tree was built from, and whose tree no
        absorb has touched since (same object, same ``version``), keeps
        that tree. *built* is updated to record each cluster's tree
        (records of clusters not in *clusters* are the caller's to
        drop); without it every tree is rebuilt. Returns how many
        clusters kept their tree.
        """
        if built is None:
            built = {}
        kept = 0
        for cluster in clusters:
            build_input = build_input_of(cluster)
            # Popped, so that the superseded tree's last reference is
            # ``cluster.pst``: it dies when the new tree replaces it.
            record = built.pop(cluster.cluster_id, None)
            if record is not None and _built_from(record, cluster.pst) == build_input:
                built[cluster.cluster_id] = record
                kept += 1
                continue
            record = None
            fresh = build_tree(build_input, encoded, pst_factory)
            cluster.pst = fresh
            built[cluster.cluster_id] = _Built(build_input, fresh, fresh.version)
        return kept


def cluster_sequences(
    db: SequenceDatabase, **param_overrides: Any
) -> ClusteringResult:
    """One-call convenience wrapper: ``cluster_sequences(db, k=5, ...)``.

    Runs the full §4 iteration (generation → reclustering →
    consolidation → threshold adjustment) with default parameters.
    """
    return CLUSEQ(CluseqParams(**param_overrides)).fit(db)
