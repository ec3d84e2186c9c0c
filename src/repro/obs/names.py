"""The declared telemetry-name registry.

Every metric and span name the codebase is allowed to emit is
declared here, once, as a reviewable constant. A metric is declared
only while a test, bench, tool or report reads it; per-iteration and
per-batch values are log events, not metrics. The static analyzer's
CLQ010 rule parses this module (by AST, in pass 1 of
``tools.checkers``) and resolves every literal name at every emission
site against it: a typo'd metric name forks a time series that no
dashboard charts, and this registry is what makes that a CI failure
instead of a silent data loss.

Renaming or adding telemetry therefore touches three places: the
emission site, the declaration here and the name's row in the
catalogue of ``docs/OBSERVABILITY.md``. ``tests/test_telemetry_names.py``
checks all three: every declared name has a catalogue row and the
other way round, and every declared name occurs as a literal in the
package outside this module. Dynamic name families (``span.*``
mirror metrics, ``baseline.*`` spans) are declared as prefixes rather
than enumerations.

The module is import-light on purpose (stdlib only, no runtime logic):
it is also imported by tests to assert registry/emitter agreement.
"""

from __future__ import annotations

__all__ = [
    "METRICS",
    "METRIC_PREFIXES",
    "SPANS",
    "SPAN_PREFIXES",
]

#: Exact counter/gauge/histogram/timer names.
METRICS: frozenset[str] = frozenset(
    {
        # baselines
        "baseline.clusters",
        # streaming subsystem
        "stream.batches",
        "stream.clusters",
        "stream.pool_rescued",
        "stream.clusters_dismissed",
        "stream.peak_rss_bytes",
        "stream.wal_append_seconds",
        "stream.wal_fsync_seconds",
        "stream.checkpoint_write_seconds",
        "stream.checkpoint_fsync_seconds",
        # sharded streaming coordinator (repro.shard)
        "shard.pairs_scored",
        "shard.cross_merges",
        # batch clustering driver
        "cluseq.iterations",
        "cluseq.final_clusters",
        "cluseq.converged",
        "cluseq.final_pst_nodes",
        "cluseq.reclustering_work",
        "cluseq.replayed_passes",
        "cluseq.models_kept",
        "cluseq.calibration_references",
        # suffix tree
        "pst.final_nodes",
        "pst.final_depth",
        # threshold search
        "threshold.valley_searches",
        "threshold.valley_misses",
        # seeding
        "seeding.selections",
        "seeding.seeds_selected",
        # consolidation
        "consolidation.passes",
        "consolidation.dismissed",
        # vectorized scoring backend
        "backend.flatten_seconds",
        "backend.stack_rebuilds",
        "backend.batch_calls",
        "backend.batch_rows",
        "backend.score_seconds",
        "backend.flatten_builds",
        # reference similarity measure
        "similarity.calls",
        "similarity.dp_cells",
        "similarity.context_walks",
        "similarity.segment_length",
        # serving subsystem (repro.serve)
        "serve.requests",
        "serve.request_seconds",
        "serve.errors",
        "serve.classified",
        "serve.outliers",
        "serve.ingested",
        "serve.ingest_absorbed",
        "serve.rejected",
        "serve.queue_depth",
        "serve.batch.flushes",
        "serve.batch.requests",
        "serve.batch.sequences",
        "serve.batch.score_seconds",
        "serve.reloads",
        "serve.reload_seconds",
        "serve.model_epoch",
    }
)

#: Dynamic metric families: ``span.<span-name>`` duration mirrors.
METRIC_PREFIXES: tuple[str, ...] = ("span.",)

#: Exact tracer span names.
SPANS: frozenset[str] = frozenset(
    {
        "cluseq",
        "seed",
        "calibrate",
        "recluster",
        "consolidate",
        "rebuild",
        "adjust_threshold",
        "stream.recover",
        "stream.batch",
        "stream.score",
        "stream.decay",
        "stream.reseed",
        "stream.consolidate",
        "stream.checkpoint",
        # Sharded streaming coordinator (repro.shard).
        "shard.batch",
        "shard.consolidate",
    }
)

#: Dynamic span families: one span per baseline algorithm.
SPAN_PREFIXES: tuple[str, ...] = ("baseline.",)
