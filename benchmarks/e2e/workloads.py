"""The in-process workloads, and what every workload returns.

Each workload builds its inputs, drives the program through its public
library surface, checks the outputs and returns an :class:`Outcome`:
metrics by name (with unit and sample count), correctness gates, and the
operations attempted and failed. With ``Run.trace`` it then runs once
more under a metrics registry and the span wrappers of ``spans.py``, and
adds the per-layer metrics of :func:`add_layer_metrics`.

The configurations below are copied, not imported, from the repository's
other benchmarks: a later change to those files must not silently change
this benchmark's workloads.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from make_fixture import (
    DRIFT_STREAM,
    FIT_DATABASE,
    FIT_PARAMS,
    STREAM_SPEC,
    read_lines_gz,
)
from measure import (
    REFERENCE_PROBE_SECONDS,
    HostSpeed,
    median,
    parse_prometheus,
    percentile,
    read_vmhwm_mb,
)
from repro import CLUSEQ, CluseqParams, SequenceDatabase
from repro.evaluation.metrics import adjusted_rand_index
from repro.obs import MetricsRegistry, to_prometheus_text, use_registry
from repro.shard import ShardConfig, ShardedStreamingCluseq
from repro.stream import DecayPolicy, StreamConfig, StreamingCluseq
from spans import SpanRecord, Tracer, self_times, totals, write_jsonl

# -- fit-outliers ---------------------------------------------------------

#: Nominal seconds per fit on a 2-vCPU host; sizes the repeat count from
#: ``--seconds`` without making the work depend on the machine's speed.
FIT_NOMINAL_SECONDS = 13.0
#: Measured 0.70 on the pinned database; a floor, not the exact value,
#: so a fit change that moves the ARI a little still passes.
ARI_FLOOR = 0.65

# -- stream-drift / shard-drift --------------------------------------------

STREAM_BATCH = 32
#: Nominal seconds per 8,000-sequence pass; sizes the pass count.
STREAM_NOMINAL_SECONDS = 4.0


def stream_config() -> StreamConfig:
    """The engine config of ``benchmarks/bench_stream_throughput.py``
    (``build_engine``), copied."""
    return StreamConfig(
        batch_size=STREAM_BATCH,
        pool_size=256,
        reseed_every=2,
        reseed_k=2,
        reseed_min_pool=8,
        consolidate_every=16,
        decay=DecayPolicy(factor=0.95, every_batches=8),
        seed=3,
    )


#: ``cold_start`` arguments of ``bench_stream_throughput.build_engine``.
ENGINE_SPEC = {
    "alphabet_size": STREAM_SPEC["alphabet_size"],
    "similarity_threshold": 10.0,
    "significance_threshold": 3,
    "max_depth": 4,
}


def read_fit_database() -> tuple[list[str], list[str]]:
    """``(sequences, labels)`` of the pinned ``fit-outliers`` database."""
    with open(FIT_DATABASE, encoding="utf-8") as handle:
        rows = [line.rstrip("\n").split("\t") for line in handle]
    return [sequence for _, sequence in rows], [label for label, _ in rows]


def read_drift_stream() -> list[list[int]]:
    """The pinned drifting stream, as encoded sequences."""
    return [[int(symbol) for symbol in line] for line in read_lines_gz(DRIFT_STREAM)]


def shard_config() -> ShardConfig:
    """Two in-process hash-routed shards, each with the stream-drift
    engine config, so sharding is the only difference between the two
    stream workloads. Coordinator knobs from ``bench_shard_throughput``."""
    return ShardConfig(
        shards=2,
        router="hash",
        runner="inprocess",
        consolidate_every=8,
        merge_threshold=0.8,
        stream=stream_config(),
    )


# -- results ---------------------------------------------------------------


@dataclass
class Metric:
    value: float
    unit: str
    samples: int = 1


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    out_dir: Path


@dataclass
class Outcome:
    metrics: dict[str, Metric] = field(default_factory=dict)
    #: ``(gate, passed, detail)``; any failed gate fails the run.
    gates: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Per-span self seconds of the traced pass, for the layer table.
    self_seconds: dict[str, float] = field(default_factory=dict)
    traced_wall: float = 0.0
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = Metric(float(value), unit, samples)

    def gate(self, name: str, passed: bool, detail: str) -> None:
        self.gates.append((name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.gates)


def digest(values: Sequence[object]) -> str:
    """A short stable fingerprint of a JSON-serializable sequence."""
    return hashlib.sha256(json.dumps(list(values)).encode()).hexdigest()[:16]


def put_timing(
    out: Outcome, name: str, seconds: Sequence[float], q: float, unit_scale: float,
    unit: str,
) -> None:
    """Report the *q*-th percentile of *seconds* when the sample supports it."""
    value = percentile(seconds, q)
    if value is None:
        out.notes.append(f"{name}: {len(seconds)} samples do not support p{q:g}")
        return
    out.put(name, value * unit_scale, unit, len(seconds))


# -- per-layer metrics ------------------------------------------------------


class Counters:
    """The program's own counters, read from Prometheus text."""

    def __init__(self, prometheus_text: str) -> None:
        self.values = parse_prometheus(prometheus_text)

    @staticmethod
    def _family(name: str) -> str:
        return "repro_" + name.replace(".", "_").replace("-", "_")

    def counter(self, name: str) -> float:
        return self.values.get(self._family(name) + "_total", 0.0)

    def timer(self, name: str, labels: str = "") -> tuple[float, float]:
        """``(seconds, count)`` of a timer (``labels`` as exposed)."""
        family = self._family(name) + "_seconds"
        return (
            self.values.get(f"{family}_sum{labels}", 0.0),
            self.values.get(f"{family}_count{labels}", 0.0),
        )

    def span_seconds(self, span_name: str) -> float:
        """Total of every ``span.*`` timer whose path ends in *span_name*
        (the stream spans nest under ``stream.batch``, and under
        ``shard.batch`` on the sharded engine)."""
        suffix = "_" + span_name.replace(".", "_") + "_seconds_sum"
        return sum(
            value
            for key, value in self.values.items()
            if key.startswith("repro_span_") and key.endswith(suffix)
        )

    def histogram_sum(self, name: str) -> float:
        return self.values.get(self._family(name) + "_sum", 0.0)


def add_layer_metrics(
    out: Outcome,
    run: Run,
    spans: list[SpanRecord],
    counters: Counters,
    traced_wall: float,
    prescored_pairs: int,
) -> None:
    """Per-layer metrics of a traced pass, named by the module they measure."""
    write_jsonl(
        spans,
        str(run.out_dir / f"{run.workload}-spans.jsonl"),
        workload=run.workload,
        seed=run.seed,
    )
    calls = totals(spans)
    selfs = self_times(spans)
    out.self_seconds = selfs
    out.traced_wall = traced_wall

    def span_calls(name: str) -> int:
        return calls.get(name, (0, 0.0))[0]

    def span_seconds(name: str) -> float:
        return calls.get(name, (0, 0.0))[1]

    out.put("similarity.calls", span_calls("similarity"), "count")
    out.put("similarity.self_s", selfs.get("similarity", 0.0), "s")

    stale = counters.counter("backend.prescore_stale_pairs")
    out.put("backends.kernel_calls", counters.counter("backend.batch_calls"), "count")
    out.put("backends.kernel_pairs", counters.counter("backend.batch_rows"), "count")
    out.put("backends.kernel_s", counters.timer("backend.score_seconds")[0], "s")
    out.put("backends.flatten_builds", counters.counter("backend.flatten_builds"), "count")
    out.put("backends.flatten_s", span_seconds("backends.flatten"), "s")
    out.put("backends.stack_rebuilds", counters.counter("backend.stack_rebuilds"), "count")
    out.put(
        "backends.prescore_fallbacks", counters.counter("backend.prescore_fallbacks"),
        "count",
    )
    # 0 when nothing was prescored (the ratio has no base then).
    out.put(
        "backends.prescore_useful_frac",
        1 - stale / prescored_pairs if prescored_pairs else 0.0,
        "ratio",
    )

    out.put("pst.absorb_calls", span_calls("cluster.absorb"), "count")
    out.put("pst.absorb_s", span_seconds("cluster.absorb"), "s")

    seeds = counters.counter("seeding.seeds_selected")
    dismissed = counters.counter("consolidation.dismissed")
    out.put("seeding.select_s", span_seconds("seeding.select"), "s")
    out.put("seeding.seeds", seeds, "count")
    out.put("consolidation.consolidate_s", span_seconds("consolidation.consolidate"), "s")
    out.put("consolidation.dismissed", dismissed, "count")
    out.put(
        "consolidation.seed_survival_frac",
        1 - dismissed / seeds if seeds else 0.0,
        "ratio",
    )

    for phase in ("seed", "calibrate", "recluster", "consolidate", "rebuild"):
        out.put(f"cluseq.{phase}_s", counters.span_seconds(f"cluseq.{phase}"), "s")

    for phase in ("score", "reseed", "decay", "consolidate"):
        out.put(f"stream.{phase}_s", counters.span_seconds(f"stream.{phase}"), "s")
    out.put("stream.pool_rescued", counters.counter("stream.pool_rescued"), "count")

    out.put("shard.consolidate_s", counters.span_seconds("shard.consolidate"), "s")
    out.put("shard.pairs_scored", counters.counter("shard.pairs_scored"), "count")
    out.put("shard.cross_merges", counters.counter("shard.cross_merges"), "count")

    for name, seconds in selfs.items():
        out.put(f"share.{name}", 100.0 * seconds / traced_wall, "%")
    out.put(
        "share.other", 100.0 * (traced_wall - sum(selfs.values())) / traced_wall, "%"
    )


def put_raw(
    out: Outcome, speed: HostSpeed, setup_s: float, seq_per_s: float, latency_ms: float
) -> None:
    """The end-to-end values before host-speed correction, and the host's
    median speed over the run (1 = the reference speed)."""
    out.put("raw.setup_s", setup_s, "s")
    out.put("raw.seq_per_s", seq_per_s, "seq/s")
    out.put("raw.latency_ms", latency_ms, "ms")
    out.put(
        "host.speed",
        median([REFERENCE_PROBE_SECONDS / seconds for seconds in speed.durations]),
        "ratio",
        len(speed.durations),
    )


def add_overhead(
    out: Outcome, untraced_per_op: float, traced_per_op: float, traced_ops: int
) -> None:
    """Tracing overhead: traced minus untraced wall time of the traced pass."""
    out.put("trace.overhead_s", (traced_per_op - untraced_per_op) * traced_ops, "s")
    out.put("trace.overhead_pct", 100.0 * (traced_per_op / untraced_per_op - 1), "%")


# -- fit-outliers -------------------------------------------------------------


def fit_outliers(run: Run) -> Outcome:
    """``CLUSEQ.fit`` on the fig6 shape with outliers.

    The end-to-end numbers are medians of samples spread over the fit:
    the per-iteration wall time (the paper's §4.7 unit of cost), and one
    ``from_strings`` set-up sample after every iteration, each corrected
    by the host-speed probes around it.
    """
    out = Outcome()
    strings, truth = read_fit_database()
    db = SequenceDatabase.from_strings(strings)
    speed = HostSpeed()
    setup: list[float] = []
    raw_setup: list[float] = []
    #: Moments between iterations: the end of one, the start of the next.
    edges: list[float] = []

    def between_iterations(_snapshot: object) -> None:
        edges.append(time.perf_counter())
        started = time.perf_counter()
        SequenceDatabase.from_strings(strings)
        ended = time.perf_counter()
        speed.probe()
        raw_setup.append(ended - started)
        setup.append(speed.corrected(ended - started, started, ended))
        edges.append(time.perf_counter())

    walls: list[float] = []
    iterations: list[float] = []
    raw_iterations: list[float] = []
    digests: list[str] = []
    for _ in range(max(1, round(run.seconds / FIT_NOMINAL_SECONDS))):
        speed.probe()
        edges.clear()
        edges.append(time.perf_counter())
        result = CLUSEQ(CluseqParams(**FIT_PARAMS), hooks=[between_iterations]).fit(db)
        hooks = sum(after - before for before, after in zip(edges[1::2], edges[2::2]))
        walls.append(time.perf_counter() - edges[0] - hooks)
        for index, stats in enumerate(result.history):
            start, end = edges[2 * index], edges[2 * index + 1]
            raw_iterations.append(stats.elapsed_seconds)
            iterations.append(speed.corrected(stats.elapsed_seconds, start, end))
        digests.append(digest(result.labels()))
    out.attempted = len(walls)

    iteration = median(iterations)
    out.put("setup_s", median(setup), "s", len(setup))
    out.put("seq_per_s", len(db) / iteration, "seq/s", len(iterations))
    out.put("latency_ms", iteration * 1000.0, "ms", len(iterations))
    out.put("peak_rss_mb", read_vmhwm_mb(), "MB")
    put_raw(out, speed, median(raw_setup), len(db) / median(raw_iterations),
            median(raw_iterations) * 1000.0)
    ari = adjusted_rand_index(truth, result.labels())
    out.put("fit.wall_s", median(walls), "s", len(walls))
    out.put("fit.ari", ari, "ratio")
    out.put("cluseq.iterations", result.iterations, "count")
    out.put("cluseq.converged", 1.0 if result.converged else 0.0, "bool")
    out.put(
        "cluseq.membership_changes_tail",
        median([stats.membership_changes for stats in result.history[-5:]]),
        "count",
    )
    out.put("pst.nodes_final", sum(c.pst.node_count for c in result.clusters), "count")

    if run.trace:
        tracer, registry = Tracer(), MetricsRegistry()
        with use_registry(registry), tracer:
            started = time.perf_counter()
            with tracer.span("workload"):
                traced = CLUSEQ(CluseqParams(**FIT_PARAMS)).fit(db)
            traced_wall = time.perf_counter() - started
        digests.append(digest(traced.labels()))
        add_layer_metrics(
            out, run, tracer.spans, Counters(to_prometheus_text(registry)),
            traced_wall, tracer.prescored_pairs,
        )
        add_overhead(out, median(walls), traced_wall, 1)
        out.notes.extend(f"not traced (missing): {name}" for name in tracer.missing)

    out.gate("ari", ari >= ARI_FLOOR, f"ARI {ari:.4f} >= floor {ARI_FLOOR}")
    out.gate(
        "labels stable",
        len(set(digests)) == 1,
        f"labels digest identical over {len(digests)} fit(s): {sorted(set(digests))}",
    )
    return out


# -- stream-drift / shard-drift ---------------------------------------------------


def _stream_workload(run: Run, sharded: bool) -> Outcome:
    """Every pass replays the same stream, so batch *b* is the same work
    in every pass: its time is the median over passes of its
    host-speed-corrected time. A probe and a ``cold_start`` set-up sample
    follow every batch, outside the batch's timing."""
    out = Outcome()
    sequences = read_drift_stream()
    drift_batch = STREAM_SPEC["drift_at"] // STREAM_BATCH
    speed = HostSpeed()
    #: ``(start, end)`` of every timed sample.
    setup_spans: list[tuple[float, float]] = []

    def cold_start() -> StreamingCluseq | ShardedStreamingCluseq:
        started = time.perf_counter()
        if sharded:
            engine = ShardedStreamingCluseq.cold_start(**ENGINE_SPEC, config=shard_config())
        else:
            engine = StreamingCluseq.cold_start(**ENGINE_SPEC, config=stream_config())
        setup_spans.append((started, time.perf_counter()))
        return engine

    def one_pass(
        batches: list[tuple[float, float]],
    ) -> tuple[StreamingCluseq | ShardedStreamingCluseq, list[object], list[int]]:
        speed.probe()
        engine = cold_start()
        assigned: list[object] = []
        drift_marks: list[int] = []
        for start in range(0, len(sequences), STREAM_BATCH):
            if start == STREAM_SPEC["drift_at"] and sharded:
                # Each shard counts its own batches; note where the
                # drift falls in each shard's count.
                drift_marks = [handle.batches for handle in engine.handles]
            begun = time.perf_counter()
            assigned.extend(engine.ingest_batch(sequences[start : start + STREAM_BATCH]))
            batches.append((begun, time.perf_counter()))
            speed.probe()
            cold_start()
        return engine, assigned, drift_marks

    passes: list[list[tuple[float, float]]] = []
    digests: list[str] = []
    for _ in range(max(1, round(run.seconds / STREAM_NOMINAL_SECONDS))):
        passes.append([])
        engine, assigned, drift_marks = one_pass(passes[-1])
        digests.append(digest(assigned))
    out.attempted = sum(len(batches) for batches in passes)
    _check_stream(out, engine, sharded, drift_batch, drift_marks, len(sequences))

    def corrected(span: tuple[float, float]) -> float:
        return speed.corrected(span[1] - span[0], *span)

    batch_seconds = [median([corrected(s) for s in column]) for column in zip(*passes)]
    raw_batch_seconds = [median([end - start for start, end in column])
                         for column in zip(*passes)]
    stats = engine.stats()
    out.put("setup_s", median([corrected(s) for s in setup_spans]), "s", len(setup_spans))
    out.put("seq_per_s", len(sequences) / sum(batch_seconds), "seq/s", out.attempted)
    put_timing(out, "latency_ms", batch_seconds, 95, 1000.0, "ms")
    out.put("peak_rss_mb", read_vmhwm_mb(), "MB")
    put_raw(
        out, speed, median([end - start for start, end in setup_spans]),
        len(sequences) / sum(raw_batch_seconds),
        (percentile(raw_batch_seconds, 95) or 0.0) * 1000.0,
    )
    out.put("stream.absorb_rate", stats.absorbed / stats.sequences, "ratio")
    out.put("pst.nodes_final", sum(c.pst.node_count for c in _clusters(engine)), "count")
    if sharded:
        loads = [shard.sequences for shard in stats.per_shard]
        out.put("shard.route_skew", max(loads) / (sum(loads) / len(loads)), "ratio")

    if run.trace:
        tracer, registry = Tracer(), MetricsRegistry()
        traced_batches: list[tuple[float, float]] = []
        with use_registry(registry), tracer:
            started = time.perf_counter()
            with tracer.span("workload"):
                engine, assigned, _ = one_pass(traced_batches)
            traced_wall = time.perf_counter() - started
        digests.append(digest(assigned))
        add_layer_metrics(
            out, run, tracer.spans, Counters(to_prometheus_text(registry)),
            traced_wall, tracer.prescored_pairs,
        )
        add_overhead(
            out, sum(end - start for start, end in passes[-1]),
            sum(end - start for start, end in traced_batches), 1,
        )
        out.notes.extend(f"not traced (missing): {name}" for name in tracer.missing)

    out.gate(
        "passes agree",
        len(set(digests)) == 1,
        f"assignment digest identical over {len(digests)} pass(es)",
    )
    return out


def _clusters(engine: StreamingCluseq | ShardedStreamingCluseq) -> list:
    if isinstance(engine, ShardedStreamingCluseq):
        return [c for handle in engine.handles for c in handle.engine.result.clusters]
    return list(engine.result.clusters)


def _check_stream(
    out: Outcome,
    engine: StreamingCluseq | ShardedStreamingCluseq,
    sharded: bool,
    drift_batch: int,
    drift_marks: list[int],
    expected: int,
) -> None:
    stats = engine.stats()
    if sharded:
        shards = [handle.engine for handle in engine.handles]
        recorded = sum(len(shard.result.assignments) for shard in shards)
        spawned_after = sum(
            1
            for shard, mark in zip(shards, drift_marks)
            for cluster in shard.result.clusters
            if cluster.created_at_iteration > mark
        )
    else:
        recorded = len(engine.result.assignments)
        spawned_after = len(engine.clusters_spawned_after(drift_batch + 1))
    accounted = (
        stats.sequences == expected
        and recorded == expected
        and stats.absorbed + stats.outliers == expected
    )
    absorb_rate = stats.absorbed / max(stats.sequences, 1)
    out.gate(
        "accounted",
        accounted,
        f"{stats.sequences} ingested, {recorded} recorded, "
        f"{stats.absorbed}+{stats.outliers} absorbed+pooled of {expected}",
    )
    out.gate("clusters", stats.clusters >= 2, f"{stats.clusters} clusters >= 2")
    out.gate(
        "adapts to drift",
        spawned_after > 0,
        f"{spawned_after} cluster(s) spawned after the drift",
    )
    out.gate("absorb rate", absorb_rate >= 0.5, f"absorb rate {absorb_rate:.3f} >= 0.5")


def stream_drift(run: Run) -> Outcome:
    """``StreamingCluseq`` fed a drifting stream via ``ingest_batch``."""
    return _stream_workload(run, sharded=False)


def shard_drift(run: Run) -> Outcome:
    """The same stream through two in-process hash-routed shards."""
    return _stream_workload(run, sharded=True)
