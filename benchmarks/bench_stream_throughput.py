"""Streaming engine throughput on a drifting two-regime stream.

The workload replays the paper's embedded-cluster generator over time
instead of over a database: sequences come from Markov regime A, then
the generating process switches to regime B mid-stream. The engine
must (a) sustain micro-batch throughput and (b) actually *adapt* —
spawn at least one new cluster after the drift point — otherwise an
online mode is just a slow batch mode.

Reported: sequences/sec, absorb rate, cluster census before/after the
drift, and the ARI of the final assignments against the regime truth
(A before the drift, B after it) with each regime's cluster sizes. The
check fails when regime A ends split across clusters or the ARI falls
below ``ARI_FLOOR``. Runnable standalone (CI smoke job):

    python benchmarks/bench_stream_throughput.py --smoke

``--age N`` instead replays the stream N times through one engine and
reports, per replay (segment), the mean §4.5 consolidation time, the
p95 batch time and the peak-RSS growth per streamed sequence, so a
cost that grows with the engine's history shows as a trend down the
table. Without ``--smoke`` the stream is the end-to-end benchmark's
pinned 8,000-sequence stream (``benchmarks/e2e/make_fixture.py``):

    python benchmarks/bench_stream_throughput.py --age 5
"""

import argparse
import statistics
import sys
import time
from collections import Counter

from repro.evaluation import adjusted_rand_index
from repro.obs import MetricsRegistry, peak_rss_bytes, use_registry
from repro.stream import (
    DecayPolicy,
    StreamConfig,
    StreamingCluseq,
    drifting_markov_stream,
)

ALPHABET_SIZE = 8

#: (num_sequences, drift_at, batch_size)
FULL_SCALE = (2000, 1000, 32)
SMOKE_SCALE = (400, 200, 20)
#: The ``stream-drift`` input of the end-to-end benchmark.
AGE_SCALE = (8000, 4000, 32)
#: Lowest ARI of the final assignments against the regime truth that
#: ``check_report`` accepts. Measured: 0.821 at full scale and 0.828 at
#: smoke scale; a re-seed round that drew all its seeds before any
#: rescue gave 0.655 at full scale (regime A in two clusters).
ARI_FLOOR = 0.80


def build_engine(batch_size, seed=3):
    config = StreamConfig(
        batch_size=batch_size,
        pool_size=256,
        reseed_every=2,
        reseed_k=2,
        reseed_min_pool=8,
        consolidate_every=16,
        decay=DecayPolicy(factor=0.95, every_batches=8),
        seed=seed,
    )
    return StreamingCluseq.cold_start(
        alphabet_size=ALPHABET_SIZE,
        similarity_threshold=10.0,
        significance_threshold=3,
        max_depth=4,
        config=config,
    )


def drifting_stream(num_sequences, drift_at):
    return drifting_markov_stream(
        num_sequences,
        drift_at,
        alphabet_size=ALPHABET_SIZE,
        mean_length=60,
        concentration=0.05,
        seed=11,
    )


def run_stream_workload(num_sequences, drift_at, batch_size):
    """Stream the drifting workload through a cold-started engine."""
    stream = drifting_stream(num_sequences, drift_at)
    engine = build_engine(batch_size)
    started = time.perf_counter()
    stats = engine.run(stream.sequences)
    elapsed = time.perf_counter() - started
    drift_batch = drift_at // batch_size
    # Every stream join is best-only: one cluster id, or none.
    final = [
        next(iter(engine.result.assignments[index]), None)
        for index in range(stats.sequences)
    ]
    spawned_after_drift = [
        cluster.cluster_id
        for cluster in engine.result.clusters
        if cluster.created_at_iteration > drift_batch
    ]
    return {
        "sequences": stats.sequences,
        "elapsed_seconds": elapsed,
        "sequences_per_second": stats.sequences / elapsed,
        "absorb_rate": stats.absorb_rate,
        "clusters": stats.clusters,
        "clusters_spawned": stats.clusters_spawned,
        "spawned_after_drift": spawned_after_drift,
        "drift_batch": drift_batch,
        "pool_size": stats.pool_size,
        "decay_pruned_nodes": stats.decay_pruned_nodes,
        # Against the regime truth: A before the drift, B after it.
        "ari": adjusted_rand_index(
            ["A" if index < drift_at else "B" for index in range(len(final))],
            final,
        ),
        "cluster_sizes": {
            regime: dict(Counter(cid for cid in part if cid is not None))
            for regime, part in (("A", final[:drift_at]), ("B", final[drift_at:]))
        },
    }


def print_report(report):
    print(
        f"streamed {report['sequences']} sequences in "
        f"{report['elapsed_seconds']:.2f}s "
        f"({report['sequences_per_second']:.0f} seq/s)"
    )
    print(
        f"absorb rate {report['absorb_rate']:.1%}, "
        f"{report['clusters']} clusters "
        f"({report['clusters_spawned']} spawned, "
        f"{len(report['spawned_after_drift'])} after the drift at "
        f"batch {report['drift_batch']})"
    )
    sizes = report["cluster_sizes"]
    print(
        f"ARI {report['ari']:.3f} against the regimes; cluster sizes "
        f"A {sizes['A']}, B {sizes['B']}"
    )


def check_report(report):
    """The shape assertions shared by pytest and the smoke runner."""
    assert report["spawned_after_drift"], (
        "engine never spawned a cluster after the drift point — "
        "it is not adapting to the regime switch"
    )
    assert report["absorb_rate"] >= 0.5, (
        f"absorb rate {report['absorb_rate']:.1%} — the engine is "
        "pooling most of a cleanly clusterable stream"
    )
    assert report["clusters"] >= 2
    regime_a = report["cluster_sizes"]["A"]
    assert len(regime_a) == 1, (
        f"regime A is split across clusters {regime_a} — the stream "
        "modelled one source twice"
    )
    assert report["ari"] >= ARI_FLOOR, (
        f"ARI {report['ari']:.3f} against the regimes is below "
        f"{ARI_FLOOR}"
    )


def run_age_workload(segments, num_sequences, drift_at, batch_size):
    """Replay the drifting stream *segments* times through one engine;
    one report row per replay."""
    sequences = drifting_stream(num_sequences, drift_at).sequences
    engine = build_engine(batch_size)
    rows = []
    for segment in range(segments):
        registry = MetricsRegistry()
        batch_ms = []
        rss_before = peak_rss_bytes() or 0.0
        with use_registry(registry):
            for start in range(0, num_sequences, batch_size):
                begun = time.perf_counter()
                engine.ingest_batch(sequences[start : start + batch_size])
                batch_ms.append((time.perf_counter() - begun) * 1000.0)
        rss_after = peak_rss_bytes() or 0.0
        consolidate = registry.get("span.stream.batch.stream.consolidate")
        stats = engine.stats()
        rows.append(
            {
                "segment": segment + 1,
                "sequences": stats.sequences,
                "clusters": stats.clusters,
                "consolidate_ms": consolidate.mean_seconds * 1000.0 if consolidate else 0.0,
                "p95_batch_ms": statistics.quantiles(batch_ms, n=20)[-1],
                "rss_bytes_per_sequence": (rss_after - rss_before) / num_sequences,
            }
        )
    return rows


def print_age_report(rows):
    print(
        f"{'segment':>7} {'sequences':>9} {'clusters':>8} "
        f"{'consolidate ms':>14} {'p95 batch ms':>12} {'RSS B/seq':>9}"
    )
    for row in rows:
        print(
            f"{row['segment']:>7} {row['sequences']:>9} {row['clusters']:>8} "
            f"{row['consolidate_ms']:>14.2f} {row['p95_batch_ms']:>12.2f} "
            f"{row['rss_bytes_per_sequence']:>9.0f}"
        )
    if len(rows) > 1:
        # The first replay also pays for the engine's warm-up.
        later = rows[1:]
        grown = sum(row["rss_bytes_per_sequence"] for row in later) / len(later)
        print(f"RSS growth after the first replay: {grown:.0f} B/seq")


def test_stream_throughput_drifting(benchmark):
    from conftest import run_once

    report = run_once(benchmark, run_stream_workload, *FULL_SCALE)
    print_report(report)
    check_report(report)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="streaming throughput benchmark (drifting stream)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale for CI smoke runs",
    )
    parser.add_argument(
        "--age",
        type=int,
        default=0,
        metavar="N",
        help="replay the stream N times through one engine and report "
        "per-replay consolidation ms, p95 batch ms and RSS growth per "
        "sequence (a report: no gate)",
    )
    args = parser.parse_args(argv)
    if args.age < 0:
        parser.error("--age must be non-negative")
    if args.age:
        rows = run_age_workload(args.age, *(SMOKE_SCALE if args.smoke else AGE_SCALE))
        print_age_report(rows)
        return 0
    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    report = run_stream_workload(*scale)
    print_report(report)
    check_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
