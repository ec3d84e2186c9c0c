"""Sharded-streaming scaling sweep — seq/s vs shard count.

Streams the drifting two-regime workload of
``bench_stream_throughput.py`` through :class:`ShardedStreamingCluseq`
at increasing shard counts and writes ``BENCH_SHARD.json`` (schema
``repro.bench/v1``) with one result row per shard count, ingestable
by the benchtrack ledger. CI gates the smoke sweep with
``python -m tools.benchtrack check --metric seqs_per_second``: each
shard count must keep its seq/s within tolerance of the same shard
count in the ledger baseline.

Shards run in memory, so the sweep measures routing + clustering +
consolidation, never disk bandwidth.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_shard_throughput.py \
        [--smoke] [--out PATH]

``--smoke`` shrinks the stream and sweeps shards {1, 2}; the full
sweep adds shards=4. Every row keeps ``runner: "inprocess"``: the
field is part of each row's configuration key, so new documents still
pair with the ledger's earlier baselines.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.shard import ShardConfig, ShardedStreamingCluseq
from repro.stream import StreamConfig, drifting_markov_stream
from tools.benchtrack.schema import write_bench_document

SCHEMA = "repro.bench/v1"
ALPHABET_SIZE = 8

#: (num_sequences, drift_at, batch_size)
FULL_SCALE = (2000, 1000, 32)
SMOKE_SCALE = (400, 200, 20)

#: Shard counts swept per shape.
FULL_SWEEP = (1, 2, 4)
SMOKE_SWEEP = (1, 2)


def build_engine(shards: int, batch_size: int, seed: int = 3):
    config = ShardConfig(
        shards=shards,
        router="hash",
        consolidate_every=8,
        merge_threshold=0.8,
        stream=StreamConfig(batch_size=batch_size, seed=seed),
    )
    return ShardedStreamingCluseq.cold_start(
        alphabet_size=ALPHABET_SIZE,
        similarity_threshold=10.0,
        significance_threshold=3,
        max_depth=4,
        config=config,
    )


def run_shard_workload(
    shards: int,
    num_sequences: int,
    drift_at: int,
    batch_size: int,
) -> dict[str, Any]:
    """One sweep point: stream the workload through N shards."""
    stream = drifting_markov_stream(
        num_sequences,
        drift_at,
        alphabet_size=ALPHABET_SIZE,
        mean_length=60,
        concentration=0.05,
        seed=11,
    )
    engine = build_engine(shards, batch_size)
    started = time.perf_counter()
    with engine:
        stats = engine.run(stream.sequences)
    elapsed = time.perf_counter() - started
    return {
        "shards": shards,
        "runner": "inprocess",
        "seconds": elapsed,
        "seqs_per_second": stats.sequences / elapsed,
        "sequences": stats.sequences,
        "clusters": stats.clusters,
        "consolidations": stats.consolidations,
        "cross_merges": stats.cross_merges,
        "absorbed": stats.absorbed,
    }


def run_sweep(smoke: bool) -> dict[str, Any]:
    scale = SMOKE_SCALE if smoke else FULL_SCALE
    sweep = SMOKE_SWEEP if smoke else FULL_SWEEP
    rows = []
    for shards in sweep:
        row = run_shard_workload(shards, *scale)
        rows.append(row)
        print(
            f"shards={row['shards']} "
            f"{row['seconds']:7.3f}s  {row['seqs_per_second']:7.0f} seq/s  "
            f"{row['clusters']} clusters, "
            f"{row['consolidations']} consolidations, "
            f"{row['cross_merges']} cross-merges"
        )
    return {
        "schema": SCHEMA,
        "bench": "shard_throughput",
        "workload": {
            "num_sequences": scale[0],
            "drift_at": scale[1],
            "batch_size": scale[2],
            "alphabet_size": ALPHABET_SIZE,
            "shape": "smoke" if smoke else "full",
        },
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "results": rows,
    }


def check_document(document: dict[str, Any]) -> None:
    """The shape assertions shared by pytest and the smoke runner."""
    rows = document["results"]
    assert all(row["sequences"] == document["workload"]["num_sequences"]
               for row in rows), "a sweep point dropped sequences"
    assert all(row["clusters"] >= 2 for row in rows), (
        "a sweep point failed to separate the two regimes"
    )
    multi = [row for row in rows if row["shards"] > 1]
    assert multi, "sweep has no multi-shard point"
    assert any(row["consolidations"] > 0 for row in multi), (
        "multi-shard points never consolidated — the cross-shard "
        "pass is not firing"
    )


def test_shard_scaling(benchmark, bench_document_writer):
    from conftest import run_once

    document = run_once(benchmark, run_sweep, False)
    check_document(document)
    bench_document_writer(REPO_ROOT / "BENCH_SHARD.json", document)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="sharded streaming scaling benchmark"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale for CI smoke runs (shards 1 and 2 only)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output JSON path (default: BENCH_SHARD.json at repo root)",
    )
    args = parser.parse_args(argv)
    document = run_sweep(args.smoke)
    check_document(document)
    out = Path(args.out) if args.out else (REPO_ROOT / "BENCH_SHARD.json")
    write_bench_document(out, document)
    print(
        f"written to {out} (shape={document['workload']['shape']}, "
        f"cpus={document['environment']['cpu_count']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
