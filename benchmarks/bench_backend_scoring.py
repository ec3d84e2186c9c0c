"""Backend scoring benchmark — reference vs vectorized.

Measures the frozen-model (cluster × sequence) scoring matrix of the
fig6 scalability workload — the §4.2 re-examination shape — under each
backend, and writes ``BENCH_PR8.json`` (schema
``repro.bench/v1``) with sequences/second, pairs/second and the
speedup over the reference per configuration. Both backends are timed
in alternating rounds in one process; the speedup is the median of the
per-round ratios.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_backend_scoring.py \
        [--shape fig6|full|smoke] [--out PATH]

``--shape smoke`` (or the legacy ``--smoke`` flag) shrinks the
workload for CI and exits non-zero if the vectorized backend is slower
than the reference — the regression gate for the perf-smoke job.
``--shape fig6`` is the large workload the single-process speedup
claim is measured on.

Every row keeps a ``workers: 0`` field: scoring is in-process, and the
field is part of each row's configuration key, so new documents still
pair with the ledger's earlier baselines.

Also usable under pytest-benchmark (``pytest benchmarks/ -k backend``),
where the shape assertion is the same not-slower gate.
"""

from __future__ import annotations

import argparse
import gc
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.core.backends import PstBatchScorer
from repro.core.pst import ProbabilisticSuffixTree
from repro.core.similarity import similarity
from tools.benchtrack.schema import write_bench_document

SCHEMA = "repro.bench/v1"

#: Benchmark shapes. ``full`` is the historical fig6-representative
#: point (kept so the benchtrack ledger can pair new runs against its
#: first baseline); ``fig6`` is the larger scalability point the
#: single-process speedup claim is measured on; ``smoke`` is the CI
#: gate workload.
#: ``rounds`` is the number of alternating rounds. Each round times one
#: reference pass over every pair and, back to back with it, the best
#: of ``KERNEL_CALLS`` kernel calls, a window of about the same length;
#: the reported speedup is the median of the per-round ratios. The two
#: timings of a round share the host's state, so a shared machine's
#: speed swings cancel in the ratio.
SHAPES = {
    "fig6": {"alphabet": 12, "depth": 6, "significance": 4, "clusters": 12,
             "sequences": 400, "length": 120, "rounds": 9},
    "full": {"alphabet": 12, "depth": 6, "significance": 4, "clusters": 10,
             "sequences": 150, "length": 100, "rounds": 9},
    "smoke": {"alphabet": 12, "depth": 6, "significance": 4, "clusters": 4,
              "sequences": 40, "length": 60, "rounds": 15},
}

#: Kernel calls per round; a round's kernel time is the fastest of them.
KERNEL_CALLS = 6


def build_workload(spec: dict) -> tuple[list, list, np.ndarray]:
    """Frozen cluster PSTs, encoded sequences, and the background."""
    rng = np.random.default_rng(13)
    alphabet = spec["alphabet"]
    psts = []
    for _ in range(spec["clusters"]):
        pst = ProbabilisticSuffixTree(
            alphabet_size=alphabet,
            max_depth=spec["depth"],
            significance_threshold=spec["significance"],
        )
        weights = rng.random(alphabet) ** 2 + 1e-3
        weights /= weights.sum()
        for _ in range(12):
            pst.add_sequence(
                [int(s) for s in rng.choice(alphabet, spec["length"], p=weights)]
            )
        psts.append(pst)
    sequences = [
        [int(s) for s in rng.integers(0, alphabet, spec["length"])]
        for _ in range(spec["sequences"])
    ]
    background = np.full(alphabet, 1.0 / alphabet)
    return psts, sequences, background


def time_alternating(psts, sequences, background,
                     rounds: int) -> tuple[float, float, float]:
    """Median reference seconds, median kernel seconds and the median
    per-round ratio of the two, over *rounds* alternating rounds."""
    scorer = PstBatchScorer(background, psts)

    def reference() -> float:
        started = time.perf_counter()
        for pst in psts:
            for seq in sequences:
                similarity(pst, seq, background)
        return time.perf_counter() - started

    def vectorized() -> float:
        best = float("inf")
        for _ in range(KERNEL_CALLS):
            started = time.perf_counter()
            scorer.score_matrix_full(sequences)
            best = min(best, time.perf_counter() - started)
        return best

    # Warm both sides outside the timed rounds: the DP fills its
    # per-node caches on the first pass, and the scorer flattens and
    # stacks its trees on the first call, so steady-state scoring is
    # what a repeated caller actually pays.
    reference()
    vectorized()
    ref_times, vec_times = [], []
    # As timeit does, keep the cyclic collector out of the timed rounds.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for index in range(rounds):
            if index % 2 == 0:
                ref_times.append(reference())
                vec_times.append(vectorized())
            else:
                vec_times.append(vectorized())
                ref_times.append(reference())
    finally:
        if collecting:
            gc.enable()
    ratios = [ref / vec for ref, vec in zip(ref_times, vec_times)]
    return (
        statistics.median(ref_times),
        statistics.median(vec_times),
        statistics.median(ratios),
    )


def run_bench(spec: dict) -> dict:
    psts, sequences, background = build_workload(spec)
    pairs = len(psts) * len(sequences)
    reference_seconds, vectorized_seconds, speedup = time_alternating(
        psts, sequences, background, spec["rounds"]
    )
    results = []
    for backend, seconds, ratio in (
        ("reference", reference_seconds, 1.0),
        ("vectorized", vectorized_seconds, speedup),
    ):
        results.append({
            "backend": backend,
            "workers": 0,
            "seconds": seconds,
            "pairs_per_second": pairs / seconds,
            "seqs_per_second": len(sequences) / seconds,
            "speedup": ratio,
        })
    return {
        "schema": SCHEMA,
        "bench": "backend_scoring",
        "workload": {key: spec[key] for key in
                     ("alphabet", "depth", "significance", "clusters",
                      "sequences", "length")},
        "pairs": pairs,
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "results": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), default=None,
                        help="workload shape (default: full; fig6 is the "
                        "large scalability point)")
    parser.add_argument("--smoke", action="store_true",
                        help="legacy alias for --shape smoke; also fails if "
                        "vectorized is slower than the reference")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output JSON path (default: BENCH_PR8.json at "
                        "the repo root)")
    args = parser.parse_args(argv)
    if args.smoke and args.shape not in (None, "smoke"):
        parser.error("--smoke conflicts with --shape " + args.shape)
    shape = args.shape or ("smoke" if args.smoke else "full")
    spec = SHAPES[shape]
    document = run_bench(spec)
    out = Path(args.out) if args.out else (REPO_ROOT / "BENCH_PR8.json")
    # Validates the repro.bench/v1 shape and stamps git SHA + timestamp
    # so the file is directly ingestable by `python -m tools.benchtrack`.
    write_bench_document(out, document)
    for row in document["results"]:
        print(
            f"{row['backend']:>10s}: "
            f"{row['seconds']:.3f}s  "
            f"{row['pairs_per_second']:9.0f} pairs/s  "
            f"{row['seqs_per_second']:7.0f} seq/s  "
            f"{row['speedup']:5.2f}x"
        )
    print(f"written to {out} (shape={shape}, "
          f"cpus={document['environment']['cpu_count']})")
    vectorized = next(r for r in document["results"]
                      if r["backend"] == "vectorized")
    if shape == "smoke" and vectorized["speedup"] < 1.0:
        print("FAIL: vectorized slower than reference on the smoke workload",
              file=sys.stderr)
        return 1
    return 0


def test_vectorized_not_slower(benchmark):
    """Perf-smoke shape assertion for the pytest-benchmark run."""
    document = benchmark.pedantic(
        run_bench, args=(SHAPES["smoke"],), rounds=1, iterations=1
    )
    vectorized = next(r for r in document["results"]
                      if r["backend"] == "vectorized")
    assert vectorized["speedup"] >= 1.0, document["results"]


if __name__ == "__main__":
    sys.exit(main())
