"""Fit quality over ten draws: what one pinned fixture cannot show.

The ``fit-outliers`` workload guards the fit's quality on one draw. This
bench fits ten: ``generate_clustered_database`` with 400 sequences, 10
clusters, mean length 120 and 12 symbols, at 5% and 20% outliers and
seeds 0-4, each with ``CluseqParams(k=2, significance_threshold=4)``.
Draw (0.05, 3) is the ``fit-outliers`` fixture. Each draw runs in a
fresh process, so that its peak resident set is its own, and yields one
JSON row:

- ``ari`` against the generator's labels, ``iterations``, ``converged``,
  the final ``clusters``, and the ``seeds`` made and ``dismissed`` over
  the fit (from ``history``);
- ``recovered``: the true clusters some predicted cluster recovers, that
  is, holds more than half of the true cluster's members and has it as
  its plurality label;
- ``outliers_left`` of ``outliers``: the records the generator labels as
  outliers that the fit leaves unclustered;
- ``final_log_t``, the fit's final log threshold, and ``t_moves``, the
  iterations whose log threshold differs from the previous iteration's;
- ``digest``: the labels digest of the end-to-end benchmark
  (``benchmarks/e2e/workloads.py``), exact across machines;
- ``seconds``: the fit's wall time corrected for host speed with the
  end-to-end benchmark's ``HostSpeed`` probes, one before the fit and
  one after each iteration (the probes' own time is taken out);
  ``fit_wall_raw_s`` uncorrected;
- ``vmhwm_before_mb`` and ``vmhwm_after_mb``: the process's peak
  resident set (Linux ``VmHWM``) after generating the draw and after
  the fit;
- ``host_parallelism``, measured once per run before the first draw:
  how much faster two pure-Python burn processes finish side by side
  than one after the other, the median of three rounds. It reads about
  2.0 on two idle CPUs and about 1.0 where the two timeshare one CPU,
  where the fit's pass worker cannot overlap anything, so it tells
  which walls from different hosts can be compared. No gate reads it.

Quality and digests are exact; the wall is indicative. ``--out`` writes
the rows as a ``repro.bench/v1`` document (bench ``fit_quality``; each
row keyed by its ``draw``, such as ``"0.05/3"``), which ``python -m
tools.benchtrack check-fit-quality`` gates on ARI against the ledger baseline. The smoke
and the full run share one workload, so the smoke's draws pair with the
full baseline's. Run it as

    python benchmarks/bench_fit_quality.py --out fit-quality.json   # ten draws
    python benchmarks/bench_fit_quality.py --smoke                  # (0.05, 1), (0.05, 3)
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
for path in (HERE / "e2e", HERE.parent / "src", HERE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

#: The generator arguments every draw shares.
DRAW_SPEC = {"num_sequences": 400, "num_clusters": 10, "avg_length": 120, "alphabet_size": 12}
FIT_PARAMS = {"k": 2, "significance_threshold": 4}
#: ``(outlier_fraction, seed)`` of every draw, and of the smoke's two.
DRAWS = [(fraction, seed) for fraction in (0.05, 0.2) for seed in range(5)]
SMOKE_DRAWS = [(0.05, 1), (0.05, 3)]
#: Additions in one burn loop: about 0.1 s of one 2-vCPU container CPU.
BURN_LOOPS = 2_000_000


def burn(barrier: Any = None) -> tuple[float, float]:
    """One pure-Python loop; returns its start and end on the
    system-wide monotonic clock. *barrier* (a ``multiprocessing``
    barrier) lines up the start with another burn."""
    if barrier is not None:
        barrier.wait()
    started = time.monotonic()
    total = 0
    for i in range(BURN_LOOPS):
        total += i
    return started, time.monotonic()


def _burn_into(barrier: Any, queue: Any) -> None:
    queue.put(burn(barrier))


def host_parallelism(rounds: int = 3) -> float:
    """How much faster two burns finish side by side, each in its own
    process, than one after the other here: the median over *rounds*
    of the two back-to-back walls over the span of the pair."""
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    ratios = []
    for _ in range(rounds):
        back_to_back = sum(end - start for start, end in (burn(), burn()))
        barrier, queue = context.Barrier(2), context.Queue()
        pair = [
            context.Process(target=_burn_into, args=(barrier, queue)) for _ in range(2)
        ]
        for process in pair:
            process.start()
        spans = [queue.get() for _ in pair]
        for process in pair:
            process.join()
        side_by_side = max(end for _, end in spans) - min(start for start, _ in spans)
        ratios.append(back_to_back / side_by_side)
    return round(statistics.median(ratios), 2)


def recovered_clusters(truth: list[str], labels: list[int | None]) -> int:
    """True clusters that some predicted cluster holds more than half of
    and has as its plurality label; outliers are no true cluster."""
    from collections import Counter

    from repro.sequences.database import OUTLIER_LABEL

    sizes = Counter(label for label in truth if label != OUTLIER_LABEL)
    by_cluster: dict[int, Counter] = {}
    for label, cluster in zip(truth, labels):
        if cluster is not None:
            by_cluster.setdefault(cluster, Counter())[label] += 1
    recovered = set()
    for counts in by_cluster.values():
        plurality, held = counts.most_common(1)[0]
        if plurality in sizes and held > sizes[plurality] / 2:
            recovered.add(plurality)
    return len(recovered)


def fit_draw(fraction: float, seed: int) -> dict:
    """Fit one draw in this process: its row, with the labels in place
    of the digest."""
    from measure import HostSpeed, read_vmhwm_mb

    from repro import CLUSEQ, CluseqParams
    from repro.evaluation.metrics import adjusted_rand_index
    from repro.sequences.database import OUTLIER_LABEL
    from repro.sequences.generators import generate_clustered_database

    db = generate_clustered_database(
        **DRAW_SPEC, outlier_fraction=fraction, seed=seed
    ).database
    speed = HostSpeed()
    probing = 0.0

    def probe(_snapshot: object) -> None:
        nonlocal probing
        started = time.perf_counter()
        speed.probe()
        probing += time.perf_counter() - started

    before = read_vmhwm_mb()
    speed.probe()
    started = time.perf_counter()
    result = CLUSEQ(CluseqParams(**FIT_PARAMS), hooks=[probe]).fit(db)
    ended = time.perf_counter()
    after = read_vmhwm_mb()
    wall = ended - started - probing
    labels = result.labels()
    truth = [record.label for record in db]
    outlier_clusters = [
        cluster for label, cluster in zip(truth, labels) if label == OUTLIER_LABEL
    ]
    log_ts = [stats.log_threshold for stats in result.history]
    return {
        "draw": f"{fraction}/{seed}",
        "outlier_fraction": fraction,
        "seed": seed,
        "ari": round(adjusted_rand_index(truth, labels), 4),
        "iterations": result.iterations,
        "converged": result.converged,
        "clusters": result.num_clusters,
        "seeds": sum(stats.new_clusters for stats in result.history),
        "dismissed": sum(stats.clusters_removed for stats in result.history),
        "recovered": recovered_clusters(truth, labels),
        "outliers_left": outlier_clusters.count(None),
        "outliers": len(outlier_clusters),
        "final_log_t": round(result.final_log_threshold, 4),
        "t_moves": sum(1 for prev, cur in zip(log_ts, log_ts[1:]) if cur != prev),
        "labels": labels,
        "seconds": round(speed.corrected(wall, started, ended), 3),
        "fit_wall_raw_s": round(wall, 3),
        "vmhwm_before_mb": before,
        "vmhwm_after_mb": after,
    }


def run_draw(fraction: float, seed: int) -> dict:
    """One draw's row, from a fresh process."""
    from workloads import digest

    done = subprocess.run(
        [sys.executable, __file__, "--draw", str(fraction), str(seed)],
        capture_output=True,
        text=True,
        check=True,
    )
    row = json.loads(done.stdout.splitlines()[-1])
    row["digest"] = digest(row.pop("labels"))
    return row


#: ``(key, title, width, format)`` of each printed column.
COLUMNS = (
    ("outlier_fraction", "outliers", 8, ".2f"),
    ("seed", "seed", 4, ""),
    ("ari", "ARI", 6, ".3f"),
    ("iterations", "iters", 5, ""),
    ("converged", "converged", 9, ""),
    ("clusters", "clusters", 8, ""),
    ("seeds", "seeds", 5, ""),
    ("dismissed", "dismissed", 9, ""),
    ("recovered", "recovered", 9, ""),
    ("outliers_left", "left", 4, ""),
    ("outliers", "of", 3, ""),
    ("final_log_t", "log t", 6, ".3f"),
    ("t_moves", "t moves", 7, ""),
    ("digest", "digest", 16, ""),
    ("seconds", "wall s", 6, ".2f"),
    ("vmhwm_before_mb", "HWM before", 10, ".1f"),
    ("vmhwm_after_mb", "HWM after", 9, ".1f"),
)


def bench_document(rows: list[dict]) -> dict:
    """The ``repro.bench/v1`` document of *rows*: one workload for the
    smoke and the full run, so their draws pair in the ledger."""
    return {
        "schema": "repro.bench/v1",
        "bench": "fit_quality",
        "workload": {**DRAW_SPEC, **FIT_PARAMS},
        "results": rows,
    }


def print_row(row: dict) -> None:
    print(" ".join(f"{format(row[key], spec):>{width}}" for key, _, width, spec in COLUMNS))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fit quality over ten draws")
    parser.add_argument("--smoke", action="store_true", help="fit two draws only")
    parser.add_argument(
        "--out", type=Path, help="write the rows here as a repro.bench/v1 document"
    )
    parser.add_argument(
        "--draw", nargs=2, metavar=("FRACTION", "SEED"),
        help="fit one draw in this process and print its row (used per draw)",
    )
    args = parser.parse_args(argv)
    if args.draw:
        print(json.dumps(fit_draw(float(args.draw[0]), int(args.draw[1]))))
        return 0
    parallelism = host_parallelism()
    print(f"host parallelism {parallelism:.2f} (2.0: two idle CPUs; 1.0: one)")
    print(" ".join(f"{title:>{width}}" for _, title, width, _ in COLUMNS))
    rows = []
    for fraction, seed in SMOKE_DRAWS if args.smoke else DRAWS:
        rows.append({**run_draw(fraction, seed), "host_parallelism": parallelism})
        print_row(rows[-1])
    if args.out is not None:
        from tools.benchtrack.schema import write_bench_document

        write_bench_document(args.out, bench_document(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
