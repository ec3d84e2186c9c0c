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
- ``digest``: the labels digest of the end-to-end benchmark
  (``benchmarks/e2e/workloads.py``), exact across machines;
- ``fit_wall_s``: the fit's wall time corrected for host speed with the
  end-to-end benchmark's ``HostSpeed`` probes, one before the fit and
  one after each iteration (the probes' own time is taken out);
  ``fit_wall_raw_s`` uncorrected;
- ``vmhwm_before_mb`` and ``vmhwm_after_mb``: the process's peak
  resident set (Linux ``VmHWM``) after generating the draw and after
  the fit.

Quality and digests are exact; the wall is indicative. No gate: the
run fails only when a draw fails. Run it as

    python benchmarks/bench_fit_quality.py --out rows.jsonl   # ten draws
    python benchmarks/bench_fit_quality.py --smoke            # (0.05, 1), (0.05, 3)
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE / "e2e", HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

#: The generator arguments every draw shares.
DRAW_SPEC = {"num_sequences": 400, "num_clusters": 10, "avg_length": 120, "alphabet_size": 12}
FIT_PARAMS = {"k": 2, "significance_threshold": 4}
#: ``(outlier_fraction, seed)`` of every draw, and of the smoke's two.
DRAWS = [(fraction, seed) for fraction in (0.05, 0.2) for seed in range(5)]
SMOKE_DRAWS = [(0.05, 1), (0.05, 3)]


def fit_draw(fraction: float, seed: int) -> dict:
    """Fit one draw in this process: its row, with the labels in place
    of the digest."""
    from measure import HostSpeed, read_vmhwm_mb

    from repro import CLUSEQ, CluseqParams
    from repro.evaluation.metrics import adjusted_rand_index
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
    return {
        "outlier_fraction": fraction,
        "seed": seed,
        "ari": round(adjusted_rand_index([record.label for record in db], labels), 4),
        "iterations": result.iterations,
        "converged": result.converged,
        "clusters": result.num_clusters,
        "seeds": sum(stats.new_clusters for stats in result.history),
        "dismissed": sum(stats.clusters_removed for stats in result.history),
        "labels": labels,
        "fit_wall_s": round(speed.corrected(wall, started, ended), 3),
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
    ("digest", "digest", 16, ""),
    ("fit_wall_s", "wall s", 6, ".2f"),
    ("vmhwm_before_mb", "HWM before", 10, ".1f"),
    ("vmhwm_after_mb", "HWM after", 9, ".1f"),
)


def print_row(row: dict) -> None:
    print(" ".join(f"{format(row[key], spec):>{width}}" for key, _, width, spec in COLUMNS))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fit quality over ten draws")
    parser.add_argument("--smoke", action="store_true", help="fit two draws only")
    parser.add_argument("--out", type=Path, help="write one JSON row per draw here")
    parser.add_argument(
        "--draw", nargs=2, metavar=("FRACTION", "SEED"),
        help="fit one draw in this process and print its row (used per draw)",
    )
    args = parser.parse_args(argv)
    if args.draw:
        print(json.dumps(fit_draw(float(args.draw[0]), int(args.draw[1]))))
        return 0
    print(" ".join(f"{title:>{width}}" for _, title, width, _ in COLUMNS))
    rows = []
    for fraction, seed in SMOKE_DRAWS if args.smoke else DRAWS:
        rows.append(run_draw(fraction, seed))
        print_row(rows[-1])
    if args.out is not None:
        args.out.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
