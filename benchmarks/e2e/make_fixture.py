"""Regenerate the committed inputs of the end-to-end benchmark.

The benchmark reads its pinned inputs from ``fixtures/`` instead of
generating them at run time, so a later change to the generators or to
the fit cannot silently change what the benchmark measures (and the
8,000-sequence stream takes ~5 s to generate). This script is the only
way the files are made:

    PYTHONPATH=src python benchmarks/e2e/make_fixture.py

It writes:

* ``fit_database.tsv`` — the ``fit-outliers`` database: the fig6 shape
  (400 sequences, 10 clusters, length 120, alphabet 12, 5% outliers),
  generator seed 3, one ``label<TAB>sequence`` line each.
* ``drift_stream.txt.gz`` — the ``stream-drift``/``shard-drift`` input:
  ``drifting_markov_stream(8000, 4000, alphabet 8, length 60,
  concentration 0.05, seed 11)``, one line of symbol digits each. This
  is ``benchmarks/bench_stream_throughput.py``'s stream, scaled up.
* ``serve_model.json`` — the model the serve workloads load: the
  ``fit-outliers`` parameters fitted on 200 sequences of the same shape
  (generator seed 5).
* ``serve_queries.txt.gz`` — 4,096 request sequences drawn (seed 7)
  from the serve model's ten cluster sources, one per line; each run
  draws its classify and ingest sequences from them with ``--seed``.

Rerun it only on purpose: new files change the benchmark's inputs.
"""

from __future__ import annotations

import gzip
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
FIT_DATABASE = FIXTURES / "fit_database.tsv"
DRIFT_STREAM = FIXTURES / "drift_stream.txt.gz"
SERVE_MODEL = FIXTURES / "serve_model.json"
SERVE_QUERIES = FIXTURES / "serve_queries.txt.gz"

#: CLUSEQ parameters of ``fit-outliers`` and of the serve model.
FIT_PARAMS = {"k": 2, "significance_threshold": 4}
FIT_SPEC = {
    "num_sequences": 400,
    "num_clusters": 10,
    "avg_length": 120,
    "alphabet_size": 12,
    "outlier_fraction": 0.05,
    "seed": 3,
}
#: The serve model's generator spec; the queries come from its sources.
SERVE_SPEC = {**FIT_SPEC, "num_sequences": 200, "seed": 5}
SERVE_QUERY_COUNT = 4096
SERVE_QUERY_SEED = 7
STREAM_SPEC = {
    "num_sequences": 8000,
    "drift_at": 4000,
    "alphabet_size": 8,
    "mean_length": 60,
    "concentration": 0.05,
    "seed": 11,
}


def write_lines_gz(path: Path, lines: list[str]) -> None:
    # mtime=0 keeps the gzip bytes identical across regenerations.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
        for line in lines:
            handle.write(line.encode("ascii") + b"\n")


def read_lines_gz(path: Path) -> list[str]:
    with gzip.open(path, "rt", encoding="ascii") as handle:
        return [line.rstrip("\n") for line in handle]


def main() -> int:
    import numpy as np

    from repro import CLUSEQ, CluseqParams
    from repro.core.persistence import save_result
    from repro.sequences.generators import generate_clustered_database
    from repro.stream import drifting_markov_stream

    FIXTURES.mkdir(exist_ok=True)
    database = generate_clustered_database(**FIT_SPEC).database
    with open(FIT_DATABASE, "w", encoding="utf-8") as handle:
        for record in database:
            handle.write(f"{record.label}\t{record.as_string()}\n")

    stream = drifting_markov_stream(**STREAM_SPEC)
    write_lines_gz(DRIFT_STREAM, ["".join(map(str, seq)) for seq in stream.sequences])

    serve = generate_clustered_database(**SERVE_SPEC)
    result = CLUSEQ(CluseqParams(**FIT_PARAMS)).fit(serve.database)
    save_result(result, str(SERVE_MODEL), alphabet=serve.database.alphabet)

    rng = np.random.default_rng(SERVE_QUERY_SEED)
    alphabet = serve.database.alphabet
    write_lines_gz(SERVE_QUERIES, [
        alphabet.decode_to_string(
            serve.sources[int(pick)].sample_many(1, SERVE_SPEC["avg_length"], rng=rng)[0]
        )
        for pick in rng.integers(0, len(serve.sources), size=SERVE_QUERY_COUNT)
    ])

    for path in (FIT_DATABASE, DRIFT_STREAM, SERVE_MODEL, SERVE_QUERIES):
        print(f"wrote {path.relative_to(HERE)} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
