"""Telemetry zero-overhead bench — the disabled-path cost bound.

The scoring hot path (``PstBatchScorer._score_matrix_arrays``, the
stack/flat caches) reads the clock around each kernel call and records
the reading, with its counters, behind ``registry.enabled`` guards. This bench
verifies the contract that motivated those guards: with telemetry
fully disabled (the default), the instrumented scorer must run within
``OVERHEAD_BOUND`` (2%) of a hand-inlined, guard-free transcription of
the same kernel sequence — i.e. the pre-instrumentation timing.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py

Exits non-zero when the bound is violated after ``ATTEMPTS`` retries
(timing on shared CI machines is noisy; a bound this tight needs many
paired samples and a couple of attempts). Also runs under pytest as
the perf-smoke assertion.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.core.backends import PstBatchScorer, flatten_pst
from repro.core.backends.vectorized import (
    gather_ratios_matrix,
    kadane_columns,
    pad_sequences,
    prepare_stack,
    walk_states_matrix,
)
from repro.core.pst import ProbabilisticSuffixTree
from repro.obs import NULL_REGISTRY, get_registry

#: Disabled telemetry may cost at most this fraction over the bare kernels.
OVERHEAD_BOUND = 0.02
#: Timing attempts before declaring the bound violated.
ATTEMPTS = 3
#: Paired samples per attempt; the overhead is their median ratio.
REPEATS = 100
#: Calls timed back to back in one sample.
BLOCK = 5

WORKLOAD = {"alphabet": 12, "depth": 5, "significance": 3, "clusters": 6,
            "sequences": 60, "length": 80}


def build_workload():
    rng = np.random.default_rng(23)
    alphabet = WORKLOAD["alphabet"]
    psts = []
    for _ in range(WORKLOAD["clusters"]):
        pst = ProbabilisticSuffixTree(
            alphabet_size=alphabet,
            max_depth=WORKLOAD["depth"],
            significance_threshold=WORKLOAD["significance"],
        )
        for _ in range(10):
            pst.add_sequence(
                [int(s) for s in rng.integers(0, alphabet, WORKLOAD["length"])]
            )
        psts.append(pst)
    sequences = [
        [int(s) for s in rng.integers(0, alphabet, WORKLOAD["length"])]
        for _ in range(WORKLOAD["sequences"])
    ]
    background = np.full(alphabet, 1.0 / alphabet)
    return psts, sequences, background


def make_bare_runner(scorer, psts, sequences, log_bg):
    """The same kernel sequence with zero instrumentation.

    A transcription of ``score_matrix_full`` / ``_score_matrix_arrays``
    with every clock read and telemetry guard deleted — the
    pre-instrumentation hot path:
    pad once (checking the ids), step the prediction-node automaton
    over the full-matrix state cube, gather ratios, one batched Kadane
    scan over the cube. The prepared stack is hoisted like the scorer's
    cache is.
    """
    prep = prepare_stack([flatten_pst(pst) for pst in psts], log_bg)
    alphabet = psts[0].alphabet_size

    def bare() -> None:
        symbols, lengths = pad_sequences(sequences, alphabet)
        states = walk_states_matrix(prep, symbols)
        ratios = gather_ratios_matrix(prep, symbols, states)
        kadane_columns(ratios, lengths)

    return bare


def measure_overhead() -> tuple[float, float, float]:
    """(bare_seconds, instrumented_seconds, overhead_fraction).

    The two variants are timed *interleaved*: each of ``REPEATS`` pairs
    times a block of ``BLOCK`` bare calls and a block of ``BLOCK``
    instrumented calls back to back, alternating which goes first.
    Back-to-back blocks far apart pick up systematic drift (frequency
    scaling, cache state, a neighbour's load) that dwarfs the per-call
    guard cost this bench is trying to measure; the two blocks of one
    pair share the host's state, so their ratio cancels it. The
    overhead is the median of the pairs' ratios, and the seconds are
    the median per-call times. A block of calls per sample, not one,
    keeps a single preempted call from deciding a sample.
    """
    assert not get_registry().enabled, (
        "this bench must run with telemetry disabled"
    )
    psts, sequences, background = build_workload()
    scorer = PstBatchScorer(background, psts)
    scorer.score_matrix_full(sequences)  # warm flats, stack and caches
    bare_runner = make_bare_runner(scorer, psts, sequences, scorer.log_bg)
    bare_runner()

    def instrumented_runner() -> None:
        scorer.score_matrix_full(sequences)

    def block(runner) -> float:
        started = time.perf_counter()
        for _ in range(BLOCK):
            runner()
        return time.perf_counter() - started

    bare, instrumented, ratios = [], [], []
    for repeat in range(REPEATS):
        if repeat % 2 == 0:
            bare_s = block(bare_runner)
            instrumented_s = block(instrumented_runner)
        else:
            instrumented_s = block(instrumented_runner)
            bare_s = block(bare_runner)
        bare.append(bare_s / BLOCK)
        instrumented.append(instrumented_s / BLOCK)
        ratios.append(instrumented_s / bare_s)
    return (
        statistics.median(bare),
        statistics.median(instrumented),
        statistics.median(ratios) - 1.0,
    )


def run(report=print) -> bool:
    assert get_registry() is NULL_REGISTRY or not get_registry().enabled
    worst = None
    for attempt in range(1, ATTEMPTS + 1):
        bare, instrumented, overhead = measure_overhead()
        report(
            f"attempt {attempt}: bare {bare * 1e3:.3f} ms, "
            f"instrumented(disabled) {instrumented * 1e3:.3f} ms, "
            f"overhead {overhead * 100:+.2f}% (bound {OVERHEAD_BOUND:.0%})"
        )
        if overhead <= OVERHEAD_BOUND:
            return True
        worst = overhead
    report(
        f"FAIL: disabled-telemetry overhead {worst * 100:+.2f}% exceeds "
        f"{OVERHEAD_BOUND:.0%} after {ATTEMPTS} attempts",
    )
    return False


def test_disabled_telemetry_overhead_bounded():
    """Perf-smoke gate: telemetry off must cost ≤2% on the score path."""
    from repro.obs import use_registry

    # conftest's bench_telemetry fixture installs a live registry for
    # every bench; this one specifically measures the disabled path.
    with use_registry(None):
        assert run()


def main() -> int:
    return 0 if run() else 1


if __name__ == "__main__":
    sys.exit(main())
