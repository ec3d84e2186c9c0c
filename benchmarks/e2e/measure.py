"""Measurement helpers of the end-to-end benchmark.

Nothing here imports the program under test, so ``test_helpers.py``
checks these rules without running a workload.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from bisect import bisect_left, bisect_right
from collections.abc import Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, one outlier decides the value.
MIN_SAMPLES_BEYOND = 10

#: The probe's fixed input: a table of log-ratios and the (row, column)
#: path a scan reads, the shape of the reference similarity DP's inner
#: loop (timed against that DP, the probe slows down by the same share
#: when the host does; a plain integer loop slowed down less).
_PROBE_TABLE = [
    [((row * 31 + column * 17) % 97) / 97.0 - 0.5 for column in range(12)]
    for row in range(512)
]
_PROBE_PATH = [((step * 7919) % 512, (step * 104729) % 12) for step in range(8000)]

#: Seconds :func:`reference_probe` takes on the calibration host (a
#: 2-vCPU 2.1 GHz Xeon virtual machine) when nothing competes for it:
#: the 5th percentile of 3,670 probes over 40 s (median 0.74 ms, 90th
#: percentile 0.98 ms). Corrected timings read as seconds on that host
#: at that speed.
REFERENCE_PROBE_SECONDS = 0.00056


def reference_probe() -> float:
    """CPU seconds one fixed pure-Python scan takes right now.

    The collector is paused, so the program's heap cannot change the
    result, and the scan is timed in thread CPU time, so waiting for the
    interpreter lock (held by the serve workloads' client threads) does
    not count: the probe measures the host's CPU, never the program.
    On the calibration host the slow spells show in CPU time as much as
    in wall time (they are slower instructions, not stolen time).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        best = running = 0.0
        for row, column in _PROBE_PATH:
            value = _PROBE_TABLE[row][column]
            running = running + value if running + value >= value else value
            if running > best:
                best = running
        return time.thread_time() - started
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference probes taken between timed samples.

    A shared virtual machine runs at a speed that changes by up to 2x for
    seconds at a time, so every timing is corrected by the probes taken
    just before and just after it: a sample timed while the probes ran
    at half the reference speed counts half.
    """

    def __init__(self) -> None:
        self.moments: list[float] = []
        self.durations: list[float] = []

    def probe(self) -> None:
        duration = reference_probe()
        self.moments.append(time.perf_counter())
        self.durations.append(duration)

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the host's speed around ``[start, end]``:
        from the mean of the probes finished inside it, the last one
        finished by *start* and the first one after *end* (the nearest
        ones at the edges)."""
        if not self.moments:
            raise ValueError("no probe taken")
        last = len(self.moments) - 1
        before = min(max(bisect_right(self.moments, start) - 1, 0), last)
        after = max(min(bisect_left(self.moments, end), last), before)
        local = self.durations[before : after + 1]
        return REFERENCE_PROBE_SECONDS / (sum(local) / len(local))

    def corrected(self, seconds: float, start: float, end: float) -> float:
        """*seconds* timed over ``[start, end]``, at the reference speed."""
        return seconds * self.factor(start, end)


def median(values: Sequence[float]) -> float:
    """The median of *values*; raises ``ValueError`` when empty."""
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float | None:
    """The *q*-th percentile (nearest rank), or ``None`` when unsupported.

    Unsupported means fewer than :data:`MIN_SAMPLES_BEYOND` samples lie
    above the percentile: p99 needs at least 1,000 samples, p95 200.
    """
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    count = len(values)
    if count * (100 - q) / 100 < MIN_SAMPLES_BEYOND:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * count))
    return float(ordered[rank - 1])


def window_rates(
    times: Sequence[float], start: float, end: float, width: float
) -> list[float]:
    """Events per second in each full *width*-second window of
    ``[start, end)``, given the events' completion *times*.

    The median of these rates is a throughput that a stall of the host
    shorter than half the run leaves unchanged; a total count divided by
    the run's length is not.
    """
    windows = int((end - start) // width)
    counts = [0] * windows
    for moment in times:
        index = int((moment - start) // width)
        if 0 <= index < windows:
            counts[index] += 1
    return [count / width for count in counts]


def relative_iqr(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (quartiles as
    ``statistics.quantiles(values, n=4)`` gives them)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse *change* is than *parent*, as a share of *parent*.

    Negative when the change is better. *better* is ``"lower"`` or
    ``"higher"``, as in ``BENCHMARK.json``.
    """
    if parent == 0:
        raise ValueError("parent value must be non-zero")
    if better == "lower":
        return (change - parent) / abs(parent)
    if better == "higher":
        return (parent - change) / abs(parent)
    raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")


def within_bound(parent: float, change: float, better: str, bound: float) -> bool:
    """Whether *change* is no worse than *parent* by more than *bound*."""
    return worsening(parent, change, better) <= bound


def parse_prometheus(text: str) -> dict[str, float]:
    """Sample name (labels included, as written) -> value, from the
    Prometheus text exposition the program's ``/metrics`` serves."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        values[name] = float(value)
    return values


def parse_vmhwm_mb(status_text: str) -> float:
    """Peak resident set size in MB from ``/proc/<pid>/status`` text."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            fields = line.split()
            if len(fields) != 3 or fields[2] != "kB":
                raise ValueError(f"unexpected VmHWM line: {line!r}")
            return int(fields[1]) / 1024.0
    raise ValueError("no VmHWM line in status text")


def read_vmhwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of process *pid* in MB (Linux only)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        return parse_vmhwm_mb(handle.read())
