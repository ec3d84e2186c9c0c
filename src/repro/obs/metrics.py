"""A dependency-free metrics registry.

Four aggregate primitives cover everything the CLUSEQ pipeline needs
to report about itself:

* :class:`Counter` — a monotonically increasing count (events, DP
  cells, dismissed clusters).
* :class:`Gauge` — a last-value-wins instantaneous reading (final
  cluster count, peak RSS).
* :class:`Histogram` — a fixed-bucket distribution (segment lengths,
  PST depths).
* :class:`Timer` — aggregated durations with wall and CPU components
  (phase spans, baseline fits).

Each holds a fixed amount of state however many times it records, so
a snapshot does not grow with the run. Per-iteration and per-batch
values are log events (:mod:`repro.obs.logging`), not metrics.

Metrics live in a :class:`MetricsRegistry`, keyed by name plus an
optional label set; ``registry.counter("x", model="hmm")`` and
``registry.counter("x", model="ed")`` are distinct time series of the
same metric family.

**Zero overhead by default.** The module-level active registry starts
as a :class:`NullRegistry` whose factory methods hand back shared
no-op instruments: instrumented code pays one attribute check
(``registry.enabled``) — or, at worst, a couple of no-op method calls —
per *call site*, never per symbol. Enable collection for a block of
code with::

    from repro.obs import MetricsRegistry, use_registry

    registry = MetricsRegistry()
    with use_registry(registry):
        result = CLUSEQ(params).fit(db)
    print(registry.snapshot())

Nothing here imports anything outside the standard library, so the
``obs`` package can be pulled into the hottest modules without
dependency concerns.
"""

from __future__ import annotations

import math
import sys
import threading
from bisect import bisect_left
from collections.abc import Callable, Sequence
from typing import TypeVar, Union, cast

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    "LATENCY_BUCKETS",
    "peak_rss_bytes",
]

#: Default histogram bucket upper bounds: powers of two up to 64k.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(float(2**i) for i in range(17))

#: I/O latency histogram bucket upper bounds: powers of two from 1 µs
#: up to ~16.8 s. Wide enough for an fsync on spinning rust, fine
#: enough to separate a page-cache flush from a durable one.
LATENCY_BUCKETS: tuple[float, ...] = tuple(1e-6 * 2**i for i in range(25))


def peak_rss_bytes() -> float | None:
    """Peak resident set size of this process in bytes.

    Returns ``None`` on platforms without the :mod:`resource` module.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return peak if sys.platform == "darwin" else peak * 1024.0


LabelItems = tuple[tuple[str, str], ...]

#: Any concrete instrument (typing.Union: evaluated at runtime on py39).
Metric = Union["Counter", "Gauge", "Histogram", "Timer"]

_M = TypeVar("_M", "Counter", "Gauge", "Histogram", "Timer")


def _label_key(labels: dict[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_name(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        self.value += amount

    def to_dict(self) -> dict[str, object]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-value-wins instantaneous reading."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def to_dict(self) -> dict[str, object]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A fixed-bucket distribution of observed values.

    ``buckets`` are *upper bounds* in ascending order; an implicit
    ``+inf`` bucket catches everything above the last bound. Alongside
    bucket counts the histogram tracks count/sum/min/max so means are
    recoverable without bucket interpolation.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, buckets: Sequence[float] | None = None) -> None:
        bounds = tuple(
            float(b) for b in (DEFAULT_BUCKETS if buckets is None else buckets)
        )
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        if not bounds:
            raise ValueError("need at least one bucket bound")
        self.bounds = bounds
        self.bucket_counts: list[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge_binned(
        self,
        bucket_counts: Sequence[int],
        count: int,
        total: float,
        minimum: float,
        maximum: float,
    ) -> None:
        """Fold in a batch that was already binned by the caller.

        The hot batched scorer bins thousands of observations per call
        with vectorized ops, and each reference DP scoring call bins its
        pairs; routing each through :meth:`observe` would dominate the
        scan it is measuring. Empty buckets cost one test each.
        *bucket_counts* must use
        this histogram's bucket rule — index ``bisect_left(bounds,
        value)``, one trailing +inf bucket — and the aggregates must
        describe exactly the binned batch.
        """
        if count == 0:
            return
        if len(bucket_counts) != len(self.bucket_counts):
            raise ValueError(
                f"expected {len(self.bucket_counts)} bucket counts, "
                f"got {len(bucket_counts)}"
            )
        counts = self.bucket_counts
        for index, bucket_count in enumerate(bucket_counts):
            if bucket_count:
                counts[index] += int(bucket_count)
        self.count += count
        self.total += total
        if minimum < self.min:
            self.min = minimum
        if maximum > self.max:
            self.max = maximum

    def to_dict(self) -> dict[str, object]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {
                **{f"le_{b:g}": c for b, c in zip(self.bounds, self.bucket_counts)},
                "inf": self.bucket_counts[-1],
            },
        }


class Timer:
    """Aggregated durations: wall time always, CPU time when provided."""

    __slots__ = ("count", "total_seconds", "total_cpu_seconds", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total_seconds = 0.0
        self.total_cpu_seconds = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, wall_seconds: float, cpu_seconds: float | None = None) -> None:
        if wall_seconds < 0:
            raise ValueError("durations must be non-negative")
        self.count += 1
        self.total_seconds += wall_seconds
        if cpu_seconds is not None:
            self.total_cpu_seconds += cpu_seconds
        if wall_seconds < self.min:
            self.min = wall_seconds
        if wall_seconds > self.max:
            self.max = wall_seconds

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "type": "timer",
            "count": self.count,
            "total_seconds": self.total_seconds,
            "total_cpu_seconds": self.total_cpu_seconds,
            "min_seconds": self.min if self.count else None,
            "max_seconds": self.max if self.count else None,
        }


class MetricsRegistry:
    """A named collection of metric instruments.

    Instruments are created lazily on first access and cached, so
    instrumented code can call ``registry.counter("x").inc()`` in a
    loop without bookkeeping. Requesting an existing name with a
    different type raises ``ValueError`` — a name identifies exactly
    one instrument kind. Thread-safe for instrument creation; the
    instruments themselves rely on the GIL like ordinary Python
    counters do.
    """

    #: Instrumented code may branch on this to skip collection work.
    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelItems], Metric] = {}
        self._types: dict[tuple[str, LabelItems], str] = {}
        self._lock = threading.Lock()

    # -- instrument factories ------------------------------------------------

    def _get_or_create(
        self,
        kind: str,
        name: str,
        labels: dict[str, object],
        factory: Callable[[], _M],
    ) -> _M:
        # Most lookups carry no labels; they skip the sort.
        key = (name, _label_key(labels) if labels else ())
        metric = self._metrics.get(key)
        if metric is not None:
            if self._types[key] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {self._types[key]}, "
                    f"requested as {kind}"
                )
            return cast(_M, metric)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
                self._types[key] = kind
            elif self._types[key] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {self._types[key]}, "
                    f"requested as {kind}"
                )
        return cast(_M, metric)

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create("gauge", name, labels, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] | None = None, **labels: object
    ) -> Histogram:
        return self._get_or_create(
            "histogram", name, labels, lambda: Histogram(buckets)
        )

    def timer(self, name: str, **labels: object) -> Timer:
        return self._get_or_create("timer", name, labels, Timer)

    # -- introspection -------------------------------------------------------

    def names(self) -> list[str]:
        """Sorted rendered names (labels inlined) of all instruments."""
        return sorted(_render_name(name, labels) for name, labels in self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return any(base == name for base, _ in self._metrics)

    def get(self, name: str, **labels: object) -> Metric | None:
        """The instrument registered under *name*/*labels*, or ``None``."""
        return self._metrics.get((name, _label_key(labels)))

    def snapshot(self) -> dict[str, dict[str, object]]:
        """A JSON-serializable dump of every instrument's state."""
        out: dict[str, dict[str, object]] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            entry = metric.to_dict()
            if labels:
                entry["labels"] = dict(labels)
            out[_render_name(name, labels)] = entry
        return out


# -- the no-op implementation ---------------------------------------------------


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class _NullTimer(Timer):
    __slots__ = ()

    def record(self, wall_seconds: float, cpu_seconds: float | None = None) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_TIMER = _NullTimer()


class NullRegistry(MetricsRegistry):
    """The disabled registry: every factory returns a shared no-op.

    ``enabled`` is ``False`` so hot paths can skip even the factory
    call; code that does call through records nothing and allocates
    nothing.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, **labels: object) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: object) -> Gauge:
        return _NULL_GAUGE

    def histogram(
        self, name: str, buckets: Sequence[float] | None = None, **labels: object
    ) -> Histogram:
        return _NULL_HISTOGRAM

    def timer(self, name: str, **labels: object) -> Timer:
        return _NULL_TIMER

#: The process-wide disabled registry (also the default active one).
NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The currently active registry (the no-op one unless enabled)."""
    return _active


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install *registry* as the active one; ``None`` disables collection.

    Returns the previously active registry so callers can restore it.
    """
    global _active
    previous = _active
    _active = registry if registry is not None else NULL_REGISTRY
    return previous


class use_registry:
    """Context manager: activate a registry for a block, then restore.

    >>> registry = MetricsRegistry()
    >>> with use_registry(registry):
    ...     get_registry().counter("demo").inc()
    >>> registry.get("demo").value
    1
    """

    def __init__(self, registry: MetricsRegistry | None) -> None:
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self.registry)
        return self.registry

    def __exit__(self, *exc_info: object) -> None:
        set_registry(self._previous)
