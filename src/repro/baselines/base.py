"""Common interface for the baseline clustering models of Table 2.

Every baseline consumes a :class:`~repro.sequences.SequenceDatabase`
and produces one (optional) cluster id per sequence, so the experiment
harnesses can score CLUSEQ and all baselines with the same metrics
code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..obs import get_logger, get_registry, span
from ..sequences.database import SequenceDatabase

_logger = get_logger("baselines")


@dataclass
class BaselineResult:
    """Outcome of one baseline run.

    ``labels[i]`` is the cluster id assigned to sequence ``i`` or
    ``None`` when the model deems it an outlier (most baselines assign
    everything).
    """

    labels: list[int | None]
    elapsed_seconds: float
    model_name: str
    extra: dict[str, object] = field(default_factory=dict)

    @property
    def num_clusters(self) -> int:
        return len({label for label in self.labels if label is not None})


class SequenceClusterer:
    """Base class for baseline clusterers.

    Subclasses implement :meth:`_cluster`; :meth:`fit_predict` wraps it
    with validation and timing.
    """

    #: Human-readable model name used in reports ("ED", "HMM", …).
    name = "baseline"

    def fit_predict(self, db: SequenceDatabase, num_clusters: int) -> BaselineResult:
        """Cluster *db* into *num_clusters* groups."""
        if len(db) == 0:
            raise ValueError("cannot cluster an empty database")
        if num_clusters < 1:
            raise ValueError("num_clusters must be at least 1")
        if num_clusters > len(db):
            raise ValueError(
                f"cannot form {num_clusters} clusters from {len(db)} sequences"
            )
        start = time.perf_counter()
        # Uniform instrumentation across every comparison model: one
        # span (and its ``span.baseline.<name>`` timer) per fit, so
        # CLUSEQ-vs-baseline cost comparisons read off one registry.
        with span(f"baseline.{self.name}"):
            labels = self._cluster(db, num_clusters)
        elapsed = time.perf_counter() - start
        if len(labels) != len(db):
            raise RuntimeError(
                f"{self.name} returned {len(labels)} labels for {len(db)} sequences"
            )
        registry = get_registry()
        if registry.enabled:
            registry.gauge("baseline.clusters", model=self.name).set(
                len({label for label in labels if label is not None})
            )
        if _logger.isEnabledFor(20):  # logging.INFO
            _logger.info(
                "%s fit done",
                self.name,
                extra={
                    "model": self.name,
                    "sequences": len(db),
                    "num_clusters": num_clusters,
                    "elapsed_seconds": round(elapsed, 6),
                },
            )
        return BaselineResult(
            labels=labels,
            elapsed_seconds=elapsed,
            model_name=self.name,
        )

    def _cluster(
        self, db: SequenceDatabase, num_clusters: int
    ) -> list[int | None]:
        raise NotImplementedError
