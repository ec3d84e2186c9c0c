"""Count-decay policy for streaming cluster models.

CLUSEQ cluster PSTs are additive (§4.4): every joining segment only
ever increases counts, so under an unbounded stream a cluster model
fossilizes — symbols seen a million batches ago outvote the current
regime forever. The decay policy periodically rescales every cluster's
counts (see :meth:`repro.core.pst.ProbabilisticSuffixTree.decay_counts`),
which makes the model an exponentially-weighted window over the
stream: a count observed ``n`` decay events ago retains weight
``factor**n``. Related context-tree results (parsimonious Bayesian
context trees, sparse context-tree estimation) show variable-order
models stay well-behaved under exactly this kind of pruning of
low-count contexts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DecayPolicy:
    """When and how hard to decay cluster PST counts.

    Parameters
    ----------
    factor:
        Multiplier applied to every count at each decay event
        (``0 < factor ≤ 1``; 1.0 disables decay entirely).
    every_batches:
        Decay runs after every this-many ingested micro-batches
        (``0`` disables).
    min_count:
        Nodes whose scaled count falls below this are forgotten
        (subtree pruned) — forwarded to ``decay_counts``.
    """

    factor: float = 1.0
    every_batches: int = 0
    min_count: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("factor must be in (0, 1]")
        if self.every_batches < 0:
            raise ValueError("every_batches must be non-negative")
        if self.min_count < 1:
            raise ValueError("min_count must be at least 1")

    @property
    def enabled(self) -> bool:
        return self.every_batches > 0 and self.factor < 1.0

    def due(self, batches_ingested: int) -> bool:
        """Whether a decay event fires after batch *batches_ingested*."""
        return (
            self.enabled
            and batches_ingested > 0
            and batches_ingested % self.every_batches == 0
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "factor": self.factor,
            "every_batches": self.every_batches,
            "min_count": self.min_count,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "DecayPolicy":
        return cls(
            factor=float(data["factor"]),  # type: ignore[arg-type]
            every_batches=int(data["every_batches"]),  # type: ignore[arg-type]
            min_count=int(data.get("min_count", 1)),  # type: ignore[arg-type]
        )
