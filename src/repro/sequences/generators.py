"""Synthetic sequence-database generators.

The paper's §6.2–§6.4 experiments use synthetic databases with a known
number of *embedded clusters* — each cluster's sequences are drawn from
one randomly-chosen probabilistic source — plus a percentage of
memoryless-random *outliers*. :func:`generate_clustered_database`
reproduces that workload generator (scaled to laptop sizes) and is the
input of every scalability/sensitivity benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .alphabet import Alphabet
from .database import OUTLIER_LABEL, SequenceDatabase
from .markov import MarkovSource, random_markov_source, uniform_source


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a synthetic clustered workload.

    Mirrors the knobs of the paper's generator: number of sequences,
    number of embedded clusters, average sequence length, alphabet
    size, and outlier fraction. *concentration* and *order* control how
    characteristic each embedded cluster is (see
    :func:`~repro.sequences.markov.random_markov_source`).
    """

    num_sequences: int = 500
    num_clusters: int = 10
    avg_length: int = 100
    alphabet_size: int = 20
    outlier_fraction: float = 0.05
    order: int = 2
    concentration: float = 0.15
    length_jitter: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_sequences <= 0:
            raise ValueError("num_sequences must be positive")
        if self.num_clusters <= 0:
            raise ValueError("num_clusters must be positive")
        if self.avg_length < 2:
            raise ValueError("avg_length must be at least 2")
        if self.alphabet_size <= 1:
            raise ValueError("alphabet_size must be at least 2")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must be in [0, 1)")


@dataclass
class SyntheticDataset:
    """A generated database plus the sources that produced it."""

    database: SequenceDatabase
    spec: SyntheticSpec
    sources: list[MarkovSource] = field(default_factory=list)


def generate_clustered_database(
    spec: SyntheticSpec | None = None, **overrides: Any
) -> SyntheticDataset:
    """Generate a synthetic clustered sequence database.

    Either pass a full :class:`SyntheticSpec` or individual keyword
    overrides, e.g. ``generate_clustered_database(num_clusters=50)``.

    Cluster sizes are balanced up to rounding; each clustered sequence
    is labelled ``cluster<i>`` and every outlier is labelled
    :data:`~repro.sequences.database.OUTLIER_LABEL` so downstream
    metrics can score against ground truth.
    """
    if spec is None:
        spec = SyntheticSpec(**overrides)
    elif overrides:
        raise TypeError("pass either a spec or keyword overrides, not both")

    rng = np.random.default_rng(spec.seed)
    num_outliers = int(round(spec.num_sequences * spec.outlier_fraction))
    num_clustered = spec.num_sequences - num_outliers
    if num_clustered < spec.num_clusters:
        raise ValueError(
            f"cannot embed {spec.num_clusters} clusters in "
            f"{num_clustered} clustered sequences"
        )

    sources = [
        random_markov_source(
            spec.alphabet_size,
            order=spec.order,
            rng=rng,
            concentration=spec.concentration,
        )
        for _ in range(spec.num_clusters)
    ]

    # Balanced sizes: distribute the remainder over the first clusters.
    base, extra = divmod(num_clustered, spec.num_clusters)
    sizes = [base + (1 if i < extra else 0) for i in range(spec.num_clusters)]

    alphabet = Alphabet.generic(spec.alphabet_size)
    db = SequenceDatabase(alphabet)
    for cluster_id, (source, size) in enumerate(zip(sources, sizes)):
        for encoded in source.sample_many(
            size, spec.avg_length, rng=rng, length_jitter=spec.length_jitter
        ):
            db.add_sequence(alphabet.decode(encoded), label=f"cluster{cluster_id}")

    noise = uniform_source(spec.alphabet_size)
    for encoded in noise.sample_many(
        num_outliers, spec.avg_length, rng=rng, length_jitter=spec.length_jitter
    ):
        db.add_sequence(alphabet.decode(encoded), label=OUTLIER_LABEL)

    return SyntheticDataset(database=db, spec=spec, sources=sources)


def generate_two_cluster_toy(
    size_per_cluster: int = 30,
    length: int = 40,
    seed: int = 7,
) -> SequenceDatabase:
    """A tiny two-cluster character database for docs, tests and demos.

    Cluster ``ab`` strongly favours alternating ``abab…`` runs; cluster
    ``cd`` favours ``cdcd…`` runs; both include some cross-talk noise
    so the clusters are distinguishable but not trivially disjoint.
    """
    rng = np.random.default_rng(seed)
    ab = MarkovSource(
        4,
        order=1,
        transitions={
            (): np.array([0.45, 0.45, 0.05, 0.05]),
            (0,): np.array([0.1, 0.8, 0.05, 0.05]),
            (1,): np.array([0.8, 0.1, 0.05, 0.05]),
            (2,): np.array([0.4, 0.4, 0.1, 0.1]),
            (3,): np.array([0.4, 0.4, 0.1, 0.1]),
        },
    )
    cd = MarkovSource(
        4,
        order=1,
        transitions={
            (): np.array([0.05, 0.05, 0.45, 0.45]),
            (0,): np.array([0.1, 0.1, 0.4, 0.4]),
            (1,): np.array([0.1, 0.1, 0.4, 0.4]),
            (2,): np.array([0.05, 0.05, 0.1, 0.8]),
            (3,): np.array([0.05, 0.05, 0.8, 0.1]),
        },
    )
    alphabet = Alphabet("abcd")
    db = SequenceDatabase(alphabet)
    for encoded in ab.sample_many(size_per_cluster, length, rng=rng):
        db.add_sequence(alphabet.decode(encoded), label="ab")
    for encoded in cd.sample_many(size_per_cluster, length, rng=rng):
        db.add_sequence(alphabet.decode(encoded), label="cd")
    return db
