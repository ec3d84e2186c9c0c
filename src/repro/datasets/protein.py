"""Synthetic protein-family database (SWISS-PROT substitute).

The paper's accuracy experiments use 8 000 SWISS-PROT proteins from 30
families sized 140–900 (Table 3 names the ten largest: ig, pkinase,
globin, 7tm_1, homeobox, efhand, RuBisCO_large, …, gluts, actin, rrm).
That data requires a SWISS-PROT licence, so this module generates a
statistically equivalent substitute:

* Each family has its own order-2 Markov source over the 20 standard
  amino acids (family-specific local composition), plus
* one to three **conserved motifs** — fixed short amino-acid strings
  inserted at random offsets into every member (the "common signature /
  conserved protein regions" of the paper's introduction).

Family sizes follow the paper's Table 3 distribution, scaled by a
configurable factor so the default database stays laptop-sized. Both
signals — shared local statistics and conserved regions — are exactly
what the CLUSEQ similarity measure (and the baselines) must pick up,
so the discrimination task is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sequences.alphabet import AMINO_ACIDS, Alphabet
from ..sequences.database import OUTLIER_LABEL, SequenceDatabase
from ..sequences.markov import MarkovSource, random_markov_source, uniform_source

#: The family names and sizes the paper reports in Table 3 (the ten it
#: shows), padded with synthetic names up to 30 families whose sizes
#: interpolate the 140–900 range.
PAPER_FAMILY_SIZES: tuple[tuple[str, int], ...] = (
    ("ig", 884),
    ("pkinase", 725),
    ("globin", 681),
    ("7tm_1", 515),
    ("homeobox", 383),
    ("efhand", 320),
    ("RuBisCO_large", 311),
    ("gluts", 144),
    ("actin", 142),
    ("rrm", 141),
)


@dataclass(frozen=True)
class ProteinFamilySpec:
    """Generation recipe of one synthetic family."""

    name: str
    size: int
    motifs: tuple[str, ...]
    mean_length: int


def _family_table(num_families: int, scale: float) -> list[tuple[str, int]]:
    """Family (name, size) pairs following the paper's distribution."""
    if num_families < 1:
        raise ValueError("num_families must be at least 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    table: list[tuple[str, int]] = []
    named = list(PAPER_FAMILY_SIZES)
    for index in range(num_families):
        if index < len(named):
            name, size = named[index]
        else:
            # Interpolate the remaining sizes across the paper's range.
            fraction = (index - len(named)) / max(1, num_families - len(named))
            size = int(round(900 - fraction * (900 - 140)))
            name = f"family{index}"
        scaled = max(4, int(round(size * scale)))
        table.append((name, scaled))
    return table


def _random_motif(rng: np.random.Generator, length: int) -> str:
    return "".join(rng.choice(list(AMINO_ACIDS), size=length))


def make_family_specs(
    num_families: int = 10,
    scale: float = 0.05,
    mean_length: int = 120,
    seed: int = 0,
) -> list[ProteinFamilySpec]:
    """Build the per-family generation recipes."""
    rng = np.random.default_rng(seed)
    specs: list[ProteinFamilySpec] = []
    for name, size in _family_table(num_families, scale):
        n_motifs = int(rng.integers(1, 4))
        motifs = tuple(
            _random_motif(rng, int(rng.integers(8, 16))) for _ in range(n_motifs)
        )
        specs.append(
            ProteinFamilySpec(
                name=name, size=size, motifs=motifs, mean_length=mean_length
            )
        )
    return specs


def _generate_member(
    source: MarkovSource,
    spec: ProteinFamilySpec,
    alphabet: Alphabet,
    rng: np.random.Generator,
) -> str:
    """One family member: background sample with motifs spliced in."""
    length = max(
        20, int(round(rng.normal(spec.mean_length, 0.15 * spec.mean_length)))
    )
    body = list(alphabet.decode(source.sample(length, rng)))
    for motif in spec.motifs:
        offset = int(rng.integers(0, max(1, len(body) - len(motif))))
        body[offset : offset + len(motif)] = list(motif)
    return "".join(body)


def make_protein_database(
    num_families: int = 10,
    scale: float = 0.05,
    mean_length: int = 120,
    outlier_fraction: float = 0.0,
    seed: int = 0,
    concentration: float = 0.3,
) -> SequenceDatabase:
    """Generate the synthetic protein-family database.

    Parameters
    ----------
    num_families:
        How many families to embed (the paper uses 30; the default 10
        matches the families Table 3 names and keeps runs fast).
    scale:
        Multiplier on the paper's family sizes (0.05 → sizes 7–44).
    mean_length:
        Mean protein length (real SWISS-PROT entries average ≈ 360;
        the default 120 trades fidelity for speed — lengths only
        rescale similarity magnitudes).
    outlier_fraction:
        Fraction of the final database that is uniform-random noise,
        labelled :data:`~repro.sequences.database.OUTLIER_LABEL`.
    concentration:
        Dirichlet concentration of the per-family background sources;
        smaller = more family-specific composition.
    """
    if not 0.0 <= outlier_fraction < 1.0:
        raise ValueError("outlier_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    alphabet = Alphabet.protein()
    specs = make_family_specs(num_families, scale, mean_length, seed)
    db = SequenceDatabase(alphabet)
    for spec in specs:
        source = random_markov_source(
            alphabet.size, order=2, rng=rng, concentration=concentration
        )
        for _ in range(spec.size):
            db.add_sequence(_generate_member(source, spec, alphabet, rng), spec.name)

    if outlier_fraction > 0.0:
        clustered = len(db)
        num_outliers = int(
            round(clustered * outlier_fraction / (1.0 - outlier_fraction))
        )
        noise = uniform_source(alphabet.size)
        for encoded in noise.sample_many(num_outliers, mean_length, rng=rng):
            db.add_sequence(alphabet.decode(encoded), OUTLIER_LABEL)
    return db
