"""Dataset substitutes for the paper's real-data experiments."""

from .languages import (
    LANGUAGE_INVENTORIES,
    NOISE_INVENTORIES,
    make_language_database,
    make_sentence,
)
from .protein import (
    PAPER_FAMILY_SIZES,
    ProteinFamilySpec,
    make_family_specs,
    make_protein_database,
)

__all__ = [
    "LANGUAGE_INVENTORIES",
    "NOISE_INVENTORIES",
    "make_language_database",
    "make_sentence",
    "PAPER_FAMILY_SIZES",
    "ProteinFamilySpec",
    "make_family_specs",
    "make_protein_database",
]
