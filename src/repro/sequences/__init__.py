"""Sequence substrate: alphabets, databases, I/O and workload generators."""

from .alphabet import AMINO_ACIDS, NUCLEOTIDES, Alphabet, AlphabetError
from .database import OUTLIER_LABEL, SequenceDatabase, SequenceRecord
from .generators import (
    SyntheticDataset,
    SyntheticSpec,
    generate_clustered_database,
    generate_two_cluster_toy,
)
from .io import (
    SequenceFormatError,
    read_fasta,
    read_labelled_text,
    write_fasta,
    write_labelled_text,
)
from .markov import MarkovSource, random_markov_source, uniform_source

__all__ = [
    "AMINO_ACIDS",
    "NUCLEOTIDES",
    "Alphabet",
    "AlphabetError",
    "OUTLIER_LABEL",
    "SequenceDatabase",
    "SequenceRecord",
    "SyntheticDataset",
    "SyntheticSpec",
    "generate_clustered_database",
    "generate_two_cluster_toy",
    "SequenceFormatError",
    "read_fasta",
    "read_labelled_text",
    "write_fasta",
    "write_labelled_text",
    "MarkovSource",
    "random_markov_source",
    "uniform_source",
]
