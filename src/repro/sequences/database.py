"""Sequence records and sequence databases.

A :class:`SequenceDatabase` is the unit of input for every clustering
algorithm in this library (the paper's ``Σ``). It owns

* the :class:`~repro.sequences.alphabet.Alphabet`,
* the list of :class:`SequenceRecord` objects (id, symbols, optional
  ground-truth label), and
* the *background model*: the empirical probability ``p(s)`` of
  observing each symbol at any position of any sequence, which is the
  memoryless random-generator denominator of the CLUSEQ similarity
  measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

import numpy as np
import numpy.typing as npt

from .alphabet import Alphabet, Symbol


@dataclass(frozen=True)
class SequenceRecord:
    """A single sequence in a database.

    Attributes
    ----------
    sid:
        A unique identifier within the database.
    symbols:
        The sequence itself as a tuple of symbols (or a string when the
        symbols are single characters).
    label:
        Optional ground-truth class (protein family, language, embedded
        cluster id, …). ``None`` marks an unlabelled sequence; the
        reserved label :data:`OUTLIER_LABEL` marks known noise.
    """

    sid: int
    symbols: tuple[Symbol, ...]
    label: str | None = None

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def as_string(self) -> str:
        """The sequence as a plain string (symbols must be strings)."""
        return "".join(str(s) for s in self.symbols)


#: Ground-truth label reserved for sequences that are known outliers.
OUTLIER_LABEL = "__outlier__"


class SequenceDatabase:
    """An in-memory database of symbol sequences.

    Parameters
    ----------
    alphabet:
        The alphabet every sequence must draw its symbols from.
    records:
        Optional initial records.

    Notes
    -----
    Sequences are encoded to integer-id lists exactly once, on
    insertion; all downstream algorithms consume the encoded form via
    :meth:`encoded`.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        records: Iterable[SequenceRecord] | None = None,
    ) -> None:
        self.alphabet = alphabet
        self._records: list[SequenceRecord] = []
        self._encoded: list[list[int]] = []
        self._symbol_counts = np.zeros(alphabet.size, dtype=np.int64)
        if records is not None:
            for record in records:
                self.add_record(record)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_sequences(
        cls,
        sequences: Iterable[Sequence[Symbol]],
        labels: Iterable[str | None] | None = None,
        alphabet: Alphabet | None = None,
    ) -> "SequenceDatabase":
        """Build a database from raw sequences.

        If *alphabet* is omitted it is inferred from the sequences
        (symbols ordered by first appearance).
        """
        sequences = [tuple(seq) for seq in sequences]
        if alphabet is None:
            alphabet = Alphabet.from_sequences(sequences)
        if labels is None:
            label_list: list[str | None] = [None] * len(sequences)
        else:
            label_list = list(labels)
            if len(label_list) != len(sequences):
                raise ValueError(
                    f"{len(sequences)} sequences but {len(label_list)} labels"
                )
        db = cls(alphabet)
        records = [
            SequenceRecord(sid=i, symbols=seq, label=label)
            for i, (seq, label) in enumerate(zip(sequences, label_list))
        ]
        db._append(records, [db._encode(record) for record in records])
        return db

    @classmethod
    def from_strings(
        cls,
        strings: Iterable[str],
        labels: Iterable[str | None] | None = None,
        alphabet: Alphabet | None = None,
    ) -> "SequenceDatabase":
        """Build a database of character sequences from plain strings."""
        return cls.from_sequences([tuple(s) for s in strings], labels, alphabet)

    def add_record(self, record: SequenceRecord) -> None:
        """Append *record*, encoding it against the database alphabet."""
        self._append([record], [self._encode(record)])

    def _encode(self, record: SequenceRecord) -> list[int]:
        """*record*'s symbols as ids; raises for an empty sequence or a
        symbol outside the alphabet."""
        if len(record) == 0:
            raise ValueError(f"sequence {record.sid} is empty")
        return self.alphabet.encode(record.symbols)

    def _append(
        self, records: list[SequenceRecord], encodings: list[list[int]]
    ) -> None:
        """Append encoded *records* and count their symbols in one pass."""
        self._records.extend(records)
        self._encoded.extend(encodings)
        self._symbol_counts += np.bincount(
            np.fromiter(chain.from_iterable(encodings), dtype=np.int64),
            minlength=self.alphabet.size,
        )

    def add_sequence(
        self, symbols: Sequence[Symbol], label: str | None = None
    ) -> SequenceRecord:
        """Append a new sequence, assigning the next free id."""
        record = SequenceRecord(sid=len(self._records), symbols=tuple(symbols), label=label)
        self.add_record(record)
        return record

    # -- core protocol ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SequenceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> SequenceRecord:
        return self._records[index]

    def __repr__(self) -> str:
        return (
            f"SequenceDatabase({len(self)} sequences, "
            f"alphabet size {self.alphabet.size}, "
            f"total length {self.total_length})"
        )

    # -- views -----------------------------------------------------------------

    def encoded(self, index: int) -> list[int]:
        """The integer-encoded form of the sequence at *index*."""
        return self._encoded[index]

    def iter_encoded(self) -> Iterator[tuple[int, list[int]]]:
        """Iterate over ``(index, encoded_sequence)`` pairs."""
        return iter(enumerate(self._encoded))

    @property
    def records(self) -> tuple[SequenceRecord, ...]:
        return tuple(self._records)

    @property
    def labels(self) -> list[str | None]:
        """Ground-truth labels, index-aligned with the records."""
        return [r.label for r in self._records]

    def distinct_labels(self, include_outliers: bool = False) -> list[str]:
        """Distinct non-``None`` labels, in first-appearance order."""
        seen: dict[str, None] = {}
        for record in self._records:
            if record.label is None:
                continue
            if record.label == OUTLIER_LABEL and not include_outliers:
                continue
            seen.setdefault(record.label, None)
        return list(seen.keys())

    # -- statistics --------------------------------------------------------------

    @property
    def total_length(self) -> int:
        """Sum of all sequence lengths (the paper's root count)."""
        return int(self._symbol_counts.sum())

    @property
    def average_length(self) -> float:
        """Mean sequence length (0.0 for an empty database)."""
        if not self._records:
            return 0.0
        return self.total_length / len(self._records)

    def length_range(self) -> tuple[int, int]:
        """``(min, max)`` sequence length; ``(0, 0)`` when empty."""
        if not self._records:
            return (0, 0)
        lengths = [len(r) for r in self._records]
        return (min(lengths), max(lengths))

    def symbol_counts(self) -> npt.NDArray[np.int64]:
        """Occurrence count of each symbol id across the whole database."""
        return self._symbol_counts.copy()

    def background_probabilities(self, smoothing: float = 0.0) -> npt.NDArray[np.float64]:
        """Empirical probability ``p(s)`` of each symbol (the paper's
        memoryless background model).

        Parameters
        ----------
        smoothing:
            Additive (Laplace) pseudo-count applied to every symbol.
            With the default 0.0 unseen symbols get probability 0; pass
            a small positive value when the similarity measure must be
            defined for symbols absent from the database.
        """
        if smoothing < 0:
            raise ValueError("smoothing must be non-negative")
        counts = self._symbol_counts.astype(np.float64) + smoothing
        total = counts.sum()
        if total == 0:
            raise ValueError("cannot compute background of an empty database")
        return counts / total

    # -- subsets ------------------------------------------------------------------

    def subset(self, indices: Iterable[int]) -> "SequenceDatabase":
        """A new database containing the records at *indices*.

        Record ids are preserved so results on the subset can be mapped
        back to the parent database.
        """
        db = SequenceDatabase(self.alphabet)
        for i in indices:
            db.add_record(self._records[i])
        return db

    def without_outliers(self) -> "SequenceDatabase":
        """A copy excluding records labelled :data:`OUTLIER_LABEL`."""
        keep = [i for i, r in enumerate(self._records) if r.label != OUTLIER_LABEL]
        return self.subset(keep)
