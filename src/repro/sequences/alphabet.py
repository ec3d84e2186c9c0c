"""Alphabets: finite symbol sets with stable integer encodings.

Every hot loop in this library (probabilistic suffix trees, the
similarity dynamic program, the baseline models) works on sequences of
small integers. An :class:`Alphabet` owns the bijection between the
user-facing symbols (single characters or arbitrary hashable tokens)
and the integer ids ``0 .. size-1``.

The encoding is *stable*: symbol ids are assigned in the order symbols
were first registered, so serialized models remain valid as long as
they are used with the alphabet they were built with.
"""

from __future__ import annotations

import string
from collections.abc import Hashable, Iterable, Iterator
from itertools import chain

Symbol = Hashable
EncodedSequence = list[int]

#: The 20 standard amino acids, by one-letter code.
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"

#: The 4 DNA nucleotides.
NUCLEOTIDES = "ACGT"


class AlphabetError(ValueError):
    """Raised when a symbol or id is not part of an alphabet."""


class Alphabet:
    """A finite set of symbols with a stable integer encoding.

    Parameters
    ----------
    symbols:
        The symbols in the alphabet, in id order. Duplicates are
        rejected because they would make the encoding ambiguous.

    Examples
    --------
    >>> ab = Alphabet("ab")
    >>> ab.encode("abba")
    [0, 1, 1, 0]
    >>> ab.decode([0, 1, 1, 0])
    ('a', 'b', 'b', 'a')
    """

    __slots__ = ("_symbols", "_index")

    def __init__(self, symbols: Iterable[Symbol]) -> None:
        self._symbols: tuple[Symbol, ...] = tuple(symbols)
        self._index: dict[Symbol, int] = {}
        for i, sym in enumerate(self._symbols):
            if sym in self._index:
                raise AlphabetError(f"duplicate symbol {sym!r} in alphabet")
            self._index[sym] = i
        if not self._symbols:
            raise AlphabetError("an alphabet must contain at least one symbol")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_sequences(cls, sequences: Iterable[Iterable[Symbol]]) -> "Alphabet":
        """Build an alphabet from every distinct symbol in *sequences*.

        Symbols are ordered by first appearance, which keeps encodings
        deterministic for a fixed input order.
        """
        return cls(dict.fromkeys(chain.from_iterable(sequences)))

    @classmethod
    def protein(cls) -> "Alphabet":
        """The 20 standard amino acids."""
        return cls(AMINO_ACIDS)

    @classmethod
    def dna(cls) -> "Alphabet":
        """The 4 DNA nucleotides."""
        return cls(NUCLEOTIDES)

    @classmethod
    def lowercase(cls) -> "Alphabet":
        """The 26 lowercase ASCII letters (used by the language datasets)."""
        return cls(string.ascii_lowercase)

    @classmethod
    def generic(cls, size: int) -> "Alphabet":
        """A synthetic alphabet ``s0, s1, …`` of the requested *size*.

        For sizes up to 26 the symbols are single lowercase letters so
        that encoded/decoded sequences stay readable; beyond that the
        symbols are strings ``s<i>``.
        """
        if size <= 0:
            raise AlphabetError("alphabet size must be positive")
        if size <= 26:
            return cls(string.ascii_lowercase[:size])
        return cls(f"s{i}" for i in range(size))

    # -- core protocol ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._symbols)

    def __contains__(self, symbol: Symbol) -> bool:
        return symbol in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(self._symbols)

    def __repr__(self) -> str:
        if len(self._symbols) <= 8:
            inner = ", ".join(repr(s) for s in self._symbols)
        else:
            head = ", ".join(repr(s) for s in self._symbols[:4])
            inner = f"{head}, … ({len(self._symbols)} symbols)"
        return f"Alphabet({inner})"

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        """The symbols, in id order."""
        return self._symbols

    @property
    def size(self) -> int:
        """Number of distinct symbols (``n`` in the paper)."""
        return len(self._symbols)

    # -- encoding --------------------------------------------------------------

    def id_of(self, symbol: Symbol) -> int:
        """Return the integer id of *symbol*.

        Raises
        ------
        AlphabetError
            If *symbol* is not in the alphabet.
        """
        try:
            return self._index[symbol]
        except KeyError:
            raise AlphabetError(f"symbol {symbol!r} not in alphabet") from None

    def symbol_of(self, symbol_id: int) -> Symbol:
        """Return the symbol with integer id *symbol_id*."""
        if not 0 <= symbol_id < len(self._symbols):
            raise AlphabetError(
                f"symbol id {symbol_id} out of range for alphabet of size {self.size}"
            )
        return self._symbols[symbol_id]

    def encode(self, sequence: Iterable[Symbol]) -> EncodedSequence:
        """Encode an iterable of symbols into a list of integer ids."""
        try:
            return list(map(self._index.__getitem__, sequence))
        except KeyError as exc:
            raise AlphabetError(f"symbol {exc.args[0]!r} not in alphabet") from None

    def decode(self, ids: Iterable[int]) -> tuple[Symbol, ...]:
        """Decode a sequence of integer ids back into symbols."""
        return tuple(self.symbol_of(i) for i in ids)

    def decode_to_string(self, ids: Iterable[int]) -> str:
        """Decode integer ids into a string (symbols must be strings)."""
        return "".join(str(self.symbol_of(i)) for i in ids)

    def is_valid(self, sequence: Iterable[Symbol]) -> bool:
        """Whether every symbol of *sequence* belongs to this alphabet."""
        return all(sym in self._index for sym in sequence)
