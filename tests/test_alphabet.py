"""Tests for repro.sequences.alphabet."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sequences.alphabet import (
    AMINO_ACIDS,
    NUCLEOTIDES,
    Alphabet,
    AlphabetError,
)


class TestConstruction:
    def test_basic(self):
        ab = Alphabet("ab")
        assert ab.size == 2
        assert list(ab) == ["a", "b"]

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(AlphabetError, match="duplicate"):
            Alphabet("aba")

    def test_empty_rejected(self):
        with pytest.raises(AlphabetError):
            Alphabet("")

    def test_from_sequences_orders_by_first_appearance(self):
        ab = Alphabet.from_sequences(["cab", "dab"])
        assert ab.symbols == ("c", "a", "b", "d")

    def test_protein(self):
        assert Alphabet.protein().size == 20
        assert "".join(Alphabet.protein().symbols) == AMINO_ACIDS

    def test_dna(self):
        assert "".join(Alphabet.dna().symbols) == NUCLEOTIDES

    def test_lowercase(self):
        assert Alphabet.lowercase().size == 26

    def test_generic_small_uses_letters(self):
        ab = Alphabet.generic(4)
        assert ab.symbols == ("a", "b", "c", "d")

    def test_generic_large_uses_tokens(self):
        ab = Alphabet.generic(30)
        assert ab.size == 30
        assert ab.symbols[0] == "s0"

    def test_generic_invalid_size(self):
        with pytest.raises(AlphabetError):
            Alphabet.generic(0)


class TestEncoding:
    def test_roundtrip(self):
        ab = Alphabet("xyz")
        encoded = ab.encode("zyxzy")
        assert encoded == [2, 1, 0, 2, 1]
        assert ab.decode(encoded) == ("z", "y", "x", "z", "y")

    def test_decode_to_string(self):
        ab = Alphabet("ab")
        assert ab.decode_to_string([0, 1, 1]) == "abb"

    def test_unknown_symbol_raises(self):
        ab = Alphabet("ab")
        with pytest.raises(AlphabetError, match="not in alphabet"):
            ab.encode("abc")

    def test_id_of_unknown_raises(self):
        with pytest.raises(AlphabetError):
            Alphabet("ab").id_of("q")

    def test_symbol_of_out_of_range(self):
        with pytest.raises(AlphabetError):
            Alphabet("ab").symbol_of(5)
        with pytest.raises(AlphabetError):
            Alphabet("ab").symbol_of(-1)

    def test_contains(self):
        ab = Alphabet("ab")
        assert "a" in ab
        assert "z" not in ab

class TestEquality:
    def test_equal_alphabets(self):
        assert Alphabet("ab") == Alphabet("ab")
        assert hash(Alphabet("ab")) == hash(Alphabet("ab"))

    def test_order_matters(self):
        assert Alphabet("ab") != Alphabet("ba")

    def test_not_equal_other_type(self):
        assert Alphabet("ab") != "ab"

    def test_repr_small_and_large(self):
        assert "'a'" in repr(Alphabet("ab"))
        assert "26 symbols" in repr(Alphabet.lowercase())


@given(st.lists(st.sampled_from("abcde"), min_size=0, max_size=50))
def test_encode_decode_roundtrip_property(symbols):
    ab = Alphabet("abcde")
    assert list(ab.decode(ab.encode(symbols))) == symbols


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=50))
def test_decode_encode_roundtrip_property(ids):
    ab = Alphabet("abcde")
    assert ab.encode(ab.decode(ids)) == ids
