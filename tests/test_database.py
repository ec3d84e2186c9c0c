"""Tests for repro.sequences.database."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequences.alphabet import Alphabet, AlphabetError
from repro.sequences.database import OUTLIER_LABEL, SequenceDatabase, SequenceRecord


class TestConstruction:
    def test_from_strings_infers_alphabet(self):
        db = SequenceDatabase.from_strings(["ab", "ba"])
        assert db.alphabet.symbols == ("a", "b")
        assert len(db) == 2

    def test_from_strings_with_labels(self):
        db = SequenceDatabase.from_strings(["ab", "ba"], labels=["x", None])
        assert db.labels == ["x", None]

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            SequenceDatabase.from_strings(["ab"], labels=["x", "y"])

    def test_explicit_alphabet_enforced(self):
        ab = Alphabet("ab")
        with pytest.raises(AlphabetError):
            SequenceDatabase.from_strings(["abc"], alphabet=ab)

    def test_empty_sequence_rejected(self):
        db = SequenceDatabase(Alphabet("ab"))
        with pytest.raises(ValueError, match="empty"):
            db.add_sequence("")

    def test_add_sequence_assigns_ids(self):
        db = SequenceDatabase(Alphabet("ab"))
        r0 = db.add_sequence("ab")
        r1 = db.add_sequence("ba", label="x")
        assert (r0.sid, r1.sid) == (0, 1)
        assert db[1].label == "x"


class TestViews:
    def test_encoded_matches_alphabet(self, tiny_db):
        assert tiny_db.encoded(0) == tiny_db.alphabet.encode(tiny_db[0].symbols)

    def test_record_protocol(self, tiny_db):
        record = tiny_db[0]
        assert len(record) == 6
        assert record.as_string() == "ababab"
        assert list(record) == list("ababab")

    def test_distinct_labels(self, tiny_db):
        assert tiny_db.distinct_labels() == ["x", "y"]

    def test_distinct_labels_excludes_outliers(self):
        db = SequenceDatabase.from_strings(
            ["ab", "ba"], labels=["x", OUTLIER_LABEL]
        )
        assert db.distinct_labels() == ["x"]
        assert db.distinct_labels(include_outliers=True) == ["x", OUTLIER_LABEL]

    def test_repr(self, tiny_db):
        assert "4 sequences" in repr(tiny_db)


class TestStatistics:
    def test_total_and_average_length(self, tiny_db):
        assert tiny_db.total_length == 24
        assert tiny_db.average_length == 6.0

    def test_empty_average(self):
        db = SequenceDatabase(Alphabet("ab"))
        assert db.average_length == 0.0
        assert db.length_range() == (0, 0)

    def test_length_range(self):
        db = SequenceDatabase.from_strings(["a", "aaa", "aa"])
        assert db.length_range() == (1, 3)

    def test_symbol_counts(self, tiny_db):
        counts = tiny_db.symbol_counts()
        assert counts.sum() == 24
        assert counts[0] == 12  # 'a'
        assert counts[1] == 12  # 'b'

    def test_background_probabilities_sum_to_one(self, tiny_db):
        bg = tiny_db.background_probabilities()
        assert np.isclose(bg.sum(), 1.0)
        assert np.allclose(bg, [0.5, 0.5])

    def test_background_with_smoothing_positive(self):
        ab = Alphabet("abc")
        db = SequenceDatabase(ab)
        db.add_sequence("aaa")
        bg = db.background_probabilities(smoothing=1.0)
        assert (bg > 0).all()
        assert np.isclose(bg.sum(), 1.0)

    def test_background_negative_smoothing_rejected(self, tiny_db):
        with pytest.raises(ValueError):
            tiny_db.background_probabilities(smoothing=-1)

    def test_background_empty_db_rejected(self):
        db = SequenceDatabase(Alphabet("ab"))
        with pytest.raises(ValueError):
            db.background_probabilities()


class TestSubsets:
    def test_subset_preserves_ids(self, tiny_db):
        sub = tiny_db.subset([2, 3])
        assert len(sub) == 2
        assert sub[0].sid == 2

    def test_without_outliers(self):
        db = SequenceDatabase.from_strings(
            ["ab", "ba", "aa"], labels=["x", OUTLIER_LABEL, "y"]
        )
        clean = db.without_outliers()
        assert len(clean) == 2
        assert OUTLIER_LABEL not in clean.labels


def per_record(sequences, labels, alphabet):
    """The per-record construction ``from_sequences`` replaced: the
    alphabet by a per-symbol first-appearance loop, then one
    ``add_record`` per sequence."""
    if alphabet is None:
        seen = {}
        for seq in sequences:
            for sym in seq:
                if sym not in seen:
                    seen[sym] = None
        alphabet = Alphabet(seen.keys())
    db = SequenceDatabase(alphabet)
    for i, (seq, label) in enumerate(zip(sequences, labels)):
        db.add_record(SequenceRecord(sid=i, symbols=tuple(seq), label=label))
    return db


def outcome(build):
    """What a construction gives: its contents, or its error."""
    try:
        db = build()
    except ValueError as error:
        return type(error), str(error)
    return (
        db.alphabet.symbols,
        db.records,
        [db.encoded(i) for i in range(len(db))],
        db.symbol_counts().tolist(),
        db.symbol_counts().dtype,
    )


class TestBulkConstruction:
    @settings(max_examples=200, deadline=None)
    @given(
        sequences=st.lists(st.lists(st.sampled_from("abcdxy"), max_size=6), max_size=8),
        explicit=st.one_of(st.none(), st.sampled_from(["abcd", "dcba", "abcdxy"])),
        data=st.data(),
    )
    def test_equals_the_per_record_path(self, sequences, explicit, data):
        """Encodings, counts, alphabet order and the first error (an
        empty sequence, or a symbol outside an explicit alphabet) are
        those of one ``add_record`` per sequence."""
        labels = data.draw(
            st.lists(
                st.sampled_from(["x", "y", None]),
                min_size=len(sequences),
                max_size=len(sequences),
            )
        )
        alphabet = None if explicit is None else Alphabet(explicit)
        assert outcome(
            lambda: SequenceDatabase.from_sequences(sequences, labels, alphabet)
        ) == outcome(lambda: per_record(sequences, labels, alphabet))

    def test_add_record_after_a_bulk_build_counts_on(self):
        db = SequenceDatabase.from_strings(["abba", "cab"])
        db.add_sequence("cc")
        assert db.symbol_counts().tolist() == [3, 3, 3]
        assert db.encoded(2) == [2, 2]
