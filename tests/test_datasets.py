"""Tests for repro.datasets (protein families and languages)."""

from collections import Counter

import pytest

from repro.datasets.languages import (
    LANGUAGE_INVENTORIES,
    NOISE_INVENTORIES,
    make_language_database,
    make_sentence,
)
from repro.datasets.protein import (
    PAPER_FAMILY_SIZES,
    make_family_specs,
    make_protein_database,
)
from repro.sequences.alphabet import AMINO_ACIDS
from repro.sequences.database import OUTLIER_LABEL


class TestProteinSpecs:
    def test_paper_names_used_first(self):
        specs = make_family_specs(num_families=10, scale=0.05, seed=0)
        names = [s.name for s in specs]
        assert names == [name for name, _ in PAPER_FAMILY_SIZES]

    def test_sizes_follow_paper_distribution(self):
        specs = make_family_specs(num_families=10, scale=0.1, seed=0)
        sizes = [s.size for s in specs]
        paper = [size for _, size in PAPER_FAMILY_SIZES]
        # Relative ordering preserved.
        assert sizes == sorted(sizes, reverse=True) or all(
            (a > b) == (pa > pb)
            for (a, b, pa, pb) in zip(sizes, sizes[1:], paper, paper[1:])
        )

    def test_extra_families_generated(self):
        specs = make_family_specs(num_families=15, scale=0.05, seed=0)
        assert len(specs) == 15
        assert specs[12].name.startswith("family")

    def test_motifs_are_amino_acids(self):
        for spec in make_family_specs(num_families=5, seed=1):
            assert 1 <= len(spec.motifs) <= 3
            for motif in spec.motifs:
                assert 8 <= len(motif) <= 15
                assert all(aa in AMINO_ACIDS for aa in motif)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_family_specs(num_families=0)
        with pytest.raises(ValueError):
            make_family_specs(num_families=3, scale=0.0)


class TestProteinDatabase:
    def test_structure(self):
        db = make_protein_database(num_families=5, scale=0.05, seed=0)
        assert db.alphabet.size == 20
        assert len(db.distinct_labels()) == 5
        assert all(set(r.symbols) <= set(AMINO_ACIDS) for r in db)

    def test_motifs_embedded_in_every_member(self):
        """Every member of a family contains at least one of its motifs
        (insertion may overlap another motif, so require any-of)."""
        from repro.datasets.protein import make_family_specs

        db = make_protein_database(num_families=3, scale=0.05, seed=7)
        specs = {s.name: s for s in make_family_specs(3, 0.05, 120, 7)}
        hits = 0
        total = 0
        for record in db:
            total += 1
            text = record.as_string()
            if any(motif in text for motif in specs[record.label].motifs):
                hits += 1
        assert hits / total > 0.9

    def test_outlier_fraction(self):
        db = make_protein_database(
            num_families=3, scale=0.05, outlier_fraction=0.2, seed=0
        )
        counts = Counter(db.labels)
        assert counts[OUTLIER_LABEL] == pytest.approx(0.2 * len(db), abs=2)

    def test_invalid_outlier_fraction(self):
        with pytest.raises(ValueError):
            make_protein_database(outlier_fraction=1.0)

    def test_reproducible(self):
        a = make_protein_database(num_families=3, scale=0.03, seed=5)
        b = make_protein_database(num_families=3, scale=0.03, seed=5)
        assert [r.symbols for r in a] == [r.symbols for r in b]

class TestSentences:
    def test_lowercase_only(self, rng):
        for inventory in LANGUAGE_INVENTORIES.values():
            sentence = make_sentence(inventory, rng)
            assert sentence.islower()
            assert " " not in sentence
            assert all("a" <= ch <= "z" for ch in sentence)

    def test_length_bounds(self, rng):
        for _ in range(20):
            sentence = make_sentence(
                LANGUAGE_INVENTORIES["english"], rng, min_chars=30, max_chars=50
            )
            assert 30 <= len(sentence) <= 50

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            make_sentence([], rng)
        with pytest.raises(ValueError):
            make_sentence(["abc"], rng, min_chars=10, max_chars=5)

    def test_english_digraph_statistics(self, rng):
        """The paper's English diagnostic: 'th' and 'he' should be far
        more frequent in English than in romaji Japanese."""
        english = "".join(
            make_sentence(LANGUAGE_INVENTORIES["english"], rng)
            for _ in range(50)
        )
        japanese = "".join(
            make_sentence(LANGUAGE_INVENTORIES["japanese"], rng)
            for _ in range(50)
        )
        th_en = english.count("th") / len(english)
        th_ja = japanese.count("th") / len(japanese)
        assert th_en > 5 * max(th_ja, 1e-9)

    def test_japanese_cv_alternation(self, rng):
        """The paper's Japanese diagnostic: consonant-vowel alternation
        means few consonant pairs."""
        vowels = set("aeiou")
        japanese = "".join(
            make_sentence(LANGUAGE_INVENTORIES["japanese"], rng)
            for _ in range(30)
        )
        double_consonants = sum(
            1
            for x, y in zip(japanese, japanese[1:])
            if x not in vowels and y not in vowels
        )
        english = "".join(
            make_sentence(LANGUAGE_INVENTORIES["english"], rng)
            for _ in range(30)
        )
        double_en = sum(
            1
            for x, y in zip(english, english[1:])
            if x not in vowels and y not in vowels
        )
        assert double_consonants / len(japanese) < double_en / len(english)


class TestLanguageDatabase:
    def test_structure(self):
        db = make_language_database(
            sentences_per_language=10, noise_sentences=4, seed=1
        )
        counts = Counter(db.labels)
        assert counts["english"] == 10
        assert counts["chinese"] == 10
        assert counts["japanese"] == 10
        assert counts[OUTLIER_LABEL] == 4
        assert db.alphabet.size == 26

    def test_no_noise(self):
        db = make_language_database(sentences_per_language=5, noise_sentences=0)
        assert OUTLIER_LABEL not in db.labels

    def test_validation(self):
        with pytest.raises(ValueError):
            make_language_database(sentences_per_language=0)
        with pytest.raises(ValueError):
            make_language_database(noise_sentences=-1)

    def test_noise_inventories_exist(self):
        assert set(NOISE_INVENTORIES) == {"russian", "german"}
