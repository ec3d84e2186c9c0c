"""Tests for repro.sequences.generators."""

from collections import Counter

import pytest

from repro.sequences.database import OUTLIER_LABEL
from repro.sequences.generators import (
    SyntheticSpec,
    generate_clustered_database,
)


class TestSyntheticSpec:
    def test_defaults_valid(self):
        SyntheticSpec()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_sequences", 0),
            ("num_clusters", 0),
            ("avg_length", 1),
            ("alphabet_size", 1),
            ("outlier_fraction", 1.0),
            ("outlier_fraction", -0.1),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            SyntheticSpec(**{field: value})


class TestGenerateClusteredDatabase:
    def test_counts_and_labels(self):
        ds = generate_clustered_database(
            num_sequences=60, num_clusters=3, avg_length=30,
            alphabet_size=6, outlier_fraction=0.1, seed=4,
        )
        db = ds.database
        assert len(db) == 60
        counts = Counter(db.labels)
        assert counts[OUTLIER_LABEL] == 6
        clustered = {k: v for k, v in counts.items() if k != OUTLIER_LABEL}
        assert set(clustered) == {"cluster0", "cluster1", "cluster2"}
        assert sum(clustered.values()) == 54
        # balanced within ±1
        assert max(clustered.values()) - min(clustered.values()) <= 1

    def test_sources_returned(self):
        ds = generate_clustered_database(num_sequences=20, num_clusters=2,
                                         avg_length=20, alphabet_size=4, seed=1)
        assert len(ds.sources) == 2
        assert set(ds.database.labels) - {OUTLIER_LABEL} == {"cluster0", "cluster1"}

    def test_reproducible(self):
        a = generate_clustered_database(num_sequences=20, num_clusters=2,
                                        avg_length=20, alphabet_size=4, seed=9)
        b = generate_clustered_database(num_sequences=20, num_clusters=2,
                                        avg_length=20, alphabet_size=4, seed=9)
        assert [r.symbols for r in a.database] == [r.symbols for r in b.database]

    def test_different_seed_differs(self):
        a = generate_clustered_database(num_sequences=20, num_clusters=2,
                                        avg_length=20, alphabet_size=4, seed=1)
        b = generate_clustered_database(num_sequences=20, num_clusters=2,
                                        avg_length=20, alphabet_size=4, seed=2)
        assert [r.symbols for r in a.database] != [r.symbols for r in b.database]

    def test_spec_and_overrides_mutually_exclusive(self):
        with pytest.raises(TypeError):
            generate_clustered_database(SyntheticSpec(), num_clusters=3)

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ValueError, match="cannot embed"):
            generate_clustered_database(num_sequences=5, num_clusters=10,
                                        avg_length=10, alphabet_size=4)


class TestToy:
    def test_shape(self, toy_db):
        assert len(toy_db) == 60
        assert toy_db.alphabet.symbols == ("a", "b", "c", "d")
        assert Counter(toy_db.labels) == {"ab": 30, "cd": 30}

    def test_cluster_character(self, toy_db):
        """ab-cluster sequences should be dominated by a/b symbols."""
        for record in toy_db:
            counts = Counter(record.symbols)
            ab_mass = counts["a"] + counts["b"]
            if record.label == "ab":
                assert ab_mass > len(record) / 2
            else:
                assert ab_mass < len(record) / 2
