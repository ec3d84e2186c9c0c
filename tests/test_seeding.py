"""Tests for repro.core.seeding — greedy min-max seed selection."""

from functools import partial

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.core.seeding import build_seed_pst, select_seeds


@pytest.fixture
def toy_setup(toy_db):
    bg = toy_db.background_probabilities()
    factory = partial(
        build_seed_pst,
        alphabet_size=toy_db.alphabet.size,
        max_depth=4,
        significance_threshold=2,
        p_min=1e-3 / 4,
    )
    return toy_db, bg, factory


class TestBuildSeedPst:
    def test_single_sequence_model(self, toy_db):
        pst = build_seed_pst(
            toy_db.encoded(0),
            alphabet_size=4,
            max_depth=4,
            significance_threshold=2,
            p_min=0.0,
        )
        assert pst.sequences_added == 1
        assert pst.total_symbols == len(toy_db.encoded(0))

    def test_budget_forwarded(self, toy_db):
        pst = build_seed_pst(
            toy_db.encoded(0),
            alphabet_size=4,
            max_depth=4,
            significance_threshold=2,
            p_min=0.0,
            max_nodes=20,
        )
        assert pst.node_count <= 20


class TestSelectSeeds:
    def test_count_respected(self, toy_setup, rng):
        db, bg, factory = toy_setup
        seeds = select_seeds(
            candidates=list(range(len(db))),
            encoded_lookup=db.encoded,
            existing_clusters=[],
            background=bg,
            count=3,
            sample_multiplier=5,
            rng=rng,
            pst_factory=factory,
        )
        assert len(seeds) == 3
        indices = [s.sequence_index for s in seeds]
        assert len(set(indices)) == 3

    def test_zero_count(self, toy_setup, rng):
        db, bg, factory = toy_setup
        assert (
            select_seeds([], db.encoded, [], bg, 0, 5, rng, factory) == []
        )
        assert (
            select_seeds([1, 2], db.encoded, [], bg, 0, 5, rng, factory) == []
        )

    def test_fewer_candidates_than_count(self, toy_setup, rng):
        db, bg, factory = toy_setup
        seeds = select_seeds([3, 7], db.encoded, [], bg, 5, 5, rng, factory)
        assert len(seeds) == 2

    def test_seeds_diverse_across_clusters(self, toy_setup):
        """Selecting 2 seeds from the two-cluster toy should pick one
        from each true cluster (min-max diversity)."""
        db, bg, factory = toy_setup
        hits = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            seeds = select_seeds(
                candidates=list(range(len(db))),
                encoded_lookup=db.encoded,
                existing_clusters=[],
                background=bg,
                count=2,
                sample_multiplier=5,
                rng=rng,
                pst_factory=factory,
            )
            labels = {db[s.sequence_index].label for s in seeds}
            if labels == {"ab", "cd"}:
                hits += 1
        assert hits >= 4  # diversity should almost always succeed

    def test_avoids_existing_clusters(self, toy_setup, rng):
        """With an existing 'ab' cluster, the next seed should come from
        the 'cd' population."""
        db, bg, factory = toy_setup
        ab_members = [i for i in range(len(db)) if db[i].label == "ab"]
        pst = factory(db.encoded(ab_members[0]))
        for i in ab_members[1:10]:
            pst.add_sequence(db.encoded(i))
        existing = Cluster(cluster_id=0, pst=pst, seed_index=ab_members[0])
        seeds = select_seeds(
            candidates=list(range(len(db))),
            encoded_lookup=db.encoded,
            existing_clusters=[existing],
            background=bg,
            count=1,
            sample_multiplier=8,
            rng=rng,
            pst_factory=factory,
        )
        assert db[seeds[0].sequence_index].label == "cd"

    def test_max_similarity_recorded(self, toy_setup, rng):
        db, bg, factory = toy_setup
        seeds = select_seeds(
            candidates=list(range(len(db))),
            encoded_lookup=db.encoded,
            existing_clusters=[],
            background=bg,
            count=2,
            sample_multiplier=5,
            rng=rng,
            pst_factory=factory,
        )
        # First seed has no references: -inf similarity recorded.
        assert seeds[0].max_similarity_log == float("-inf")
        # Second seed was scored against the first.
        assert seeds[1].max_similarity_log > float("-inf")

    @pytest.mark.parametrize("existing", [0, 1])
    def test_only_picked_samples_get_a_tree(self, toy_setup, rng, existing):
        """Only a chosen seed is ever scored against, so a sampled
        candidate's PST is built only once it is picked."""
        db, bg, factory = toy_setup
        built = []

        def counting_factory(encoded):
            built.append(list(encoded))
            return factory(encoded)

        clusters = [
            Cluster(cluster_id=0, pst=factory(db.encoded(0)), seed_index=0)
        ][:existing]
        seeds = select_seeds(
            candidates=list(range(1, len(db))),
            encoded_lookup=db.encoded,
            existing_clusters=clusters,
            background=bg,
            count=3,
            sample_multiplier=5,
            rng=rng,
            pst_factory=counting_factory,
        )
        assert len(seeds) == 3
        assert built == [db.encoded(s.sequence_index) for s in seeds]
