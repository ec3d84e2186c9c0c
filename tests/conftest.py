"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.core.pst import ProbabilisticSuffixTree
from repro.sequences.alphabet import Alphabet
from repro.sequences.database import SequenceDatabase
from repro.sequences.generators import (
    generate_clustered_database,
    generate_two_cluster_toy,
)


@pytest.fixture
def ab_alphabet():
    return Alphabet("ab")


@pytest.fixture
def abcd_alphabet():
    return Alphabet("abcd")


@pytest.fixture
def toy_db():
    """Two easily-separable character clusters (ab vs cd), 60 sequences."""
    return generate_two_cluster_toy(size_per_cluster=30, length=40, seed=7)


@pytest.fixture
def small_synthetic():
    """120 sequences, 4 embedded clusters, 5% outliers."""
    return generate_clustered_database(
        num_sequences=120,
        num_clusters=4,
        avg_length=80,
        alphabet_size=10,
        outlier_fraction=0.05,
        seed=11,
    )


@pytest.fixture
def tiny_db():
    """Four short handwritten sequences over {a, b}."""
    return SequenceDatabase.from_strings(
        ["ababab", "bababa", "aabbaa", "bbaabb"],
        labels=["x", "x", "y", "y"],
    )


@pytest.fixture
def simple_pst():
    """A PST over {a=0, b=1} trained on one alternating sequence."""
    pst = ProbabilisticSuffixTree(
        alphabet_size=2, max_depth=3, significance_threshold=2
    )
    pst.add_sequence([0, 1, 0, 1, 0, 1, 0, 1])
    return pst


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def serve_model_path(tmp_path_factory):
    """A small fitted model snapshot (with alphabet) for serve tests."""
    from repro.core.cluseq import CLUSEQ, CluseqParams
    from repro.core.persistence import save_result

    db = generate_two_cluster_toy(size_per_cluster=20, length=30, seed=5)
    params = CluseqParams(
        k=2, significance_threshold=3, similarity_threshold=1.2, seed=0
    )
    result = CLUSEQ(params).fit(db)
    path = tmp_path_factory.mktemp("serve") / "model.json"
    save_result(result, str(path), alphabet=db.alphabet)
    return str(path)


#: Decoding faults in a correctly tagged model payload, by test id:
#: each mutates a ``result_to_dict`` payload in place.
MODEL_FAULTS = {
    "missing-clusters": lambda payload: payload.pop("clusters"),
    "bad-prune-strategy": lambda payload: payload["clusters"][0]["pst"].update(
        prune_strategy="bogus"
    ),
    "bad-root": lambda payload: payload["clusters"][0]["pst"].update(root=5),
    "next-id-negative": lambda payload: _set_in_root(payload, "next", "-1", 1),
    "next-id-out-of-range": lambda payload: _set_in_root(payload, "next", "{n}", 1),
    "child-id-out-of-range": lambda payload: _set_in_root(
        payload, "children", "{n}", {"count": 0, "next": {}, "children": {}}
    ),
}


def _set_in_root(payload, field, key, value):
    """Set ``root[field][key]`` of the first tree; ``{n}`` in *key* is
    the tree's alphabet size, one past the largest symbol id."""
    tree = payload["clusters"][0]["pst"]
    tree["root"][field][key.format(n=tree["alphabet_size"])] = value


@pytest.fixture(params=sorted(MODEL_FAULTS))
def model_fault(request):
    """One of :data:`MODEL_FAULTS`, parametrized by its id."""
    return MODEL_FAULTS[request.param]
