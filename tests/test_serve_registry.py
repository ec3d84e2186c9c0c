"""Versioned model registry: loading, classify fidelity, hot swap.

The load path must accept both persistence snapshots and stream
checkpoints (and classify bit-identically from either); the swap
protocol must never show a torn model — every classification maps to
exactly one epoch's expected output — and a retired version must live
exactly as long as something holds it.
"""

import gc
import json
import threading
import weakref
from pathlib import Path

import pytest

from repro.core.persistence import load_result_with_alphabet, save_result
from repro.obs import MetricsRegistry, use_registry
from repro.serve.registry import (
    ModelLoadError,
    ModelRegistry,
    ModelVersion,
    load_model_payload,
)
from repro.sequences.generators import generate_two_cluster_toy


@pytest.fixture(scope="module")
def query_sequences():
    db = generate_two_cluster_toy(size_per_cluster=6, length=30, seed=99)
    return [list(record.symbols) for record in db]


@pytest.fixture()
def alt_model_path(tmp_path):
    """A second, differently-fitted model (for observable swaps)."""
    from repro.core.cluseq import CLUSEQ, CluseqParams

    db = generate_two_cluster_toy(size_per_cluster=16, length=30, seed=21)
    result = CLUSEQ(
        CluseqParams(
            k=2, significance_threshold=3, similarity_threshold=1.2, seed=1
        )
    ).fit(db)
    path = tmp_path / "alt_model.json"
    save_result(result, str(path), alphabet=db.alphabet)
    return str(path)


def make_checkpoint(model_path, state_dir):
    """A stream checkpoint wrapping exactly the snapshot's model state."""
    from repro.stream import StreamConfig, StreamingCluseq

    result, alphabet = load_result_with_alphabet(model_path)
    engine = StreamingCluseq(
        result,
        config=StreamConfig(batch_size=8),
        alphabet=alphabet,
        state_dir=str(state_dir),
    )
    with engine:
        engine.checkpoint()
    return state_dir


class TestLoadModelPayload:
    def test_snapshot_kind(self, serve_model_path):
        result, alphabet, kind = load_model_payload(serve_model_path)
        assert kind == "snapshot"
        assert result.clusters and alphabet.size > 0

    def test_checkpoint_kind_and_dir_resolution(self, serve_model_path, tmp_path):
        state_dir = make_checkpoint(serve_model_path, tmp_path / "state")
        # Directory resolves to its checkpoint.json...
        _result, _alphabet, kind = load_model_payload(str(state_dir))
        assert kind == "checkpoint"
        # ...and the explicit file path works too.
        _result, _alphabet, kind = load_model_payload(
            str(state_dir / "checkpoint.json")
        )
        assert kind == "checkpoint"

    def test_missing_source(self, tmp_path):
        with pytest.raises(ModelLoadError, match="no model source"):
            load_model_payload(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{{{")
        with pytest.raises(ModelLoadError, match="not valid JSON"):
            load_model_payload(str(path))

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(ModelLoadError, match="not valid JSON"):
            load_model_payload(str(path))

    def test_foreign_document(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ModelLoadError, match="neither"):
            load_model_payload(str(path))

    @pytest.mark.parametrize("kind", ["snapshot", "checkpoint"])
    def test_undecodable_model_names_the_file(
        self, serve_model_path, tmp_path, model_fault, kind
    ):
        if kind == "checkpoint":
            path = make_checkpoint(serve_model_path, tmp_path / "state")
            path = path / "checkpoint.json"
            document = json.loads(path.read_text())
            model_fault(document["result"])
        else:
            path = tmp_path / "broken.json"
            document = json.loads(Path(serve_model_path).read_text())
            model_fault(document)
        path.write_text(json.dumps(document))
        with pytest.raises(ModelLoadError, match="cannot decode") as caught:
            load_model_payload(str(path))
        assert str(path) in str(caught.value)

    def test_snapshot_without_alphabet(self, serve_model_path, tmp_path):
        payload = json.loads(Path(serve_model_path).read_text())
        payload.pop("alphabet")
        path = tmp_path / "no_alphabet.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelLoadError, match="alphabet"):
            load_model_payload(str(path))


def absorb_into(result, alphabet, sequences, cluster_ids, per_cluster=2):
    """``assign_and_absorb`` up to *per_cluster* of *sequences* into each
    cluster of *cluster_ids* (chosen by ``predict``); deterministic, so
    two copies of one model replay identically."""
    taken = dict.fromkeys(cluster_ids, 0)
    for symbols in sequences:
        encoded = list(alphabet.encode(symbols))
        target = result.predict(encoded)
        if target in taken and taken[target] < per_cluster:
            assert result.assign_and_absorb(encoded) == target
            taken[target] += 1
    assert all(count > 0 for count in taken.values())


#: Which clusters an ingest has absorbed into before classifying.
INGEST_STATES = {
    "no-ingest": lambda ids: [],
    "some-touched": lambda ids: ids[:1],
    "all-touched": lambda ids: ids,
}


class TestClassifyFidelity:
    @pytest.mark.parametrize("state", sorted(INGEST_STATES))
    def test_matches_predict_bit_identically(
        self, serve_model_path, query_sequences, state
    ):
        result, alphabet, kind = load_model_payload(serve_model_path)
        version = ModelVersion(
            "m", 1, result, alphabet, serve_model_path, kind
        )
        reference, _ = load_result_with_alphabet(serve_model_path)
        version.classify_batch(query_sequences)  # build the kernel caches
        ids = [cluster.cluster_id for cluster in result.clusters]
        touched = INGEST_STATES[state](ids)
        for model in (result, reference):
            absorb_into(model, alphabet, query_sequences, touched)
        outcomes = version.classify_batch(query_sequences)
        for symbols, outcome in zip(query_sequences, outcomes):
            encoded = alphabet.encode(symbols)
            assert outcome is not None
            assert outcome.cluster_id == reference.predict(encoded)
            scores = reference.score_sequence(encoded)
            best = max(scores.values(), key=lambda s: s.log_similarity)
            assert outcome.log_similarity == best.log_similarity
            if outcome.cluster_id is not None:
                winner = scores[outcome.cluster_id]
                assert (outcome.best_start, outcome.best_end) == (
                    winner.best_start,
                    winner.best_end,
                )

    def test_written_trees_are_scored_by_the_dp(
        self, serve_model_path, query_sequences
    ):
        """Trees an ingest wrote go to ``similarity()``, never back
        through flatten; the untouched ones stay on the kernel."""
        result, alphabet, kind = load_model_payload(serve_model_path)
        version = ModelVersion(
            "m", 1, result, alphabet, serve_model_path, kind
        )
        version.classify_batch(query_sequences)  # build the kernel caches
        ids = [cluster.cluster_id for cluster in result.clusters]
        absorb_into(result, alphabet, query_sequences, ids[:1])
        touched = 1
        untouched = len(ids) - touched
        assert untouched > 0
        registry = MetricsRegistry()
        with use_registry(registry):
            version.classify_batch(query_sequences)
        n = len(query_sequences)
        assert registry.counter("backend.flatten_builds").value == 0
        assert registry.counter("backend.batch_rows").value == untouched * n
        assert registry.counter("similarity.calls").value == touched * n

    def test_trees_that_are_not_closed_are_scored_by_the_dp(
        self, tmp_path, query_sequences
    ):
        """A model fit with a small ``max_nodes`` has pruned trees; the
        kernel's automaton walk holds only on closed trees, so classify
        sends the others to ``similarity()`` and still equals predict."""
        from repro.core.cluseq import CLUSEQ, CluseqParams

        db = generate_two_cluster_toy(size_per_cluster=20, length=30, seed=5)
        params = CluseqParams(
            k=2,
            significance_threshold=3,
            similarity_threshold=1.2,
            seed=0,
            max_nodes=40,
        )
        path = tmp_path / "pruned_model.json"
        save_result(CLUSEQ(params).fit(db), str(path), alphabet=db.alphabet)
        result, alphabet, kind = load_model_payload(str(path))
        closed = [c.pst.transitions()[1] for c in result.clusters]
        assert True in closed and False in closed
        version = ModelVersion("m", 1, result, alphabet, str(path), kind)
        registry = MetricsRegistry()
        with use_registry(registry):
            outcomes = version.classify_batch(query_sequences)
        n = len(query_sequences)
        assert registry.counter("backend.batch_rows").value == closed.count(True) * n
        assert registry.counter("similarity.calls").value == closed.count(False) * n
        for symbols, outcome in zip(query_sequences, outcomes):
            encoded = alphabet.encode(symbols)
            assert outcome is not None
            assert outcome.cluster_id == result.predict(encoded)
            scores = result.score_sequence(encoded)
            best = max(scores.values(), key=lambda s: s.log_similarity)
            assert outcome.log_similarity == best.log_similarity
            if outcome.cluster_id is not None:
                winner = scores[outcome.cluster_id]
                assert (outcome.best_start, outcome.best_end) == (
                    winner.best_start,
                    winner.best_end,
                )

    def test_unencodable_and_empty_marked_none(self, serve_model_path):
        result, alphabet, kind = load_model_payload(serve_model_path)
        version = ModelVersion(
            "m", 1, result, alphabet, serve_model_path, kind
        )
        good = [alphabet.decode([0])[0]] * 10
        outcomes = version.classify_batch([["§", "∆"], [], list(good)])
        assert outcomes[0] is None
        assert outcomes[1] is None
        assert outcomes[2] is not None

    def test_checkpoint_model_is_bit_identical_to_snapshot(
        self, serve_model_path, tmp_path, query_sequences
    ):
        state_dir = make_checkpoint(serve_model_path, tmp_path / "state")
        registry = ModelRegistry()
        from_snapshot = registry.load("snap", serve_model_path)
        from_checkpoint = registry.load("ckpt", str(state_dir))
        snap = from_snapshot.classify_batch(query_sequences)
        ckpt = from_checkpoint.classify_batch(query_sequences)
        for a, b in zip(snap, ckpt):
            assert a is not None and b is not None
            assert a.cluster_id == b.cluster_id
            assert a.log_similarity == b.log_similarity  # bit-identical
            assert (a.best_start, a.best_end) == (b.best_start, b.best_end)


class TestSwapProtocol:
    def test_reload_bumps_epoch_and_retires_previous(
        self, serve_model_path, alt_model_path
    ):
        registry = ModelRegistry()
        first = registry.load("default", serve_model_path)
        assert first.epoch == 1 and registry.get() is first
        second = registry.reload("default", source=alt_model_path)
        assert second.epoch == 2
        assert registry.get() is second
        # reload without a source re-reads the last one.
        third = registry.reload("default")
        assert third.epoch == 3 and third.source == alt_model_path

    def test_background_its_trees_disagree_with_is_a_load_error(
        self, serve_model_path, tmp_path
    ):
        """The scorer checks the background once, at build; the swap
        does not happen."""
        payload = json.loads(Path(serve_model_path).read_text(encoding="utf-8"))
        payload["background"] = payload["background"][:-1]
        broken = tmp_path / "short_background.json"
        broken.write_text(json.dumps(payload))
        registry = ModelRegistry()
        live = registry.load("default", serve_model_path)
        with pytest.raises(ModelLoadError, match="background must have length"):
            registry.reload("default", source=str(broken))
        assert registry.get() is live

    def test_reload_unknown_name_raises(self, serve_model_path):
        registry = ModelRegistry()
        registry.load("default", serve_model_path)
        with pytest.raises(KeyError):
            registry.reload("ghost")

    def test_retired_version_lives_while_held(
        self, serve_model_path, alt_model_path, query_sequences
    ):
        """A swap drops only the registry's reference: a holder keeps
        scoring the retired version, which is freed once let go."""
        registry = ModelRegistry()
        held = registry.load("default", serve_model_path)
        held.classify_batch(query_sequences)  # fill the scorer's tables
        ref = weakref.ref(held)
        registry.reload("default", source=alt_model_path)
        gc.collect()
        assert ref() is held and held.epoch == 1
        assert all(o is not None for o in held.classify_batch(query_sequences))
        del held
        gc.collect()
        assert ref() is None

    def test_concurrent_classify_sees_exactly_one_epoch(
        self, serve_model_path, alt_model_path, query_sequences
    ):
        """Classifications racing a reload are old-or-new, never torn.

        Expected outputs per epoch are computed up front; every scored
        batch observed by a worker thread must match one epoch's
        expectation exactly — a mixture would mean a torn model.
        """
        registry = ModelRegistry()
        registry.load("default", serve_model_path)

        def expected_for(path):
            result, alphabet, kind = load_model_payload(path)
            version = ModelVersion("x", 0, result, alphabet, path, kind)
            return [
                (o.cluster_id, o.log_similarity)
                for o in version.classify_batch(query_sequences)
            ]

        by_epoch = {1: expected_for(serve_model_path)}
        sources = [alt_model_path, serve_model_path]
        for epoch in range(2, 8):
            by_epoch[epoch] = expected_for(sources[epoch % 2])

        stop = threading.Event()
        observations = []
        errors = []

        def classify_loop():
            while not stop.is_set():
                version = registry.get()
                try:
                    outcomes = version.classify_batch(query_sequences)
                    observations.append(
                        (
                            version.epoch,
                            [
                                (o.cluster_id, o.log_similarity)
                                for o in outcomes
                            ],
                        )
                    )
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=classify_loop) for _ in range(4)]
        for thread in threads:
            thread.start()
        retired = []
        for epoch in range(2, 8):
            retired.append(weakref.ref(registry.get()))
            registry.reload("default", source=sources[epoch % 2])
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert observations
        for epoch, outcomes in observations:
            assert outcomes == by_epoch[epoch], f"torn read at epoch {epoch}"
        # Every retired generation is freed once the threads are done.
        gc.collect()
        assert all(ref() is None for ref in retired)
