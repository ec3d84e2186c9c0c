"""The serving application: endpoints, batching, backpressure, hot swap.

The acceptance contract from the serving design: concurrent classify
requests coalesce (batch occupancy > 1), queue overflow answers 503
with ``Retry-After``, and a reload mid-flight never drops or tears a
response.
"""

import asyncio
import json
from pathlib import Path

import pytest

from repro.core.persistence import load_result_with_alphabet, save_result
from repro.obs import MetricsRegistry, use_registry
from repro.serve import ModelRegistry, ServeApp, http_call
from repro.sequences.generators import generate_two_cluster_toy


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def query_strings():
    db = generate_two_cluster_toy(size_per_cluster=8, length=30, seed=42)
    return ["".join(record.symbols) for record in db]


def make_app(serve_model_path, **kwargs):
    registry = ModelRegistry()
    registry.load("default", serve_model_path)
    return ServeApp(registry, **kwargs)


class TestClassify:
    def test_batches_coalesce(self, serve_model_path, query_strings):
        async def scenario():
            app = make_app(serve_model_path, max_batch=64, max_queue=64)
            host, port = await app.start()
            try:
                responses = await asyncio.gather(
                    *(
                        http_call(
                            host, port, "POST", "/v1/classify", {"sequence": s}
                        )
                        for s in query_strings
                    )
                )
            finally:
                await app.close()
            return responses, app.batcher.stats

        responses, stats = run(scenario())
        assert all(r.status == 200 for r in responses)
        assert stats.requests == len(responses)
        # The whole point of the dispatcher: more than one request per kernel.
        assert stats.mean_occupancy > 1

    def test_multi_sequence_request_and_unencodable(
        self, serve_model_path, query_strings
    ):
        async def scenario():
            app = make_app(serve_model_path)
            host, port = await app.start()
            try:
                return await http_call(
                    host,
                    port,
                    "POST",
                    "/v1/classify",
                    {"sequences": [query_strings[0], "§§§", query_strings[1]]},
                )
            finally:
                await app.close()

        response = run(scenario())
        assert response.status == 200
        payload = response.json()
        assert payload["epoch"] == 1
        results = payload["results"]
        assert len(results) == 3
        assert "cluster" in results[0] and "cluster" in results[2]
        assert results[1] == {"error": "unencodable sequence"}

    def test_queue_overflow_is_503_with_retry_after(
        self, serve_model_path, query_strings
    ):
        async def scenario():
            # queue bound 1: the flood must overflow while a flush is
            # scoring.
            app = make_app(serve_model_path, max_batch=256, max_queue=1)
            host, port = await app.start()
            try:
                responses = await asyncio.gather(
                    *(
                        http_call(
                            host, port, "POST", "/v1/classify", {"sequence": s}
                        )
                        for s in query_strings * 3
                    )
                )
            finally:
                await app.close()
            return responses, app.batcher.stats

        responses, stats = run(scenario())
        statuses = sorted({r.status for r in responses})
        assert statuses == [200, 503]
        rejected = [r for r in responses if r.status == 503]
        assert stats.rejected == len(rejected)
        for response in rejected:
            assert response.headers["retry-after"] == "1"
            assert "capacity" in response.json()["error"]

    def test_bad_bodies_are_400(self, serve_model_path):
        async def scenario():
            app = make_app(serve_model_path)
            host, port = await app.start()
            try:
                empty = await http_call(host, port, "POST", "/v1/classify", {})
                wrong = await http_call(
                    host, port, "POST", "/v1/classify", {"sequences": [7]}
                )
                not_obj = await http_call(
                    host, port, "POST", "/v1/classify", [1, 2]
                )
            finally:
                await app.close()
            return empty, wrong, not_obj

        for response in run(scenario()):
            assert response.status == 400

    def test_classify_without_a_model_is_503(self, query_strings):
        """A flush with no model fails its requests instead of killing
        the dispatcher: each call answers 503 and close() is clean."""

        async def scenario():
            app = ServeApp(ModelRegistry())
            host, port = await app.start()
            try:
                return [
                    await asyncio.wait_for(
                        http_call(
                            host, port, "POST", "/v1/classify",
                            {"sequence": query_strings[0]},
                        ),
                        timeout=10,
                    )
                    for _ in range(2)
                ]
            finally:
                await asyncio.wait_for(app.close(), timeout=10)

        responses = run(scenario())
        assert [r.status for r in responses] == [503, 503]
        assert all("model not loaded" in r.json()["error"] for r in responses)

    def test_get_classify_is_405(self, serve_model_path):
        async def scenario():
            app = make_app(serve_model_path)
            host, port = await app.start()
            try:
                return await http_call(host, port, "GET", "/v1/classify")
            finally:
                await app.close()

        assert run(scenario()).status == 405


class TestDispatcher:
    def test_requests_queued_during_a_flush_leave_together(
        self, serve_model_path, query_strings, monkeypatch
    ):
        """No timer: what queues while a flush scores is the next flush."""
        from repro.serve import MicroBatcher
        from repro.serve.registry import ModelVersion

        registry = ModelRegistry()
        registry.load("default", serve_model_path)
        batcher = MicroBatcher(registry=registry)
        flushes = []
        followers = []
        classify_batch = ModelVersion.classify_batch

        def spy(version, sequences):
            flushes.append(len(sequences))  # one sequence per request
            if len(flushes) == 1:
                loop = asyncio.get_running_loop()
                followers.extend(
                    loop.create_task(batcher.submit([list(s)]))
                    for s in query_strings[1:4]
                )
            return classify_batch(version, sequences)

        monkeypatch.setattr(ModelVersion, "classify_batch", spy)

        async def scenario():
            try:
                first = await batcher.submit([list(query_strings[0])])
                return [first, *await asyncio.gather(*followers)]
            finally:
                await batcher.close()

        replies = run(scenario())
        assert flushes == [1, 3]
        assert batcher.stats.flushes == 2
        assert batcher.stats.mean_occupancy == 2.0
        monkeypatch.undo()
        version = registry.get()
        for query, (outcomes, served_by) in zip(query_strings, replies):
            assert served_by is version
            assert outcomes == version.classify_batch([list(query)])


class TestHotSwap:
    def test_inflight_requests_survive_reload(
        self, serve_model_path, query_strings, tmp_path
    ):
        """A reload under load drops nothing and tears nothing.

        Both model generations are loaded from the same snapshot, so
        *every* response must match the single expected outcome set —
        a torn read (half old arrays, half new) would break bit
        equality — while epochs recorded across the run prove the swap
        actually happened mid-flight.
        """

        async def scenario():
            app = make_app(serve_model_path, max_batch=8, max_queue=512)
            host, port = await app.start()
            try:
                expected = await http_call(
                    host,
                    port,
                    "POST",
                    "/v1/classify",
                    {"sequences": query_strings},
                )
                calls = [
                    http_call(
                        host, port, "POST", "/v1/classify",
                        {"sequences": query_strings},
                    )
                    for _ in range(30)
                ]
                reloads = [
                    http_call(
                        host, port, "POST", "/admin/models/default/reload"
                    )
                    for _ in range(3)
                ]
                responses = await asyncio.gather(*calls, *reloads)
            finally:
                await app.close()
            return expected, responses[:30], responses[30:]

        expected, classifies, reloads = run(scenario())
        assert expected.status == 200
        baseline = expected.json()["results"]
        assert all(r.status == 200 for r in reloads)
        epochs = set()
        for response in classifies:
            assert response.status == 200
            payload = response.json()
            epochs.add(payload["epoch"])
            assert payload["results"] == baseline
        assert len(epochs) >= 1  # every one whole, from some single epoch


class TestOtherEndpoints:
    def test_healthz_clusters_stats(self, serve_model_path):
        async def scenario():
            app = make_app(serve_model_path)
            host, port = await app.start()
            try:
                health = await http_call(host, port, "GET", "/healthz")
                clusters = await http_call(host, port, "GET", "/v1/clusters")
                stats = await http_call(host, port, "GET", "/v1/stats")
                missing = await http_call(host, port, "GET", "/nowhere")
            finally:
                await app.close()
            return health, clusters, stats, missing

        health, clusters, stats, missing = run(scenario())
        assert health.status == 200
        assert health.json()["status"] == "ok"
        assert set(health.json()) == {"status", "model", "epoch"}
        payload = clusters.json()
        assert clusters.status == 200
        assert payload["model"] == "default"
        assert payload["clusters"]
        assert {"cluster", "size", "pst_nodes"} <= set(payload["clusters"][0])
        body = stats.json()
        assert stats.status == 200
        assert "batching" in body and "models" in body
        assert missing.status == 404

    def test_ingest_absorbs_and_counts(self, serve_model_path, query_strings):
        async def scenario():
            app = make_app(serve_model_path)
            host, port = await app.start()
            try:
                ingest = await http_call(
                    host,
                    port,
                    "POST",
                    "/v1/stream/ingest",
                    {"sequences": [query_strings[0], "§§§"]},
                )
                after = await http_call(
                    host, port, "POST", "/v1/classify",
                    {"sequence": query_strings[0]},
                )
            finally:
                await app.close()
            return ingest, after

        ingest, after = run(scenario())
        assert ingest.status == 200
        payload = ingest.json()
        assert payload["skipped"] == 1
        assert len(payload["assignments"]) == 2
        assert payload["assignments"][1] is None
        assert after.status == 200
        # The post-ingest classify equals predict on a replayed model.
        reference, alphabet = load_result_with_alphabet(serve_model_path)
        encoded = list(alphabet.encode(list(query_strings[0])))
        assert reference.assign_and_absorb(encoded) == payload["assignments"][0]
        (served,) = after.json()["results"]
        assert served["cluster"] == reference.predict(encoded)
        scores = reference.score_sequence(encoded)
        best = max(scores.values(), key=lambda s: s.log_similarity)
        assert served["log_similarity"] == best.log_similarity
        if served["cluster"] is not None:
            winner = scores[served["cluster"]]
            assert served["segment"] == [winner.best_start, winner.best_end]

    def test_ingest_indices_match_in_process_replay(
        self, serve_model_path, query_strings
    ):
        """Served ingests record what per-sequence ``assign_and_absorb()``
        records; after a reload, indices restart from the reloaded model."""
        batches = [
            query_strings[start : start + 3] + ["§§§"]
            for start in range(0, len(query_strings), 3)
        ]

        async def scenario():
            app = make_app(serve_model_path)
            host, port = await app.start()
            try:
                replies = [
                    await http_call(
                        host, port, "POST", "/v1/stream/ingest",
                        {"sequences": batch},
                    )
                    for batch in batches
                ]
                served = app.registry.get().result
                reload_ = await http_call(
                    host, port, "POST", "/admin/models/default/reload"
                )
                reloaded = app.registry.get().result
                before = set(reloaded.assignments)
                after = await http_call(
                    host, port, "POST", "/v1/stream/ingest",
                    {"sequence": query_strings[0]},
                )
            finally:
                await app.close()
            return replies, served, reload_, reloaded, before, after

        replies, served, reload_, reloaded, before, after = run(scenario())
        assert all(r.status == 200 for r in (*replies, reload_, after))
        reference, alphabet = load_result_with_alphabet(serve_model_path)
        expected_next = reference.next_sequence_index()
        for batch, reply in zip(batches, replies):
            assert reply.json()["assignments"] == [
                reference.assign_and_absorb(list(alphabet.encode(list(s))))
                for s in batch[:-1]
            ] + [None]
        assert served.assignments == reference.assignments
        assert [c.cluster_id for c in served.clusters] == [
            c.cluster_id for c in reference.clusters
        ]
        for mine, theirs in zip(served.clusters, reference.clusters):
            assert mine.members == theirs.members
            assert all(
                mine.membership_of(i) == theirs.membership_of(i)
                for i in mine.members
            )
        assert reloaded is not served
        assert set(reloaded.assignments) - before == {expected_next}

    def test_two_ingests_take_consecutive_indices(
        self, serve_model_path, query_strings
    ):
        async def scenario():
            app = make_app(serve_model_path)
            result = app.registry.get().result
            first = result.next_sequence_index()
            before = set(result.assignments)
            host, port = await app.start()
            try:
                replies = [
                    await http_call(
                        host, port, "POST", "/v1/stream/ingest",
                        {"sequence": query},
                    )
                    for query in query_strings[:2]
                ]
            finally:
                await app.close()
            return replies, result, first, before

        replies, result, first, before = run(scenario())
        assert all(reply.status == 200 for reply in replies)
        assert set(result.assignments) - before == {first, first + 1}
        for index, reply in zip((first, first + 1), replies):
            (cluster_id,) = reply.json()["assignments"]
            expected = set() if cluster_id is None else {cluster_id}
            assert result.assignments[index] == expected

    def test_zero_cluster_model_replies_strict_json(self, tmp_path):
        """A cold-start checkpoint (no clusters) classifies to
        ``"log_similarity": null``, never the non-JSON ``-Infinity``."""
        from repro.sequences.alphabet import Alphabet
        from repro.stream import StreamingCluseq

        state_dir = tmp_path / "state"
        with StreamingCluseq.cold_start(
            alphabet=Alphabet("abcd"), state_dir=str(state_dir)
        ) as engine:
            engine.checkpoint()

        async def scenario():
            app = make_app(str(state_dir))
            host, port = await app.start()
            try:
                return await http_call(
                    host, port, "POST", "/v1/classify", {"sequence": "abca"}
                )
            finally:
                await app.close()

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        response = run(scenario())
        assert response.status == 200
        payload = json.loads(response.body, parse_constant=reject)
        assert payload["results"] == [
            {"cluster": None, "log_similarity": None, "segment": [0, 0]}
        ]

    def test_reload_errors(self, serve_model_path, tmp_path):
        async def scenario():
            app = make_app(serve_model_path)
            host, port = await app.start()
            try:
                ghost = await http_call(
                    host, port, "POST", "/admin/models/ghost/reload"
                )
                bad_source = await http_call(
                    host,
                    port,
                    "POST",
                    "/admin/models/default/reload",
                    {"path": str(tmp_path / "missing.json")},
                )
                bad_body = await http_call(
                    host,
                    port,
                    "POST",
                    "/admin/models/default/reload",
                    {"path": 7},
                )
            finally:
                await app.close()
            return ghost, bad_source, bad_body

        ghost, bad_source, bad_body = run(scenario())
        assert ghost.status == 404
        assert bad_source.status == 422
        assert bad_body.status == 400

    @pytest.mark.parametrize("body", [[], "x", 7])
    def test_reload_body_that_is_not_an_object_is_400(self, serve_model_path, body):
        """Checked before the swap: the live epoch does not move."""

        async def scenario():
            app = make_app(serve_model_path)
            host, port = await app.start()
            try:
                response = await http_call(
                    host, port, "POST", "/admin/models/default/reload", body
                )
            finally:
                await app.close()
            return response, app.registry.get().epoch

        response, epoch = run(scenario())
        assert response.status == 400
        assert response.json() == {"error": "body must be a JSON object"}
        assert epoch == 1

    def test_reload_of_undecodable_model_is_422(
        self, serve_model_path, tmp_path, model_fault
    ):
        payload = json.loads(Path(serve_model_path).read_text(encoding="utf-8"))
        model_fault(payload)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload))

        async def scenario():
            app = make_app(serve_model_path)
            host, port = await app.start()
            try:
                return await http_call(
                    host,
                    port,
                    "POST",
                    "/admin/models/default/reload",
                    {"path": str(broken)},
                )
            finally:
                await app.close()

        response = run(scenario())
        assert response.status == 422
        assert str(broken) in response.json()["error"]

    def test_reload_swaps_to_new_source(
        self, serve_model_path, query_strings, tmp_path
    ):
        async def scenario():
            app = make_app(serve_model_path)
            host, port = await app.start()
            try:
                before = await http_call(host, port, "GET", "/v1/clusters")
                reload_ = await http_call(
                    host,
                    port,
                    "POST",
                    "/admin/models/default/reload",
                    {"path": serve_model_path},
                )
                after = await http_call(host, port, "GET", "/v1/clusters")
            finally:
                await app.close()
            return before, reload_, after

        before, reload_, after = run(scenario())
        assert before.json()["epoch"] == 1
        assert reload_.status == 200 and reload_.json()["epoch"] == 2
        assert after.json()["epoch"] == 2

    def test_metrics_endpoint_exposes_serve_series(
        self, serve_model_path, query_strings
    ):
        async def scenario():
            app = make_app(serve_model_path)
            host, port = await app.start()
            try:
                await http_call(
                    host, port, "POST", "/v1/classify",
                    {"sequence": query_strings[0]},
                )
                return await http_call(host, port, "GET", "/metrics")
            finally:
                await app.close()

        with use_registry(MetricsRegistry()):
            response = run(scenario())
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        text = response.body.decode()
        assert "serve_requests" in text
        assert "serve_batch_flushes" in text

    def test_metrics_endpoint_without_registry(self, serve_model_path):
        async def scenario():
            app = make_app(serve_model_path)
            host, port = await app.start()
            try:
                return await http_call(host, port, "GET", "/metrics")
            finally:
                await app.close()

        response = run(scenario())
        assert response.status == 200
        assert b"disabled" in response.body


class TestCliParser:
    def test_serve_arguments_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "model.json",
                "--name",
                "prod",
                "--port",
                "0",
                "--max-batch",
                "32",
                "--queue-size",
                "128",
                "--ready-file",
                "/tmp/ready",
            ]
        )
        assert args.command == "serve"
        assert args.model == "model.json"
        assert args.name == "prod"
        assert args.port == 0
        assert args.max_batch == 32
        assert args.queue_size == 128
        assert args.ready_file == "/tmp/ready"
        assert not hasattr(args, "workers")
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "model.json", "--batch-delay-ms", "1.5"]
            )

    def test_cli_serve_rejects_bad_model(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["serve", str(tmp_path / "missing.json"), "--port", "0"])
        assert code == 1
        assert "no model source" in capsys.readouterr().err

    def test_cli_serve_rejects_undecodable_model(
        self, serve_model_path, tmp_path, capsys, model_fault, monkeypatch
    ):
        from repro.cli import main

        # A model that slips past the load check would start a server
        # that runs until killed; make that start fail the test instead.
        async def refuse_start(self, *args, **kwargs):
            raise AssertionError("serve started on an undecodable model")

        monkeypatch.setattr(ServeApp, "start", refuse_start)
        payload = json.loads(Path(serve_model_path).read_text(encoding="utf-8"))
        model_fault(payload)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload))
        code = main(["serve", str(broken), "--port", "0"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")
        assert str(broken) in err[0]


class TestShutdown:
    def test_close_fails_pending_requests(self, serve_model_path, query_strings):
        async def scenario():
            app = make_app(serve_model_path, max_batch=256, max_queue=64)
            await app.start()
            task = asyncio.get_running_loop().create_task(
                app.batcher.submit([list(query_strings[0])])
            )
            await asyncio.sleep(0)  # parked in the queue, not yet flushed
            await app.close()
            with pytest.raises(RuntimeError, match="shutting down"):
                await task

        run(scenario())


def test_query_strings_fixture_sanity(query_strings):
    assert query_strings and all(isinstance(s, str) for s in query_strings)
    assert json.dumps(query_strings)  # JSON-serializable for request bodies
