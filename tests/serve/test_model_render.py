"""``/model`` rendering: memoized per-group chunks, byte-identical output.

:meth:`ShardedCondensationService.model` encodes each group once and
reuses the chunk while the group's exact ``(count, Fs, Sc)`` bytes stay
the same.  The oracle here is the plain composition the service used
before: one dict of every shard's ``to_dict`` groups, dumped with
``json.dumps(sort_keys=True)``.  Every render must equal it byte for
byte, and the chunk cache must hold exactly the live groups.
"""

import json
import math
import sys
import threading
import urllib.request

import pytest

from repro.core.generation import generate_anonymized_data
from repro.core.statistics import CondensedModel
from repro.linalg.rng import check_random_state, rng_from_state, rng_state
from repro.serve import AnonymizationHTTPServer, ShardedCondensationService
from repro.serve.service import _proportional_sizes

N_SHARDS = 3
K = 5
D = 4
WAIT = 10.0


def oracle(service) -> bytes:
    """The ``/model`` bytes composed as a dict and dumped whole."""
    shards = []
    for shard_id, shard in enumerate(service._shards):
        groups = (
            [group.to_dict() for group in shard.model_.groups]
            if shard.n_groups else []
        )
        shards.append({
            "shard": shard_id,
            "position": shard.position,
            "n_groups": len(groups),
            "total_count": sum(entry["count"] for entry in groups),
            "groups": groups,
        })
    return json.dumps({
        "k": service.k,
        "n_shards": service.n_shards,
        "bootstrapped": service.status()["bootstrapped"],
        "position": sum(entry["position"] for entry in shards),
        "n_groups": sum(entry["n_groups"] for entry in shards),
        "total_count": sum(entry["total_count"] for entry in shards),
        "shards": shards,
    }, sort_keys=True).encode("utf-8")


def assert_renders_exactly(service) -> bytes:
    """Render, compare with the oracle, and check the cache bound."""
    rendered = service.model()
    assert rendered == oracle(service)
    for shard, cache in zip(service._shards, service._model_chunks):
        assert len(cache) == shard.n_groups
    return rendered


def _service(**kwargs):
    options = {"bootstrap_size": 30, "random_state": 3}
    options.update(kwargs)
    return ShardedCondensationService(n_shards=N_SHARDS, k=K, **options)


class TestByteIdentity:
    def test_before_bootstrap(self):
        service = _service()
        assert json.loads(assert_renders_exactly(service))["n_groups"] == 0
        service.ingest(check_random_state(1).normal(size=(10, D)))
        document = json.loads(assert_renders_exactly(service))
        assert document["bootstrapped"] is False
        assert document["position"] == 0

    def test_warming_shards_with_no_groups(self):
        service = _service(bootstrap_size=N_SHARDS)
        service.ingest(check_random_state(2).normal(size=(N_SHARDS, D)))
        document = json.loads(assert_renders_exactly(service))
        assert document["bootstrapped"] is True
        assert [entry["groups"] for entry in document["shards"]] == (
            [[]] * N_SHARDS
        )

    def test_every_step_of_interleaved_block_ingests(self):
        service = _service()
        rng = check_random_state(4)
        previous = None
        for step in range(12):
            service.ingest(rng.normal(size=(256, D)))
            rendered = assert_renders_exactly(service)
            assert rendered != previous
            previous = rendered
            if step % 3 == 0:
                service.generate(16)
                assert service.model() == rendered
        assert sum(shard.n_splits for shard in service._shards) > 100
        assert service.n_groups > 3 * N_SHARDS

    def test_after_close_and_recovery(self, tmp_path):
        root = tmp_path / "serve"
        service = ShardedCondensationService.open(
            root, N_SHARDS, K, bootstrap_size=30, random_state=5,
        )
        rng = check_random_state(5)
        for _ in range(3):
            service.ingest(rng.normal(size=(256, D)))
            assert_renders_exactly(service)
        before = service.model()
        service.close()
        assert assert_renders_exactly(service) == before

        reopened = ShardedCondensationService.open(
            root, N_SHARDS, K, bootstrap_size=30,
        )
        try:
            assert reopened.recovered_shards == N_SHARDS
            assert assert_renders_exactly(reopened) == before
            reopened.ingest(rng.normal(size=(256, D)))
            assert_renders_exactly(reopened)
        finally:
            reopened.close()

    @pytest.mark.parametrize("value", [
        -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300,
        2.0, 1e16, 0.1,
    ])
    def test_float_edge_cases(self, value):
        service = _service()
        service.ingest(check_random_state(6).normal(size=(256, D)))
        assert_renders_exactly(service)
        group = service._shards[0].live_groups[0]
        group.first_order[0] = value
        group.second_order[1, 2] = value
        rendered = assert_renders_exactly(service)
        assert repr(value).encode() in rendered

    @pytest.mark.parametrize(
        "statistic", ["count", "first_order", "second_order"]
    )
    def test_a_change_to_one_statistic_alone_re_encodes(self, statistic):
        service = _service()
        service.ingest(check_random_state(12).normal(size=(256, D)))
        assert_renders_exactly(service)
        group = service._shards[0].live_groups[0]
        if statistic == "count":
            group.count += 1
        else:
            getattr(group, statistic).flat[-1] += 1.0
        assert_renders_exactly(service)

    def test_signed_zero_is_a_different_chunk(self):
        service = _service()
        service.ingest(check_random_state(7).normal(size=(256, D)))
        group = service._shards[0].live_groups[0]

        def first_sum():
            document = json.loads(assert_renders_exactly(service))
            return document["shards"][0]["groups"][0]["first_order"][0]

        group.first_order[0] = 0.0
        assert math.copysign(1.0, first_sum()) > 0
        group.first_order[0] = -0.0
        assert math.copysign(1.0, first_sum()) < 0


class TestCacheBound:
    def test_cache_tracks_live_groups_under_churn(self):
        service = _service()
        rng = check_random_state(8)
        for _ in range(10):
            service.ingest(rng.normal(size=(256, D)))
            service.model()
            for shard, cache in zip(service._shards,
                                    service._model_chunks):
                live = {
                    (group.count, group.first_order.tobytes(),
                     group.second_order.tobytes())
                    for group in shard.live_groups
                }
                assert set(cache) == live


class TestHTTP:
    def test_model_body_is_the_rendered_bytes(self):
        service = _service()
        service.ingest(check_random_state(9).normal(size=(256, D)))
        server = AnonymizationHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_port}/model"
            with urllib.request.urlopen(url, timeout=10) as reply:
                body = reply.read()
                content_type = reply.headers["Content-Type"]
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()
            service.close()
        assert content_type == "application/json"
        assert body == service.model() == oracle(service)


class TestConcurrentReads:
    def test_shard_documents_stay_consistent_under_ingest(self):
        service = _service()
        rng = check_random_state(10)
        service.ingest(rng.normal(size=(64, D)))
        batches = [rng.normal(size=(64, D)) for _ in range(16)]
        stop = threading.Event()
        documents = []

        def read():
            while not stop.is_set():
                documents.append(json.loads(service.model()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=read) for _ in range(4)]
            writers = [
                threading.Thread(target=service.ingest, args=(batch,))
                for batch in batches
            ]
            for thread in readers + writers:
                thread.start()
            for writer in writers:
                writer.join(WAIT)
            stop.set()
            for reader in readers:
                reader.join(WAIT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + writers)
        assert documents
        for document in documents:
            for entry in document["shards"]:
                counts = [group["count"] for group in entry["groups"]]
                assert sum(counts) == entry["total_count"]
                assert len(counts) == entry["n_groups"]
                assert min(counts, default=K) >= K
        assert_renders_exactly(service)
        assert json.loads(service.model())["total_count"] == 64 * 17


class TestGenerateFromLiveGroups:
    def test_output_matches_the_snapshot_copy_path(self):
        service = _service()
        rng = check_random_state(11)
        for _ in range(4):
            service.ingest(rng.normal(size=(256, D)))
        shard_rng = service._shards[0]._rng
        model = CondensedModel(
            groups=[
                group for shard in service._shards
                for group in shard.model_.groups
            ],
            k=K, metadata={},
        )
        expected = generate_anonymized_data(
            model, sampler=service.sampler,
            random_state=rng_from_state(rng_state(shard_rng)),
            sizes=_proportional_sizes(model.group_sizes, 500),
        )
        drawn = service.generate(500)
        assert drawn.tobytes() == expected.tobytes()
