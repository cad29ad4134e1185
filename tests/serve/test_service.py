"""ShardedCondensationService: bootstrap, traffic, and recovery."""

import json

import numpy as np
import pytest

from repro.linalg.rng import check_random_state
from repro.serve import NotReadyError, ShardedCondensationService
from repro.serve.service import _proportional_sizes, shard_directory


def _stream(n=240, d=3, seed=0):
    return check_random_state(seed).normal(size=(n, d))


def _service(**overrides):
    settings = dict(n_shards=3, k=4, bootstrap_size=30, random_state=7)
    settings.update(overrides)
    return ShardedCondensationService(**settings)


class TestBootstrap:
    def test_buffers_until_threshold(self):
        service = _service()
        result = service.ingest(_stream(n=29))
        assert result == {
            "accepted": 29, "buffered": 29,
            "bootstrapped": False, "position": 0,
        }

    def test_crossing_threshold_fits_and_flushes(self):
        service = _service()
        result = service.ingest(_stream(n=45))
        assert result["bootstrapped"]
        assert result["buffered"] == 0
        assert result["position"] == 45

    def test_single_record_ingest(self):
        service = _service(bootstrap_size=3)
        service.ingest(np.zeros(3))
        service.ingest(np.ones(3))
        result = service.ingest(np.full(3, 2.0))
        assert result["accepted"] == 1
        assert result["bootstrapped"]

    def test_bootstrap_size_floor(self):
        with pytest.raises(ValueError, match="bootstrap_size"):
            _service(n_shards=4, bootstrap_size=2)

    def test_default_bootstrap_size(self):
        service = ShardedCondensationService(n_shards=2, k=5)
        assert service.bootstrap_size == 20


class TestValidation:
    def test_wrong_dimensionality_rejected(self):
        service = _service()
        service.ingest(_stream(n=5))
        with pytest.raises(ValueError, match="3 attributes"):
            service.ingest(np.zeros((2, 4)))

    def test_non_finite_rejected(self):
        service = _service()
        bad = np.full((2, 3), np.nan)
        with pytest.raises(ValueError, match="finite"):
            service.ingest(bad)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            _service().ingest(np.empty((0, 3)))

    def test_dimensionality_locked_after_bootstrap(self):
        service = _service()
        service.ingest(_stream(n=60))
        with pytest.raises(ValueError, match="3 attributes"):
            service.ingest(np.zeros((1, 5)))

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedCondensationService(0, 4)
        with pytest.raises(ValueError, match="k must be"):
            ShardedCondensationService(2, 0)
        with pytest.raises(ValueError, match="n_shards must be an integer"):
            ShardedCondensationService(2.5, 4)
        with pytest.raises(ValueError, match="k must be an integer"):
            ShardedCondensationService(2, 2.7)

    @pytest.mark.parametrize("knob, value", [
        ("checkpoint_every", 2.7), ("checkpoint_every", -1),
        ("fsync_every", 1.5), ("fsync_every", 0),
        ("bootstrap_size", 30.5),
    ])
    def test_rejects_a_non_integer_knob(self, knob, value):
        with pytest.raises(ValueError, match=f"{knob} must be an integer"):
            ShardedCondensationService(2, 3, **{knob: value})


class TestTraffic:
    def test_generate_shape_and_determinism(self):
        first = _service()
        first.ingest(_stream())
        drawn = first.generate(25)
        assert drawn.shape == (25, 3)
        second = _service()
        second.ingest(_stream())
        np.testing.assert_array_equal(drawn, second.generate(25))

    def test_generate_before_groups_raises(self):
        service = _service()
        with pytest.raises(NotReadyError, match="bootstrap_size"):
            service.generate(5)

    def test_generate_validates_n(self):
        service = _service()
        service.ingest(_stream())
        with pytest.raises(ValueError, match="n_records"):
            service.generate(0)

    def test_model_document_is_statistics_only(self):
        service = _service()
        service.ingest(_stream(n=90))
        document = json.loads(service.model())
        assert document["n_shards"] == 3
        assert document["total_count"] == 90
        assert len(document["shards"]) == 3
        for entry in document["shards"]:
            for group in entry["groups"]:
                assert set(group) == {
                    "first_order", "second_order", "count"
                }
        # Groups keep (Fs, Sc, n): every per-group document is sums and
        # a count, so the JSON body holds no individual records.
        json.dumps(document)

    def test_every_group_keeps_k(self):
        service = _service()
        service.ingest(_stream())
        for entry in json.loads(service.model())["shards"]:
            for group in entry["groups"]:
                assert group["count"] >= service.k

    def test_status_fields(self):
        service = _service()
        health = service.status()
        assert health["status"] == "ok"
        assert health["bootstrapped"] is False
        service.close()
        assert service.status()["status"] == "closed"


class TestLifecycle:
    def test_closed_service_refuses_traffic(self):
        service = _service()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.ingest(np.zeros(3))
        with pytest.raises(RuntimeError, match="closed"):
            service.generate(1)

    def test_close_is_idempotent(self):
        service = _service()
        service.close()
        service.close()
        assert service.closed

    def test_context_manager_closes(self):
        with _service() as service:
            service.ingest(_stream(n=40))
        assert service.closed


class TestDurability:
    def _open(self, root):
        return ShardedCondensationService.open(
            root, 3, 4, bootstrap_size=30, random_state=7,
            checkpoint_every=16,
        )

    def test_recovered_model_is_byte_identical(self, tmp_path):
        service = self._open(tmp_path)
        service.ingest(_stream(n=150))
        expected = service.model()
        service.close()

        recovered = self._open(tmp_path)
        assert recovered.recovered_shards == 3
        assert recovered.model() == expected
        recovered.close()

    def test_router_persisted_and_restored(self, tmp_path):
        service = self._open(tmp_path)
        service.ingest(_stream(n=80))
        service.close()
        assert (tmp_path / "router.json").is_file()

        recovered = self._open(tmp_path)
        assert recovered.status()["bootstrapped"]
        # Routing resumes without a second bootstrap phase.
        result = recovered.ingest(_stream(n=10, seed=9))
        assert result["buffered"] == 0
        recovered.close()

    def test_recovery_continues_generation_stream(self, tmp_path):
        # Reference run: no restart, two consecutive draws.
        reference = _service(random_state=7)
        reference.ingest(_stream(n=100))
        reference.generate(8)
        expected_next = reference.generate(8)

        service = self._open(tmp_path)
        service.ingest(_stream(n=100))
        service.generate(8)
        service.close()

        # Recovery restores the post-draw RNG position, so the next
        # draw continues the stream exactly where the crash left it.
        recovered = self._open(tmp_path)
        np.testing.assert_array_equal(
            expected_next, recovered.generate(8)
        )
        recovered.close()

    def test_crash_after_draw_keeps_rng_position(self, tmp_path):
        reference = _service(random_state=7)
        reference.ingest(_stream(n=100))
        reference.generate(8)
        expected_next = reference.generate(8)

        service = self._open(tmp_path)
        service.ingest(_stream(n=100))
        service.generate(8)
        # Crash without checkpoint/close: the WAL rng entry alone must
        # carry the post-draw position.
        del service

        recovered = self._open(tmp_path)
        np.testing.assert_array_equal(
            expected_next, recovered.generate(8)
        )
        recovered.close()

    def test_crash_without_close_still_recovers(self, tmp_path):
        service = self._open(tmp_path)
        service.ingest(_stream(n=120))
        expected = service.model()
        # Simulate a crash: drop the instance without checkpoint/close.
        del service

        recovered = self._open(tmp_path)
        assert recovered.model() == expected
        recovered.close()

    def test_shard_directories_layout(self, tmp_path):
        service = self._open(tmp_path)
        service.ingest(_stream(n=50))
        service.close()
        for shard_id in range(3):
            assert shard_directory(tmp_path, shard_id).is_dir()

    def test_open_requires_root(self):
        with pytest.raises(ValueError, match="root"):
            ShardedCondensationService.open(None, 2, 4)

    def test_open_refuses_orphaning_shards(self, tmp_path):
        service = self._open(tmp_path)
        service.ingest(_stream(n=50))
        service.close()
        with pytest.raises(ValueError, match="refusing to orphan"):
            ShardedCondensationService.open(tmp_path, 2, 4)


class TestProportionalSizes:
    def test_exact_total(self):
        sizes = _proportional_sizes(np.array([10, 20, 30]), 17)
        assert sum(sizes) == 17

    def test_proportionality(self):
        sizes = _proportional_sizes(np.array([10, 10, 80]), 100)
        assert sizes == [10, 10, 80]

    def test_largest_remainder_breaks_ties_stably(self):
        assert sum(_proportional_sizes(np.array([1, 1, 1]), 2)) == 2
