"""One ingest request is one block per shard.

Each shard condenses its slice of a request with one ``ingest_block``
call, journals it as one ``batch`` WAL entry, and, at the default
``fsync_every=1``, fsyncs once before the request is acknowledged.
Shard directories written by the record-at-a-time path of releases
before 1.11 (``op`` entries, written here by the oracle in
``tests/core/test_one_ingest_path.py``) must still recover under the
block-path service.
"""

import json
import os

import numpy as np
import pytest

import repro.durability.wal as wal_module
from repro.core.condenser import DynamicCondenser
from repro.durability import inspect_frames
from repro.linalg.rng import check_random_state
from repro.serve import ShardedCondensationService
from repro.serve.service import MAX_BLOCK_ROWS, shard_directory
from tests.core.test_one_ingest_path import legacy_partial_fit

N_SHARDS = 3
K = 4


def _frames(root, shard_id):
    return list(inspect_frames(shard_directory(root, shard_id)))


def _segment_inodes(root, shard_id):
    return {
        (stat.st_dev, stat.st_ino)
        for stat in (
            os.stat(path)
            for path in shard_directory(root, shard_id).glob("wal-*.log")
        )
    }


@pytest.fixture
def bootstrapped(tmp_path):
    root = tmp_path / "serve"
    service = ShardedCondensationService(
        n_shards=N_SHARDS, k=K, root=root, bootstrap_size=60,
        random_state=5,
    )
    rng = check_random_state(5)
    warmup = rng.normal(size=(60, 3))
    assert service.ingest(warmup)["bootstrapped"]
    yield service, root, rng, warmup
    service.close()


class TestOneRequestOneEntryPerShard:
    def test_one_batch_frame_and_one_fsync_per_touched_shard(
        self, bootstrapped, monkeypatch
    ):
        service, root, rng, warmup = bootstrapped
        request = rng.normal(size=(256, 3))
        before = [_frames(root, shard) for shard in range(N_SHARDS)]
        positions = [
            entry["position"]
            for entry in json.loads(service.model())["shards"]
        ]
        synced = []
        real_fsync = wal_module.os.fsync

        def counting_fsync(fd):
            stat = os.fstat(fd)
            synced.append((stat.st_dev, stat.st_ino))
            return real_fsync(fd)

        monkeypatch.setattr(wal_module.os, "fsync", counting_fsync)
        result = service.ingest(request)
        monkeypatch.setattr(wal_module.os, "fsync", real_fsync)

        touched = [
            shard for shard, entry
            in enumerate(json.loads(service.model())["shards"])
            if entry["position"] != positions[shard]
        ]
        assert len(touched) > 1, "request routed to a single shard"
        for shard in range(N_SHARDS):
            added = _frames(root, shard)[len(before[shard]):]
            expected = 1 if shard in touched else 0
            assert [frame["kind"] for frame in added] == ["batch"] * expected
            assert all(frame["status"] == "ok" for frame in added)
            inodes = _segment_inodes(root, shard)
            assert sum(key in inodes for key in synced) == expected
        assert len(synced) == len(touched)
        assert result["position"] == warmup.shape[0] + request.shape[0]

    def test_groups_keep_k_and_conserve_first_order_mass(
        self, bootstrapped
    ):
        service, __, rng, warmup = bootstrapped
        request = rng.normal(size=(512, 3))
        service.ingest(request)
        document = json.loads(service.model())
        groups = [
            group for entry in document["shards"]
            for group in entry["groups"]
        ]
        assert min(group["count"] for group in groups) >= K
        ingested = np.vstack([warmup, request])
        assert document["total_count"] == ingested.shape[0]
        total = np.sum(
            [group["first_order"] for group in groups], axis=0
        )
        np.testing.assert_allclose(
            total, ingested.sum(axis=0), rtol=1e-12, atol=1e-9
        )

    def test_slices_longer_than_the_cap_are_cut(self, tmp_path):
        root = tmp_path / "serve"
        records = check_random_state(2).normal(
            size=(MAX_BLOCK_ROWS + 10, 2)
        )
        with ShardedCondensationService(
            n_shards=1, k=K, root=root, bootstrap_size=8, random_state=2,
        ) as service:
            service.ingest(records[:8])
            before = len(_frames(root, 0))
            result = service.ingest(records[8:])
            kinds = [frame["kind"] for frame in _frames(root, 0)[before:]]
        assert kinds == ["batch", "batch"]
        assert result["position"] == records.shape[0]


class TestRecordAtATimeDirectoriesRecover:
    def test_op_entries_recover_under_the_block_path(self, tmp_path):
        root = tmp_path / "serve"
        rng = check_random_state(9)
        old = DynamicCondenser(
            K, random_state=9, wal_dir=shard_directory(root, 0),
        ).fit()
        legacy_partial_fit(old, rng.normal(size=(300, 3)))
        old.close()
        kinds = {frame["kind"] for frame in _frames(root, 0)}
        assert "op" in kinds and "batch" not in kinds
        expected = [group.to_dict() for group in old.model_.groups]

        service = ShardedCondensationService.open(root, 1, K)
        try:
            assert service.recovered_shards == 1
            shard = json.loads(service.model())["shards"][0]
            assert shard["groups"] == expected
            assert shard["position"] == old.position
        finally:
            service.close()

    def test_mixed_op_and_batch_log_recovers_byte_identically(
        self, tmp_path
    ):
        root = tmp_path / "serve"
        rng = check_random_state(4)
        old = DynamicCondenser(
            K, random_state=4, wal_dir=shard_directory(root, 0),
        ).fit()
        legacy_partial_fit(old, rng.normal(size=(120, 3)))
        old.close()
        with ShardedCondensationService.open(
            root, 1, K, bootstrap_size=8,
        ) as service:
            service.ingest(rng.normal(size=(200, 3)))
            document = json.loads(service.model())
        kinds = [frame["kind"] for frame in _frames(root, 0)]
        assert "op" in kinds and "batch" in kinds
        with ShardedCondensationService.open(
            root, 1, K, bootstrap_size=8,
        ) as reopened:
            assert json.loads(reopened.model()) == document
