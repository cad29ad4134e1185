"""Concurrency contract of the serving plane.

The lock hierarchy in ``docs/serving.md`` promises that checkpointing
one shard never serializes ingest into the others: the service lock
``L`` covers routing only, and each shard's long I/O runs under its
own shard lock.  These tests pin that contract with real threads —
a checkpoint frozen mid-shard must not block a concurrently routed
ingest — plus multi-writer totals and the close-during-traffic 409
path.
"""

import json
import threading

import numpy as np
import pytest

from repro.linalg.rng import check_random_state
from repro.serve import ShardedCondensationService

WAIT = 10.0


def _bootstrapped(tmp_path, n_shards=2, seed=11):
    service = ShardedCondensationService(
        n_shards=n_shards, k=4, bootstrap_size=24,
        random_state=seed, root=tmp_path / "serve",
    )
    rng = check_random_state(seed)
    service.ingest(rng.normal(size=(96, 3)))
    assert json.loads(service.model())["bootstrapped"]
    return service, rng


class TestCheckpointDoesNotBlockIngest:
    def test_ingest_proceeds_while_another_shard_checkpoints(
        self, tmp_path
    ):
        service, rng = _bootstrapped(tmp_path)
        try:
            # Find records that route AWAY from the shard we freeze.
            probe = rng.normal(size=(64, 3))
            ids = service._router.route(probe)
            slow_id = int(ids[0])
            fast = probe[ids != slow_id][:4]
            assert len(fast) > 0, "probe routed to a single shard"

            entered = threading.Event()
            release = threading.Event()
            real_checkpoint = service._shards[slow_id].checkpoint

            def gated_checkpoint():
                entered.set()
                assert release.wait(WAIT), "gate never released"
                return real_checkpoint()

            service._shards[slow_id].checkpoint = gated_checkpoint

            checkpointer = threading.Thread(target=service.checkpoint)
            checkpointer.start()
            try:
                assert entered.wait(WAIT), "checkpoint never started"
                # The slow shard now holds its shard lock.  Ingest into
                # the other shard must complete regardless.
                done = threading.Event()
                outcome = {}

                def ingest():
                    outcome["result"] = service.ingest(fast)
                    done.set()

                threading.Thread(target=ingest).start()
                assert done.wait(WAIT), (
                    "ingest blocked behind a checkpointing shard"
                )
                assert outcome["result"]["accepted"] == len(fast)
            finally:
                release.set()
                checkpointer.join(WAIT)
            assert not checkpointer.is_alive()
        finally:
            release.set()
            service._shards[slow_id].checkpoint = real_checkpoint
            service.close()

    def test_checkpoint_then_recover_round_trips(self, tmp_path):
        service, rng = _bootstrapped(tmp_path)
        service.ingest(rng.normal(size=(32, 3)))
        service.checkpoint()
        position = service.position
        service.close()
        recovered = ShardedCondensationService.open(
            tmp_path / "serve", n_shards=2, k=4, bootstrap_size=24,
        )
        assert recovered.position == position
        recovered.close()


class TestConcurrentIngest:
    def test_parallel_writers_account_for_every_record(self, tmp_path):
        service, rng = _bootstrapped(tmp_path)
        try:
            start = service.position
            batches = [rng.normal(size=(16, 3)) for _ in range(8)]
            workers = [
                threading.Thread(target=service.ingest, args=(batch,))
                for batch in batches
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(WAIT)
            assert service.position == start + 8 * 16
            model = json.loads(service.model())
            assert model["total_count"] == service.position
        finally:
            service.close()


class TestCloseDuringTraffic:
    def test_ingest_after_close_is_rejected(self, tmp_path):
        service, rng = _bootstrapped(tmp_path)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.ingest(rng.normal(size=(4, 3)))

    def test_close_is_idempotent_under_contention(self, tmp_path):
        service, _ = _bootstrapped(tmp_path)
        workers = [
            threading.Thread(target=service.close) for _ in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(WAIT)
        assert all(not worker.is_alive() for worker in workers)
        service.close()

    def test_concurrent_traffic_with_close_never_corrupts(
        self, tmp_path
    ):
        service, rng = _bootstrapped(tmp_path)
        batches = [rng.normal(size=(8, 3)) for _ in range(6)]
        errors = []

        def ingest(batch):
            try:
                service.ingest(batch)
            except RuntimeError as error:
                # The documented 409 contract: closed mid-flight.
                errors.append(str(error))

        workers = [
            threading.Thread(target=ingest, args=(batch,))
            for batch in batches
        ]
        for worker in workers[:3]:
            worker.start()
        service.close()
        for worker in workers[3:]:
            worker.start()
        for worker in workers:
            worker.join(WAIT)
        assert all("closed" in message for message in errors)
