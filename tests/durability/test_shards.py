"""Shard checkpoints and the retrying parallel execution engine.

Retries run on a real process pool.  Faults are injected through
picklable strategies that travel to the workers with each task; they
share state across processes through marker files, so a failure budget
is spent exactly once however the pool schedules the shards.
"""

import os
import tempfile

import numpy as np
import pytest

import repro.parallel.engine as engine
from repro import telemetry
from repro.core.strategies import RandomSeedStrategy, resolve_strategy
from repro.durability import ShardCheckpointStore, shard_fingerprint
from repro.linalg.rng import spawn_seed_sequences
from repro.parallel import WorkerPool, condense_sharded


class TransientStrategy(RandomSeedStrategy):
    """The paper's strategy, whose first ``failures`` calls fail.

    Each failure claims one marker file in ``marker_dir``; once every
    marker is claimed, calls behave exactly like ``"random"``.
    """

    def __init__(self, marker_dir, failures):
        self.marker_dir = str(marker_dir)
        self.failures = failures

    def plan(self, data, k, rng):
        for attempt in range(self.failures):
            path = os.path.join(self.marker_dir, f"failure-{attempt}")
            try:
                os.close(os.open(path, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                continue
            raise OSError("transient worker fault")
        return super().plan(data, k, rng)


class WorkerOnlyFailure(RandomSeedStrategy):
    """Fails in every process but the coordinator ``home_pid``."""

    def __init__(self, home_pid):
        self.home_pid = home_pid

    def plan(self, data, k, rng):
        if os.getpid() != self.home_pid:
            raise OSError("worker always dies")
        return super().plan(data, k, rng)


class BrokenInputStrategy(RandomSeedStrategy):
    """Raises ``ValueError`` on every call, leaving one file per call."""

    def __init__(self, marker_dir):
        self.marker_dir = str(marker_dir)

    def plan(self, data, k, rng):
        os.close(tempfile.mkstemp(dir=self.marker_dir)[0])
        raise ValueError("k larger than shard")


def fingerprint(model):
    return [
        (group.count, group.first_order.tobytes(),
         group.second_order.tobytes())
        for group in model.groups
    ]


@pytest.fixture
def data(rng):
    return rng.normal(size=(240, 4))


def make_tasks(data, k=8, n_shards=4, seed=5):
    strategy = resolve_strategy("random")
    sequences = spawn_seed_sequences(seed, n_shards)
    size = data.shape[0] // n_shards
    return [
        (data[index * size:(index + 1) * size], k, strategy, sequence)
        for index, sequence in enumerate(sequences)
    ]


def make_run(data, k=8, n_shards=4, seed=5, strategy="random"):
    """Shard index arrays plus per-shard task descriptors.

    This is the ``(shards, tasks)`` shape ``_run_shard_tasks`` takes:
    tasks carry only ``(k, strategy, sequence)``; the records travel
    separately (a shared-memory payload on the process path, direct
    slices on the serial path).
    """
    strategy = resolve_strategy(strategy)
    sequences = spawn_seed_sequences(seed, n_shards)
    size = data.shape[0] // n_shards
    shards = [
        np.arange(index * size, (index + 1) * size)
        for index in range(n_shards)
    ]
    tasks = [(k, strategy, sequence) for sequence in sequences]
    return shards, tasks


def run_tasks(data, shards, tasks, **kwargs):
    """Drive ``_run_shard_tasks`` on a fresh 4-worker process pool,
    collecting delivered shard results keyed by index."""
    results = {}

    def record(index, result, checkpointed=False):
        results[index] = result

    with WorkerPool(4) as pool:
        outcome = engine._run_shard_tasks(
            data, shards, tasks, 4, record, pool=pool, **kwargs
        )
    return results, outcome


class TestFingerprint:
    def test_sensitive_to_every_input(self, data):
        base = shard_fingerprint(data, 8, "random", 4, 5)
        assert shard_fingerprint(data, 8, "random", 4, 5) == base
        assert shard_fingerprint(data, 9, "random", 4, 5) != base
        assert shard_fingerprint(data, 8, "mdav", 4, 5) != base
        assert shard_fingerprint(data, 8, "random", 3, 5) != base
        assert shard_fingerprint(data, 8, "random", 4, 6) != base
        perturbed = data.copy()
        perturbed[0, 0] += 1e-9
        assert shard_fingerprint(perturbed, 8, "random", 4, 5) != base


class TestShardStore:
    def test_store_load_roundtrip(self, tmp_path, data):
        store = ShardCheckpointStore(
            tmp_path, shard_fingerprint(data, 8, "random", 4, 5)
        )
        groups, lineage = engine._condense_shard(make_tasks(data)[0])
        store.store(0, (groups, lineage))
        loaded = store.load(0)
        assert loaded is not None
        loaded_groups, loaded_lineage = loaded
        assert len(loaded_groups) == len(groups)
        for ours, theirs in zip(groups, loaded_groups):
            assert ours.count == theirs.count
            np.testing.assert_array_equal(ours.first_order,
                                          theirs.first_order)
            np.testing.assert_array_equal(ours.second_order,
                                          theirs.second_order)
        for ours, theirs in zip(lineage, loaded_lineage):
            np.testing.assert_array_equal(
                np.asarray(ours, dtype=np.int64), theirs
            )

    def test_missing_shard_loads_none(self, tmp_path):
        store = ShardCheckpointStore(tmp_path, "f" * 64)
        assert store.load(3) is None

    def test_torn_checkpoint_ignored(self, tmp_path, data):
        store = ShardCheckpointStore(
            tmp_path, shard_fingerprint(data, 8, "random", 4, 5)
        )
        store.store(0, engine._condense_shard(make_tasks(data)[0]))
        path = store.directory / "shard-00000.json"
        path.write_text(path.read_text()[:30])
        assert store.load(0) is None

    def test_foreign_fingerprint_ignored(self, tmp_path, data):
        result = engine._condense_shard(make_tasks(data)[0])
        first = ShardCheckpointStore(tmp_path, "a" * 64)
        first.store(0, result)
        # A store keyed differently but colliding on the directory
        # prefix must reject the foreign file.
        second = ShardCheckpointStore(tmp_path, "a" * 16 + "b" * 48)
        assert second.load(0) is None

    def test_clear_removes_files(self, tmp_path, data):
        store = ShardCheckpointStore(tmp_path, "c" * 64)
        tasks = make_tasks(data)
        store.store(0, engine._condense_shard(tasks[0]))
        store.store(1, engine._condense_shard(tasks[1]))
        assert store.clear() == 2
        assert store.load(0) is None


class TestCheckpointedRuns:
    def test_resume_is_bit_identical(self, tmp_path, data):
        kwargs = dict(k=8, random_state=17, n_shards=4, n_workers=2)
        first = condense_sharded(data, checkpoint_dir=tmp_path, **kwargs)
        resumed = condense_sharded(data, checkpoint_dir=tmp_path, **kwargs)
        plain = condense_sharded(data, **kwargs)
        assert fingerprint(first) == fingerprint(resumed)
        assert fingerprint(first) == fingerprint(plain)
        assert resumed.metadata["parallel"]["checkpointed"] is True

    def test_partial_checkpoints_complete_the_run(self, tmp_path, data):
        """A crash after some shards: the rerun computes only the rest."""
        kwargs = dict(k=8, random_state=17, n_shards=4, n_workers=2)
        reference = condense_sharded(data, checkpoint_dir=tmp_path,
                                     **kwargs)
        # Simulate a crash that persisted only half the shards.
        store_dir = next(tmp_path.iterdir())
        for path in sorted(store_dir.glob("shard-*.json"))[2:]:
            path.unlink()
        resumed = condense_sharded(data, checkpoint_dir=tmp_path, **kwargs)
        assert fingerprint(resumed) == fingerprint(reference)

    def test_generator_seed_rejected(self, tmp_path, data):
        with pytest.raises(ValueError, match="integer random_state"):
            condense_sharded(
                data, 8, random_state=np.random.default_rng(0),
                n_shards=2, checkpoint_dir=tmp_path,
            )

    def test_checkpoint_dir_requires_sharded_run(self, tmp_path, data):
        from repro.core.condensation import create_condensed_groups

        with pytest.raises(ValueError, match="sharded"):
            create_condensed_groups(
                data, 8, random_state=1, checkpoint_dir=tmp_path
            )


class TestRetries:
    def test_transient_failures_are_retried(self, data, tmp_path,
                                            monkeypatch):
        shards, tasks = make_run(
            data, strategy=TransientStrategy(tmp_path, failures=2)
        )
        monkeypatch.setattr(engine, "RETRY_BASE_DELAY", 0.001)
        pipeline = telemetry.configure()
        try:
            results, (effective, degraded) = run_tasks(
                data, shards, tasks, max_retries=2
            )
            retries = pipeline.registry.counter(
                "parallel.retries"
            ).value()
        finally:
            telemetry.disable()
        assert sorted(results) == list(range(len(shards)))
        assert all(result is not None for result in results.values())
        assert (effective, degraded) == ("process", False)
        assert retries == 2

    def test_persistent_failure_falls_back_to_serial(self, data,
                                                     monkeypatch):
        shards, tasks = make_run(
            data, strategy=WorkerOnlyFailure(os.getpid())
        )
        monkeypatch.setattr(engine, "RETRY_BASE_DELAY", 0.001)
        with pytest.warns(engine.ParallelDegradationWarning):
            results, (effective, degraded) = run_tasks(
                data, shards, tasks, max_retries=1
            )
        assert sorted(results) == list(range(len(shards)))
        assert all(result is not None for result in results.values())
        assert (effective, degraded) == ("serial", True)

    def test_value_error_is_fatal_not_retried(self, data, tmp_path):
        shards, tasks = make_run(
            data, strategy=BrokenInputStrategy(tmp_path)
        )
        with pytest.raises(ValueError, match="k larger"):
            run_tasks(data, shards, tasks, max_retries=5)
        assert 1 <= len(list(tmp_path.iterdir())) <= len(shards)

    def test_negative_max_retries_rejected(self, data):
        with pytest.raises(ValueError, match="max_retries"):
            condense_sharded(data, 8, random_state=1, n_shards=2,
                             max_retries=-1)

    def test_retry_result_matches_clean_run(self, data, tmp_path,
                                            monkeypatch):
        """A retried run produces the same model as an untroubled one.

        ``n_workers`` is pinned above 1: the single-worker path runs
        shards in-process without the retry loop (it *is* the degraded
        fallback), so only pool execution exercises retries.
        """
        clean = condense_sharded(data, 8, random_state=17, n_shards=4,
                                 n_workers=4)
        monkeypatch.setattr(engine, "RETRY_BASE_DELAY", 0.001)
        with WorkerPool(4) as pool:
            retried = condense_sharded(
                data, 8, strategy=TransientStrategy(tmp_path, failures=1),
                random_state=17, n_shards=4, n_workers=4, pool=pool,
            )
        assert retried.metadata["parallel"]["effective_backend"] \
            == "process"
        assert fingerprint(retried) == fingerprint(clean)
