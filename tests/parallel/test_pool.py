"""The persistent warm worker pool: reuse, respawn, teardown.

The pool's contract has two halves.  The *performance* half: workers
spawn lazily and survive across runs (same PIDs on warm reuse).  The
*reliability* half: a worker killed mid-task is respawned and the task
transparently retried (up to ``restart_limit``), task exceptions are
delivered to the caller rather than poisoning the pool, and
``close()`` is idempotent.  The engine-facing determinism consequence — a SIGKILL'd
worker mid-shard still yields the bit-identical final model — is
exercised at the ``condense_sharded`` level here too.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro import telemetry
from repro.parallel import (
    SubmitError,
    WorkerCrashError,
    WorkerPool,
    condense_sharded,
    get_shared_pool,
    shutdown_shared_pool,
)
from repro.parallel.pool import _worker_main  # noqa: F401 - import check


def _echo(value):
    """Trivial worker task."""
    return value


def _boom(message):
    """Worker task that raises."""
    raise ValueError(message)


def _pid_of(_index):
    """Report the worker's own PID."""
    # repro-lint: disable-next=DET-001 -- the PID is the observable under test (warm reuse keeps workers alive)
    return os.getpid()


def _sleep_then_echo(seconds, value):
    """Slow worker task (lets the coordinator act mid-flight)."""
    time.sleep(seconds)
    return value


def _return_unpicklable(_index):
    """Worker task whose return value cannot cross the pipe."""
    return lambda: None


def drain(pool, n):
    """Collect ``n`` results as a key -> (value, error) dict."""
    results = {}
    for _ in range(n):
        result = pool.next_result(timeout=30.0)
        results[result.key] = (result.value, result.error)
    return results


class TestLifecycle:
    def test_construction_spawns_nothing(self):
        with WorkerPool(4) as pool:
            assert pool.alive_count() == 0

    def test_first_submit_spawns_lazily(self):
        with WorkerPool(4) as pool:
            pool.submit(_echo, 1, key="a")
            assert pool.alive_count() >= 1
            assert drain(pool, 1) == {"a": (1, None)}
            # One task never needs four workers.
            assert pool.alive_count() == 1

    def test_warm_reuse_keeps_worker_pids(self):
        with WorkerPool(2) as pool:
            for index in range(2):
                pool.submit(_pid_of, index, key=index)
            first = set(drain(pool, 2).values())
            for index in range(2):
                pool.submit(_pid_of, index, key=index)
            second = set(drain(pool, 2).values())
            assert first == second
            assert pool.worker_pids() == sorted(
                pid for pid, _err in first
            )

    def test_close_is_idempotent_and_rejects_submit(self):
        pool = WorkerPool(2)
        pool.submit(_echo, 1, key="a")
        drain(pool, 1)
        pool.close()
        pool.close()
        assert pool.closed
        assert pool.alive_count() == 0
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(_echo, 2)

    def test_ensure_workers_never_shrinks(self):
        with WorkerPool(2) as pool:
            pool.ensure_workers(4)
            assert pool.n_workers == 4
            pool.ensure_workers(1)
            assert pool.n_workers == 4

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="n_workers"):
            WorkerPool(0)


class TestFailureDelivery:
    def test_task_exception_is_delivered_not_raised(self):
        with WorkerPool(1) as pool:
            pool.submit(_boom, "bad input", key="x")
            pool.submit(_echo, 7, key="y")
            results = drain(pool, 2)
            value, error = results["x"]
            assert value is None
            assert isinstance(error, ValueError)
            assert "bad input" in str(error)
            # The worker survived the exception.
            assert results["y"] == (7, None)

    def test_unpicklable_task_becomes_submit_error(self):
        with WorkerPool(1) as pool:
            pool.submit(lambda: 1, key="lam")
            _value, error = drain(pool, 1)["lam"]
            assert isinstance(error, SubmitError)

    def test_unpicklable_result_fails_task_not_worker(self):
        with WorkerPool(1) as pool:
            pool.submit(_return_unpicklable, 0, key="bad")
            _value, error = drain(pool, 1)["bad"]
            assert isinstance(error, SubmitError)
            assert "result" in str(error)
            pids = pool.worker_pids()
            # The worker survived the serialization fault and keeps
            # serving from the same process.
            pool.submit(_echo, 7, key="ok")
            assert drain(pool, 1) == {"ok": (7, None)}
            assert pool.worker_pids() == pids

    def test_next_result_with_nothing_outstanding_raises(self):
        with WorkerPool(1) as pool:
            with pytest.raises(RuntimeError, match="outstanding"):
                pool.next_result(timeout=1.0)

    def test_next_result_timeout(self):
        with WorkerPool(1) as pool:
            pool.submit(_sleep_then_echo, 5.0, 1, key="slow")
            with pytest.raises(TimeoutError):
                pool.next_result(timeout=0.3)


class TestRespawn:
    def _kill_one_worker(self, pool, deadline=5.0):
        """SIGKILL the first live worker once it exists."""
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            pids = pool.worker_pids()
            if pids:
                os.kill(pids[0], signal.SIGKILL)
                return pids[0]
            time.sleep(0.01)
        raise AssertionError("no worker appeared to kill")

    def test_sigkill_mid_task_respawns_and_retries(self):
        with WorkerPool(1) as pool:
            pool.submit(_sleep_then_echo, 0.5, 42, key="t")
            killed = self._kill_one_worker(pool)
            result = pool.next_result(timeout=30.0)
            assert result.key == "t"
            assert result.error is None
            assert result.value == 42
            assert pool.worker_pids() != [killed]

    def test_restart_limit_surfaces_worker_crash_error(self):
        with WorkerPool(1, restart_limit=1) as pool:
            pool.submit(os._exit, 1, key="doomed")
            _value, error = drain(pool, 1)["doomed"]
            assert isinstance(error, WorkerCrashError)

    def test_sigkill_mid_shard_model_is_bit_identical(self):
        """The ISSUE's headline reliability test: kill a worker while a
        shard is condensing; the respawn + retry must reproduce the
        exact model an undisturbed run yields."""
        rng = np.random.default_rng(7)
        data = rng.normal(size=(600, 4))
        baseline = condense_sharded(
            data, k=10, n_shards=4, n_workers=2,
            strategy="mdav", random_state=3,
        )
        with WorkerPool(2) as pool:
            # Warm the pool, then murder one worker right before the run.
            pool.submit(_echo, 0, key="warm")
            drain(pool, 1)
            self._kill_one_worker(pool)
            disturbed = condense_sharded(
                data, k=10, n_shards=4, n_workers=2,
                strategy="mdav", random_state=3,
                pool=pool,
            )
        for ours, theirs in zip(disturbed.groups, baseline.groups):
            assert ours.count == theirs.count
            assert ours.first_order.tobytes() == \
                theirs.first_order.tobytes()
            assert ours.second_order.tobytes() == \
                theirs.second_order.tobytes()


#: Marker value a :class:`_PoisonedStrategy` shard refuses to condense.
_POISON = 1.0e9


class _PoisonedStrategy:
    """MDAV lookalike that refuses shards holding the poison marker.

    Clean shards condense slowly (a sleep in ``plan``), so the
    deterministic input error aborts the run while other shards are
    still in flight on the pool — the stale-result scenario.
    """

    name = "mdav"

    def plan(self, data, k, rng):
        if np.any(data >= _POISON):
            raise ValueError("poisoned shard")
        time.sleep(0.3)
        return None

    def pick_seed(self, data, remaining, rng):
        records = data[remaining]
        deltas = records - records.mean(axis=0)
        return int(np.argmax((deltas * deltas).sum(axis=1)))


class TestStaleRunIsolation:
    """An aborted run's in-flight tasks stay outstanding on the warm
    pool; their late results carry the aborted run's token and must be
    discarded by the next run instead of merged into its model."""

    @staticmethod
    def _fingerprint(model):
        return [
            (group.count, group.first_order.tobytes(),
             group.second_order.tobytes())
            for group in model.groups
        ]

    def test_simulated_stale_results_are_discarded(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(400, 3))
        baseline = condense_sharded(
            data, k=8, n_shards=4, n_workers=2,
            strategy="mdav", random_state=5,
        )
        pipeline = telemetry.configure()
        try:
            with WorkerPool(2) as pool:
                # Four slow tasks keyed like another run's shard
                # submissions, all outstanding when the run starts.
                for index in range(4):
                    pool.submit(
                        _sleep_then_echo, 0.2, ("stale", index),
                        key=(-1, index),
                    )
                models = []
                # A run ends once its own shards are back, so a stale
                # task still held by a slow worker is left for the next
                # run on the pool to discard; keep running until none
                # is outstanding.
                while not models or pool._outstanding:
                    models.append(condense_sharded(
                        data, k=8, n_shards=4, n_workers=2,
                        strategy="mdav", random_state=5,
                        pool=pool,
                    ))
            assert pipeline.registry.counter(
                "parallel.stale_results"
            ).value() == 4
        finally:
            telemetry.disable()
        for model in models:
            assert model.metadata["parallel"]["effective_backend"] \
                == "process"
            assert self._fingerprint(model) == self._fingerprint(baseline)

    def test_aborted_run_does_not_corrupt_next_run(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(400, 3))
        poisoned = data.copy()
        poisoned[:5] = _POISON
        baseline = condense_sharded(
            data, k=8, n_shards=4, n_workers=2,
            strategy="mdav", random_state=5,
        )
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="poisoned"):
                condense_sharded(
                    poisoned, k=8, n_shards=4, n_workers=2,
                    strategy=_PoisonedStrategy(), random_state=5,
                    pool=pool,
                )
            # The aborted run's shards are still in flight (or queued
            # against its now-closed payload); the next run on the
            # same pool must produce the undisturbed model anyway.
            model = condense_sharded(
                data, k=8, n_shards=4, n_workers=2,
                strategy="mdav", random_state=5,
                pool=pool,
            )
        assert model.metadata["parallel"]["effective_backend"] \
            == "process"
        assert self._fingerprint(model) == self._fingerprint(baseline)


class TestSharedPool:
    def test_shared_pool_is_reused_and_resized(self):
        shutdown_shared_pool()
        try:
            pool = get_shared_pool(1)
            again = get_shared_pool(3)
            assert again is pool
            assert pool.n_workers == 3
        finally:
            shutdown_shared_pool()

    def test_shutdown_then_get_creates_fresh_pool(self):
        shutdown_shared_pool()
        try:
            pool = get_shared_pool(1)
            shutdown_shared_pool()
            assert pool.closed
            fresh = get_shared_pool(1)
            assert fresh is not pool
            assert not fresh.closed
        finally:
            shutdown_shared_pool()
