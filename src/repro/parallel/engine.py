"""Sharded static condensation with a worker-pool execution engine.

The paper's condensed groups are described *entirely* by additive
statistics ``(Fs, Sc, n)`` — which makes static condensation
embarrassingly shardable: partition the database into
locality-preserving shards (:mod:`repro.parallel.sharding`), run
``CreateCondensedGroups`` on every shard independently, and
concatenate the per-shard group statistics into one model.  The only
seam is the privacy invariant at shard boundaries: a shard smaller
than ``k`` yields a group below the indistinguishability level, so an
explicit repair pass merges every undersized group into its nearest
neighbour (the coarsening machinery of :mod:`repro.core.coarsen`),
optionally re-splitting oversized merge products with the dynamic
split of :mod:`repro.core.dynamic`.

Determinism contract
--------------------
Shard seeds derive from ``random_state`` through
:func:`repro.linalg.rng.spawn_seed_sequences`: one root seed sequence,
one spawned child per shard.  The partition itself is deterministic,
and per-shard results are collected in shard order.  Consequently the
output depends only on ``(data, k, strategy, random_state, n_shards)``
— never on ``n_workers`` or on whether the shards ran in the process
pool or in-process — and with
``n_shards=1`` the deterministic strategies (``"mdav"``) reproduce the
serial model bit for bit.
"""

from __future__ import annotations

import itertools
import logging
import os
import time
import warnings

import numpy as np

from repro import telemetry
from repro.core.coarsen import coarsen_model
from repro.core.condensation import (
    create_condensed_groups,
    require_positive_int,
)
from repro.core.dynamic import split_group_statistics
from repro.core.statistics import CondensedModel, GroupStatistics
from repro.core.strategies import resolve_strategy
from repro.linalg.rng import rng_from_seed_sequence, spawn_seed_sequences
from repro.parallel.pool import (
    SubmitError,
    WorkerCrashError,
    get_shared_pool,
)
from repro.parallel.sharding import principal_axis_shards, shard_size_summary
from repro.parallel.shm import attach_payload, publish_payload
from repro.telemetry import DEFAULT_SECONDS_BUCKETS, DEFAULT_SIZE_BUCKETS

_logger = logging.getLogger("repro")

#: Repair policies for groups left under ``k`` by the shard merge.
REPAIR_POLICIES = ("merge", "merge_resplit")

#: First retry delay; doubles per attempt (``base * 2**(attempt-1)``).
RETRY_BASE_DELAY = 0.05

#: Per-run submission tokens for the shared warm pool.  An aborted run
#: leaves its in-flight tasks outstanding on the pool; their late
#: results carry the aborted run's token and are discarded by the next
#: run instead of being mistaken for its shards.
_RUN_TOKENS = itertools.count()


class ParallelDegradationWarning(UserWarning):
    """The engine degraded from the process pool to serial mid-run.

    The result is unchanged — the determinism contract holds however
    the shards run — but throughput is not what the caller asked for,
    which a deployment should notice.  The warning carries structured
    fields so operators can alert on it without parsing the message.

    Attributes
    ----------
    from_backend:
        Backend that could not finish (``"process"``).
    to_backend:
        Backend the pending shards moved to (``"serial"``).
    n_pending:
        Shards still unfinished at the moment of degradation.
    reason:
        Human-readable cause (exception type and message).
    """

    def __init__(self, from_backend: str, to_backend: str,
                 n_pending: int, reason: str):
        self.from_backend = from_backend
        self.to_backend = to_backend
        self.n_pending = int(n_pending)
        self.reason = reason
        super().__init__(
            f"parallel backend degraded {from_backend} -> {to_backend} "
            f"with {n_pending} shard(s) pending: {reason}"
        )


class _PoolFailure(Exception):
    """The pool could not finish its shards; run the rest serially."""

    def __init__(self, cause):
        super().__init__(str(cause))
        self.cause = cause


def _warn_degraded(n_pending: int, cause) -> None:
    """Count the process → serial step; emit its warning and log line."""
    reason = f"{type(cause).__name__}: {cause}"
    telemetry.counter_inc("parallel.serial_fallbacks")
    warnings.warn(
        ParallelDegradationWarning("process", "serial", n_pending, reason),
        stacklevel=3,
    )
    _logger.warning(
        "process pool could not finish %d shard(s) (%s); falling back "
        "to serial", n_pending, reason,
    )


def _condense_shard(task):
    """Condense one shard, in a pool worker or in-process.

    ``task`` is ``(records, k, strategy, sequence)``.  Returns the
    shard's group statistics and shard-local memberships; shards
    smaller than ``k`` yield a single undersized group for the merge
    step to repair.
    """
    records, k, strategy, sequence = task
    rng = rng_from_seed_sequence(sequence)
    with telemetry.span("parallel.condense_shard") as shard_span:
        shard_span.set_attribute("shard_size", int(records.shape[0]))
        if records.shape[0] >= k:
            model = create_condensed_groups(
                records, k, strategy=strategy, random_state=rng
            )
            return model.groups, model.metadata["memberships"]
        group = GroupStatistics.from_records(records)
        return [group], [np.arange(records.shape[0], dtype=np.int64)]


def _condense_shard_payload(descriptor, shard_index, k, strategy,
                            sequence):
    """Condense one shard read from a published zero-copy payload.

    The pool worker entry point: attaches to the shared
    payload (cached across this run's tasks), materializes only its
    own shard, and delegates to :func:`_condense_shard`.  Returns the
    shard result plus the attach latency (``0.0`` for cache hits) so
    the coordinator can observe it.
    """
    attachment = attach_payload(descriptor)
    attach_seconds = attachment.attach_seconds
    attachment.attach_seconds = 0.0
    records = attachment.shard_records(shard_index)
    return (
        _condense_shard((records, k, strategy, sequence)),
        attach_seconds,
    )


class _ShardMerger:
    """Streaming shard-order merge of per-shard condensation results.

    Results may *arrive* in completion order; they are merged the
    moment the shard-order prefix is complete, so membership mapping
    and group accumulation overlap with still-running shards instead
    of waiting for a full barrier.  The final group order is byte-for-
    byte the shard order — the determinism contract is untouched.
    """

    def __init__(self, shards):
        self._shards = shards
        self._arrived = [None] * len(shards)
        self._next = 0
        self.groups: list = []
        self.memberships: list = []

    def offer(self, index: int, result) -> None:
        """Accept one shard result; merge any completed prefix."""
        self._arrived[index] = result
        while (self._next < len(self._arrived)
               and self._arrived[self._next] is not None):
            shard = self._shards[self._next]
            shard_groups, shard_memberships = self._arrived[self._next]
            for group, local_members in zip(
                shard_groups, shard_memberships
            ):
                self.groups.append(group)
                self.memberships.append(
                    shard[np.asarray(local_members, dtype=np.int64)]
                )
            self._arrived[self._next] = None
            self._next += 1

    @property
    def complete(self) -> bool:
        """Whether every shard has been merged."""
        return self._next == len(self._arrived)


def _drain_warm_pool(pool, data, shards, tasks, pending, record,
                     max_retries):
    """Run the pending shards on the persistent process pool.

    The shard payload is published once into shared memory; per-task
    pipe traffic is the descriptor plus scalars.  Worker deaths are
    respawned and retried *inside* the pool; task-level exceptions are
    retried here with exponential backoff, ``ValueError`` excepted
    (deterministic input error).

    Every submission is keyed ``(run_token, shard_index)``.  When a
    run aborts (input error, crashed worker, exhausted retries) its
    unfinished tasks stay outstanding on the shared pool; they finish
    — or fail against the by-then-closed payload — after the next run
    has started.  The token check below drops those stale deliveries
    so they can never be merged into another run's model or pollute
    its retry accounting.

    Raises
    ------
    _PoolFailure
        When the payload cannot be published, a shard exhausts its
        retries or the pool cannot take work; the caller runs the
        remaining shards serially.
    """
    attempts = dict.fromkeys(pending, 0)
    token = next(_RUN_TOKENS)
    try:
        with publish_payload(data, shards) as payload, pool.run_lock:
            for index in pending:
                pool.submit(
                    _condense_shard_payload, payload.descriptor, index,
                    tasks[index][0], tasks[index][1], tasks[index][2],
                    key=(token, index),
                )
            outstanding = len(pending)
            while outstanding:
                completed = pool.next_result()
                key = completed.key
                if not (isinstance(key, tuple) and len(key) == 2
                        and key[0] == token):
                    # Stale delivery from a previous aborted run.
                    telemetry.counter_inc("parallel.stale_results")
                    continue
                index = key[1]
                error = completed.error
                if error is None:
                    result, attach_seconds = completed.value
                    if attach_seconds:
                        telemetry.histogram_observe(
                            "parallel.shm.attach_seconds",
                            float(attach_seconds),
                            buckets=DEFAULT_SECONDS_BUCKETS,
                        )
                    record(index, result)
                    outstanding -= 1
                    continue
                if isinstance(error, ValueError):
                    raise error
                if isinstance(error, (WorkerCrashError, SubmitError)):
                    raise _PoolFailure(error) from error
                attempts[index] += 1
                if attempts[index] > max_retries:
                    raise _PoolFailure(error) from error
                telemetry.counter_inc("parallel.retries")
                _logger.warning(
                    "shard %d failed (%s: %s); retry %d/%d",
                    index, type(error).__name__, error,
                    attempts[index], max_retries,
                )
                time.sleep(
                    RETRY_BASE_DELAY * 2 ** (attempts[index] - 1)
                )
                pool.submit(
                    _condense_shard_payload, payload.descriptor, index,
                    tasks[index][0], tasks[index][1], tasks[index][2],
                    key=(token, index),
                )
    except (ValueError, _PoolFailure):
        raise
    except Exception as error:
        # Structural failures (no shared memory, pool closed underneath
        # us, pipe plumbing): hand the shards to the serial path.
        raise _PoolFailure(error) from error


def _run_shard_tasks(data, shards, tasks, n_workers: int, record,
                     store=None, max_retries: int = 2,
                     pool=None) -> tuple:
    """Execute shard tasks on the process pool, or serially.

    Every completed shard is delivered through ``record(index,
    result)`` *as it lands* — the caller merges and checkpoints
    incrementally.  With a
    :class:`~repro.durability.shards.ShardCheckpointStore`,
    already-completed shards are preloaded instead of recomputed.
    With one worker or one pending shard the shards run in-process.
    Otherwise they run on the warm process pool; failed shards are
    retried with exponential backoff, and a pool that cannot finish
    hands the remaining shards to the serial path (announced by a
    :class:`ParallelDegradationWarning`), because the result does not
    depend on where the shards ran.

    Returns
    -------
    tuple
        ``(effective_backend, degraded)`` — ``"process"``,
        ``"serial"`` or ``"checkpoint"``, and whether the pool had to
        give way to serial execution.
    """
    pending = []
    for index in range(len(tasks)):
        if store is not None:
            cached = store.load(index)
            if cached is not None:
                record(index, cached, checkpointed=True)
                telemetry.counter_inc("parallel.checkpoint_hits")
                continue
        pending.append(index)
    if not pending:
        return "checkpoint", False

    done = set()

    def record_pending(index, result):
        done.add(index)
        record(index, result)

    degraded = False
    if n_workers > 1 and len(pending) > 1:
        try:
            warm_pool = (
                pool if pool is not None else get_shared_pool(n_workers)
            )
            _drain_warm_pool(
                warm_pool, data, shards, tasks, list(pending),
                record_pending, max_retries,
            )
        except _PoolFailure as failure:
            pending = [i for i in pending if i not in done]
            degraded = True
            _warn_degraded(len(pending), failure.cause)
        else:
            return "process", False
    for index in pending:
        k, strategy, sequence = tasks[index]
        record(
            index,
            _condense_shard((data[shards[index]], k, strategy, sequence)),
        )
    return "serial", degraded


def _resolve_workers(n_workers, n_shards: int) -> int:
    """The worker count as given, or one per shard, CPU-capped."""
    if n_workers is None:
        return max(1, min(n_shards, os.cpu_count() or 1))
    return n_workers


def _repair_undersized(model: CondensedModel) -> tuple[CondensedModel, int]:
    """Merge groups under ``k`` into their nearest neighbours.

    Reuses the coarsening machinery: merging until every group reaches
    ``model.k`` is exactly a coarsen to the model's own level.  Returns
    the repaired model and the number of merges performed.
    """
    if int(model.group_sizes.min()) >= model.k:
        return model, 0
    repaired = coarsen_model(model, model.k)
    n_repairs = model.n_groups - repaired.n_groups
    # Coarsening provenance keys describe a privacy-level raise, which
    # this is not; keep the lineage under a repair-specific name.
    lineage = repaired.metadata.pop("lineage", None)
    repaired.metadata.pop("coarsened_from", None)
    repaired.metadata["repair_lineage"] = lineage
    return repaired, n_repairs


def _resplit_oversized(
    model: CondensedModel, k: int
) -> tuple[CondensedModel, int]:
    """Split merge products of at least ``2k`` back into the size band.

    Splitting statistics re-derives child sums from moments, so the
    original record-to-group memberships can no longer be attributed;
    the memberships metadata is dropped when any split occurs.
    """
    groups = list(model.groups)
    n_resplits = 0
    position = 0
    while position < len(groups):
        if groups[position].count >= 2 * k:
            first, second = split_group_statistics(groups[position])
            groups[position] = first
            groups.append(second)
            n_resplits += 1
        else:
            position += 1
    if n_resplits == 0:
        return model, 0
    resplit = CondensedModel(groups=groups, k=model.k)
    resplit.metadata = dict(model.metadata)
    resplit.metadata.pop("memberships", None)
    return resplit, n_resplits


def condense_sharded(
    data: np.ndarray,
    k: int,
    strategy="random",
    random_state=None,
    n_shards: int = 2,
    n_workers=None,
    repair: str = "merge",
    checkpoint_dir=None,
    max_retries: int = 2,
    pool=None,
) -> CondensedModel:
    """Condense a database in locality-preserving shards.

    The parallel counterpart of
    :func:`repro.core.condensation.create_condensed_groups`: the data
    is partitioned by recursive principal-axis bisection, each shard is
    condensed independently in a worker pool, and the per-shard models
    are merged through the additivity of ``(Fs, Sc, n)``.  Groups left
    under ``k`` by the merge (only possible when a shard holds fewer
    than ``k`` records) are repaired by merging them into their
    nearest neighbour, so the returned model always satisfies the
    privacy invariant ``min group size >= k``.

    Parameters
    ----------
    data:
        Record array of shape ``(n, d)`` with ``n >= k``.
    k:
        Indistinguishability level — the minimum group size.
    strategy:
        Seed-selection strategy name or object, as accepted by
        :func:`repro.core.strategies.resolve_strategy`.  Object
        strategies must be picklable to cross the process boundary;
        with an unpicklable one the run degrades to serial.
    random_state:
        Seed or generator; shard seeds are spawned from it via
        :func:`repro.linalg.rng.spawn_seed_sequences`, so results are
        reproducible for a fixed ``n_shards`` under any worker count.
    n_shards:
        Number of spatial shards, an integer.  ``1`` runs the whole
        database as a single shard (bit-identical to the serial path
        for deterministic strategies such as ``"mdav"``).
    n_workers:
        Process-pool size, an integer; ``None`` uses one worker per
        shard, capped at the CPU count.  ``1`` condenses shards
        serially in-process.  The pool's shard payload travels through
        POSIX shared memory; where that cannot be published, or the
        pool cannot finish, the remaining shards run serially.
    repair:
        ``"merge"`` (default) merges undersized boundary groups into
        their nearest neighbour; ``"merge_resplit"`` additionally
        re-splits merge products that reached ``2k`` records via
        :func:`repro.core.dynamic.split_group_statistics` (dropping
        membership metadata, which a statistics split cannot carry).
    checkpoint_dir:
        Directory for per-shard result checkpoints.  Each completed
        shard's group statistics are persisted by the coordinator as
        they land; re-running the identical configuration after a
        crash reloads finished shards instead of recomputing them.
        Requires an *integer* ``random_state`` — the fingerprint that
        keys checkpoints to their run cannot capture a bare
        generator's draw position.  Checkpoints hold statistics and
        index lineage only, never record values.
    max_retries:
        Per-shard retry budget for transient worker failures, with
        exponential backoff (``RETRY_BASE_DELAY * 2**(attempt - 1)``).
        ``ValueError`` from a shard is treated as a deterministic
        input error and never retried.  Worker *death* (e.g. an
        OOM kill) is respawned and retried inside the warm pool
        independently of this budget.
    pool:
        A :class:`repro.parallel.pool.WorkerPool` to run the shards
        on.  ``None`` (default) uses the module-shared
        warm pool (:func:`repro.parallel.pool.get_shared_pool`), which
        persists across calls so repeated condensations skip worker
        spawn entirely.  Pass an explicitly owned pool to control its
        lifetime (e.g. a service embedding the engine).

    Returns
    -------
    CondensedModel
        Merged model with ``metadata["parallel"]`` recording the shard
        plan, worker settings and repair counts; ``memberships``
        metadata maps groups to original record indices (unless a
        resplit dropped it).

    Raises
    ------
    ValueError
        If the inputs fail validation (``k``, ``n_shards`` and
        ``n_workers`` must be integers, not floats or bools), or
        ``repair`` is unknown.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {data.shape}")
    if not np.isfinite(data).all():
        raise ValueError(
            "data contains NaN or infinite values; impute or drop them "
            "before condensation"
        )
    n = data.shape[0]
    k = require_positive_int(k, "k")
    if n < k:
        raise ValueError(
            f"need at least k={k} records to condense, got {n}"
        )
    n_shards = require_positive_int(n_shards, "n_shards")
    if n_workers is not None:
        n_workers = require_positive_int(n_workers, "n_workers")
    if repair not in REPAIR_POLICIES:
        raise ValueError(
            f"repair must be one of {REPAIR_POLICIES}, got {repair!r}"
        )
    max_retries = int(max_retries)
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if checkpoint_dir is not None and not isinstance(
        random_state, (int, np.integer)
    ):
        raise ValueError(
            "shard checkpointing requires an integer random_state "
            "seed: the run fingerprint cannot capture a generator's "
            "draw position across processes"
        )
    strategy = resolve_strategy(strategy)

    with telemetry.span("parallel.condense_sharded") as parallel_span:
        parallel_span.set_attribute("n_records", n)
        parallel_span.set_attribute("k", k)
        parallel_span.set_attribute("strategy", strategy.name)

        with telemetry.span("parallel.shard_plan"):
            shards = principal_axis_shards(data, n_shards)
        summary = shard_size_summary(shards)
        n_workers = _resolve_workers(n_workers, len(shards))
        parallel_span.set_attribute("n_shards", summary["n_shards"])
        parallel_span.set_attribute("n_workers", n_workers)
        telemetry.counter_inc("parallel.shards", summary["n_shards"])
        telemetry.gauge_set("parallel.workers", n_workers)
        for shard in shards:
            telemetry.histogram_observe(
                "parallel.shard_size", int(shard.shape[0]),
                buckets=DEFAULT_SIZE_BUCKETS,
            )

        store = None
        if checkpoint_dir is not None:
            from repro.durability.shards import (
                ShardCheckpointStore,
                shard_fingerprint,
            )

            fingerprint = shard_fingerprint(
                data, k, strategy.name, len(shards), int(random_state)
            )
            store = ShardCheckpointStore(checkpoint_dir, fingerprint)

        sequences = spawn_seed_sequences(random_state, len(shards))
        tasks = [
            (k, strategy, sequence) for sequence in sequences
        ]
        merger = _ShardMerger(shards)

        def record(index, result, checkpointed=False):
            # Checkpoint first (durability), then merge the completed
            # prefix — overlapping merge work with in-flight shards.
            if store is not None and not checkpointed:
                store.store(index, result)
            merger.offer(index, result)

        effective_backend, degraded = _run_shard_tasks(
            data, shards, tasks, n_workers, record,
            store=store, max_retries=max_retries, pool=pool,
        )
        if not merger.complete:  # pragma: no cover - defensive
            raise RuntimeError("shard results incomplete after run")

        with telemetry.span("parallel.merge") as merge_span:
            model = CondensedModel(groups=merger.groups, k=k)
            model.metadata["memberships"] = merger.memberships

            undersized = model.group_sizes[model.group_sizes < k]
            for size in undersized:
                telemetry.histogram_observe(
                    "parallel.repair_group_size", int(size),
                    buckets=DEFAULT_SIZE_BUCKETS,
                )
            model, n_repairs = _repair_undersized(model)
            telemetry.counter_inc("parallel.merge_repairs", n_repairs)
            n_resplits = 0
            if repair == "merge_resplit":
                model, n_resplits = _resplit_oversized(model, k)
                telemetry.counter_inc("parallel.resplits", n_resplits)
            merge_span.set_attribute("n_groups", model.n_groups)
            merge_span.set_attribute("n_merge_repairs", n_repairs)
            merge_span.set_attribute("n_resplits", n_resplits)

        model.metadata["strategy"] = strategy.name
        model.metadata["parallel"] = {
            "n_shards": summary["n_shards"],
            "shard_min_size": summary["min_size"],
            "shard_max_size": summary["max_size"],
            "n_workers": n_workers,
            "repair": repair,
            "n_merge_repairs": n_repairs,
            "n_resplits": n_resplits,
            "max_retries": max_retries,
            "checkpointed": store is not None,
            "effective_backend": effective_backend,
            "degraded": degraded,
        }
        parallel_span.set_attribute("n_groups", model.n_groups)
        return model
