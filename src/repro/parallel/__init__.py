"""repro.parallel — sharded parallel condensation.

A condensed group is fully described by the additive statistics
``(Fs, Sc, n)`` (paper §2), so static condensation shards cleanly:
partition the database into locality-preserving spatial shards,
condense each shard independently in a worker pool, and merge the
per-shard models through statistics additivity.  An explicit repair
pass keeps the privacy invariant ``min group size >= k`` across shard
boundaries.

Entry points
------------
* :func:`condense_sharded` — the sharded engine; also reachable as
  ``create_condensed_groups(..., n_shards=, n_workers=)`` and the
  CLI's ``--shards`` / ``--workers`` flags.
* :func:`principal_axis_shards` — the recursive principal-axis
  bisection partitioner.
* :class:`WorkerPool` / :func:`get_shared_pool` — the persistent warm
  worker pool the shards run on (:mod:`repro.parallel.pool`).
* :func:`publish_payload` / :func:`attach_payload` — the zero-copy
  shared-memory shard payloads (:mod:`repro.parallel.shm`).

Determinism: shard seeds are spawned from ``random_state`` with
:func:`repro.linalg.rng.spawn_seed_sequences`, so for a fixed shard
count the result never depends on the worker count.  A pool that
cannot finish hands the remaining shards to in-process serial
execution and announces it with :class:`ParallelDegradationWarning`,
without changing the result.  See
``docs/parallel.md`` for the design and ``docs/performance.md`` for
the measured serial/process crossover.
"""

from repro.parallel.engine import (
    REPAIR_POLICIES,
    ParallelDegradationWarning,
    condense_sharded,
)
from repro.parallel.pool import (
    SubmitError,
    TaskResult,
    WorkerCrashError,
    WorkerPool,
    get_shared_pool,
    shutdown_shared_pool,
)
from repro.parallel.sharding import (
    principal_axis_bisect,
    principal_axis_shards,
    shard_size_summary,
)
from repro.parallel.shm import (
    PayloadDescriptor,
    ShardPayload,
    attach_payload,
    publish_payload,
)

__all__ = [
    "ParallelDegradationWarning",
    "PayloadDescriptor",
    "REPAIR_POLICIES",
    "ShardPayload",
    "SubmitError",
    "TaskResult",
    "WorkerCrashError",
    "WorkerPool",
    "attach_payload",
    "condense_sharded",
    "get_shared_pool",
    "principal_axis_bisect",
    "principal_axis_shards",
    "publish_payload",
    "shard_size_summary",
    "shutdown_shared_pool",
]
