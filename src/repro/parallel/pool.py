"""A persistent, health-checked worker-process pool.

``concurrent.futures.ProcessPoolExecutor`` gave the sharded engine a
pool per call: every ``condense_sharded`` paid worker spawn on entry
and teardown on exit, and a single dead worker condemned the whole
executor (``BrokenProcessPool``).  :class:`WorkerPool` replaces it
with the lifecycle a long-running anonymization plane actually wants:

* **lazy spawn** — constructing the pool starts nothing; workers fork
  on first dispatch, up to ``n_workers``;
* **warm reuse** — the pool survives across ``condense_sharded``
  calls (module-shared instance via :func:`get_shared_pool`), so only
  the first call pays spawn latency;
* **health-checked respawn** — a worker that dies (OOM-killed,
  ``SIGKILL``) is detected through its pipe, replaced, and its
  in-flight task is transparently resubmitted up to ``restart_limit``
  times (``parallel.pool.respawns`` counts replacements);
* **explicit close** — ``close()`` / ``with`` tears everything down;
  the shared pool is additionally closed at interpreter exit.

Tasks are dispatched over per-worker pipes, so the coordinator always
knows *which* task a dead worker held — the property that makes
respawn-with-retry deterministic.  Exceptions raised *by the task
function* are shipped back and delivered to the caller (retry policy
belongs to the caller); only infrastructure failures (worker death)
are retried inside the pool.

Thread safety: lifecycle calls (``submit``/``close``) are serialized
by an internal lock; result consumption is single-consumer by design
(one coordinator drains one run).
"""

from __future__ import annotations

import atexit
import itertools
import logging
import multiprocessing
# repro-lint: disable-next=PRIV-001 -- imported for PicklingError only; no record data is serialized here
import pickle
import threading
import time
from collections import deque
from multiprocessing import connection
from typing import NamedTuple

from repro import telemetry
from repro.parallel.shm import detach_worker_payloads

_logger = logging.getLogger("repro")

#: How long one ``wait`` tick lasts before the liveness sweep runs.
POLL_SECONDS = 0.2


class WorkerCrashError(RuntimeError):
    """A task's worker died more times than the pool may restart it."""


class SubmitError(RuntimeError):
    """A task or its result could not cross the worker pipe.

    Raised on the submit side when no worker can ever take the task
    (unpicklable function or arguments) and shipped back from the
    worker when the task's *return value* cannot be serialized — both
    are deterministic serialization faults, so neither is retried.
    """


class TaskResult(NamedTuple):
    """One completed task, delivered by :meth:`WorkerPool.next_result`.

    Attributes
    ----------
    key:
        The ``key`` given to :meth:`WorkerPool.submit`.
    value:
        The task function's return value (``None`` on error).
    error:
        The exception the task raised, a :class:`WorkerCrashError`, or
        a :class:`SubmitError`; ``None`` on success.
    """

    key: object
    value: object
    error: object


def _worker_main(conn) -> None:
    """Worker-process loop: serve tasks until the stop sentinel.

    Parameters
    ----------
    conn:
        Child end of the worker's duplex pipe; messages are
        ``(task_id, function, args)`` tuples, ``None`` to stop.
    """
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            task_id, function, args = message
            try:
                value = function(*args)
            except Exception as error:
                try:
                    conn.send(("error", task_id, error))
                except Exception:
                    try:
                        conn.send(
                            ("error", task_id, RuntimeError(repr(error)))
                        )
                    except Exception:
                        break  # torn pipe: let the parent see a death
            else:
                try:
                    conn.send(("ok", task_id, value))
                except Exception as error:
                    # An unpicklable (or pipe-breaking) return value
                    # must fail the *task*, not the worker — otherwise
                    # the pool respawns and resubmits the same task
                    # until restart_limit for a deterministic error.
                    try:
                        conn.send(("error", task_id, SubmitError(
                            f"task result could not be shipped back: "
                            f"{type(error).__name__}: {error}"
                        )))
                    except Exception:
                        break  # torn pipe: let the parent see a death
    finally:
        detach_worker_payloads()
        conn.close()


class _Task:
    """Book-keeping for one submitted task."""

    __slots__ = ("task_id", "key", "function", "args", "restarts")

    def __init__(self, task_id, key, function, args):
        self.task_id = task_id
        self.key = key
        self.function = function
        self.args = args
        self.restarts = 0


class _Worker:
    """Parent-side handle to one worker process."""

    __slots__ = ("process", "conn", "task")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.task = None


class WorkerPool:
    """Persistent pool of worker processes with automatic respawn.

    Parameters
    ----------
    n_workers:
        Maximum concurrent worker processes; idle workers stay alive
        until :meth:`close`.
    restart_limit:
        How many times one task may be resubmitted after losing its
        worker before it is delivered as a :class:`WorkerCrashError`.
    """

    def __init__(self, n_workers: int, restart_limit: int = 2):
        n_workers = int(n_workers)
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.restart_limit = int(restart_limit)
        self._context = multiprocessing.get_context()
        self._workers: list = []
        self._queue: deque = deque()
        self._delivery: deque = deque()
        self._outstanding = 0
        self._task_ids = itertools.count()
        self._closed = False
        self._lock = threading.RLock()
        #: Serializes whole runs: the pool is single-consumer, so a
        #: coordinator holds this while it drains its submissions.
        self.run_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def alive_count(self) -> int:
        """Number of live worker processes right now."""
        with self._lock:
            return sum(
                1 for worker in self._workers
                if worker.process.is_alive()
            )

    def worker_pids(self) -> list:
        """PIDs of live workers (stable across warm reuse)."""
        with self._lock:
            return sorted(
                worker.process.pid for worker in self._workers
                if worker.process.is_alive()
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _spawn(self) -> _Worker:
        """Start one worker process (lazy; called from dispatch)."""
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main, args=(child_conn,), daemon=True,
            name="repro-pool-worker",
        )
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn)
        self._workers.append(worker)
        telemetry.counter_inc("parallel.pool.spawns")
        self._publish_gauges()
        return worker

    def _retire(self, worker: _Worker) -> None:
        """Stop one worker and forget it."""
        try:
            worker.conn.send(None)
        except (OSError, ValueError):
            pass
        worker.conn.close()
        worker.process.join(timeout=1.0)
        if worker.process.is_alive():  # pragma: no cover - stuck worker
            worker.process.terminate()
            worker.process.join(timeout=1.0)
        if worker in self._workers:
            self._workers.remove(worker)
        self._publish_gauges()

    def _publish_gauges(self) -> None:
        """Refresh the pool liveness gauge."""
        telemetry.gauge_set(
            "parallel.pool.workers_alive",
            sum(1 for w in self._workers if w.process.is_alive()),
        )

    def ensure_workers(self, n_workers: int) -> None:
        """Raise the worker ceiling (shared-pool resize; never shrinks).

        Parameters
        ----------
        n_workers:
            Requested ceiling; ignored when at or below the current one.
        """
        with self._lock:
            self.n_workers = max(self.n_workers, int(n_workers))

    def close(self) -> None:
        """Stop every worker and reject further submissions; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for worker in list(self._workers):
                self._retire(worker)
            self._queue.clear()
            self._outstanding = 0
            self._publish_gauges()

    def __enter__(self):
        """Use the pool as a scope-bound resource."""
        return self

    def __exit__(self, *exc_info):
        """Close on scope exit."""
        self.close()
        return False

    # ------------------------------------------------------------------
    # Dispatch and completion
    # ------------------------------------------------------------------

    def submit(self, function, *args, key=None) -> int:
        """Queue one task for execution.

        Parameters
        ----------
        function:
            Module-level callable to run in a worker (pickled by
            reference).
        *args:
            Positional arguments; must be picklable, and by CONC-002
            discipline must not capture live handles.
        key:
            Caller-side identity delivered back with the result
            (defaults to the internal task id).

        Returns
        -------
        int
            The internal task id.

        Raises
        ------
        RuntimeError
            If the pool is closed.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            task_id = next(self._task_ids)
            task = _Task(
                task_id, task_id if key is None else key, function, args
            )
            self._queue.append(task)
            self._outstanding += 1
            self._sweep_dead_idle()
            self._dispatch()
            return task_id

    def _sweep_dead_idle(self) -> None:
        """Drop idle workers whose process died underneath the pool."""
        for worker in list(self._workers):
            if worker.task is None and not worker.process.is_alive():
                telemetry.counter_inc("parallel.pool.respawns")
                self._retire(worker)

    def _dispatch(self) -> None:
        """Assign queued tasks to idle (spawning if needed) workers."""
        while self._queue:
            worker = next(
                (w for w in self._workers
                 if w.task is None and w.process.is_alive()),
                None,
            )
            if worker is None:
                if len(self._workers) >= self.n_workers:
                    return
                try:
                    worker = self._spawn()
                except OSError as error:
                    self._fail_queue(error)
                    return
            task = self._queue.popleft()
            try:
                worker.conn.send((task.task_id, task.function, task.args))
            except (pickle.PicklingError, TypeError,
                    AttributeError) as error:
                # Unpicklable payload: no worker can ever take it.
                self._deliver_error(task, SubmitError(str(error)))
                continue
            except (OSError, ValueError) as error:
                # Torn pipe: the worker died between dispatches.
                del error
                self._handle_death(worker, requeue=False)
                self._queue.appendleft(task)
                continue
            worker.task = task

    def _fail_queue(self, error) -> None:
        """Deliver a spawn failure to every queued task."""
        while self._queue:
            self._deliver_error(
                self._queue.popleft(), SubmitError(str(error))
            )

    def _deliver_error(self, task: _Task, error) -> None:
        """Queue an error outcome for :meth:`next_result`."""
        self._delivery.append(TaskResult(task.key, None, error))

    def _handle_death(self, worker: _Worker, requeue: bool = True) -> None:
        """React to a dead worker: respawn accounting plus task retry."""
        telemetry.counter_inc("parallel.pool.respawns")
        task = worker.task
        worker.task = None
        self._retire(worker)
        if task is None or not requeue:
            return
        task.restarts += 1
        if task.restarts > self.restart_limit:
            self._deliver_error(task, WorkerCrashError(
                f"worker died {task.restarts} times running task "
                f"{task.key!r}"
            ))
            return
        _logger.warning(
            "pool worker died running task %r; respawning (restart "
            "%d/%d)", task.key, task.restarts, self.restart_limit,
        )
        self._queue.appendleft(task)

    def next_result(self, timeout=None) -> TaskResult:
        """Block until one outstanding task completes.

        Parameters
        ----------
        timeout:
            Overall seconds to wait; ``None`` waits indefinitely.

        Returns
        -------
        TaskResult
            Completion (or failure) of one submitted task, in
            completion order.

        Raises
        ------
        TimeoutError
            If nothing completes within ``timeout``.
        RuntimeError
            If no task is outstanding.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            with self._lock:
                if self._delivery:
                    self._outstanding -= 1
                    return self._delivery.popleft()
                if self._outstanding <= 0:
                    raise RuntimeError("no outstanding tasks")
                self._dispatch()
                busy = [
                    worker for worker in self._workers
                    if worker.task is not None
                ]
                conns = [worker.conn for worker in busy]
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    "no task completed within the timeout"
                )
            ready = connection.wait(conns, timeout=POLL_SECONDS)
            with self._lock:
                for ready_conn in ready:
                    worker = next(
                        (w for w in self._workers
                         if w.conn is ready_conn), None,
                    )
                    if worker is None:
                        continue
                    try:
                        status, task_id, value = worker.conn.recv()
                    except (EOFError, OSError):
                        self._handle_death(worker)
                        continue
                    task = worker.task
                    worker.task = None
                    if task is None:  # pragma: no cover - defensive
                        continue
                    if status == "ok":
                        self._delivery.append(
                            TaskResult(task.key, value, None)
                        )
                    else:
                        self._delivery.append(
                            TaskResult(task.key, None, value)
                        )
                # Backstop: a worker whose pipe never wakes but whose
                # process is gone (rare scheduler races).
                for worker in list(self._workers):
                    if (worker.task is not None
                            and not worker.process.is_alive()
                            and worker.conn not in ready):
                        self._handle_death(worker)
                self._dispatch()


# ----------------------------------------------------------------------
# Module-shared warm pool
# ----------------------------------------------------------------------

_SHARED_POOL: list = []
_SHARED_POOL_LOCK = threading.Lock()


def get_shared_pool(n_workers: int) -> WorkerPool:
    """Return the process-wide warm pool, creating it on first use.

    Successive ``condense_sharded`` calls reuse the same pool (and its
    already-spawned workers); a call asking for more workers raises
    the ceiling in place.

    Parameters
    ----------
    n_workers:
        Minimum worker ceiling the caller needs.

    Returns
    -------
    WorkerPool
    """
    with _SHARED_POOL_LOCK:
        if _SHARED_POOL and not _SHARED_POOL[0].closed:
            pool = _SHARED_POOL[0]
            pool.ensure_workers(n_workers)
            return pool
        # repro-lint: disable-next=DET-003 -- coordinator-only registry; workers never reach here (condense_sharded is never nested inside a shard)
        _SHARED_POOL.clear()
        pool = WorkerPool(n_workers)
        # repro-lint: disable-next=DET-003 -- coordinator-only registry; workers never reach here (condense_sharded is never nested inside a shard)
        _SHARED_POOL.append(pool)
        return pool


def shutdown_shared_pool() -> None:
    """Close the shared warm pool, if one exists; idempotent."""
    with _SHARED_POOL_LOCK:
        if _SHARED_POOL:
            _SHARED_POOL.pop().close()


atexit.register(shutdown_shared_pool)
