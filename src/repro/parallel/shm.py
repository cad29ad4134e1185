"""Zero-copy shard payloads over shared memory.

The sharded engine's original process backend pickled every shard's
record array into the worker pipe — at 10⁵ records the serialization
dominated the condensation it was supposed to parallelize.  This
module moves the payload out of the pipe: the coordinator *publishes*
the full record array plus the concatenated shard index arrays into
one ``multiprocessing.shared_memory`` block, and each worker
*attaches* a read-only view by name.  What crosses the pipe per task
is a tuple of strings and integers (the :class:`PayloadDescriptor`);
the records themselves are mapped, not copied, until the worker
fancy-indexes its own shard out of the view.

Where POSIX shared memory is unavailable (no ``/dev/shm``, sandboxed
interpreters) :func:`publish_payload` raises ``OSError`` and the engine
runs the shards serially: raw records never leave the coordinator's
memory for a file.

Lifetime discipline (policed by RES-001 and exercised by
``tests/parallel/test_shm.py``): the coordinator that publishes a
payload owns it.  ``close()`` both detaches and unlinks, is
idempotent, runs on success *and* failure via context-manager use in
the engine, and every live payload is additionally unlinked at
interpreter exit through an ``atexit`` hook — no leaked ``/dev/shm``
segments, ever.  Workers only ever attach; their cached attachments
are dropped when a new payload supersedes the old one and when the
worker loop exits.
"""

from __future__ import annotations

import atexit
import sys
import time
from typing import NamedTuple

import numpy as np

from repro import telemetry

try:  # pragma: no cover - import failure exercised via monkeypatch
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None


class PayloadDescriptor(NamedTuple):
    """Picklable handle to a published payload (strings and ints only).

    Attributes
    ----------
    token:
        Shared-memory block name.
    data_shape:
        Shape of the published record array.
    data_dtype:
        Dtype string of the published record array.
    index_offset:
        Byte offset of the concatenated shard indices inside the
        shared block.
    shard_offsets:
        ``n_shards + 1`` cumulative offsets into the concatenated
        index vector; shard ``i`` owns ``indices[off[i]:off[i + 1]]``.
    """

    token: str
    data_shape: tuple
    data_dtype: str
    index_offset: int
    shard_offsets: tuple


#: Payloads published by this process and not yet closed.
_LIVE_PAYLOADS: dict = {}


def _publish_bytes_gauge() -> None:
    """Set ``parallel.shm.bytes`` to the total of live payload sizes."""
    telemetry.gauge_set(
        "parallel.shm.bytes",
        sum(payload.nbytes for payload in _LIVE_PAYLOADS.values()),
    )


def _unlink_live_payloads() -> None:
    """Interpreter-exit backstop: unlink every still-open payload."""
    for payload in list(_LIVE_PAYLOADS.values()):
        payload.close()


atexit.register(_unlink_live_payloads)


def _attach_untracked(name: str):
    """Attach to a named block without adopting tracker ownership.

    Attach-side registration is what makes Python's shared-memory
    resource tracker unlink segments other processes still use
    (bpo-38119); the publisher owns unlinking here.  Forked workers
    share the publisher's tracker, where the duplicate registration is
    idempotent and the publisher's unlink settles the books — only
    spawn/forkserver workers (own tracker that would wrongly unlink on
    worker exit) need the explicit opt-out.

    Parameters
    ----------
    name:
        Shared-memory block name from a :class:`PayloadDescriptor`.

    Returns
    -------
    multiprocessing.shared_memory.SharedMemory
    """
    if sys.version_info >= (3, 13):  # pragma: no cover - 3.13+ only
        return _shared_memory.SharedMemory(name=name, track=False)
    segment = _shared_memory.SharedMemory(name=name)
    try:
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - best effort on exotic VMs
        pass
    return segment


class ShardPayload:
    """A published shard payload; the publishing process owns it.

    Build one with :func:`publish_payload`; hand
    :attr:`descriptor` to workers; ``close()`` (or exit the ``with``
    block) when every consumer is done with the current run.
    """

    def __init__(self, descriptor: PayloadDescriptor, segment,
                 nbytes: int):
        self.descriptor = descriptor
        self._segment = segment
        self.nbytes = int(nbytes)
        self._closed = False
        _LIVE_PAYLOADS[id(self)] = self

    def close(self) -> None:
        """Detach and unlink the payload; safe to call twice."""
        if self._closed:
            return
        self._closed = True
        _LIVE_PAYLOADS.pop(id(self), None)
        if self._segment is not None:
            try:
                self._segment.close()
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._segment = None
        _publish_bytes_gauge()

    @property
    def closed(self) -> bool:
        """Whether the payload has been unlinked."""
        return self._closed

    def __enter__(self):
        """Enter a ``with`` block owning the payload lifetime."""
        return self

    def __exit__(self, *exc_info):
        """Unlink on scope exit, success or failure."""
        self.close()
        return False

    def __repr__(self) -> str:
        """Terse state for logs."""
        state = "closed" if self._closed else f"{self.nbytes}B"
        return f"ShardPayload({self.descriptor.token!r}, {state})"


def publish_payload(data: np.ndarray, shards) -> ShardPayload:
    """Publish a record array and its shard plan for worker attachment.

    Parameters
    ----------
    data:
        Full record array of shape ``(n, d)``.
    shards:
        Shard index arrays from
        :func:`repro.parallel.sharding.principal_axis_shards`.

    Returns
    -------
    ShardPayload
        Owned payload whose :attr:`~ShardPayload.descriptor` crosses
        the worker pipe instead of the records.

    Raises
    ------
    OSError
        If POSIX shared memory is unavailable or the block cannot be
        created.
    """
    if _shared_memory is None:
        raise OSError("POSIX shared memory is unavailable")
    data = np.ascontiguousarray(data)
    indices = (
        np.concatenate(shards) if shards
        else np.empty(0, dtype=np.int64)
    ).astype(np.int64, copy=False)
    offsets = [0]
    for shard in shards:
        offsets.append(offsets[-1] + int(shard.shape[0]))
    index_offset = -(-data.nbytes // 8) * 8
    total = index_offset + indices.nbytes
    segment = _shared_memory.SharedMemory(create=True, size=max(total, 1))
    view = np.ndarray(data.shape, dtype=data.dtype, buffer=segment.buf)
    view[...] = data
    index_view = np.ndarray(indices.shape, dtype=indices.dtype,
                            buffer=segment.buf, offset=index_offset)
    index_view[...] = indices
    descriptor = PayloadDescriptor(
        token=segment.name, data_shape=tuple(data.shape),
        data_dtype=str(data.dtype), index_offset=index_offset,
        shard_offsets=tuple(offsets),
    )
    payload = ShardPayload(descriptor, segment, total)
    _publish_bytes_gauge()
    return payload


class PayloadAttachment:
    """A worker-side read-only attachment to a published payload."""

    def __init__(self, descriptor: PayloadDescriptor):
        self.descriptor = descriptor
        self.attach_seconds = 0.0
        start = time.perf_counter()
        self._segment = _attach_untracked(descriptor.token)
        view = np.ndarray(
            tuple(descriptor.data_shape),
            dtype=np.dtype(descriptor.data_dtype),
            buffer=self._segment.buf,
        )
        self._indices = np.ndarray(
            (descriptor.shard_offsets[-1],), dtype=np.int64,
            buffer=self._segment.buf, offset=descriptor.index_offset,
        )
        view.flags.writeable = False
        self._view = view
        self.attach_seconds = time.perf_counter() - start

    def shard_records(self, shard_index: int) -> np.ndarray:
        """Materialize one shard's records from the mapped view.

        Parameters
        ----------
        shard_index:
            Position of the shard in the published shard plan.

        Returns
        -------
        numpy.ndarray
            A fresh array holding only this shard's records — the one
            copy the worker actually needs.
        """
        offsets = self.descriptor.shard_offsets
        span = self._indices[
            offsets[shard_index]:offsets[shard_index + 1]
        ]
        return np.asarray(self._view[span], dtype=float)

    def detach(self) -> None:
        """Drop the mapped view; never unlinks (the publisher owns that)."""
        self._view = None
        self._indices = None
        if self._segment is not None:
            try:
                self._segment.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._segment = None


#: The worker's cached attachment (one payload live at a time).
_WORKER_ATTACHMENT: list = []


def attach_payload(descriptor: PayloadDescriptor) -> PayloadAttachment:
    """Attach to a payload, reusing the worker's cached attachment.

    Successive tasks of one ``condense_sharded`` run share a payload,
    so the worker pays the attach latency once; a descriptor for a
    *different* payload supersedes (and detaches) the cached one.

    Parameters
    ----------
    descriptor:
        Descriptor received with the task.

    Returns
    -------
    PayloadAttachment
    """
    if _WORKER_ATTACHMENT:
        cached = _WORKER_ATTACHMENT[0]
        if cached.descriptor.token == descriptor.token:
            return cached
        cached.detach()
        # repro-lint: disable-next=DET-003 -- worker-local attachment cache: pure memoization of a read-only view, cannot affect results
        _WORKER_ATTACHMENT.clear()
    attachment = PayloadAttachment(descriptor)
    # repro-lint: disable-next=DET-003 -- worker-local attachment cache: pure memoization of a read-only view, cannot affect results
    _WORKER_ATTACHMENT.append(attachment)
    return attachment


def detach_worker_payloads() -> None:
    """Drop the worker's cached attachment (worker-loop exit hook)."""
    while _WORKER_ATTACHMENT:
        _WORKER_ATTACHMENT.pop().detach()
