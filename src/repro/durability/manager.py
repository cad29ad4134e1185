"""Checkpoint + WAL coordination for one durable condenser.

:class:`DurabilityManager` owns a durability directory holding both a
:class:`~repro.durability.wal.WriteAheadLog` and the snapshot files of
:mod:`repro.durability.snapshot`, and implements the classic recovery
protocol on top of them:

* every completed stream operation is appended to the WAL (statistics
  deltas only — see the WAL module docstring for the privacy argument);
* every ``checkpoint_every`` appends (or on demand), the bound state
  provider is serialized into an atomic snapshot covering the WAL
  position, after which fully-covered WAL segments are pruned;
* :meth:`recover` returns the newest valid snapshot plus the WAL tail
  after it, from which the owning condenser reconstructs bit-identical
  in-memory state.

The manager is deliberately ignorant of condenser internals: it moves
opaque JSON state and entries.  The condensers own the entry
vocabulary (see :mod:`repro.durability.recovery`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro import telemetry
from repro.durability.snapshot import (
    _seq_of,
    latest_snapshot,
    list_snapshots,
    prune_snapshots,
    write_snapshot,
)
from repro.durability.wal import (
    DEFAULT_SEGMENT_BYTES,
    WriteAheadLog,
    replay_directory,
)
from repro.telemetry import DEFAULT_SIZE_BUCKETS

#: Default number of snapshots kept on disk.  More than one, so a torn
#: newest snapshot still leaves a valid recovery anchor.
DEFAULT_KEEP_SNAPSHOTS = 2


@dataclass(frozen=True)
class RecoveredState:
    """Everything :meth:`DurabilityManager.recover` found on disk.

    Attributes
    ----------
    snapshot_state:
        State document of the newest valid snapshot, or ``None`` when
        no snapshot validates (recovery then replays the WAL from its
        first entry).
    entries:
        ``(seq, entry)`` pairs of the WAL tail after the snapshot, in
        log order, ending at the durable frontier.
    last_seq:
        Sequence number of the last durable WAL entry (0 for an empty
        log).
    """

    snapshot_state: dict | None
    entries: list
    last_seq: int

    @property
    def is_empty(self) -> bool:
        """Whether the directory held nothing recoverable."""
        return self.snapshot_state is None and not self.entries


def _read_recovered(directory):
    """The newest valid snapshot plus the WAL tail after it.

    Read-only: nothing is repaired or opened for append, so a torn
    tail is observed, not truncated.  ``last_seq`` is the durable
    frontier, the sequence number a repairing open resumes after.

    Parameters
    ----------
    directory:
        Durability directory.

    Returns
    -------
    (int, RecoveredState)
        The snapshot's sequence number (0 without one) and the state.
    """
    info = latest_snapshot(directory)
    base_seq = info.seq if info is not None else 0
    entries = []
    last_seq = 0
    for seq, entry in replay_directory(directory):
        last_seq = seq
        if seq > base_seq:
            entries.append((seq, entry))
    return base_seq, RecoveredState(
        snapshot_state=info.state if info is not None else None,
        entries=entries,
        last_seq=last_seq,
    )


class DurabilityManager:
    """WAL + checkpoint lifecycle for one durable condenser.

    Parameters
    ----------
    directory:
        Durability directory (created if missing); holds both WAL
        segments and snapshot files.
    checkpoint_every:
        Automatic checkpoint cadence in WAL appends; ``0`` (default)
        disables automatic checkpoints — :meth:`checkpoint` can still
        be called explicitly.
    keep_snapshots:
        Number of newest snapshots retained after each checkpoint.
    max_segment_bytes, fsync_every:
        Passed to :class:`~repro.durability.wal.WriteAheadLog`.
    """

    def __init__(self, directory, checkpoint_every: int = 0,
                 keep_snapshots: int = DEFAULT_KEEP_SNAPSHOTS,
                 max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 fsync_every: int = 1):
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if keep_snapshots < 1:
            raise ValueError(
                f"keep_snapshots must be >= 1, got {keep_snapshots}"
            )
        self.directory = Path(directory)
        self.checkpoint_every = int(checkpoint_every)
        self.keep_snapshots = int(keep_snapshots)
        self.wal = WriteAheadLog(
            self.directory, max_segment_bytes=max_segment_bytes,
            fsync_every=fsync_every,
        )
        if self.wal.last_seq == 0:
            # A log with no entry left beside a snapshot (1.17.0 could
            # prune every segment) numbers on after the snapshot, so
            # recovery replays the new entries instead of skipping them.
            info = latest_snapshot(self.directory)
            if info is not None:
                self.wal.last_seq = info.seq
        self._state_provider = None
        self._appends_since_checkpoint = 0

    def bind(self, state_provider) -> None:
        """Register the callable that serializes the owner's full state.

        Parameters
        ----------
        state_provider:
            Zero-argument callable returning a JSON-serializable state
            document (statistics only).  Called at every checkpoint.
        """
        if not callable(state_provider):
            raise TypeError("state_provider must be callable")
        self._state_provider = state_provider

    # ------------------------------------------------------------------
    # Logging and checkpointing
    # ------------------------------------------------------------------

    def append(self, entry: dict) -> int:
        """Append one entry to the WAL, checkpointing on cadence.

        Parameters
        ----------
        entry:
            JSON-serializable entry; the WAL assigns its ``"seq"``.

        Returns
        -------
        int
            The assigned sequence number.
        """
        seq = self.wal.append(entry)
        self._appends_since_checkpoint += 1
        if (
            self.checkpoint_every
            and self._state_provider is not None
            and self._appends_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()
        return seq

    def checkpoint(self) -> Path:
        """Snapshot the bound state and prune covered WAL segments.

        Returns
        -------
        pathlib.Path
            Path of the written snapshot.

        Raises
        ------
        RuntimeError
            If no state provider is bound.
        """
        if self._state_provider is None:
            raise RuntimeError(
                "no state provider bound; call bind() before checkpoint()"
            )
        state = self._state_provider()
        # The snapshot must not claim coverage of entries still riding
        # the page cache: sync the WAL before stamping the sequence.
        self.wal.sync()
        path = write_snapshot(self.directory, state, seq=self.wal.last_seq)
        prune_snapshots(self.directory, keep=self.keep_snapshots)
        # Replay may have to fall back to the oldest retained snapshot,
        # so only segments it covers are prunable.
        self.wal.prune(_seq_of(list_snapshots(self.directory)[0]))
        self._appends_since_checkpoint = 0
        self._publish_disk_gauges()
        return path

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self) -> RecoveredState:
        """Load the newest valid snapshot and the WAL tail after it.

        Opening the WAL already repaired any torn tail, so the returned
        entries end exactly at the durable frontier.

        Returns
        -------
        RecoveredState
        """
        self.wal.close()
        with telemetry.span("durability.recover") as recover_span:
            base_seq, recovered = _read_recovered(self.directory)
            recover_span.set_attribute("snapshot_seq", base_seq)
            recover_span.set_attribute("replayed", len(recovered.entries))
        telemetry.counter_inc("durability.recoveries")
        telemetry.histogram_observe(
            "durability.replay_entries", len(recovered.entries),
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._publish_disk_gauges()
        return recovered

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Flush and close the underlying WAL."""
        self.wal.close()
        self._publish_disk_gauges()

    def disk_usage(self) -> dict:
        """On-disk footprint of the durability directory.

        Returns
        -------
        dict
            ``{"wal_bytes": ..., "snapshot_bytes": ...}`` — total bytes
            across WAL segments and across retained snapshot files.
        """
        wal_bytes = sum(
            path.stat().st_size for path in self.wal.segments()
        )
        snapshot_bytes = sum(
            path.stat().st_size
            for path in list_snapshots(self.directory)
        )
        return {"wal_bytes": wal_bytes, "snapshot_bytes": snapshot_bytes}

    def _publish_disk_gauges(self) -> None:
        """Export the directory footprint through the telemetry registry.

        Refreshed at every checkpoint, recovery, and close — the
        moments the footprint changes step-wise (segment prune,
        snapshot rotation) and the moments an operator watching
        ``durability.wal_bytes`` most needs a fresh value (see
        ``docs/operations.md``).
        """
        usage = self.disk_usage()
        telemetry.gauge_set("durability.wal_bytes", usage["wal_bytes"])
        telemetry.gauge_set(
            "durability.snapshot_bytes", usage["snapshot_bytes"]
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self) -> str:
        return (
            f"DurabilityManager(directory={str(self.directory)!r}, "
            f"last_seq={self.wal.last_seq}, "
            f"checkpoint_every={self.checkpoint_every})"
        )
