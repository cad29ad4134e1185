"""Sliding-window condensation.

A stream-analytics deployment often cares only about the most recent
``W`` records.  :class:`SlidingWindowCondenser` keeps the condensed
statistics synchronized with that window: arrivals are added through
the dynamic maintainer, and once the window is full each arrival also
*removes* the expiring record via the deletion machinery (merge-on-
underflow, the dual of split-on-overflow).

Trust-model note: the window buffer itself holds raw records — that is
inherent to sliding-window semantics and mirrors the paper's setting,
where the condensation server sees records transiently and *persists*
only aggregates.  Anything generated or stored from this class is
k-indistinguishable.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro import telemetry
from repro.core.condensation import require_positive_int
from repro.core.condenser import _DurableStream
from repro.core.dynamic import DynamicGroupMaintainer
from repro.core.generation import generate_anonymized_data
from repro.core.statistics import CondensedModel


class SlidingWindowCondenser(_DurableStream):
    """Condensed statistics over the last ``window`` stream records.

    Parameters
    ----------
    k:
        Indistinguishability level.
    window:
        Number of most recent records the statistics reflect; must be
        at least ``2k`` so the maintainer always has room to keep every
        group in its ``[k, 2k)`` band.
    sampler, random_state:
        Generation settings, as in the condenser classes.
    wal_dir:
        Durability directory.  When set, every completed push is
        journaled to a write-ahead log as its *post-operation group
        aggregates* (one atomic entry per push, covering both the add
        and any expiry) and the condenser can be rebuilt with
        :meth:`recover`.  The window buffer itself is never persisted —
        after recovery the caller must call :meth:`restore_window`
        with the re-fed tail of the stream before pushing again.
    checkpoint_every:
        With ``wal_dir`` set, write a full snapshot every this many WAL
        entries (0 disables automatic snapshots; :meth:`checkpoint`
        still works).
    fsync_every:
        Group-commit batch size for the WAL: ``fsync`` every this many
        appends.  ``1`` (default) makes each push durable before it
        returns; larger values batch pushes per fsync, trading the
        newest ``fsync_every - 1`` pushes after a crash (which the
        at-least-once re-feed replays) for ingest throughput.
    """

    _NOT_READY = (
        "window is still warming up: no condensed statistics exist to "
        "checkpoint (raw records are never durable)"
    )

    def __init__(self, k: int, window: int, sampler="uniform",
                 random_state=None, wal_dir=None,
                 checkpoint_every: int = 0, fsync_every: int = 1):
        self.window = require_positive_int(window, "window")
        if self.window < 2 * k:
            raise ValueError(
                f"window must be at least 2k={2 * k}, got {window}"
            )
        super().__init__(k, sampler, random_state, wal_dir,
                         checkpoint_every, fsync_every)
        self._buffer: deque = deque()
        self._window_restored = True

    def push(self, record: np.ndarray) -> None:
        """Ingest one stream record, expiring the oldest when full.

        The record is checked (a finite vector as wide as the window's
        records) before anything changes, so a rejected record leaves
        the window, the statistics and the journal as they were.
        """
        if not self._window_restored:
            raise RuntimeError(
                "recovered condenser: call restore_window() with the "
                f"last {min(self._position, self.window)} stream "
                "records before pushing"
            )
        record = np.asarray(record, dtype=float)
        if record.ndim != 1:
            raise ValueError(
                f"record must be a vector, got shape {record.shape}"
            )
        if self._buffer and record.shape[0] != self._buffer[0].shape[0]:
            raise ValueError(
                f"expected {self._buffer[0].shape[0]} attributes, "
                f"got {record.shape[0]}"
            )
        if not np.isfinite(record).all():
            raise ValueError("record contains NaN or infinite values")
        # Trusted-side window: the module docstring's trust-model note
        # applies; only aggregates ever leave this class.
        # repro-lint: disable-next=PRIV-001 -- transient window buffer
        self._buffer.append(record.copy())
        telemetry.counter_inc("stream.window.pushed")
        if self._maintainer is None:
            self._position += 1
            if len(self._buffer) >= 2 * self.k:
                initial = np.vstack(self._buffer)
                self._maintainer = DynamicGroupMaintainer(
                    self.k, initial_data=initial, random_state=self._rng
                )
                self._journal_bootstrap()
            return
        self._maintainer.add(record)
        if len(self._buffer) > self.window:
            expired = self._buffer.popleft()
            self._maintainer.remove(expired)
            telemetry.counter_inc("stream.window.expired")
        self._position += 1
        self._flush_ops()

    def push_stream(self, records) -> None:
        """Ingest an iterable of records in arrival order.

        Exactly a loop over :meth:`push`.
        """
        for record in records:
            self.push(record)

    @property
    def n_seen(self) -> int:
        """Records currently inside the window (or warm-up buffer)."""
        return len(self._buffer)

    @property
    def is_warm(self) -> bool:
        """Whether condensed statistics exist yet (>= 2k records seen)."""
        return self._maintainer is not None

    def to_model(self) -> CondensedModel:
        """Snapshot the window's condensed statistics."""
        if self._maintainer is None:
            raise ValueError(
                f"window is still warming up: need {2 * self.k} records, "
                f"have {len(self._buffer)}"
            )
        return self._maintainer.to_model()

    def generate(self) -> np.ndarray:
        """Anonymized records representing the current window.

        On a durable condenser, the post-generation RNG position is
        journaled so recovered state reproduces later draws exactly.
        """
        with telemetry.span("stream.window.generate") as generate_span:
            model = self.to_model()
            generate_span.set_attribute("n_groups", model.n_groups)
            generated = generate_anonymized_data(
                model, sampler=self.sampler, random_state=self._rng
            )
        self.journal_rng()
        return generated

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    @classmethod
    def recover(cls, wal_dir, sampler="uniform",
                checkpoint_every: int = 0,
                fsync_every: int = 1) -> "SlidingWindowCondenser":
        """Rebuild a durable windowed condenser from its directory.

        The condensed statistics, counters, and RNG position come back
        bit-identical to the state at the durable frontier, but the
        window *buffer* does not — raw records are never persisted.
        The returned condenser refuses :meth:`push` until
        :meth:`restore_window` is called with the last
        ``min(position, window)`` records of the re-fed stream.

        Raises
        ------
        repro.durability.RecoveryError
            If the directory holds nothing reconstructible, or was not
            written by a sliding-window condenser.
        """
        condenser = cls._recover(wal_dir, checkpoint_every, fsync_every,
                                 sampler=sampler)
        condenser._window_restored = False
        return condenser

    @staticmethod
    def _recovered_settings(recovered) -> dict:
        """The recorded window size; a directory without one is refused."""
        from repro.durability import RecoveryError, recovered_window

        window = recovered_window(recovered)
        if window is None:
            raise RecoveryError(
                "directory was not written by a sliding-window "
                "condenser: no window size recorded"
            )
        return {"window": window}

    def _recorded_settings(self) -> dict:
        """The window size, kept in ``bootstrap`` entries and snapshots."""
        return {"window": self.window}

    def restore_window(self, records) -> "SlidingWindowCondenser":
        """Refill the window buffer after :meth:`recover`.

        Parameters
        ----------
        records:
            2-D array of the last ``min(position, window)`` stream
            records, oldest first — exactly the window contents at the
            durable frontier.  The caller re-feeds these from its own
            upstream source; the durability layer never stored them.
        """
        if self._window_restored:
            raise RuntimeError(
                "window is already populated; restore_window() only "
                "applies immediately after recover()"
            )
        restored = np.asarray(records, dtype=float)
        if restored.ndim != 2:
            raise ValueError(
                f"records must be 2-D, got shape {restored.shape}"
            )
        expected = min(self._position, self.window)
        if restored.shape[0] != expected:
            raise ValueError(
                f"expected the last {expected} stream records, got "
                f"{restored.shape[0]}"
            )
        for row in restored:
            # Same trust-model note as push(): transient window only.
            # repro-lint: disable-next=PRIV-001 -- transient window buffer
            self._buffer.append(np.array(row, dtype=float))
        self._window_restored = True
        return self

    def __repr__(self) -> str:
        return (
            f"SlidingWindowCondenser(k={self.k}, window={self.window}, "
            f"n_seen={self.n_seen}, warm={self.is_warm})"
        )
