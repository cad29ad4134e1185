"""Write-ahead log for streaming condensation.

Every completed stream operation appends one JSON entry to the log.
An entry is a *statistics delta*: the post-update ``(Fs, Sc, n)``
aggregate of the touched group(s), never a raw record — the same
invariant the in-memory maintainer upholds (paper §2), extended to
disk.  Replaying the log therefore reconstructs group state by
re-setting aggregates, not by re-ingesting records.  The condensers
pack each aggregate as base64 of its exact little-endian float64 bytes
(:func:`repro.core.statistics.pack_group`); this module never looks
inside an entry, so it frames packed and older list-form entries
alike.

On-disk format
--------------
The log is a directory of size-rotated segment files named
``wal-<segment>.log``.  Each line is one CRC frame of
:mod:`repro.durability._files` plus a newline::

    <crc32-hex-8> <json-entry>\\n

where the CRC covers the JSON text.  A torn tail — a truncated final
line, or a line whose CRC does not match — marks the durable frontier:
replay stops at the first invalid or discontinuous entry and everything
after it is discarded, which is exactly the crash semantics an
``fsync``-then-die process exhibits.

Durability knobs: ``fsync_every`` controls how many appends may ride on
the OS page cache between ``fsync`` calls (1 = every append is durable
before the call returns), and ``max_segment_bytes`` bounds segment size
so checkpoint-driven pruning can unlink whole files.
"""

from __future__ import annotations

import os
import re
import time
from pathlib import Path

from repro import telemetry
from repro.core.condensation import require_positive_int
from repro.durability._files import decode_frame, encode_frame
from repro.telemetry import DEFAULT_SECONDS_BUCKETS

#: Segment filename pattern: ``wal-<six-digit-segment>.log``.
_SEGMENT_PATTERN = re.compile(r"^wal-(\d{6})\.log$")

#: Default segment rotation threshold (bytes).
DEFAULT_SEGMENT_BYTES = 1 << 20


def _segment_name(index: int) -> str:
    """Filename of segment ``index``."""
    return f"wal-{index:06d}.log"


def _segment_index_of(segment) -> int:
    """Index of the segment at path ``segment``."""
    return int(_SEGMENT_PATTERN.match(segment.name).group(1))


def encode_entry(entry: dict) -> str:
    """Render one entry as a CRC-framed log line (without newline).

    Parameters
    ----------
    entry:
        JSON-serializable entry mapping.

    Returns
    -------
    str
        ``"<crc32-hex-8> <json>"``.
    """
    return encode_frame(entry)


def decode_line(line: str) -> dict | None:
    """Parse one log line, returning ``None`` for torn/corrupt lines.

    Parameters
    ----------
    line:
        A line read from a segment file (trailing newline optional; a
        missing newline means the write was torn mid-line).

    Returns
    -------
    dict or None
        The decoded entry, or ``None`` if the line fails framing, CRC,
        or JSON validation.
    """
    if not line.endswith("\n"):
        return None
    return decode_frame(line[:-1])


def list_segments(directory) -> list:
    """Segment paths of a WAL directory, in log order, read-only.

    Parameters
    ----------
    directory:
        WAL directory (missing or empty directories yield ``[]``).

    Returns
    -------
    list of pathlib.Path
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        path for path in directory.iterdir()
        if _SEGMENT_PATTERN.match(path.name)
    )


def _walk(segments):
    """Classify every physical frame of ``segments`` against the frontier.

    The one frontier walk behind replay, inspection, repair on open and
    pruning.  Segments are read in binary mode and each line decoded
    with ``"replace"``, so a stray non-UTF-8 byte fails the frame's CRC
    like any other corruption instead of raising.

    Parameters
    ----------
    segments:
        Segment paths in log order.

    Yields
    ------
    tuple
        ``(segment, offset, raw, entry, status)`` per physical line:
        the segment path, the line's byte offset in it, its raw bytes,
        the decoded entry (``None`` when invalid), and ``status`` —
        ``"ok"`` inside the durable prefix, ``"torn"`` for a
        CRC/framing failure or a missing integer ``seq``, ``"gap"`` for
        a sequence discontinuity, ``"orphaned"`` for any frame after
        the first non-``ok`` one.
    """
    previous_seq = None
    broken = False
    for segment in segments:
        offset = 0
        with open(segment, "rb") as handle:
            for raw in handle:
                entry = decode_line(raw.decode("utf-8", "replace"))
                seq = entry.get("seq") if entry else None
                if broken:
                    status = "orphaned"
                elif not isinstance(seq, int):
                    status = "torn"
                    broken = True
                elif previous_seq is not None and seq != previous_seq + 1:
                    status = "gap"
                    broken = True
                else:
                    status = "ok"
                    previous_seq = seq
                yield segment, offset, raw, entry, status
                offset += len(raw)


def inspect_frames(directory):
    """Describe every physical WAL frame without modifying the log.

    Unlike opening a :class:`WriteAheadLog` (which repairs torn tails
    in place), this walks the segment files read-only — the right tool
    for ``repro wal-inspect`` and recovery dry-runs.  Frames *after*
    the durable frontier are still reported (with a non-``ok``
    status), so an operator can see exactly what a repair would
    discard.

    Parameters
    ----------
    directory:
        WAL directory.

    Yields
    ------
    dict
        One descriptor per physical line: ``segment`` (file name),
        ``offset``/``length`` (byte position and size within the
        segment), ``crc_ok`` (frame validates), ``seq``/``kind`` (from
        the decoded entry, ``None`` when invalid), and ``status`` —
        ``"ok"`` for frames inside the durable prefix, ``"torn"`` for
        CRC/framing failures, ``"gap"`` for sequence discontinuities,
        and ``"orphaned"`` for structurally valid frames stranded
        beyond an earlier invalid one.
    """
    for segment, offset, raw, entry, status in _walk(
        list_segments(directory)
    ):
        seq = entry.get("seq") if entry else None
        yield {
            "segment": segment.name,
            "offset": offset,
            "length": len(raw),
            "crc_ok": entry is not None,
            "seq": seq if isinstance(seq, int) else None,
            "kind": entry.get("kind") if entry else None,
            "status": status,
        }


def replay_directory(directory, after_seq: int = 0):
    """Read-only replay: the valid entries up to the durable frontier.

    Replay stops at the durable frontier: the first torn/corrupt line
    or sequence discontinuity.  Entries beyond it — even structurally
    valid ones — are discarded, because an entry whose predecessor is
    lost describes a state transition from an unknown state.  Nothing
    is repaired, truncated, or opened for append, so ``repro recover
    --dry-run`` uses it to prove what a recovery *would* rebuild while
    leaving the directory byte-identical.

    Parameters
    ----------
    directory:
        WAL directory.
    after_seq:
        Only entries strictly after this sequence number are yielded
        (entries at or below it are skipped but still validated for
        continuity).

    Yields
    ------
    (int, dict)
        ``(seq, entry)`` pairs in increasing ``seq`` order, ending at
        the durable frontier.
    """
    for __, __, __, entry, status in _walk(list_segments(directory)):
        if status != "ok":
            return
        if entry["seq"] > after_seq:
            yield entry["seq"], entry


class WriteAheadLog:
    """Size-rotated, CRC-framed append log of statistics deltas.

    Parameters
    ----------
    directory:
        Directory holding the segment files (created if missing).
    max_segment_bytes:
        Rotation threshold: a segment that reaches this size is closed
        and a new one opened.
    fsync_every:
        ``fsync`` the active segment every this many appends (1 =
        every append; larger values trade durability of the newest
        entries for throughput).

    Notes
    -----
    Sequence numbers start at 1 and are assigned by :meth:`append`.
    Opening an existing directory resumes after the last valid entry.
    """

    def __init__(self, directory, max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 fsync_every: int = 1):
        self.max_segment_bytes = require_positive_int(
            max_segment_bytes, "max_segment_bytes"
        )
        self.fsync_every = require_positive_int(fsync_every, "fsync_every")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._handle = None
        self._appends_since_fsync = 0
        self._segment_index = 0
        self.last_seq = 0
        self._repair()

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, entry: dict) -> int:
        """Assign the next sequence number to ``entry`` and persist it.

        Parameters
        ----------
        entry:
            JSON-serializable entry; its ``"seq"`` key is overwritten
            with the assigned sequence number.

        Returns
        -------
        int
            The assigned sequence number.
        """
        seq = self.last_seq + 1
        entry = dict(entry)
        entry["seq"] = seq
        line = encode_entry(entry) + "\n"
        handle = self._active_handle()
        handle.write(line)
        # JSON text is ASCII (``ensure_ascii``), so characters are bytes.
        telemetry.counter_inc("durability.wal_bytes_written", len(line))
        self._appends_since_fsync += 1
        if self._appends_since_fsync >= self.fsync_every:
            started = time.perf_counter()
            handle.flush()
            os.fsync(handle.fileno())
            telemetry.histogram_observe(
                "durability.wal_fsync_seconds",
                time.perf_counter() - started,
                buckets=DEFAULT_SECONDS_BUCKETS,
            )
            self._appends_since_fsync = 0
        self.last_seq = seq
        telemetry.counter_inc("durability.wal_appends")
        if handle.tell() >= self.max_segment_bytes:
            self._rotate()
        return seq

    def sync(self) -> None:
        """Force any unsynced appends to stable storage."""
        if self._handle is not None and self._appends_since_fsync:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._appends_since_fsync = 0

    def close(self) -> None:
        """Flush, ``fsync`` and close the active segment, if any."""
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def segments(self) -> list:
        """Segment paths in log order.

        Returns
        -------
        list of pathlib.Path
        """
        return list_segments(self.directory)

    def replay(self, after_seq: int = 0):
        """Close the active segment, then :func:`replay_directory`.

        Parameters
        ----------
        after_seq:
            Only entries strictly after this sequence number are
            yielded.

        Yields
        ------
        (int, dict)
            ``(seq, entry)`` pairs in increasing ``seq`` order.
        """
        self.close()
        yield from replay_directory(self.directory, after_seq)

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------

    def prune(self, upto_seq: int) -> int:
        """Unlink segments whose entries are all ``<= upto_seq``.

        Called after a checkpoint at ``upto_seq``: the snapshot now
        covers those entries, so the segments are dead weight.  The
        newest segment on disk is never pruned: right after a rotation
        it holds the last written entry, which a reopened log resumes
        numbering after.

        Parameters
        ----------
        upto_seq:
            Highest sequence number covered by the latest checkpoint.

        Returns
        -------
        int
            Number of segments removed.
        """
        removed = 0
        for segment in self.segments()[:-1]:
            last = self._last_seq_in(segment)
            if last is not None and last <= upto_seq:
                segment.unlink()
                removed += 1
            else:
                # Segments are ordered; once one survives, later ones
                # hold higher sequence numbers and survive too.
                break
        if removed:
            telemetry.counter_inc("durability.wal_segments_pruned", removed)
        return removed

    def restart_after(self, seq: int) -> None:
        """Unlink every segment and number the next entry ``seq + 1``.

        For a log that ends below a snapshot at ``seq``: recovery skips
        every entry it holds, and appending after them would leave a
        sequence gap that the next open truncates.  The next append
        opens a fresh segment instead.  A crash part-way leaves a log
        that still ends below the snapshot, so reopening repeats this.

        Parameters
        ----------
        seq:
            Sequence number of the snapshot the log restarts after.
        """
        self.close()
        segments = self.segments()
        for segment in segments:
            segment.unlink()
        if segments:
            self._segment_index = _segment_index_of(segments[-1]) + 1
            telemetry.counter_inc(
                "durability.wal_segments_pruned", len(segments)
            )
        self.last_seq = seq

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _repair(self) -> None:
        """Make the physical log match its logical (valid) prefix.

        Opening after a crash may find a torn final line, or — after
        external corruption — valid-looking lines beyond an invalid
        one.  Appending after either would interleave garbage with new
        entries, so the log is repaired on open exactly as a database
        WAL would be: the first invalid byte and everything after it
        (including later segments) is discarded.
        """
        segments = self.segments()
        frontier = None
        for segment, offset, __, entry, status in _walk(segments):
            if status != "ok":
                frontier = segment, offset
                break
            self.last_seq = entry["seq"]
        if frontier is None:
            if segments:
                self._segment_index = _segment_index_of(segments[-1])
            return
        segment, offset = frontier
        self._segment_index = _segment_index_of(segment)
        if offset == 0:
            segment.unlink()
        else:
            with open(segment, "rb+") as handle:
                handle.truncate(offset)
        for later in segments:
            if _segment_index_of(later) > self._segment_index:
                later.unlink()

    def _active_handle(self):
        """The open handle of the active segment, creating it lazily."""
        if self._handle is None:
            path = self.directory / _segment_name(self._segment_index)
            self._handle = open(path, "a", newline="")
        return self._handle

    def _rotate(self) -> None:
        """Close the active segment and start the next one."""
        self.close()
        self._segment_index += 1
        telemetry.counter_inc("durability.wal_rotations")

    def _last_seq_in(self, segment) -> int | None:
        """Last valid sequence number in ``segment`` (None if empty)."""
        last = None
        for __, __, __, entry, status in _walk([segment]):
            if status != "ok":
                break
            last = entry["seq"]
        return last

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(directory={str(self.directory)!r}, "
            f"last_seq={self.last_seq})"
        )
