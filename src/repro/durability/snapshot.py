"""Checkpoint snapshots of condensed-statistics state.

A snapshot is the full durable state of a streaming condenser — group
``(Fs, Sc, n)`` aggregates, operation counters, the stream position,
and the seeded-RNG position — serialized as one JSON document.  Raw
records never appear in a snapshot: the state it captures is exactly
the state the paper's server is allowed to retain (§2), which is what
makes checkpointing the dynamic regime trivially safe.

Snapshots are crash-safe by construction:

* the document is published atomically (``*.tmp``, ``fsync``,
  ``os.replace``; :func:`repro.durability._files.publish`), so a reader
  never observes a half-written snapshot under the final name;
* the document is one CRC frame (:mod:`repro.durability._files`), so a
  torn or bit-rotted file is detected and skipped;
* :func:`latest_snapshot` returns the newest file that passes
  validation, falling back to older ones, so a corrupt newest snapshot
  costs only a longer WAL replay, never the state.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from pathlib import Path

from repro import telemetry
from repro.durability._files import encode_frame, publish, read_frame
from repro.telemetry import DEFAULT_SECONDS_BUCKETS, DEFAULT_SIZE_BUCKETS

#: Snapshot format marker so future revisions can migrate old files.
SNAPSHOT_FORMAT_VERSION = 1

#: Snapshot filename pattern: ``snapshot-<twelve-digit-seq>.json``.
_SNAPSHOT_PATTERN = re.compile(r"^snapshot-(\d{12})\.json$")


@dataclass(frozen=True)
class SnapshotInfo:
    """A validated snapshot on disk.

    Attributes
    ----------
    path:
        Snapshot file location.
    seq:
        WAL sequence number the snapshot covers: recovery replays only
        entries with ``seq`` greater than this.
    state:
        The deserialized state document.
    """

    path: Path
    seq: int
    state: dict


def snapshot_path(directory, seq: int) -> Path:
    """Canonical path of the snapshot covering WAL sequence ``seq``.

    Parameters
    ----------
    directory:
        Durability directory.
    seq:
        Covered WAL sequence number.

    Returns
    -------
    pathlib.Path
    """
    return Path(directory) / f"snapshot-{seq:012d}.json"


def write_snapshot(directory, state: dict, seq: int) -> Path:
    """Atomically persist ``state`` as the snapshot covering ``seq``.

    Parameters
    ----------
    directory:
        Durability directory (created if missing).
    state:
        JSON-serializable state document (statistics only — the caller
        is responsible for never including raw records; the analyzer's
        PRIV rules enforce this for the in-repo callers).
    seq:
        WAL sequence number covered by this state.

    Returns
    -------
    pathlib.Path
        Path of the written snapshot.

    Raises
    ------
    ValueError
        If ``seq`` is negative.
    """
    if seq < 0:
        raise ValueError(f"seq must be non-negative, got {seq}")
    document = encode_frame(
        {"format_version": SNAPSHOT_FORMAT_VERSION, "seq": seq,
         "state": state}
    )
    final = snapshot_path(directory, seq)
    started = time.perf_counter()
    with telemetry.span("durability.snapshot") as snapshot_span:
        snapshot_span.set_attribute("seq", seq)
        publish(final, document)
        snapshot_span.set_attribute("bytes", len(document))
    telemetry.counter_inc("durability.snapshots")
    telemetry.histogram_observe(
        "durability.snapshot_seconds", time.perf_counter() - started,
        buckets=DEFAULT_SECONDS_BUCKETS,
    )
    telemetry.histogram_observe(
        "durability.snapshot_write_bytes", len(document),
        buckets=DEFAULT_SIZE_BUCKETS,
    )
    return final


def read_snapshot(path) -> SnapshotInfo | None:
    """Load and validate one snapshot file.

    Parameters
    ----------
    path:
        Snapshot file to read.

    Returns
    -------
    SnapshotInfo or None
        The validated snapshot, or ``None`` if the file is missing,
        torn, CRC-corrupt, or structurally invalid.
    """
    path = Path(path)
    payload = read_frame(path)
    if (
        payload is None
        or payload.get("format_version") != SNAPSHOT_FORMAT_VERSION
        or not isinstance(payload.get("seq"), int)
        or not isinstance(payload.get("state"), dict)
    ):
        return None
    return SnapshotInfo(path=path, seq=payload["seq"],
                        state=payload["state"])


def _seq_of(path) -> int:
    """WAL sequence number covered by the snapshot file at ``path``."""
    return int(_SNAPSHOT_PATTERN.match(Path(path).name).group(1))


def list_snapshots(directory) -> list:
    """Snapshot file paths in ``directory``, oldest first.

    Parameters
    ----------
    directory:
        Durability directory.

    Returns
    -------
    list of pathlib.Path
        Files matching the snapshot naming scheme (not yet validated).
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        path for path in directory.iterdir()
        if _SNAPSHOT_PATTERN.match(path.name)
    )


def latest_snapshot(directory) -> SnapshotInfo | None:
    """The newest snapshot in ``directory`` that passes validation.

    Corrupt candidates are skipped (newest first), so a torn final
    snapshot degrades recovery to the previous one plus a longer WAL
    replay rather than failing it.

    Parameters
    ----------
    directory:
        Durability directory.

    Returns
    -------
    SnapshotInfo or None
        The newest valid snapshot, or ``None`` when none validates.
    """
    for path in reversed(list_snapshots(directory)):
        info = read_snapshot(path)
        if info is not None:
            return info
        telemetry.counter_inc("durability.snapshots_rejected")
    return None


def prune_snapshots(directory, keep: int) -> int:
    """Remove all but the newest ``keep`` snapshot files.

    Parameters
    ----------
    directory:
        Durability directory.
    keep:
        Number of newest snapshots to retain (at least 1 — the latest
        valid snapshot is the recovery anchor).

    Returns
    -------
    int
        Number of files removed.

    Raises
    ------
    ValueError
        If ``keep`` is below 1.
    """
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    snapshots = list_snapshots(directory)
    removed = 0
    for path in snapshots[:-keep]:
        path.unlink()
        removed += 1
    return removed
