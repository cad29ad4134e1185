"""The durable-file format: one CRC frame and one atomic publish.

A frame is ``<crc32-hex-8> <compact-json-object>``, the CRC32 taken over
the UTF-8 bytes of the JSON text.  A WAL line is one frame plus a
newline; a snapshot or a shard checkpoint file is one frame.  Whole
files reach their final name only through :func:`publish`.  See
``docs/durability.md`` ("On-disk formats").
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path


def encode_frame(payload: dict) -> str:
    """Render ``payload`` as one CRC frame (without newline).

    Parameters
    ----------
    payload:
        JSON-serializable mapping.

    Returns
    -------
    str
        ``"<crc32-hex-8> <json>"`` with compact separators.
    """
    body = json.dumps(payload, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {body}"


def decode_frame(text: str) -> dict | None:
    """Parse one CRC frame, returning ``None`` when it is invalid.

    Parameters
    ----------
    text:
        The frame text (no trailing newline).

    Returns
    -------
    dict or None
        The decoded mapping, or ``None`` if the text fails framing,
        CRC, or JSON validation, or holds no JSON object.
    """
    if len(text) < 10 or text[8] != " ":
        return None
    checksum, body = text[:8], text[9:]
    try:
        expected = int(checksum, 16)
    except ValueError:
        return None
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != expected:
        return None
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def read_frame(path) -> dict | None:
    """Decode the one-frame file at ``path``, or ``None``.

    The file is read as bytes and decoded with ``"replace"``, so a
    stray non-UTF-8 byte fails the CRC like any other corruption
    instead of raising.

    Parameters
    ----------
    path:
        File holding exactly one frame.

    Returns
    -------
    dict or None
        The decoded mapping, or ``None`` if the file is missing,
        unreadable, or fails :func:`decode_frame`.
    """
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    return decode_frame(data.decode("utf-8", "replace"))


def publish(path, text: str) -> None:
    """Atomically replace the file at ``path`` with ``text``.

    The text goes to ``<name>.tmp`` beside ``path`` (parent directories
    are created), is flushed and ``fsync``\\ ed, and is then renamed
    onto ``path`` with ``os.replace``.  A crash leaves either the old
    file or the new one under the final name, at worst plus an
    ignorable ``.tmp`` file.

    Parameters
    ----------
    path:
        Final file path.
    text:
        Complete file contents.
    """
    final = Path(path)
    final.parent.mkdir(parents=True, exist_ok=True)
    temporary = final.with_name(final.name + ".tmp")
    with open(temporary, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        # repro-lint: disable-next=THR-003 -- by design under serve's locks: the one-shot router publication at bootstrap (durable before any traffic is routed) and snapshots under one shard's lock
        os.fsync(handle.fileno())
    os.replace(temporary, final)
