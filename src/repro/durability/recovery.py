"""Reconstruction of condenser state from a recovery result.

The durability layer moves opaque JSON; this module knows the entry
vocabulary the streaming condensers write — through their one shared
writer, ``repro.core.condenser._DurableStream`` — and turns a
:class:`~repro.durability.manager.RecoveredState` back into a live
:class:`~repro.core.dynamic.DynamicGroupMaintainer` (plus the stream
position the caller must resume the upstream feed from).

Entry vocabulary
----------------
``{"kind": "bootstrap", "pos": p, "state": {...}}``
    Full maintainer state after a (re-)bootstrap — replaces everything
    accumulated so far.  Written by ``DynamicCondenser.fit()`` and by
    the sliding-window warm-up; windowed condensers add a ``"window"``
    key (snapshots carry it too).
``{"kind": "op", "pos": p, "ops": [...]}``
    One completed source operation and the journal sub-operations it
    produced (``founding`` / ``absorb`` / ``split`` / ``remove`` /
    ``merge``, and ``ingest`` in logs written before 1.11), applied via
    :meth:`~repro.core.dynamic.DynamicGroupMaintainer.apply_ops`.
    Written per ``DynamicCondenser.partial_remove`` record and per
    sliding-window push; a push that both adds and expires is one
    atomic ``op`` entry, so recovery can never observe a half-applied
    push.
``{"kind": "batch", "pos": p, "ops": [...]}``
    One ``DynamicCondenser.partial_fit`` ingest block
    (``ingest_block``, one record per block at the default
    ``batch_size=1``) and every sub-operation it produced
    (``founding`` / ``absorb`` / ``split``).  Replayed exactly like an
    ``op`` entry; the distinct kind records the block boundary, so the
    position always advances a whole block at a time and the
    at-least-once re-feed resumes on a block edge.  Logs written before
    1.17 may also hold sliding-window fill-phase ``batch`` entries.
``{"kind": "rng", "pos": p, "state": {...}}``
    The generator position after an anonymized-data generation, so
    post-recovery draws continue the original sequence bit for bit.

Every group inside a ``state`` or a sub-operation is one payload
``{"count": n, "fs": ..., "sc": ...}`` holding base64 of the exact
little-endian float64 bytes of ``Fs`` and the full ``d × d`` ``Sc``
(:func:`~repro.core.statistics.pack_group`).  Logs and snapshots
written before 1.15 hold ``first_order`` / ``second_order`` float
lists instead; :func:`~repro.core.statistics.unpack_group` reads both,
so a directory may mix the two forms.

Recovery contract
-----------------
Raw records are never durable (the WAL and snapshots hold statistics
only), so the boundary of durability is the *position*: the number of
fully completed source operations.  After recovery the caller must
re-feed the upstream stream from ``position`` onward — the at-least-once
contract.  Operations whose entry never reached the WAL are simply
re-executed; because the ingest path consumes no randomness, the
re-executed operations reproduce the lost state exactly.

``repro.core`` is imported lazily so the durability package stays
importable from the condensers without a cycle.
"""

from __future__ import annotations

from repro.durability.manager import RecoveredState


class RecoveryError(RuntimeError):
    """Raised when a durability directory holds nothing reconstructible."""


def recovered_position(recovered: RecoveredState) -> int:
    """The stream position the upstream feed must resume from.

    Parameters
    ----------
    recovered:
        Recovery result from
        :meth:`~repro.durability.manager.DurabilityManager.recover`.

    Returns
    -------
    int
        Number of fully completed (and durable) source operations.
    """
    position = 0
    if recovered.snapshot_state is not None:
        position = int(recovered.snapshot_state.get("position", 0))
    for __, entry in recovered.entries:
        position = int(entry.get("pos", position))
    return position


def recovered_window(recovered: RecoveredState) -> int | None:
    """The sliding-window size recorded in a recovery result, if any.

    Parameters
    ----------
    recovered:
        Recovery result.

    Returns
    -------
    int or None
        The ``window`` recorded by a windowed condenser's snapshot or
        bootstrap entry; ``None`` for non-windowed logs.
    """
    window = None
    if recovered.snapshot_state is not None:
        window = recovered.snapshot_state.get("window")
    for __, entry in recovered.entries:
        if entry.get("kind") == "bootstrap" and "window" in entry:
            window = entry["window"]
    return int(window) if window is not None else None


def rebuild_maintainer(recovered: RecoveredState):
    """Reconstruct a maintainer and its position from a recovery result.

    Applies the snapshot state (if any), then replays the WAL tail in
    order.  Because every entry stores the *post-operation* group
    aggregates as their exact float64 bytes, the rebuilt maintainer is
    bit-identical to the in-memory state at the durable frontier.
    Replay is linear in the tail: the centroid cache is rebuilt once
    per entry, not once per sub-operation.

    Parameters
    ----------
    recovered:
        Recovery result from
        :meth:`~repro.durability.manager.DurabilityManager.recover`.

    Returns
    -------
    (DynamicGroupMaintainer, int)
        The rebuilt maintainer and the resume position.

    Raises
    ------
    RecoveryError
        If the directory held neither a snapshot nor a bootstrap entry,
        or the tail references state that was never established.
    """
    from repro.core.dynamic import DynamicGroupMaintainer
    from repro.linalg.rng import restore_rng_state

    maintainer = None
    if recovered.snapshot_state is not None:
        maintainer = DynamicGroupMaintainer.from_state(
            recovered.snapshot_state["maintainer"]
        )
    for seq, entry in recovered.entries:
        kind = entry.get("kind")
        if kind == "bootstrap":
            maintainer = DynamicGroupMaintainer.from_state(entry["state"])
        elif kind in ("op", "batch"):
            if maintainer is None:
                raise RecoveryError(
                    f"WAL entry {seq} applies an operation before any "
                    "bootstrap or snapshot established state"
                )
            maintainer.apply_ops(entry["ops"])
        elif kind == "rng":
            if maintainer is None:
                raise RecoveryError(
                    f"WAL entry {seq} restores RNG state before any "
                    "bootstrap or snapshot established state"
                )
            restore_rng_state(maintainer._rng, entry["state"])
        else:
            raise RecoveryError(
                f"WAL entry {seq} has unknown kind {kind!r}"
            )
    if maintainer is None:
        raise RecoveryError(
            "nothing to recover: the directory holds no valid snapshot "
            "and no WAL entries"
        )
    return maintainer, recovered_position(recovered)
