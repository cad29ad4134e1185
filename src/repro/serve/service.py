"""The anonymization service core: a fleet of durable condenser shards.

:class:`ShardedCondensationService` is the HTTP-free heart of
``repro serve``: it owns ``n_shards`` independent
:class:`~repro.core.condenser.DynamicCondenser` instances — each with
its own WAL/checkpoint directory when durable — plus a
:class:`~repro.serve.router.PrincipalAxisRouter` that sends every
ingested record to the shard owning its region of space.  The paper's
privacy contract shapes the API surface: raw records flow *in* through
:meth:`ingest` and are gone once condensed; everything flowing *out*
(:meth:`model`, :meth:`generate`, :meth:`status`) is derived from the
``(Fs, Sc, n)`` group statistics alone.

Lifecycle
---------
A cold service buffers its first ``bootstrap_size`` records (the
transient trusted-side input buffer — the one place raw records live,
exactly as in the paper's static-database bootstrap), then fits the
router on them, flushes them through it into the shards, and persists
the router's hyperplane aggregates as ``router.json`` next to the
shard directories.  From then on every request is routed and condensed
synchronously, each shard's slice as one block and one WAL entry.
:meth:`close` checkpoints and closes every shard, and
:meth:`open` on the same root recovers each shard from its
WAL/checkpoints — so a restart *is* failover: the recovered
:meth:`model` is bit-identical to the pre-shutdown statistics.

Thread safety
-------------
The service uses a two-level lock hierarchy, checked statically by the
THR rule family (``docs/static_analysis.md``):

* one service ``RLock`` guards the shared scalars and the routing
  state (``_router``, ``_pending``, ``_closed``, ``_n_features``) —
  every public method takes it first, briefly;
* one ``RLock`` *per shard* guards that shard's condenser, so slow
  per-shard work (durable ``partial_fit``, checkpoint snapshots) never
  blocks routing or traffic bound for the other shards.

The acquisition order is always service lock → shard lock (and shard
locks are never nested), so the hierarchy is deadlock-free.  Ingest
validates and routes under the service lock, then applies each shard's
slice under that shard's lock only; checkpointing holds no service
lock while snapshotting, which is the regression behind
``tests/serve/test_concurrency.py``.
"""

from __future__ import annotations

import json
import threading
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.core.condensation import (
    require_non_negative_int,
    require_positive_int,
)
from repro.core.condenser import DynamicCondenser
from repro.core.generation import generate_anonymized_data
from repro.core.statistics import CondensedModel
from repro.durability._files import publish
from repro.linalg.rng import (
    rng_from_seed_sequence,
    spawn_seed_sequences,
)
from repro.serve.router import PrincipalAxisRouter

#: File holding the fitted router's hyperplane aggregates.
ROUTER_FILE = "router.json"

#: Shard durability sub-directory name pattern.
SHARD_DIR_FORMAT = "shard-{:03d}"

#: Most rows one shard condenses in a single ``ingest_block`` call.  A
#: shard's slice of a request is one block (one ``batch`` WAL entry,
#: one fsync); only a slice longer than this is cut into several, so
#: no request body can build an unbounded distance matrix.
MAX_BLOCK_ROWS = 4096


class NotReadyError(RuntimeError):
    """The service cannot answer yet (no condensed groups exist)."""


def shard_directory(root, shard_id: int) -> Path:
    """Durability directory of one shard.

    Parameters
    ----------
    root:
        Service root directory.
    shard_id:
        Shard index.

    Returns
    -------
    pathlib.Path
    """
    return Path(root) / SHARD_DIR_FORMAT.format(shard_id)


class ShardedCondensationService:
    """Anonymization-as-a-service over durable sharded condensers.

    Parameters
    ----------
    n_shards:
        Number of condenser shards.
    k:
        Indistinguishability level maintained within every shard.
    root:
        Durability root directory; each shard journals to its own
        ``shard-NNN/`` WAL/checkpoint sub-directory and the fitted
        router is persisted as ``router.json``.  ``None`` runs fully
        in memory (tests, throwaway demos).
    strategy, sampler:
        As for :class:`~repro.core.condenser.DynamicCondenser`.
    bootstrap_size:
        Records buffered before the router is fitted; defaults to
        ``max(2 * k * n_shards, 8 * n_shards)`` so every shard can
        found a group immediately after the flush.
    checkpoint_every, fsync_every:
        Per-shard durability knobs (see ``docs/durability.md``).  Each
        shard journals one WAL entry per request it takes part in (more
        only for slices past :data:`MAX_BLOCK_ROWS`), so both count
        requests per shard.
    random_state:
        Integer seed; per-shard RNG streams are spawned from it so
        shard behavior is independent of traffic interleaving across
        the other shards.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.serve import ShardedCondensationService
    >>> rng = np.random.default_rng(0)
    >>> service = ShardedCondensationService(
    ...     n_shards=2, k=5, bootstrap_size=20, random_state=0)
    >>> result = service.ingest(rng.normal(size=(60, 3)))
    >>> result["accepted"]
    60
    >>> service.generate(8).shape
    (8, 3)
    """

    def __init__(self, n_shards: int, k: int, root=None,
                 strategy="random", sampler="uniform",
                 bootstrap_size: int | None = None,
                 checkpoint_every: int = 256, fsync_every: int = 1,
                 random_state: int = 0):
        self.n_shards = require_positive_int(n_shards, "n_shards")
        self.k = require_positive_int(k, "k")
        self.root = None if root is None else Path(root)
        self.strategy = strategy
        self.sampler = sampler
        if bootstrap_size is None:
            bootstrap_size = max(2 * self.k * self.n_shards,
                                 8 * self.n_shards)
        self.bootstrap_size = require_positive_int(
            bootstrap_size, "bootstrap_size"
        )
        if self.bootstrap_size < self.n_shards:
            raise ValueError(
                f"bootstrap_size must be >= n_shards ({self.n_shards}), "
                f"got {bootstrap_size}"
            )
        self.checkpoint_every = require_non_negative_int(
            checkpoint_every, "checkpoint_every"
        )
        self.fsync_every = require_positive_int(fsync_every, "fsync_every")
        self.random_state = random_state
        self._lock = threading.RLock()
        self._shard_locks = [
            threading.RLock() for _ in range(self.n_shards)
        ]
        self._router = PrincipalAxisRouter(self.n_shards)
        self._pending: list = []
        self._closed = False
        self._n_features: int | None = None
        self.recovered_shards = 0
        self._sequences = spawn_seed_sequences(random_state, self.n_shards)
        #: Per shard, the encoded group chunks of the last :meth:`model`
        #: render keyed by exact statistics bytes (guarded by the shard
        #: lock).
        self._model_chunks: list[dict] = [{} for _ in range(self.n_shards)]
        with telemetry.span("serve.open") as open_span:
            self._shards = [
                self._open_shard(shard_id)
                for shard_id in range(self.n_shards)
            ]
            open_span.set_attribute("recovered", self.recovered_shards)
        telemetry.gauge_set("serve.recovered_shards",
                            self.recovered_shards)
        self._load_router()

    # ------------------------------------------------------------------
    # Construction / recovery
    # ------------------------------------------------------------------

    def _open_shard(self, shard_id: int) -> DynamicCondenser:
        """Recover one shard from its durable state, or cold-start it.

        Recovery must be attempted *before* any fresh condenser binds
        the shard directory: a cold ``fit()`` journals a new empty
        bootstrap entry, which would bury the durable frontier.
        """
        from repro.durability import RecoveryError

        wal_dir = (
            None if self.root is None
            else shard_directory(self.root, shard_id)
        )
        if wal_dir is not None and wal_dir.is_dir() \
                and any(wal_dir.iterdir()):
            try:
                recovered = DynamicCondenser.recover(
                    wal_dir, strategy=self.strategy,
                    sampler=self.sampler,
                    checkpoint_every=self.checkpoint_every,
                    fsync_every=self.fsync_every,
                    batch_size=MAX_BLOCK_ROWS,
                )
            except RecoveryError:
                # The directory holds nothing reconstructible (e.g. a
                # crash before the first entry): start the shard cold.
                pass
            else:
                self.recovered_shards += 1
                return recovered
        shard = DynamicCondenser(
            self.k, strategy=self.strategy, sampler=self.sampler,
            random_state=rng_from_seed_sequence(
                self._sequences[shard_id]
            ),
            wal_dir=wal_dir, checkpoint_every=self.checkpoint_every,
            fsync_every=self.fsync_every, batch_size=MAX_BLOCK_ROWS,
        )
        shard.fit()
        return shard

    @classmethod
    def open(cls, root, n_shards: int, k: int, **kwargs
             ) -> "ShardedCondensationService":
        """Start a durable service, recovering whatever ``root`` holds.

        Every ``shard-NNN/`` directory with recoverable WAL/checkpoint
        state is rebuilt through the PR-5/6 durability path
        (:meth:`DynamicCondenser.recover`), so a restart after a crash
        or a SIGTERM resumes from the durable frontier; shards without
        recoverable state start cold.  A persisted ``router.json``
        restores the routing tree, skipping the bootstrap phase.

        Parameters
        ----------
        root:
            Service root directory (created if missing).
        n_shards:
            Shard count; must match the directory's layout when
            recovering (extra on-disk shards raise).
        k:
            Indistinguishability level.
        **kwargs:
            Remaining constructor arguments.

        Returns
        -------
        ShardedCondensationService
            A service whose :attr:`recovered_shards` counts how many
            shards were rebuilt from disk.

        Raises
        ------
        ValueError
            If ``root`` is ``None`` or holds more shard directories
            than ``n_shards``.
        """
        if root is None:
            raise ValueError("open() requires a durability root")
        root = Path(root)
        existing = sorted(root.glob("shard-*"))
        if len(existing) > n_shards:
            raise ValueError(
                f"{root} holds {len(existing)} shard directories but "
                f"n_shards={n_shards}; refusing to orphan durable state"
            )
        return cls(n_shards, k, root=root, **kwargs)

    def _router_path(self) -> Path | None:
        """Path of the persisted router document, if durable."""
        return None if self.root is None else self.root / ROUTER_FILE

    def _load_router(self) -> None:
        """Restore the routing tree persisted by a previous process."""
        path = self._router_path()
        if path is None or not path.is_file():
            return
        with open(path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
        self._router = PrincipalAxisRouter.from_state(state)
        self._n_features = self._router.n_features

    def _persist_router(self) -> None:
        """Atomically publish the fitted router next to the shards."""
        path = self._router_path()
        if path is None:
            return
        publish(path, json.dumps(self._router.to_state(), sort_keys=True))

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------

    def ingest(self, records: np.ndarray) -> dict:
        """Condense one record or a batch into the shard fleet.

        Until ``bootstrap_size`` records have arrived the service
        buffers them (transient, never durable); the batch that crosses
        the threshold fits the router and flushes the whole buffer
        through it.  Afterwards each shard condenses its slice of the
        batch as one block: one ``ingest_block`` call and, when
        durable, one ``batch`` WAL entry (one fsync at the default
        ``fsync_every=1``).  The call returns only after every touched
        shard's entry is written.

        Locking: validation and routing run under the service lock
        only; the condensation work is then applied shard by shard
        under each shard's own lock, so a slow shard (or a concurrent
        checkpoint snapshot) delays only the records bound for it.
        When :meth:`close` wins the race against an in-flight batch,
        the unapplied remainder raises ``RuntimeError`` — the
        at-least-once re-feed contract covers the replay, exactly as
        after a crash.

        Parameters
        ----------
        records:
            One record (shape ``(d,)``) or a batch (shape ``(m, d)``).

        Returns
        -------
        dict
            Scalar summary: ``accepted`` (records taken), ``buffered``
            (records still awaiting bootstrap), ``bootstrapped``
            (router fitted), and ``position`` (total condensed stream
            operations across shards — the durable frontier).

        Raises
        ------
        ValueError
            On wrong dimensionality or non-finite values.
        RuntimeError
            If the service is closed.
        """
        with self._lock, telemetry.span("serve.ingest") as ingest_span:
            self._require_open()
            records = self._validated(records)
            accepted = int(records.shape[0])
            ingest_span.set_attribute("n_records", accepted)
            if self._router.fitted:
                batch = records
            else:
                batch = self._bootstrap_ingest(records)
            shard_ids = (
                None if batch is None else self._router.route(batch)
            )
            buffered = len(self._pending)
            bootstrapped = self._router.fitted
        if batch is not None:
            self._apply_routed(batch, shard_ids)
        telemetry.counter_inc("serve.ingested", accepted)
        telemetry.gauge_set("serve.position", self.position)
        telemetry.gauge_set("serve.groups", self.n_groups)
        return {
            "accepted": accepted,
            "buffered": buffered,
            "bootstrapped": bootstrapped,
            "position": self.position,
        }

    def _bootstrap_ingest(self, records: np.ndarray):
        """Buffer warm-up records; fit the router once the threshold hits.

        Returns the flushed bootstrap sample when this batch crossed
        the threshold (the caller routes and applies it), else ``None``
        while the buffer is still filling.
        """
        for record in records:
            # The bootstrap buffer is the documented trusted-side input
            # feed: records wait here only until the routing tree can be
            # fitted, then flush into the condensers and are dropped.
            # repro-lint: disable-next=PRIV-001 -- transient bootstrap buffer, flushed and cleared below
            self._pending.append(np.array(record, dtype=float))
        if len(self._pending) < self.bootstrap_size:
            return None
        sample = np.vstack(self._pending)
        self._pending.clear()
        self._router.fit(sample)
        self._persist_router()
        telemetry.counter_inc("serve.bootstraps")
        return sample

    def _apply_routed(self, records: np.ndarray, shard_ids) -> None:
        """Condense each shard's slice of a routed batch, per shard lock.

        Every slice is one block (cut at :data:`MAX_BLOCK_ROWS`).  Runs
        *without* the service lock: only the target shard's lock is
        held while its slice is condensed (and, when durable,
        journaled), so ingest for one shard never stalls behind another
        shard's I/O or a checkpoint snapshot.
        """
        for shard_id in range(self.n_shards):
            member = shard_ids == shard_id
            if not member.any():
                continue
            with self._shard_locks[shard_id]:
                shard = self._shards[shard_id]
                if shard.closed:
                    raise RuntimeError("service is closed")
                shard.partial_fit(records[member])

    def generate(self, n_records: int) -> np.ndarray:
        """Draw anonymized records from the fleet's group statistics.

        Records are allocated to groups proportionally to group counts
        (largest-remainder rounding), so the synthetic sample follows
        the condensed density across all shards.

        Parameters
        ----------
        n_records:
            Number of synthetic records to draw.

        Returns
        -------
        numpy.ndarray, shape ``(n_records, d)``

        Raises
        ------
        NotReadyError
            If no condensed groups exist yet.
        ValueError
            If ``n_records`` is not positive.
        """
        if n_records < 1:
            raise ValueError(
                f"n_records must be >= 1, got {n_records}"
            )
        with self._lock, telemetry.span("serve.generate") as draw_span:
            self._require_open()
            # Generation needs one consistent cross-shard model, so it
            # is the only path that holds every shard lock at once —
            # always acquired after the service lock, in shard order.
            with ExitStack() as stack:
                for shard_lock in self._shard_locks:
                    stack.enter_context(shard_lock)
                model = self._combined_model()
                sizes = _proportional_sizes(
                    model.group_sizes, int(n_records)
                )
                # Generation draws ride shard 0's RNG stream;
                # journaling its post-draw position keeps recovered
                # draws exact even after a crash without a clean close.
                generated = generate_anonymized_data(
                    model, sampler=self.sampler,
                    random_state=self._shards[0]._rng, sizes=sizes,
                )
                self._shards[0].journal_rng()
            draw_span.set_attribute("n_records", int(n_records))
            telemetry.counter_inc("serve.generated", int(n_records))
            return generated

    def model(self) -> bytes:
        """Statistics-only snapshot of every shard's condensed model.

        Returns
        -------
        bytes
            UTF-8 JSON, byte for byte ``json.dumps(document,
            sort_keys=True)`` of a document holding ``k``, ``n_shards``,
            ``bootstrapped``, ``position``, ``n_groups``,
            ``total_count``, and per-shard documents (each the shard's
            :meth:`~repro.core.statistics.GroupStatistics.to_dict`
            groups plus its stream position and totals).  Two services
            with identical durable state render identical bytes.  Each
            shard document is an internally consistent snapshot (taken
            under that shard's lock); under concurrent ingest the
            documents may reflect slightly different stream moments
            across shards.
        """
        return b"".join(self.model_pieces())

    def model_pieces(self) -> list:
        """The :meth:`model` document as a list of byte pieces.

        ``b"".join`` of the pieces is :meth:`model`.  The pieces are the
        framing around each list, the ``", "`` separators, and one
        cached chunk per group, so ``/model`` writes them out without
        building the document.

        Returns
        -------
        list of bytes

        Notes
        -----
        A group is encoded only when its exact ``(count, Fs, Sc)``
        bytes were not in the shard's previous render; each render
        keeps just the chunks it used, so the cache never outgrows the
        live groups.
        """
        with self._lock:
            bootstrapped = self._router.fitted
        shards = []
        totals = {"n_groups": 0, "position": 0, "total_count": 0}
        for shard_id in range(self.n_shards):
            with self._shard_locks[shard_id]:
                shard = self._shards[shard_id]
                groups = shard.live_groups
                framing = {
                    "shard": shard_id,
                    "position": shard.position,
                    "n_groups": len(groups),
                    "total_count": sum(group.count for group in groups),
                }
                chunks = self._group_chunks(shard_id, groups)
            for name in totals:
                totals[name] += framing[name]
            shards.append(_framed(framing, "groups", chunks))
        return _framed({
            "k": self.k,
            "n_shards": self.n_shards,
            "bootstrapped": bootstrapped,
            **totals,
        }, "shards", shards)

    def _group_chunks(self, shard_id: int, groups) -> list:
        """JSON chunks of one shard's groups, reusing the last render's.

        The caller holds the shard's lock.  Equal statistics bytes give
        an equal float ``repr``, so a cached chunk is exactly what
        encoding the group again would produce.
        """
        previous = self._model_chunks[shard_id]
        current = {}
        chunks = []
        for group in groups:
            key = (group.count, group.first_order.tobytes(),
                   group.second_order.tobytes())
            chunk = previous.get(key)
            if chunk is None:
                chunk = json.dumps(
                    group.to_dict(), sort_keys=True
                ).encode("utf-8")
            current[key] = chunk
            chunks.append(chunk)
        self._model_chunks[shard_id] = current
        return chunks

    def status(self) -> dict:
        """Liveness / readiness summary for ``/healthz``.

        Returns
        -------
        dict
            Scalar health fields only.
        """
        with self._lock:
            return {
                "status": "closed" if self._closed else "ok",
                "n_shards": self.n_shards,
                "k": self.k,
                "bootstrapped": self._router.fitted,
                "buffered": len(self._pending),
                "position": self.position,
                "n_groups": self.n_groups,
                "recovered_shards": self.recovered_shards,
            }

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def position(self) -> int:
        """Total completed stream operations across all shards.

        Returns
        -------
        int
        """
        return sum(shard.position for shard in self._shards)

    @property
    def n_groups(self) -> int:
        """Total maintained groups across all shards.

        Returns
        -------
        int
        """
        return sum(shard.n_groups for shard in self._shards)

    def _combined_model(self) -> CondensedModel:
        """One model over every shard's live groups (generation input).

        The caller holds every shard lock, so the groups cannot change
        while the model is in use and need no snapshot copy.
        """
        groups = []
        for shard in self._shards:
            groups.extend(shard.live_groups)
        if not groups:
            raise NotReadyError(
                "no condensed groups yet; ingest at least "
                f"bootstrap_size={self.bootstrap_size} records first"
            )
        return CondensedModel(groups=groups, k=self.k, metadata={})

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Snapshot every durable shard's full state now.

        Snapshot I/O runs under each shard's own lock, never the
        service lock, so routed ingest for the other shards proceeds
        while one shard writes its checkpoint.
        """
        with self._lock:
            self._require_open()
            if self.root is None:
                return
        with telemetry.span("serve.checkpoint"):
            for shard_id in range(self.n_shards):
                with self._shard_locks[shard_id]:
                    shard = self._shards[shard_id]
                    if shard.closed:
                        raise RuntimeError("service is closed")
                    # repro-lint: disable-next=THR-003 -- snapshot I/O blocks only this shard's lock by design
                    shard.checkpoint()

    def close(self) -> None:
        """Checkpoint (when durable) and close every shard.

        Idempotent; the service refuses traffic afterwards.  Records
        still buffered for bootstrap are dropped — raw records are
        never durable, and the response's ``buffered`` field told the
        client they were not yet condensed (the at-least-once re-feed
        contract of ``docs/durability.md``).  The closed flag flips
        under the service lock first, then each shard drains and
        closes under its own lock; an in-flight batch that loses the
        race to a now-closed shard raises and is re-fed by the client.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            durable = self.root is not None
            self._pending.clear()
        for shard_id in range(self.n_shards):
            with self._shard_locks[shard_id]:
                shard = self._shards[shard_id]
                if shard.closed:
                    continue
                if durable:
                    # repro-lint: disable-next=THR-003 -- final checkpoint blocks only this shard while draining
                    shard.checkpoint()
                shard.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run.

        Returns
        -------
        bool
        """
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")

    def _validated(self, records: np.ndarray) -> np.ndarray:
        """Normalize to a finite 2-D float batch or raise ``ValueError``."""
        records = np.asarray(records, dtype=float)
        if records.ndim == 1:
            records = records[None, :]
        if records.ndim != 2 or not records.shape[0]:
            raise ValueError(
                f"records must be 1-D or a non-empty 2-D batch, got "
                f"shape {records.shape}"
            )
        expected = self._n_features
        if expected is None:
            expected = self._router.n_features
        if expected is None and self._pending:
            expected = self._pending[0].shape[0]
        if expected is not None and records.shape[1] != expected:
            raise ValueError(
                f"records must have {expected} attributes, got "
                f"{records.shape[1]}"
            )
        if not np.isfinite(records).all():
            raise ValueError(
                "records must be finite (no NaN/inf values)"
            )
        if self._n_features is None:
            self._n_features = int(records.shape[1])
        return records

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self) -> str:
        return (
            f"ShardedCondensationService(n_shards={self.n_shards}, "
            f"k={self.k}, position={self.position})"
        )


def _framed(scalars: dict, key: str, items: list) -> list:
    """Pieces of ``json.dumps({**scalars, key: items}, sort_keys=True)``.

    Parameters
    ----------
    scalars:
        The document's other members; JSON scalars only, so the
        placeholder ``"key": []`` appears exactly once in their dump.
    key:
        Name of the list member.
    items:
        The list's elements, each already encoded as UTF-8 JSON: one
        ``bytes`` chunk, or a list of pieces (a nested framed document).

    Returns
    -------
    list of bytes
        Pieces whose concatenation is the UTF-8 dump.
    """
    head, placeholder, tail = json.dumps(
        {**scalars, key: []}, sort_keys=True
    ).partition(f'"{key}": []')
    pieces = [(head + placeholder[:-1]).encode("utf-8")]
    for index, item in enumerate(items):
        if index:
            pieces.append(b", ")
        if isinstance(item, bytes):
            pieces.append(item)
        else:
            pieces.extend(item)
    pieces.append(("]" + tail).encode("utf-8"))
    return pieces


def _proportional_sizes(group_sizes: np.ndarray, total: int) -> list:
    """Allocate ``total`` draws across groups by largest remainder.

    Parameters
    ----------
    group_sizes:
        Condensed group counts.
    total:
        Number of records to allocate.

    Returns
    -------
    list of int
        Per-group allocation summing exactly to ``total``.
    """
    weights = np.asarray(group_sizes, dtype=float)
    shares = weights * (total / weights.sum())
    floors = np.floor(shares).astype(int)
    remainder = total - int(floors.sum())
    if remainder:
        order = np.argsort(
            -(shares - floors), kind="stable"
        )[:remainder]
        floors[order] += 1
    return [int(size) for size in floors]
