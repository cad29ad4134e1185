"""High-level condensation API.

Three estimator-style front doors over the algorithms in this package:

* :class:`StaticCondenser` — condense a complete database (Fig. 1) and
  generate anonymized records from it (§2.1).
* :class:`DynamicCondenser` — bootstrap from a database and keep
  condensing an incremental stream (Figs. 2–3).
* :class:`ClasswiseCondenser` — the paper's classification recipe
  (§2.3): condense each class separately so anonymized data carries
  class labels and any off-the-shelf classifier can train on it.

All three share the ``fit`` / ``generate`` vocabulary: *fit* builds group
statistics (the only state a privacy-conscious server retains), and
*generate* draws an anonymized data set from them.
"""

from __future__ import annotations

import numpy as np

from repro.core.condensation import (
    create_condensed_groups,
    require_non_negative_int,
    require_positive_int,
)
from repro.core.dynamic import DynamicGroupMaintainer
from repro.core.generation import generate_anonymized_data
from repro.core.statistics import CondensedModel, GroupStatistics
from repro.linalg.rng import check_random_state, rng_state


class StaticCondenser:
    """Condense a complete database and regenerate anonymized records.

    Parameters
    ----------
    k:
        Indistinguishability level (minimum group size).
    strategy:
        Seed-selection strategy for group formation — ``"random"``
        (paper), ``"mdav"``, ``"kmeans"``, or a strategy object.
    sampler:
        Per-eigenvector generation distribution — ``"uniform"`` (paper),
        ``"gaussian"``, or a callable.
    random_state:
        Seed or generator driving both condensation and generation.
    n_shards, n_workers:
        When either is set, condensation runs on the sharded parallel
        engine (:func:`repro.parallel.condense_sharded`) with this
        shard count and worker-pool size.  ``None`` (default) keeps
        the serial path.
    checkpoint_dir:
        Per-shard checkpoint directory for sharded runs (see
        :func:`repro.parallel.condense_sharded`): completed shards are
        persisted as statistics-only checkpoints and reloaded when the
        identical configuration is re-fit after a crash.  Requires an
        integer ``random_state`` and a sharded run.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import StaticCondenser
    >>> rng = np.random.default_rng(0)
    >>> data = rng.normal(size=(200, 4))
    >>> condenser = StaticCondenser(k=10, random_state=0).fit(data)
    >>> anonymized = condenser.generate()
    >>> anonymized.shape
    (200, 4)
    """

    def __init__(self, k: int, strategy="random", sampler="uniform",
                 random_state=None, n_shards=None, n_workers=None,
                 checkpoint_dir=None):
        self.k = require_positive_int(k, "k")
        self.strategy = strategy
        self.sampler = sampler
        self.n_shards = n_shards
        self.n_workers = n_workers
        self.checkpoint_dir = checkpoint_dir
        # Shard checkpoints are keyed by the raw integer seed; the
        # generator below serves the serial path and generation.
        self._seed = random_state
        self._rng = check_random_state(random_state)
        self.model_: CondensedModel | None = None

    def fit(self, data: np.ndarray) -> "StaticCondenser":
        """Condense ``data`` into group statistics."""
        random_state = (
            self._seed if self.checkpoint_dir is not None else self._rng
        )
        self.model_ = create_condensed_groups(
            data, self.k, strategy=self.strategy,
            random_state=random_state,
            n_shards=self.n_shards, n_workers=self.n_workers,
            checkpoint_dir=self.checkpoint_dir,
        )
        return self

    def generate(self, sizes=None) -> np.ndarray:
        """Draw an anonymized data set from the fitted statistics."""
        model = self._require_fitted()
        return generate_anonymized_data(
            model, sampler=self.sampler, random_state=self._rng, sizes=sizes
        )

    def fit_generate(self, data: np.ndarray) -> np.ndarray:
        """Condense ``data`` and return an anonymized replacement for it."""
        return self.fit(data).generate()

    @property
    def average_group_size(self) -> float:
        """Mean condensed-group size (the paper's sweep variable)."""
        return self._require_fitted().average_group_size

    def _require_fitted(self) -> CondensedModel:
        if self.model_ is None:
            raise RuntimeError("condenser is not fitted; call fit() first")
        return self.model_


class _DurableStream:
    """The durable-stream journal shared by the streaming condensers.

    Owns the optional :class:`~repro.durability.DurabilityManager` and
    is the one writer of the stream-journal entry vocabulary (see
    :mod:`repro.durability.recovery`): ``bootstrap`` entries and
    snapshots carry the maintainer state, the stream position and
    :meth:`_recorded_settings`; ``op`` / ``batch`` entries carry the
    maintainer's journaled sub-operations; ``rng`` entries the
    generator position.  Subclasses own ``_maintainer`` and advance
    ``_position``.
    """

    #: Message :meth:`checkpoint` raises while no statistics exist.
    _NOT_READY = "condenser is not fitted; call fit() first"

    def __init__(self, k, sampler, random_state, wal_dir,
                 checkpoint_every: int, fsync_every: int):
        self.k = require_positive_int(k, "k")
        self.sampler = sampler
        self.wal_dir = wal_dir
        self.checkpoint_every = require_non_negative_int(
            checkpoint_every, "checkpoint_every"
        )
        self.fsync_every = require_positive_int(fsync_every, "fsync_every")
        self._rng = check_random_state(random_state)
        self._maintainer: DynamicGroupMaintainer | None = None
        self._position = 0
        self._ops: list = []
        self._closed = False
        self._manager = None
        if wal_dir is not None:
            self._manager = self._open_manager(
                wal_dir, self.checkpoint_every, self.fsync_every
            )

    @staticmethod
    def _open_manager(wal_dir, checkpoint_every, fsync_every):
        # Deferred import: repro.durability pulls in telemetry while
        # this module may still be mid-import via repro/__init__.
        from repro.durability import DurabilityManager

        return DurabilityManager(
            wal_dir, checkpoint_every=checkpoint_every,
            fsync_every=fsync_every,
        )

    @classmethod
    def _recover(cls, wal_dir, checkpoint_every, fsync_every, **settings):
        """Rebuild an instance from ``wal_dir`` and journal on into it.

        The instance is built as ``cls(k, random_state=<recovered
        generator>, **settings)`` plus the settings the directory
        recorded (:meth:`_recovered_settings`).
        """
        from repro.durability import rebuild_maintainer

        manager = cls._open_manager(wal_dir, checkpoint_every, fsync_every)
        recovered = manager.recover()
        settings.update(cls._recovered_settings(recovered))
        maintainer, position = rebuild_maintainer(recovered)
        condenser = cls(maintainer.k, random_state=maintainer._rng,
                        **settings)
        condenser.wal_dir = wal_dir
        condenser.checkpoint_every = manager.checkpoint_every
        condenser.fsync_every = manager.wal.fsync_every
        condenser._manager = manager
        condenser._maintainer = maintainer
        condenser._position = position
        condenser._attach()
        return condenser

    @staticmethod
    def _recovered_settings(recovered) -> dict:
        """Constructor settings read back from a recovery result."""
        return {}

    def _recorded_settings(self) -> dict:
        """Settings recorded in ``bootstrap`` entries and snapshots."""
        return {}

    def _attach(self) -> None:
        """Journal the maintainer's sub-operations; bind checkpoints."""
        self._ops = []
        self._maintainer.journal = self._ops.append
        self._manager.bind(self._durable_state)

    def _journal_bootstrap(self) -> None:
        """Journal a freshly built maintainer's full state, if durable."""
        if self._manager is None:
            return
        self._attach()
        self._manager.append({
            "kind": "bootstrap", "pos": self._position,
            "state": self._maintainer.state_dict(),
            **self._recorded_settings(),
        })

    def _durable_state(self) -> dict:
        """Checkpoint document: maintainer state plus stream position."""
        return {
            "maintainer": self._maintainer.state_dict(),
            "position": self._position,
            **self._recorded_settings(),
        }

    def _flush_ops(self, kind: str = "op") -> None:
        """Write the journal of one completed source op as a WAL entry.

        Memory is mutated first, then logged: a crash in between loses
        only the latest operation, which the at-least-once re-feed
        replays.  Operations that emitted nothing (warm-up buffering)
        leave no entry — raw records are never durable.  Batched
        ingestion passes ``kind="batch"`` so a whole block travels as
        one entry and the resume position stays on a block edge.
        """
        if self._manager is None or not self._ops:
            return
        entry = {"kind": kind, "pos": self._position,
                 "ops": list(self._ops)}
        self._ops.clear()
        self._manager.append(entry)

    def journal_rng(self) -> None:
        """Journal the current RNG position.

        A no-op when not durable or before any statistics exist (the
        bootstrap entry carries the generator then).  ``generate``
        does this automatically; callers that advance this condenser's
        generator outside of it — e.g. the serving layer drawing from
        a model combined across shards — use this hook so recovered
        draw positions stay exact.
        """
        if self._manager is not None and self._maintainer is not None:
            self._manager.append({
                "kind": "rng", "pos": self._position,
                "state": rng_state(self._rng),
            })

    @property
    def position(self) -> int:
        """Number of completed stream operations.

        After ``recover``, this is the position the upstream feed must
        resume from (the at-least-once recovery contract).
        """
        return self._position

    def checkpoint(self):
        """Snapshot the full durable state now.

        Returns
        -------
        pathlib.Path
            Path of the written snapshot.

        Raises
        ------
        RuntimeError
            If the condenser was built without ``wal_dir`` or holds no
            statistics yet (raw records are never durable).
        """
        if self._manager is None:
            raise RuntimeError(
                "durability is disabled; construct with wal_dir= to "
                "enable checkpointing"
            )
        if self._maintainer is None:
            raise RuntimeError(self._NOT_READY)
        return self._manager.checkpoint()

    def close(self) -> None:
        """Flush and close the write-ahead log, if durable.

        Idempotent; :attr:`closed` reports the state so multi-shard
        owners (the serve plane) can coordinate shutdown per shard.
        """
        if self._manager is not None:
            self._manager.close()
        self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run.

        Returns
        -------
        bool
        """
        return self._closed


class DynamicCondenser(_DurableStream):
    """Condense an incrementally updated data set.

    Parameters
    ----------
    k:
        Indistinguishability level; maintained group sizes stay within
        ``[k, 2k)``.
    strategy, sampler, random_state:
        As for :class:`StaticCondenser`; the strategy applies only to the
        static bootstrap.
    wal_dir:
        When given, the condenser is *durable*: every completed stream
        operation is journaled to a write-ahead log in this directory
        as a statistics delta, and :meth:`checkpoint` (or the
        ``checkpoint_every`` cadence) snapshots the full state.  After
        a crash, :meth:`recover` rebuilds bit-identical state and
        reports the stream :attr:`position` to resume the feed from.
        See ``docs/durability.md``.
    checkpoint_every:
        Automatic checkpoint cadence in WAL entries; ``0`` (default)
        checkpoints only on explicit :meth:`checkpoint` calls.
    fsync_every:
        Group-commit batch size for the write-ahead log: ``fsync`` the
        active segment every this many appends.  The default ``1``
        makes every operation durable before it returns; larger values
        trade the durability of at most the newest ``fsync_every - 1``
        operations for ingest throughput (the at-least-once re-feed
        replays anything lost).  See ``docs/durability.md``.
    batch_size:
        Ingest block size for :meth:`partial_fit`: each block of this
        many records goes through
        :meth:`~repro.core.dynamic.DynamicGroupMaintainer.ingest_block`
        (one vectorized distance matrix per block, batched absorbs)
        and, on a durable condenser, is journaled as one ``batch`` WAL
        entry.  The default ``1`` streams record-at-a-time, with the
        same groups as every prior release (since 1.11 its durable
        entries are ``batch`` entries of one record, not ``op``
        entries).  Exact moment conservation holds for any block
        size; a larger block may group differently from the
        record-at-a-time stream (assignment happens against a
        per-block centroid snapshot).

    Examples
    --------
    >>> import numpy as np
    >>> from repro import DynamicCondenser
    >>> rng = np.random.default_rng(0)
    >>> base, stream = rng.normal(size=(100, 3)), rng.normal(size=(400, 3))
    >>> condenser = DynamicCondenser(k=10, random_state=0).fit(base)
    >>> condenser.partial_fit(stream)  # doctest: +ELLIPSIS
    <repro.core.condenser.DynamicCondenser object at ...>
    >>> condenser.generate().shape
    (500, 3)
    """

    def __init__(self, k: int, strategy="random", sampler="uniform",
                 random_state=None, wal_dir=None,
                 checkpoint_every: int = 0, fsync_every: int = 1,
                 batch_size: int = 1):
        require_positive_int(batch_size, "batch_size")
        super().__init__(k, sampler, random_state, wal_dir,
                         checkpoint_every, fsync_every)
        self.batch_size = int(batch_size)
        self.strategy = strategy

    def fit(self, data: np.ndarray | None = None) -> "DynamicCondenser":
        """Bootstrap the maintainer, optionally from a static database.

        With ``data=None`` the condenser starts cold and buffers the
        first ``k`` streamed records before forming its founding group.
        On a durable condenser, fitting journals a ``bootstrap`` entry
        carrying the full post-bootstrap state (statistics and RNG
        position only) and resets :attr:`position` to zero.
        """
        self._maintainer = DynamicGroupMaintainer(
            self.k,
            initial_data=data,
            strategy=self.strategy,
            random_state=self._rng,
        )
        self._position = 0
        self._journal_bootstrap()
        return self

    def partial_fit(self, records: np.ndarray) -> "DynamicCondenser":
        """Stream one record (shape ``(d,)``) or many (shape ``(m, d)``)."""
        maintainer = self._require_fitted()
        records = np.asarray(records, dtype=float)
        if records.ndim == 1:
            records = records[None, :]
        elif records.ndim != 2:
            raise ValueError(
                f"records must be 1-D or 2-D, got shape {records.shape}"
            )
        for start in range(0, records.shape[0], self.batch_size):
            block = records[start:start + self.batch_size]
            maintainer.ingest_block(block)
            self._position += block.shape[0]
            self._flush_ops(kind="batch")
        return self

    def partial_remove(self, records: np.ndarray) -> "DynamicCondenser":
        """Process deletion requests: one record (``(d,)``) or many.

        Each record is subtracted from its nearest group's statistics;
        groups that fall below ``k`` are merged into their nearest
        neighbour (and re-split if the merge reaches ``2k``), so every
        surviving group keeps the indistinguishability level.
        """
        maintainer = self._require_fitted()
        records = np.asarray(records, dtype=float)
        if records.ndim == 1:
            records = records[None, :]
        elif records.ndim != 2:
            raise ValueError(
                f"records must be 1-D or 2-D, got shape {records.shape}"
            )
        for record in records:
            maintainer.remove(record)
            self._position += 1
            self._flush_ops()
        return self

    def generate(self, sizes=None) -> np.ndarray:
        """Draw an anonymized data set from the current statistics.

        On a durable condenser, the post-generation RNG position is
        journaled so recovered state reproduces later draws exactly.
        """
        model = self.model_
        generated = generate_anonymized_data(
            model, sampler=self.sampler, random_state=self._rng, sizes=sizes
        )
        self.journal_rng()
        return generated

    @classmethod
    def recover(cls, wal_dir, strategy="random", sampler="uniform",
                checkpoint_every: int = 0, fsync_every: int = 1,
                batch_size: int = 1) -> "DynamicCondenser":
        """Rebuild a durable condenser from its durability directory.

        Loads the newest valid snapshot, replays the WAL tail, and
        returns a condenser whose group statistics, counters, and RNG
        position are bit-identical to the in-memory state at the
        durable frontier.  The caller must re-feed the upstream stream
        from :attr:`position` onward.

        Parameters
        ----------
        wal_dir:
            The durability directory of the crashed condenser.
        strategy, sampler:
            Estimator settings for the recovered instance (they are
            not persisted; the strategy only matters for a future
            re-``fit``).
        checkpoint_every, fsync_every:
            Durability knobs for the recovered instance (cadence and
            WAL group-commit batch, as in the constructor).
        batch_size:
            Ingest block size for the recovered instance, as in the
            constructor (not persisted; replay is kind-agnostic).

        Returns
        -------
        DynamicCondenser

        Raises
        ------
        repro.durability.RecoveryError
            If the directory holds nothing reconstructible.
        """
        return cls._recover(
            wal_dir, checkpoint_every, fsync_every, strategy=strategy,
            sampler=sampler, batch_size=batch_size,
        )

    @property
    def model_(self) -> CondensedModel:
        """Snapshot of the maintained group statistics."""
        return self._require_fitted().to_model()

    @property
    def live_groups(self) -> tuple:
        """The maintained groups without a :attr:`model_` snapshot copy.

        See :attr:`DynamicGroupMaintainer.live_groups`: read them only
        while nothing else can ingest into this condenser.

        Returns
        -------
        tuple of GroupStatistics
        """
        return self._require_fitted().live_groups

    @property
    def n_groups(self) -> int:
        """Number of currently maintained groups."""
        return self._require_fitted().n_groups

    @property
    def n_splits(self) -> int:
        """Number of statistics splits performed so far."""
        return self._require_fitted().n_splits

    def _require_fitted(self) -> DynamicGroupMaintainer:
        if self._maintainer is None:
            raise RuntimeError(self._NOT_READY)
        return self._maintainer


class ClasswiseCondenser:
    """Per-class condensation for privacy-preserving classification.

    The paper's §2.3: "separate sets of data were generated from each of
    the different classes" — condensation runs independently per class,
    and generation emits labelled anonymized records, so any existing
    classifier trains on the output unchanged.

    Parameters
    ----------
    k:
        Indistinguishability level applied within every class.
    mode:
        ``"static"`` (default) or ``"dynamic"`` — which condensation
        regime to run within each class.
    small_class_policy:
        What to do with a class holding fewer than ``k`` records, where
        the indistinguishability level is unattainable.  ``"error"``
        (default) raises; ``"single_group"`` condenses the whole class
        into one group — its members are indistinguishable from each
        other but at a weaker level than ``k``, the only option the
        paper's framework leaves for such classes (the UCI Ecoli set the
        paper uses has classes of 2 records).
    strategy, sampler, random_state:
        As for :class:`StaticCondenser`.
    n_shards, n_workers:
        As for :class:`StaticCondenser`; applied to every per-class
        static condensation (ignored in dynamic mode, whose streaming
        maintenance is inherently serial).
    batch_size:
        Ingest block size for dynamic mode: each class's stream phase
        runs through
        :meth:`~repro.core.dynamic.DynamicGroupMaintainer.ingest_many`
        with this block size.  The default ``1`` ingests
        record-at-a-time, with the same groups as every prior release;
        ignored in static mode.
    """

    def __init__(self, k: int, mode: str = "static", strategy="random",
                 sampler="uniform", small_class_policy: str = "error",
                 random_state=None, n_shards=None, n_workers=None,
                 batch_size: int = 1):
        self.k = require_positive_int(k, "k")
        require_positive_int(batch_size, "batch_size")
        if mode not in ("static", "dynamic"):
            raise ValueError(
                f"mode must be 'static' or 'dynamic', got {mode!r}"
            )
        if small_class_policy not in ("error", "single_group"):
            raise ValueError(
                "small_class_policy must be 'error' or 'single_group', "
                f"got {small_class_policy!r}"
            )
        self.mode = mode
        self.strategy = strategy
        self.sampler = sampler
        self.small_class_policy = small_class_policy
        self.n_shards = n_shards
        self.n_workers = n_workers
        self.batch_size = int(batch_size)
        self._rng = check_random_state(random_state)
        self.classes_ = None
        self.models_: dict = {}

    def fit(self, data: np.ndarray, labels: np.ndarray):
        """Condense each class's records independently.

        For dynamic mode, each class's records are split so that the
        first ``max(k, 25%)`` bootstrap the maintainer statically and the
        rest arrive as a stream, mirroring the paper's experimental
        setup of a static database plus an incremental stream.

        Classes with fewer than ``k`` records cannot meet the
        indistinguishability level and raise ``ValueError``.
        """
        data = np.asarray(data, dtype=float)
        labels = np.asarray(labels)
        if data.ndim != 2:
            raise ValueError(f"data must be 2-D, got shape {data.shape}")
        if labels.shape != (data.shape[0],):
            raise ValueError(
                f"labels must have shape ({data.shape[0]},), "
                f"got {labels.shape}"
            )
        self.classes_ = np.unique(labels)
        self.models_ = {}
        for label in self.classes_:
            members = data[labels == label]
            if members.shape[0] < self.k:
                if self.small_class_policy == "error":
                    raise ValueError(
                        f"class {label!r} has {members.shape[0]} records, "
                        f"fewer than k={self.k}; pass "
                        "small_class_policy='single_group' to condense it "
                        "into one (weaker) group"
                    )
                self.models_[label] = CondensedModel(
                    groups=[GroupStatistics.from_records(members)],
                    k=members.shape[0],
                    metadata={"small_class": True},
                )
                continue
            self.models_[label] = self._condense_class(members)
        return self

    def _condense_class(self, members: np.ndarray) -> CondensedModel:
        if self.mode == "static":
            return create_condensed_groups(
                members, self.k, strategy=self.strategy,
                random_state=self._rng,
                n_shards=self.n_shards, n_workers=self.n_workers,
            )
        bootstrap_size = max(self.k, members.shape[0] // 4)
        bootstrap_size = min(bootstrap_size, members.shape[0])
        maintainer = DynamicGroupMaintainer(
            self.k,
            initial_data=members[:bootstrap_size],
            strategy=self.strategy,
            random_state=self._rng,
        )
        maintainer.ingest_many(
            members[bootstrap_size:], batch_size=self.batch_size
        )
        return maintainer.to_model()

    def generate(self):
        """Draw labelled anonymized records, one batch per class.

        Returns
        -------
        (data, labels)
            ``data`` has the same per-class cardinalities as the fitted
            input; ``labels`` aligns with it.
        """
        if self.classes_ is None:
            raise RuntimeError("condenser is not fitted; call fit() first")
        parts = []
        label_parts = []
        for label in self.classes_:
            model = self.models_[label]
            generated = generate_anonymized_data(
                model, sampler=self.sampler, random_state=self._rng
            )
            parts.append(generated)
            label_parts.append(np.full(generated.shape[0], label))
        return np.vstack(parts), np.concatenate(label_parts)

    def fit_generate(self, data: np.ndarray, labels: np.ndarray):
        """Condense labelled data and return its anonymized replacement."""
        return self.fit(data, labels).generate()

    @property
    def average_group_size(self) -> float:
        """Mean group size across all per-class models."""
        if not self.models_:
            raise RuntimeError("condenser is not fitted; call fit() first")
        sizes = np.concatenate(
            [model.group_sizes for model in self.models_.values()]
        )
        return float(sizes.mean())
