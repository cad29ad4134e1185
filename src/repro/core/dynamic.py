"""Dynamic condensation (§3 of the paper).

``DynamicGroupMaintenance`` (Fig. 2) relaxes the fixed group size to the
band ``[k, 2k)``: each arriving stream point joins the group with the
nearest centroid, and the moment a group reaches ``2k`` points its
*statistics* are split into two size-``k`` children — the member records
were never retained, so the split must work purely on ``(Fs, Sc, n)``.

``SplitGroupStatistics`` (Fig. 3) does this under the locally-uniform
assumption.  Writing ``C = P Λ Pᵀ`` with leading eigenpair ``(λ₁, e₁)``:

* a uniform distribution with variance ``λ₁`` spans a range
  ``a = sqrt(12 λ₁)`` along ``e₁``;
* splitting that range at its midpoint yields two uniforms of half the
  range, centred at ``± a/4`` from the parent centroid, each with
  variance ``(a/2)²/12 = λ₁/4``;
* all other eigenpairs are unchanged — the zero-correlation directions
  survive the split.

Each child's sums are then reassembled from its centroid and covariance
via Equation 3.

Only those statistics are ever durable.  A durable condenser binds
:attr:`DynamicGroupMaintainer.journal` and receives one post-state
sub-operation per touched group, each group packed as its exact
little-endian float64 bytes (:func:`~repro.core.statistics.pack_group`);
:meth:`DynamicGroupMaintainer.apply_ops` replays them during recovery,
refreshing the centroid cache once per replayed entry.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.core.condensation import (
    create_condensed_groups,
    require_positive_int,
)
from repro.core.statistics import (
    CondensedModel,
    GroupStatistics,
    pack_group,
    unpack_group,
)
from repro.linalg.rng import check_random_state, rng_from_state, rng_state
from repro.neighbors.brute import pairwise_distances
from repro.telemetry import DEFAULT_SIZE_BUCKETS


def split_group_statistics(
    group: GroupStatistics, k: int | None = None
) -> tuple[GroupStatistics, GroupStatistics]:
    """Split one group's statistics into two children (Fig. 3).

    Parameters
    ----------
    group:
        The group to split.  The paper splits exactly at ``n = 2k``; this
        function accepts any group of at least two records and gives each
        child half the parent's count (the extra record of an odd parent
        goes to the first child).
    k:
        When given, asserts the paper's invariant ``n(M) == 2k`` and
        produces two children of exactly ``k`` records.

    Returns
    -------
    (GroupStatistics, GroupStatistics)
        Children with identical covariance matrices (leading eigenvalue
        divided by 4) and centroids displaced by ``± sqrt(12 λ₁)/4``
        along the leading eigenvector.
    """
    if group.count < 2:
        raise ValueError(
            f"cannot split a group of {group.count} record(s)"
        )
    if k is not None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if group.count != 2 * k:
            raise ValueError(
                f"the paper splits at n = 2k; got n={group.count}, k={k}"
            )
        first_count, second_count = k, k
    else:
        first_count = (group.count + 1) // 2
        second_count = group.count - first_count

    eigenvalues, eigenvectors = group.eigen_system()
    leading_eigenvalue = float(eigenvalues[0])
    leading_vector = eigenvectors[:, 0]

    # Child centroids: the parent's ± a/4 along e1 with a = sqrt(12 λ1).
    offset = np.sqrt(12.0 * leading_eigenvalue) / 4.0
    centroid = group.centroid
    first_centroid = centroid + offset * leading_vector
    second_centroid = centroid - offset * leading_vector

    # Child covariance: same eigensystem, leading eigenvalue quartered.
    child_eigenvalues = eigenvalues.copy()
    child_eigenvalues[0] = leading_eigenvalue / 4.0
    child_covariance = (
        eigenvectors * child_eigenvalues
    ) @ eigenvectors.T

    first = GroupStatistics.from_moments(
        first_centroid, child_covariance, first_count
    )
    second = GroupStatistics.from_moments(
        second_centroid, child_covariance, second_count
    )
    return first, second


class DynamicGroupMaintainer:
    """Streaming condensation — ``DynamicGroupMaintenance`` (Fig. 2).

    Parameters
    ----------
    k:
        Indistinguishability level.  Groups hold between ``k`` and
        ``2k − 1`` records; reaching ``2k`` triggers a statistics split.
    initial_data:
        Optional static database to bootstrap from; condensed with
        :func:`repro.core.condensation.create_condensed_groups` exactly
        as the paper prescribes.  When omitted the maintainer starts
        from the first ``k`` stream points (buffered and condensed into
        the founding group once ``k`` have arrived — before that no
        statistics exist, preserving k-indistinguishability even during
        warm-up).
    strategy, random_state:
        Passed through to the static bootstrap.

    Notes
    -----
    The maintainer never stores stream records once they are absorbed
    into a group — only the warm-up buffer (capped at ``k`` records,
    which by definition are not yet published) and group statistics.

    **Journaling.**  When :attr:`journal` is set to a callable, every
    completed mutation emits one sub-operation dict describing its
    *post-state* — the updated group aggregates, never the triggering
    record.  Ingestion emits an ``absorb`` sub-operation per touched
    group and a ``split`` per split, each carrying its absorbed count.
    Groups travel packed (:func:`~repro.core.statistics.pack_group`,
    their exact float64 bytes), and are packed only when a journal is
    bound.  The durable condensers collect these into WAL entries;
    :meth:`apply_ops` replays them (including the list-form groups and
    the ``ingest`` sub-operations of older releases), and because each
    sub-operation carries the exact aggregates, replay reconstructs
    the maintainer bit for bit.  :meth:`state_dict` packs its groups
    the same way.  Warm-up buffering emits nothing: raw records are
    not durable, which is exactly the at-least-once recovery contract
    (lost warm-up records are re-fed by the upstream source).
    """

    def __init__(
        self,
        k: int,
        initial_data: np.ndarray | None = None,
        strategy="random",
        random_state=None,
    ):
        self.k = require_positive_int(k, "k")
        self._rng = check_random_state(random_state)
        self._groups: list[GroupStatistics] = []
        self._centroids: np.ndarray | None = None
        self._warmup: list[np.ndarray] = []
        self.n_splits = 0
        self.n_merges = 0
        self.n_absorbed = 0
        #: Optional journal callback receiving post-state sub-operation
        #: dicts (see the class docstring); set by durable condensers.
        self.journal = None
        if initial_data is not None:
            initial_data = np.asarray(initial_data, dtype=float)
            model = create_condensed_groups(
                initial_data, self.k, strategy=strategy,
                random_state=self._rng,
            )
            self._groups = [group.copy() for group in model.groups]
            self.n_absorbed = model.total_count
            self._refresh_centroids()
            telemetry.counter_inc("dynamic.absorbed", model.total_count)
            telemetry.gauge_set("dynamic.groups", len(self._groups))

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def add(self, record: np.ndarray) -> None:
        """Route one stream record into the nearest group (Fig. 2).

        Exactly a one-row :meth:`ingest_block`: the record joins the
        group with the nearest centroid (ties go to the lower group
        id), which splits if it reaches ``2k`` records.
        """
        record = np.asarray(record, dtype=float)
        if record.ndim != 1:
            raise ValueError(
                f"record must be a vector, got shape {record.shape}"
            )
        self.ingest_block(record[None, :])

    def add_stream(self, records) -> None:
        """Ingest an iterable of records in arrival order."""
        with telemetry.span("dynamic.ingest") as ingest_span:
            ingested = 0
            for record in records:
                self.add(record)
                ingested += 1
            ingest_span.set_attribute("n_records", ingested)
            ingest_span.set_attribute("n_groups", len(self._groups))

    def ingest_many(self, records, batch_size: int = 256) -> None:
        """Ingest a record array in blocks of ``batch_size``.

        Each block goes through :meth:`ingest_block`, so
        ``batch_size=1`` is record-at-a-time :meth:`add`.  Any fixed
        ``batch_size`` is deterministic across runs and conserves the
        absorbed moment mass exactly (per-group sums are single
        :meth:`~repro.core.statistics.GroupStatistics.add_batch`
        reductions).

        Parameters
        ----------
        records:
            Record array of shape ``(m, d)``.
        batch_size:
            Block size for the vectorized assignment.
        """
        records = np.asarray(records, dtype=float)
        if records.ndim != 2:
            raise ValueError(
                f"records must be 2-D, got shape {records.shape}"
            )
        if batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        with telemetry.span("dynamic.ingest_many") as ingest_span:
            for start in range(0, records.shape[0], batch_size):
                self.ingest_block(records[start:start + batch_size])
            ingest_span.set_attribute("n_records", records.shape[0])
            ingest_span.set_attribute("n_groups", len(self._groups))

    def ingest_block(self, block) -> None:
        """Absorb one block of records with a single distance matrix.

        The only place records join groups.  On a cold start, rows are
        only buffered until ``k`` have arrived and the founding group
        forms.  The rest of the block is assigned to nearest groups against a *frozen*
        centroid snapshot, each targeted group absorbs its rows with
        one batch-sum update (capped at the ``2k`` band ceiling), and
        groups that reach ``2k`` split.  Rows beyond a group's capacity
        are re-dispatched in a further round against the refreshed
        centroids — every round absorbs at least one record per
        targeted group (the ``[k, 2k)`` invariant guarantees capacity),
        so the loop terminates.  Within a round, rows are grouped by
        target in arrival order; assignment is deterministic (ties
        break toward the lower group id).

        Journaling emits one ``absorb`` sub-operation per touched group
        (carrying the post-state aggregates and the absorbed count) and
        one ``split`` sub-operation per split, so durable condensers
        can log a whole block as one WAL entry.
        """
        block = np.asarray(block, dtype=float)
        if block.ndim != 2:
            raise ValueError(
                f"block must be 2-D, got shape {block.shape}"
            )
        if block.shape[0] == 0:
            return
        if not np.isfinite(block).all():
            raise ValueError("records contain NaN or infinite values")
        pending = self._warm_up(block) if not self._groups else block
        if not pending.shape[0]:
            return
        if pending.shape[1] != self._groups[0].n_features:
            raise ValueError(
                f"expected {self._groups[0].n_features} attributes, "
                f"got {pending.shape[1]}"
            )
        telemetry.counter_inc("ingest.batches")
        telemetry.counter_inc("ingest.batch_records", pending.shape[0])
        rounds = 0
        while pending.shape[0]:
            rounds += 1
            if rounds > 1:
                telemetry.counter_inc(
                    "ingest.redispatched", pending.shape[0]
                )
            targets = self._nearest(pending)
            order = np.argsort(targets, kind="stable")
            rows = pending[order]
            targets = targets[order]
            cuts = np.flatnonzero(np.diff(targets)) + 1
            starts = np.concatenate(([0], cuts))
            ends = np.concatenate((cuts, [targets.shape[0]]))
            leftover: list[np.ndarray] = []
            appended: list[np.ndarray] = []
            for lo, hi in zip(starts, ends):
                target = int(targets[lo])
                group = self._groups[target]
                capacity = 2 * self.k - group.count
                take = rows[lo:lo + min(hi - lo, capacity)]
                if hi - lo > capacity:
                    leftover.append(rows[lo + capacity:hi])
                group.add_batch(take)
                self.n_absorbed += take.shape[0]
                if group.count < 2 * self.k:
                    self._centroids[target] = group.centroid
                    self._emit("absorb", target=target, group=group,
                               n=int(take.shape[0]))
                    continue
                with telemetry.span("dynamic.split") as split_span:
                    split_span.set_attribute("group_size", group.count)
                    first, second = split_group_statistics(group, k=self.k)
                    self._groups[target] = first
                    self._groups.append(second)
                    self.n_splits += 1
                    self._centroids[target] = first.centroid
                    appended.append(second.centroid)
                    split_span.set_attribute("n_groups", len(self._groups))
                telemetry.counter_inc("dynamic.splits")
                self._emit("split", target=target, first=first,
                           second=second, absorbed=int(take.shape[0]))
            if appended:
                self._centroids = np.vstack([self._centroids] + appended)
            remainder = (
                np.vstack(leftover) if leftover else pending[:0]
            )
            telemetry.counter_inc(
                "dynamic.absorbed",
                pending.shape[0] - remainder.shape[0],
            )
            pending = remainder
        telemetry.gauge_set("dynamic.groups", len(self._groups))
        telemetry.histogram_observe(
            "ingest.rounds", rounds, buckets=DEFAULT_SIZE_BUCKETS
        )

    def _warm_up(self, block: np.ndarray) -> np.ndarray:
        """Buffer rows until ``k`` have arrived, then found the first group.

        Rows are checked against the width of the first buffered row
        before any is kept.  Returns the rows left after the founding
        group formed (none while the buffer is still short of ``k``).
        """
        if self._warmup and block.shape[1] != self._warmup[0].shape[0]:
            raise ValueError(
                f"expected {self._warmup[0].shape[0]} attributes, "
                f"got {block.shape[1]}"
            )
        taken = min(self.k - len(self._warmup), block.shape[0])
        for row in block[:taken]:
            # Trusted-side warm-up: the first k records are buffered
            # only until the founding group's (Fs, Sc, n) exist, then
            # cleared below.
            # repro-lint: disable-next=PRIV-001 -- transient warm-up
            self._warmup.append(row.copy())
        if len(self._warmup) < self.k:
            return block[:0]
        founding = GroupStatistics.from_records(np.vstack(self._warmup))
        self._groups.append(founding)
        self._warmup.clear()
        self.n_absorbed += self.k
        self._refresh_centroids()
        telemetry.counter_inc("dynamic.absorbed", self.k)
        telemetry.gauge_set("dynamic.groups", 1)
        self._emit("founding", group=founding)
        return block[taken:]

    def _nearest(self, records: np.ndarray) -> np.ndarray:
        """Group id of the nearest centroid per row; ties go low."""
        return np.argmin(
            pairwise_distances(records, self._centroids, squared=True),
            axis=1,
        )

    def remove(self, record: np.ndarray) -> None:
        """Process a deletion request (an extension of the paper's §3).

        The maintainer holds no records, so a deletion can only be
        honoured statistically: the record is subtracted from the sums
        of the group whose centroid is nearest.  If that group falls
        below ``k`` records it no longer meets the indistinguishability
        level, so it is *merged* into its nearest surviving neighbour —
        the dual of the splitting operation — and if the merged group
        reaches ``2k`` it is immediately re-split.

        Raises
        ------
        ValueError
            If no groups exist yet, or the only remaining group would
            be emptied.
        """
        record = np.asarray(record, dtype=float)
        if record.ndim != 1:
            raise ValueError(
                f"record must be a vector, got shape {record.shape}"
            )
        if not self._groups:
            raise ValueError("no groups yet; nothing to remove from")
        if record.shape[0] != self._groups[0].n_features:
            raise ValueError(
                f"expected {self._groups[0].n_features} attributes, "
                f"got {record.shape[0]}"
            )
        target = int(self._nearest(record[None, :])[0])
        group = self._groups[target]
        if len(self._groups) == 1 and group.count <= 1:
            raise ValueError(
                "cannot remove the last record of the last group"
            )
        group.remove(record)
        # The removed record may not have been a literal member of this
        # group; repair the implied covariance if it left the PSD cone.
        group.ensure_psd()
        self.n_absorbed -= 1
        telemetry.counter_inc("dynamic.removed")
        if group.count >= self.k or len(self._groups) == 1:
            if group.count > 0:
                self._centroids[target] = group.centroid
                self._emit("remove", target=target, group=group)
                return
        self._merge_undersized(target)

    def _merge_undersized(self, target: int) -> None:
        """Merge group ``target`` into its nearest neighbour group."""
        group = self._groups.pop(target)
        self._refresh_centroids()
        if group.count == 0:
            self.n_merges += 1
            telemetry.counter_inc("dynamic.merges")
            telemetry.gauge_set("dynamic.groups", len(self._groups))
            self._emit("merge", target=target, neighbour=None,
                       merged=None, resplit=None)
            return
        neighbour = int(self._nearest(group.centroid[None, :])[0])
        merged = self._groups[neighbour]
        merged.merge(group)
        self.n_merges += 1
        telemetry.counter_inc("dynamic.merges")
        resplit = None
        if merged.count >= 2 * self.k:
            first, second = split_group_statistics(merged)
            self._groups[neighbour] = first
            self._groups.append(second)
            self.n_splits += 1
            telemetry.counter_inc("dynamic.splits")
            resplit = [first, second]
        self._refresh_centroids()
        telemetry.gauge_set("dynamic.groups", len(self._groups))
        self._emit("merge", target=target, neighbour=neighbour,
                   merged=None if resplit else merged, resplit=resplit)

    # ------------------------------------------------------------------
    # Journaling and durable state
    # ------------------------------------------------------------------

    def _emit(self, op: str, **fields) -> None:
        """Hand one post-state sub-operation to the journal, if bound.

        Group-valued fields (a group, a list of groups) are packed with
        :func:`~repro.core.statistics.pack_group` only once a journal
        is bound, so non-durable ingest builds no payload at all.
        """
        if self.journal is None:
            return
        sub = {"op": op}
        for key, value in fields.items():
            if isinstance(value, GroupStatistics):
                value = pack_group(value)
            elif isinstance(value, list):
                value = [pack_group(group) for group in value]
            sub[key] = value
        self.journal(sub)

    def apply_ops(self, subs) -> None:
        """Replay journaled sub-operations (WAL recovery path).

        Each sub-operation stores the *post-state* aggregates of the
        group(s) it touched, so applying it sets state rather than
        re-deriving it — replay is therefore bit-identical to the
        original run regardless of floating-point evaluation order.
        The centroid cache is rebuilt once, after the last
        sub-operation, so replaying an entry costs one pass over the
        groups rather than one per sub-operation.

        Parameters
        ----------
        subs:
            Sub-operation dicts as emitted through :attr:`journal`
            (packed, or the list form written before 1.15).

        Raises
        ------
        ValueError
            If an operation kind is unknown or a group payload is
            malformed.
        """
        for sub in subs:
            self._apply_op(sub)
        if self._groups:
            self._refresh_centroids()

    def _apply_op(self, sub: dict) -> None:
        """Apply one sub-operation's post-state; centroids untouched."""
        op = sub.get("op")
        if op == "founding":
            founding = unpack_group(sub["group"])
            self._groups.append(founding)
            self._warmup.clear()
            self.n_absorbed += founding.count
        elif op in ("absorb", "ingest"):
            # ``ingest`` is the one-record absorb that record-at-a-time
            # ingest journaled before 1.11.
            self._groups[sub["target"]] = unpack_group(sub["group"])
            self.n_absorbed += int(sub.get("n", 1))
        elif op == "split":
            self._groups[sub["target"]] = unpack_group(sub["first"])
            self._groups.append(unpack_group(sub["second"]))
            # A split carries the count absorbed with it; splits
            # journaled before 1.11 by record-at-a-time ingest omit it
            # and absorbed exactly the one triggering record.
            self.n_absorbed += int(sub.get("absorbed", 1))
            self.n_splits += 1
        elif op == "remove":
            self._groups[sub["target"]] = unpack_group(sub["group"])
            self.n_absorbed -= 1
        elif op == "merge":
            self._groups.pop(sub["target"])
            self.n_absorbed -= 1
            self.n_merges += 1
            if sub.get("resplit") is not None:
                first_state, second_state = sub["resplit"]
                self._groups[sub["neighbour"]] = unpack_group(first_state)
                self._groups.append(unpack_group(second_state))
                self.n_splits += 1
            elif sub.get("merged") is not None:
                self._groups[sub["neighbour"]] = unpack_group(
                    sub["merged"]
                )
        else:
            raise ValueError(f"unknown journal operation {op!r}")

    def state_dict(self) -> dict:
        """Full durable state as a JSON-serializable document.

        The document holds group aggregates, operation counters, and
        the generator position — never the warm-up buffer, whose raw
        records are deliberately not durable (the upstream source
        re-feeds them after recovery).

        Returns
        -------
        dict
        """
        return {
            "k": self.k,
            "groups": [pack_group(group) for group in self._groups],
            "n_splits": self.n_splits,
            "n_merges": self.n_merges,
            "n_absorbed": self.n_absorbed,
            "rng": rng_state(self._rng),
        }

    @classmethod
    def from_state(cls, state: dict) -> "DynamicGroupMaintainer":
        """Rebuild a maintainer from a :meth:`state_dict` document.

        Parameters
        ----------
        state:
            A state document (possibly after a JSON round trip).

        Returns
        -------
        DynamicGroupMaintainer
            Maintainer whose groups, counters, and generator position
            are bit-identical to the captured instance.
        """
        maintainer = cls(
            int(state["k"]), random_state=rng_from_state(state["rng"])
        )
        maintainer._groups = [
            unpack_group(entry) for entry in state["groups"]
        ]
        maintainer.n_splits = int(state["n_splits"])
        maintainer.n_merges = int(state["n_merges"])
        maintainer.n_absorbed = int(state["n_absorbed"])
        if maintainer._groups:
            maintainer._refresh_centroids()
        return maintainer

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def n_groups(self) -> int:
        """Number of maintained groups."""
        return len(self._groups)

    @property
    def n_pending(self) -> int:
        """Records buffered during warm-up (before the first group)."""
        return len(self._warmup)

    def group_sizes(self) -> np.ndarray:
        """Per-group record counts."""
        return np.array([group.count for group in self._groups])

    @property
    def live_groups(self) -> tuple:
        """The maintained group statistics themselves, in group order.

        Unlike :meth:`to_model` this copies no statistics (and records
        no ``dynamic.group_size`` observations): the tuple holds the
        objects that further ingestion mutates in place.  Callers must
        only read them, and only while no ingestion can run.

        Returns
        -------
        tuple of GroupStatistics
            Empty while the maintainer is still warming up.
        """
        return tuple(self._groups)

    def to_model(self) -> CondensedModel:
        """Snapshot the maintained statistics as a condensed model.

        The snapshot deep-copies the group statistics, so continued
        streaming does not mutate it.
        """
        if not self._groups:
            raise ValueError(
                "no groups yet: fewer than k records have arrived"
            )
        model = CondensedModel(
            groups=[group.copy() for group in self._groups], k=self.k
        )
        model.metadata["n_splits"] = self.n_splits
        model.metadata["n_merges"] = self.n_merges
        model.metadata["n_absorbed"] = self.n_absorbed
        for group in self._groups:
            telemetry.histogram_observe(
                "dynamic.group_size", group.count,
                buckets=DEFAULT_SIZE_BUCKETS,
            )
        return model

    def _refresh_centroids(self) -> None:
        self._centroids = np.vstack(
            [group.centroid for group in self._groups]
        )

    def __repr__(self) -> str:
        return (
            f"DynamicGroupMaintainer(k={self.k}, n_groups={self.n_groups}, "
            f"n_absorbed={self.n_absorbed}, n_splits={self.n_splits})"
        )
