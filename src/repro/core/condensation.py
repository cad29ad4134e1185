"""Static condensation — ``CreateCondensedGroups`` (Fig. 1 of the paper).

Given the entire database ``D`` and an indistinguishability level ``k``:

1. While at least ``k`` records remain, pick a seed record, absorb its
   ``k − 1`` nearest remaining neighbours into a group, record the group
   statistics, and delete the group's records from ``D``.
2. Assign each leftover record (fewer than ``k`` remain) to the nearest
   already-formed group and update that group's statistics — so a few
   groups may hold more than ``k`` records.

The seed choice is pluggable (:mod:`repro.core.strategies`); the paper's
algorithm samples seeds uniformly at random.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.core.statistics import CondensedModel, GroupStatistics
from repro.core.strategies import RandomSeedStrategy, resolve_strategy
from repro.linalg.rng import check_random_state
from repro.neighbors.brute import (
    _row_norms,
    _squared_distances,
    pairwise_distances,
)
from repro.telemetry import DEFAULT_SIZE_BUCKETS


def require_positive_int(value, name: str) -> int:
    """``value`` as an ``int``, if it is an integer of at least 1.

    Parameters
    ----------
    value:
        The count to check: an ``int`` or ``numpy.integer``.
    name:
        Parameter name for the error message.

    Returns
    -------
    int

    Raises
    ------
    ValueError
        Naming ``name``, if it is not.  A float is not truncated and a
        ``bool`` is not a count.
    """
    return _require_int_at_least(value, name, 1)


def require_non_negative_int(value, name: str) -> int:
    """``value`` as an ``int``, if it is an integer of at least 0.

    The form for knobs where ``0`` means "off", such as
    ``checkpoint_every``; otherwise as :func:`require_positive_int`.

    Parameters
    ----------
    value:
        The count to check: an ``int`` or ``numpy.integer``.
    name:
        Parameter name for the error message.

    Returns
    -------
    int

    Raises
    ------
    ValueError
        Naming ``name``, if it is not.
    """
    return _require_int_at_least(value, name, 0)


def _require_int_at_least(value, name: str, minimum: int) -> int:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value < minimum
    ):
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )
    return int(value)


def create_condensed_groups(
    data: np.ndarray,
    k: int,
    strategy="random",
    random_state=None,
    n_shards=None,
    n_workers=None,
    checkpoint_dir=None,
) -> CondensedModel:
    """Condense a database into groups of (at least) ``k`` records.

    Parameters
    ----------
    data:
        Record array of shape ``(n, d)`` with ``n >= k``.
    k:
        Indistinguishability level — the minimum group size.  ``k = 1``
        degenerates to one group per record (anonymized data equal to the
        original up to generation noise), which is the paper's baseline
        anchor point.
    strategy:
        Seed-selection strategy: the string ``"random"`` (paper),
        ``"mdav"`` or ``"kmeans"``, or a strategy instance from
        :mod:`repro.core.strategies`.
    random_state:
        Seed or generator for the strategy's stochastic choices.
    n_shards:
        When given, delegate to the sharded parallel engine
        (:func:`repro.parallel.condense_sharded`) with this many
        locality-preserving shards.  ``None`` (default) runs the serial
        algorithm below; ``n_shards=1`` routes through the engine with
        a single shard, which is bit-identical to the serial path for
        deterministic strategies such as ``"mdav"``.
    n_workers:
        Worker-pool size for the sharded engine; implies
        ``n_shards=n_workers`` when ``n_shards`` is not given.
        Ignored (``None``) on the serial path.
    checkpoint_dir:
        Per-shard checkpoint directory for the sharded engine (see
        :func:`repro.parallel.condense_sharded`); requires an integer
        ``random_state`` and a sharded run.  Raises ``ValueError`` on
        the serial path, where nothing is checkpointed.

    Returns
    -------
    CondensedModel
        The set ``H`` of per-group statistics.  Every group has at least
        ``k`` records; leftover records inflate their nearest group.
    """
    k = require_positive_int(k, "k")
    if n_shards is not None or n_workers is not None:
        # Deferred import: repro.parallel builds on this module.
        from repro.parallel.engine import condense_sharded

        if n_shards is None:
            n_shards = require_positive_int(n_workers, "n_workers")
        return condense_sharded(
            data, k, strategy=strategy, random_state=random_state,
            n_shards=n_shards, n_workers=n_workers,
            checkpoint_dir=checkpoint_dir,
        )
    if checkpoint_dir is not None:
        raise ValueError(
            "checkpoint_dir applies only to sharded runs; pass "
            "n_shards (or n_workers) to enable the parallel engine"
        )
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {data.shape}")
    if not np.isfinite(data).all():
        raise ValueError(
            "data contains NaN or infinite values; impute or drop them "
            "before condensation"
        )
    n, __ = data.shape
    if n < k:
        raise ValueError(
            f"need at least k={k} records to condense, got {n}"
        )
    rng = check_random_state(random_state)
    strategy = resolve_strategy(strategy)

    with telemetry.span("condense.create_groups") as condense_span:
        condense_span.set_attribute("n_records", n)
        condense_span.set_attribute("k", k)
        condense_span.set_attribute("strategy", strategy.name)

        groups: list[GroupStatistics] = []
        memberships: list[np.ndarray] = []
        remaining = np.arange(n)

        plan = strategy.plan(data, k, rng)
        if plan is not None:
            # Strategy produced a complete partition up front (e.g.
            # k-means seeded grouping); condense each part directly.
            for part in plan:
                groups.append(GroupStatistics.from_records(data[part]))
                memberships.append(np.asarray(part, dtype=np.int64))
            model = CondensedModel(groups=groups, k=k)
            model.metadata["memberships"] = memberships
            model.metadata["strategy"] = strategy.name
            _record_condensation_metrics(model, condense_span)
            return model

        with telemetry.span("condense.absorb_loop"):
            # Distances run against one pool of rows whose squared
            # norms are computed once; ``live`` maps each remaining
            # record to its pool row.  Gathering the live distances in
            # the order of ``remaining`` hands argpartition the array a
            # gather of the remaining records would give.  The pool
            # drops its dead rows only once at most half of it is live:
            # compacting it per group costs as much as that gather.
            pool = np.ascontiguousarray(data)
            norms = _row_norms(pool)
            live = remaining
            while remaining.shape[0] >= k:
                seed_position = strategy.pick_seed(data, remaining, rng)
                seed_row = live[seed_position]
                distances = _squared_distances(
                    pool[seed_row][None, :], pool, norms
                )[0][live]
                # The seed itself is at distance zero; take the k
                # closest overall (seed plus its k-1 nearest
                # neighbours).
                if k < remaining.shape[0]:
                    chosen_positions = np.argpartition(
                        distances, k - 1
                    )[:k]
                else:
                    chosen_positions = np.arange(remaining.shape[0])
                chosen = remaining[chosen_positions]
                groups.append(GroupStatistics.from_records(data[chosen]))
                memberships.append(chosen.astype(np.int64))
                keep = np.ones(remaining.shape[0], dtype=bool)
                keep[chosen_positions] = False
                remaining = remaining[keep]
                live = live[keep]
                if 2 * live.shape[0] <= pool.shape[0]:
                    pool = pool[live]
                    norms = norms[live]
                    live = np.arange(live.shape[0])

        if remaining.shape[0] > 0:
            with telemetry.span("condense.assign_leftovers") as leftovers:
                leftovers.set_attribute(
                    "n_leftovers", int(remaining.shape[0])
                )
                telemetry.counter_inc(
                    "condense.leftovers", int(remaining.shape[0])
                )
                centroids = np.vstack(
                    [group.centroid for group in groups]
                )
                distances = pairwise_distances(
                    data[remaining], centroids, squared=True
                )
                nearest = np.argmin(distances, axis=1)
                for record_index, group_position in zip(
                    remaining, nearest
                ):
                    groups[group_position].add(data[record_index])
                    memberships[group_position] = np.append(
                        memberships[group_position], record_index
                    )

        model = CondensedModel(groups=groups, k=k)
        model.metadata["memberships"] = memberships
        model.metadata["strategy"] = strategy.name
        _record_condensation_metrics(model, condense_span)
        return model


def _record_condensation_metrics(model: CondensedModel, span) -> None:
    """Emit per-model counters and the group-size distribution."""
    span.set_attribute("n_groups", model.n_groups)
    telemetry.counter_inc("condense.groups", model.n_groups)
    telemetry.counter_inc("condense.records", model.total_count)
    for group in model.groups:
        telemetry.histogram_observe(
            "condense.group_size", group.count,
            buckets=DEFAULT_SIZE_BUCKETS,
        )


def condensation_information_loss(
    data: np.ndarray, model: CondensedModel
) -> float:
    """SSE-style information loss of a condensation.

    Sum of squared distances from each record to its group centroid,
    normalized by the total squared deviation from the global mean — the
    standard microaggregation information-loss measure (0 = lossless,
    1 = all structure condensed away).  Requires the model to carry the
    ``memberships`` metadata produced by :func:`create_condensed_groups`.

    Parameters
    ----------
    data:
        The original record array, shape ``(n, d)``.
    model:
        Condensed model carrying ``memberships`` metadata.

    Returns
    -------
    float
        Normalized SSE information loss, 0 for lossless.

    Raises
    ------
    ValueError
        If the model lacks membership metadata or it does not match
        ``data``.
    """
    data = np.asarray(data, dtype=float)
    memberships = model.metadata.get("memberships")
    if memberships is None:
        raise ValueError(
            "model does not carry membership metadata; information loss "
            "needs the original record-to-group assignment"
        )
    within = 0.0
    for group, members in zip(model.groups, memberships):
        residuals = data[members] - group.centroid
        within += float(np.sum(residuals * residuals))
    global_residuals = data - data.mean(axis=0)
    total = float(np.sum(global_residuals * global_residuals))
    if total == 0.0:
        return 0.0
    return within / total
