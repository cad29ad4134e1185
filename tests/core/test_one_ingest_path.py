"""Record-at-a-time ingest versus the pre-1.11 ``add``.

``DynamicGroupMaintainer.add`` is a one-row ``ingest_block``.  Before
1.11 it was a separate implementation, and :func:`legacy_add` keeps
that implementation here as the oracle: per record it takes the brute
nearest group (lowest id on ties, the contract of the retired k-d tree
lookup), absorbs the record, splits exactly at ``2k`` (Fig. 3), and
journals one ``ingest`` or ``split`` sub-operation with its groups in
the list form of that release.

The differential matrix covers d ∈ {1, 2, 4, 8, 16, 20, 34} and
k ∈ {2, 5, 12}, from a static bootstrap and from a cold start, with a
``remove`` (and the merges it triggers) after every 7th record.  Both
sides must agree byte for byte on the group sums and the centroid
cache, and exactly on the counters, the journal and the RNG position;
journaled groups are compared by their unpacked float64 bytes, so the
packed journal must carry exactly the legacy list form's values.

:func:`legacy_partial_fit` writes the ``op`` WAL entries of the old
durable record-at-a-time path, so tests can check that directories
written before 1.11 still recover.
"""

import numpy as np
import pytest

from repro.core.dynamic import DynamicGroupMaintainer, split_group_statistics
from repro.core.statistics import GroupStatistics, unpack_group
from repro.linalg.rng import rng_state
from repro.neighbors.brute import pairwise_distances

DIMENSIONS = (1, 2, 4, 8, 16, 20, 34)
KS = (2, 5, 12)
REMOVE_EVERY = 7


def emit(maintainer, sub):
    """The pre-1.11 ``_emit``: hand ``sub`` to a bound journal."""
    if maintainer.journal is not None:
        maintainer.journal(sub)


def legacy_add(maintainer, record):
    """The pre-1.11 ``DynamicGroupMaintainer.add``, telemetry aside."""
    record = np.asarray(record, dtype=float)
    if not maintainer._groups:
        maintainer._warmup.append(record.copy())
        if len(maintainer._warmup) == maintainer.k:
            founding = GroupStatistics.from_records(
                np.vstack(maintainer._warmup)
            )
            maintainer._groups.append(founding)
            maintainer._warmup.clear()
            maintainer.n_absorbed += maintainer.k
            maintainer._refresh_centroids()
            emit(maintainer, {"op": "founding",
                              "group": founding.to_dict()})
        return
    distances = pairwise_distances(
        record[None, :], maintainer._centroids, squared=True
    )[0]
    target = int(np.argmin(distances))
    group = maintainer._groups[target]
    group.add(record)
    maintainer.n_absorbed += 1
    if group.count >= 2 * maintainer.k:
        first, second = split_group_statistics(group, k=maintainer.k)
        maintainer._groups[target] = first
        maintainer._groups.append(second)
        maintainer.n_splits += 1
        maintainer._refresh_centroids()
        emit(maintainer, {"op": "split", "target": target,
                          "first": first.to_dict(),
                          "second": second.to_dict()})
    else:
        maintainer._centroids[target] = group.centroid
        emit(maintainer, {"op": "ingest", "target": target,
                          "group": group.to_dict()})


def legacy_partial_fit(condenser, records):
    """Stream records as the pre-1.11 durable record-at-a-time path.

    Each record becomes one ``op`` WAL entry of ``ingest`` / ``split``
    sub-operations; warm-up records write nothing.
    """
    for record in np.asarray(records, dtype=float):
        legacy_add(condenser._maintainer, record)
        condenser._position += 1
        condenser._flush_ops()


GROUP_FIELDS = ("group", "first", "second", "merged")


def group_bytes(payload):
    """A journaled group as ``(count, Fs bytes, Sc bytes)``, any form."""
    group = unpack_group(payload)
    return (group.count, group.first_order.tobytes(),
            group.second_order.tobytes())


def normalized(sub):
    """A journal sub-operation in the block path's vocabulary.

    Groups become their unpacked float64 bytes, which is stricter than
    comparing float lists (``-0.0 == 0.0`` as a float, not as bytes).
    """
    sub = dict(sub)
    if sub["op"] == "ingest":
        sub["op"] = "absorb"
        sub["n"] = 1
    elif sub["op"] == "split":
        sub.setdefault("absorbed", 1)
    for key in GROUP_FIELDS:
        if sub.get(key) is not None:
            sub[key] = group_bytes(sub[key])
    if sub.get("resplit") is not None:
        sub["resplit"] = [group_bytes(group) for group in sub["resplit"]]
    return sub


def fingerprint(maintainer):
    """Byte-exact signature of the maintained state."""
    centroids = (
        None if maintainer._centroids is None
        else maintainer._centroids.tobytes()
    )
    return {
        "groups": [
            (group.count, group.first_order.tobytes(),
             group.second_order.tobytes())
            for group in maintainer._groups
        ],
        "centroids": centroids,
        "counters": (maintainer.n_splits, maintainer.n_merges,
                     maintainer.n_absorbed, maintainer.n_pending),
        "rng": rng_state(maintainer._rng),
    }


def run(d, k, warm, ingest):
    """Stream ``ingest``-ed records with interleaved removes.

    A warm start bootstraps ~80 groups, past the 64 at which the
    retired lookup switched from a brute scan to its k-d tree.
    """
    rng = np.random.default_rng(1000 * d + k)
    # Unequal scales give the covariances a distinct leading axis.
    scale = 1.0 + 0.3 * np.arange(d)
    initial = rng.normal(size=(80 * k, d)) * scale if warm else None
    maintainer = DynamicGroupMaintainer(
        k, initial_data=initial, random_state=d
    )
    journal = []
    maintainer.journal = journal.append
    for step, record in enumerate(rng.normal(size=(30 * k, d)) * scale):
        ingest(maintainer, record)
        if step % REMOVE_EVERY == REMOVE_EVERY - 1 \
                and maintainer.n_groups > 1:
            maintainer.remove(rng.normal(size=d) * scale)
    return maintainer, journal


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("d", DIMENSIONS)
def test_add_is_bit_identical_to_the_legacy_add(d, k, warm):
    legacy, legacy_journal = run(d, k, warm, legacy_add)
    current, journal = run(
        d, k, warm, lambda maintainer, record: maintainer.add(record)
    )
    assert legacy.n_splits > 0
    ops = {sub["op"] for sub in journal}
    assert "remove" in ops or "merge" in ops
    assert fingerprint(current) == fingerprint(legacy)
    assert [normalized(sub) for sub in journal] == [
        normalized(sub) for sub in legacy_journal
    ]

