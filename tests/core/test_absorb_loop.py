"""Differential tests for the static absorb loop (Fig. 1).

``create_condensed_groups`` runs the greedy "seed plus its k−1 nearest"
loop over a lazily compacted pool of rows instead of gathering the
remaining records for every group.  The reference below is the earlier
gather-per-group loop, kept verbatim as an oracle: on inputs without
distance ties the two must agree byte for byte — same groups in the
same order, same sums, same memberships.
"""

import numpy as np
import pytest

from repro.core.condensation import create_condensed_groups
from repro.core.statistics import CondensedModel, GroupStatistics
from repro.core.strategies import RandomSeedStrategy, resolve_strategy
from repro.io.model_store import save_model
from repro.linalg.rng import check_random_state
from repro.neighbors.brute import pairwise_distances


def reference_condense(data, k, strategy="random", random_state=None):
    """The gather-per-group loop and leftover pass, as they were."""
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    rng = check_random_state(random_state)
    strategy = resolve_strategy(strategy)
    groups = []
    memberships = []
    remaining = np.arange(n)
    while remaining.shape[0] >= k:
        seed_position = strategy.pick_seed(data, remaining, rng)
        seed_index = remaining[seed_position]
        distances = pairwise_distances(
            data[seed_index][None, :], data[remaining],
            squared=True,
        )[0]
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
    if remaining.shape[0] > 0:
        centroids = np.vstack([group.centroid for group in groups])
        distances = pairwise_distances(
            data[remaining], centroids, squared=True
        )
        nearest = np.argmin(distances, axis=1)
        for record_index, group_position in zip(remaining, nearest):
            groups[group_position].add(data[record_index])
            memberships[group_position] = np.append(
                memberships[group_position], record_index
            )
    model = CondensedModel(groups=groups, k=k)
    model.metadata["memberships"] = memberships
    return model


class RecordingStrategy:
    """Random seeding that logs every ``remaining`` it is shown."""

    name = "recording"

    def __init__(self):
        self.seen = []
        self._inner = RandomSeedStrategy()

    def plan(self, data, k, rng):
        return None

    def pick_seed(self, data, remaining, rng):
        assert (np.diff(remaining) > 0).all()
        self.seen.append(remaining.copy())
        return self._inner.pick_seed(data, remaining, rng)


class LastRecordStrategy:
    """A custom strategy with only ``pick_seed``: the last remaining row."""

    name = "last"

    def plan(self, data, k, rng):
        return None

    def pick_seed(self, data, remaining, rng):
        return remaining.shape[0] - 1


def fingerprint(model):
    """Everything the loop decides, as bytes."""
    return (
        [
            (
                group.count,
                group.first_order.tobytes(),
                group.second_order.tobytes(),
            )
            for group in model.groups
        ],
        [members.tobytes() for members in model.metadata["memberships"]],
    )


def records(n, d, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


def layouts(data):
    """The same records C-ordered, Fortran-ordered and column-strided."""
    wide = np.zeros((data.shape[0], 2 * data.shape[1]))
    wide[:, ::2] = data
    return {
        "c": np.ascontiguousarray(data),
        "fortran": np.asfortranarray(data),
        "strided": wide[:, ::2],
    }


STRATEGIES = {
    "random": lambda: "random",
    "mdav": lambda: "mdav",
    "custom": LastRecordStrategy,
}

#: ``(n, d, k)``: the first two cross the pool's compaction threshold
#: many times; the rest are the loop's edge cases.
SHAPES = [
    (2000, 4, 3),
    (1000, 6, 20),
    (50, 3, 50),
    (51, 3, 50),
    (40, 5, 1),
    (300, 1, 7),
    (257, 8, 10),
]


@pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("n, d, k", SHAPES)
def test_matches_the_gather_per_group_loop(n, d, k, strategy, layout):
    data = layouts(records(n, d, seed=n + d + k))[layout]
    expected = reference_condense(
        data, k, strategy=STRATEGIES[strategy](), random_state=5
    )
    actual = create_condensed_groups(
        data, k, strategy=STRATEGIES[strategy](), random_state=5
    )
    assert fingerprint(actual) == fingerprint(expected)


@pytest.mark.parametrize("n, d, k", [(2000, 4, 3), (1000, 6, 20)])
def test_strategy_sees_the_same_ascending_remaining(n, d, k):
    data = records(n, d, seed=3)
    expected, actual = RecordingStrategy(), RecordingStrategy()
    reference_condense(data, k, strategy=expected, random_state=9)
    create_condensed_groups(data, k, strategy=actual, random_state=9)
    assert len(actual.seen) == len(expected.seen) == n // k
    for shown, reference in zip(actual.seen, expected.seen):
        np.testing.assert_array_equal(shown, reference)


def test_exact_duplicates_keep_the_invariants(tmp_path):
    # With exact duplicate records many distances tie exactly, and the
    # order argpartition returns among equal distances depends on which
    # BLAS kernel path each row's dot product took — in the old loop as
    # much as in this one.  Neither order is canonical, so duplicates
    # are checked for the invariants, not against the oracle.
    rng = np.random.default_rng(11)
    data = np.repeat(rng.normal(size=(60, 3)), 9, axis=0)
    rng.shuffle(data)
    k = 7
    model = create_condensed_groups(data, k, random_state=4)
    memberships = model.metadata["memberships"]
    np.testing.assert_array_equal(
        np.sort(np.concatenate(memberships)), np.arange(data.shape[0])
    )
    assert (model.group_sizes >= k).all()
    for group, members in zip(model.groups, memberships):
        assert group.count == members.shape[0]
    np.testing.assert_allclose(
        sum(group.first_order for group in model.groups),
        data.sum(axis=0), atol=1e-8,
    )
    np.testing.assert_allclose(
        sum(group.second_order for group in model.groups),
        data.T @ data, rtol=1e-10,
    )
    again = create_condensed_groups(data, k, random_state=4)
    save_model(tmp_path / "first.json", model)
    save_model(tmp_path / "second.json", again)
    assert (tmp_path / "first.json").read_bytes() == (
        tmp_path / "second.json"
    ).read_bytes()
