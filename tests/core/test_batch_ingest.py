"""Differential tests: vectorized batch ingest versus the sequential path.

The batch ingest path (``ingest_many`` / ``ingest_block``) makes two
distinct promises, and the tests here hold it to both:

* ``batch_size=1`` is **bit identical** to sequential ``add`` — same
  groups, same centroids, same RNG position, and (on a durable
  condenser) byte-identical WAL segments.
* Any fixed ``batch_size`` is deterministic, conserves first- and
  second-order moment mass exactly, keeps every group inside the
  ``[k, 2k)`` band (``achieved_k >= k``), and the anonymized output
  stays within the differential harness's nearest-neighbour tolerance
  of the sequential pipeline.
"""

import copy
from pathlib import Path

import numpy as np
import pytest

from repro.core.condenser import ClasswiseCondenser, DynamicCondenser
from repro.core.dynamic import DynamicGroupMaintainer
from repro.core.statistics import GroupStatistics
from repro.linalg.rng import rng_state
from repro.neighbors.knn import KNeighborsClassifier
from repro.privacy.metrics import privacy_report


def fingerprint(maintainer):
    """Byte-exact signature of the maintained groups, in order."""
    return [
        (group.count, group.first_order.tobytes(),
         group.second_order.tobytes())
        for group in maintainer._groups
    ]


def make_data(seed, n, d):
    return np.random.default_rng(seed).normal(size=(n, d))


def wal_bytes(directory):
    """Concatenated bytes of every WAL segment, in segment order."""
    return b"".join(
        path.read_bytes()
        for path in sorted(Path(directory).glob("wal-*.log"))
    )


def assert_moments_conserved(maintainer, base, stream):
    """The groups' summed moments equal those of every ingested row."""
    everything = np.vstack([base, stream])
    scale = np.abs(everything).sum() + 1.0
    total_first = sum(
        group.first_order for group in maintainer._groups
    )
    assert np.abs(
        total_first - everything.sum(axis=0)
    ).max() <= 1e-9 * scale
    total_second = sum(
        group.second_order for group in maintainer._groups
    )
    second_scale = np.abs(everything.T @ everything).max() + 1.0
    assert np.abs(
        total_second - everything.T @ everything
    ).max() <= 1e-9 * second_scale


class TestBatchSizeOneBitIdentity:
    def test_matches_sequential_add_exactly(self):
        base = make_data(0, 150, 4)
        stream = make_data(1, 900, 4)
        sequential = DynamicGroupMaintainer(
            8, initial_data=base, random_state=3
        )
        sequential.add_stream(stream)
        batched = DynamicGroupMaintainer(
            8, initial_data=base, random_state=3
        )
        batched.ingest_many(stream, batch_size=1)
        assert fingerprint(batched) == fingerprint(sequential)
        assert np.array_equal(batched._centroids, sequential._centroids)
        assert batched.n_splits == sequential.n_splits
        assert batched.n_absorbed == sequential.n_absorbed

    def test_rng_position_is_untouched(self):
        # The ingest path consumes no randomness (the durability
        # contract); batch_size=1 must preserve that bit for bit.
        base = make_data(2, 100, 3)
        stream = make_data(3, 400, 3)
        sequential = DynamicGroupMaintainer(
            6, initial_data=base, random_state=7
        )
        batched = DynamicGroupMaintainer(
            6, initial_data=base, random_state=7
        )
        sequential.add_stream(stream)
        batched.ingest_many(stream, batch_size=1)
        assert rng_state(batched._rng) == rng_state(sequential._rng)

    def test_wal_bytes_identical_to_sequential(self, tmp_path):
        base = make_data(4, 120, 4)
        stream = make_data(5, 500, 4)
        plain = DynamicCondenser(
            10, random_state=0, wal_dir=tmp_path / "seq"
        )
        plain.fit(base)
        plain.partial_fit(stream)
        plain.close()
        batched = DynamicCondenser(
            10, random_state=0, wal_dir=tmp_path / "batch", batch_size=1
        )
        batched.fit(base)
        batched.partial_fit(stream)
        batched.close()
        assert wal_bytes(tmp_path / "batch") == wal_bytes(tmp_path / "seq")


class TestBatchMomentConservation:
    @pytest.mark.parametrize("batch_size", [2, 16, 256, 2000])
    def test_moment_mass_is_conserved_exactly(self, batch_size):
        base = make_data(10, 200, 4)
        stream = make_data(11, 2000, 4)
        maintainer = DynamicGroupMaintainer(
            9, initial_data=base, random_state=0
        )
        maintainer.ingest_many(stream, batch_size=batch_size)
        assert_moments_conserved(maintainer, base, stream)

    def test_moment_mass_is_conserved_on_wide_data(self):
        # Wide data in blocks of fewer rows than attributes, with
        # unequal scales so every split has a distinct leading axis.
        scale = np.diag(1.0 + 0.3 * np.arange(20))
        base = make_data(20, 500, 20) @ scale
        stream = make_data(21, 4000, 20) @ scale
        maintainer = DynamicGroupMaintainer(
            12, initial_data=base, random_state=0
        )
        maintainer.ingest_many(stream, batch_size=8)
        assert maintainer.n_splits > 0
        assert_moments_conserved(maintainer, base, stream)

    @pytest.mark.parametrize("batch_size", [2, 16, 256, 2000])
    def test_privacy_band_and_achieved_k(self, batch_size):
        k = 9
        maintainer = DynamicGroupMaintainer(
            k, initial_data=make_data(12, 200, 4), random_state=0
        )
        maintainer.ingest_many(make_data(13, 2000, 4),
                               batch_size=batch_size)
        sizes = maintainer.group_sizes()
        assert (sizes >= k).all()
        assert (sizes < 2 * k).all()
        assert privacy_report(maintainer.to_model()).achieved_k >= k

    @pytest.mark.parametrize("batch_size", [2, 16, 256])
    def test_same_batch_size_is_deterministic(self, batch_size):
        base = make_data(14, 150, 3)
        stream = make_data(15, 1200, 3)
        runs = []
        for __ in range(2):
            maintainer = DynamicGroupMaintainer(
                7, initial_data=base, random_state=5
            )
            maintainer.ingest_many(stream, batch_size=batch_size)
            runs.append(fingerprint(maintainer))
        assert runs[0] == runs[1]

    def test_cold_start_warms_up_through_batches(self):
        maintainer = DynamicGroupMaintainer(8, random_state=0)
        maintainer.ingest_many(make_data(16, 500, 3), batch_size=64)
        assert maintainer.n_groups > 1
        sizes = maintainer.group_sizes()
        assert (sizes >= 8).all() and (sizes < 16).all()


class TestBatchDownstreamUtility:
    def test_nn_accuracy_within_tolerance_of_sequential(
        self, labelled_blobs
    ):
        # Same tolerance as the parallel differential harness: batching
        # may regroup records but must not cost real utility.
        data, labels = labelled_blobs
        accuracies = {}
        for name, batch_size in (("sequential", 1), ("batched", 16)):
            condenser = ClasswiseCondenser(
                k=8, mode="dynamic", random_state=0,
                batch_size=batch_size,
            )
            anonymized, anonymized_labels = condenser.fit_generate(
                data, labels
            )
            classifier = KNeighborsClassifier(n_neighbors=1)
            classifier.fit(anonymized, anonymized_labels)
            accuracies[name] = classifier.score(data, labels)
        assert abs(
            accuracies["batched"] - accuracies["sequential"]
        ) <= 0.10


class TestBatchValidation:
    def test_rejects_bad_batch_size(self):
        maintainer = DynamicGroupMaintainer(
            5, initial_data=make_data(30, 40, 3), random_state=0
        )
        with pytest.raises(ValueError, match="batch_size"):
            maintainer.ingest_many(make_data(31, 10, 3), batch_size=0)

    def test_rejects_non_2d_records(self):
        maintainer = DynamicGroupMaintainer(
            5, initial_data=make_data(32, 40, 3), random_state=0
        )
        with pytest.raises(ValueError):
            maintainer.ingest_many(np.zeros(3), batch_size=4)

    def test_rejects_non_finite_blocks(self):
        maintainer = DynamicGroupMaintainer(
            5, initial_data=make_data(33, 40, 3), random_state=0
        )
        block = make_data(34, 8, 3)
        block[2, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            maintainer.ingest_block(block)

    def test_condenser_rejects_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            DynamicCondenser(5, batch_size=0)
        with pytest.raises(ValueError, match="batch_size"):
            ClasswiseCondenser(5, batch_size=-1)
        with pytest.raises(ValueError, match="batch_size"):
            DynamicCondenser(5, batch_size=2.5)
        with pytest.raises(ValueError, match="batch_size"):
            ClasswiseCondenser(5, batch_size=2.5)


def journaled_target(maintainer, record, path):
    """Group id one record lands in via ``add`` or a 1-row block."""
    events = []
    maintainer.journal = events.append
    if path == "add":
        maintainer.add(record)
    else:
        maintainer.ingest_block(record[None, :])
    maintainer.journal = None
    (event,) = events
    return event["target"]


#: Integer points at distance exactly 5 from the origin.
TIED_CENTRES = [
    (3, 4), (4, 3), (5, 0), (4, -3), (3, -4), (0, -5),
    (-3, -4), (-4, -3), (-5, 0), (-4, 3), (-3, 4), (0, 5),
]


def lattice_maintainer(k, centres):
    """Maintainer whose group centroids are exactly ``centres``."""
    groups = [
        GroupStatistics.from_records(
            np.repeat(np.asarray(centre, dtype=float)[None, :], k, axis=0)
        ).to_dict()
        for centre in centres
    ]
    return DynamicGroupMaintainer.from_state({
        "k": k, "groups": groups, "n_splits": 0, "n_merges": 0,
        "n_absorbed": k * len(centres), "rng": rng_state(
            np.random.default_rng(0)
        ),
    })


class TestTieBreakRule:
    """A record joins the brute nearest group; exact ties go low."""

    def test_one_row_block_matches_brute_argmin(self):
        # A churned maintainer: many groups, splits behind it.
        base = DynamicGroupMaintainer(
            4, initial_data=make_data(40, 200, 3), random_state=1
        )
        base.add_stream(make_data(41, 1500, 3))
        assert base.n_groups > 64 and base.n_splits > 0
        for record in make_data(42, 300, 3):
            distances = ((base._centroids - record) ** 2).sum(axis=1)
            expected = int(np.argmin(distances))
            assert journaled_target(base, record, "block") == expected

    @pytest.mark.parametrize("n_far", [1, 70])
    def test_exact_ties_pick_the_lower_group_id(self, n_far):
        # Far groups sit before the tied ones, so the lowest tied id is
        # not 0; n_far=70 takes the population past 64 groups.
        far = [(60 + i, 60 + i % 7) for i in range(n_far)]
        centres = far[: n_far // 2] + TIED_CENTRES + far[n_far // 2:]
        lowest = n_far // 2
        base = lattice_maintainer(3, centres)
        origin = np.zeros(2)
        # Absorbing a record equal to a centroid keeps it in place, so
        # the ties survive each absorb.
        for step in [None, lowest, lowest + 5, lowest + 11]:
            if step is not None:
                base.add(np.asarray(centres[step], dtype=float))
            for path in ("add", "block"):
                assert journaled_target(
                    copy.deepcopy(base), origin, path
                ) == lowest
