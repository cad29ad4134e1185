"""Differential tests: shard-merge condensation versus the serial path.

The sharded engine's whole claim is that partition + per-shard
condensation + statistics merge computes *the same kind of model* the
serial algorithm does — identical when the partition is trivial,
statistically equivalent otherwise.  Every test here runs both paths on
the same data and compares:

* ``n_shards=1`` with the deterministic MDAV strategy is **bit
  identical** to serial, for every worker count.
* For any shard count, the result depends only on
  ``(data, k, strategy, random_state, n_shards)`` — never on the
  worker count, pooled or serial.
* First- and second-order mass is conserved exactly, the privacy
  invariant ``achieved_k >= k`` always holds, and group sizes stay in
  the serial algorithm's band whenever no boundary repair was needed.
* Downstream utility (nearest-neighbour accuracy on anonymized data)
  stays within tolerance of the serial pipeline.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.condensation import create_condensed_groups
from repro.neighbors.knn import KNeighborsClassifier
from repro.parallel import condense_sharded
from repro.privacy.metrics import privacy_report


def fingerprint(model):
    """Byte-exact signature of a model's group statistics, in order."""
    return [
        (group.count, group.first_order.tobytes(),
         group.second_order.tobytes())
        for group in model.groups
    ]


def membership_sets(model):
    """Group memberships as a set of frozensets (order-insensitive)."""
    memberships = model.metadata["memberships"]
    return {frozenset(members.tolist()) for members in memberships}


def make_data(seed, n, d):
    return np.random.default_rng(seed).normal(size=(n, d))


class TestSingleShardIdentity:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_mdav_single_shard_bit_identical_to_serial(self, n_workers):
        data = make_data(7, 160, 4)
        serial = create_condensed_groups(
            data, 10, strategy="mdav", random_state=0
        )
        sharded = create_condensed_groups(
            data, 10, strategy="mdav", random_state=0,
            n_shards=1, n_workers=n_workers,
        )
        assert fingerprint(sharded) == fingerprint(serial)
        assert membership_sets(sharded) == membership_sets(serial)

    @given(seed=st.integers(0, 500), k=st.integers(1, 12))
    def test_mdav_single_shard_identity_generalizes(self, seed, k):
        data = make_data(seed, 40 + (seed % 30), 3)
        serial = create_condensed_groups(
            data, k, strategy="mdav", random_state=seed
        )
        sharded = condense_sharded(
            data, k, strategy="mdav", random_state=seed,
            n_shards=1, n_workers=1,
        )
        assert fingerprint(sharded) == fingerprint(serial)


class TestWorkerCountInvariance:
    @given(
        seed=st.integers(0, 300),
        k=st.integers(2, 8),
        n_shards=st.integers(2, 5),
        strategy=st.sampled_from(["random", "mdav"]),
    )
    def test_result_is_independent_of_workers_and_backend(
        self, seed, k, n_shards, strategy
    ):
        # Process workers on the shared warm pool, which spawns once
        # and serves every example.
        data = make_data(seed, 60 + (seed % 40), 3)
        reference = condense_sharded(
            data, k, strategy=strategy, random_state=seed,
            n_shards=n_shards, n_workers=1,
        )
        for n_workers in (2, 3):
            other = condense_sharded(
                data, k, strategy=strategy, random_state=seed,
                n_shards=n_shards, n_workers=n_workers,
            )
            assert other.metadata["parallel"]["effective_backend"] \
                == "process"
            assert fingerprint(other) == fingerprint(reference)

    def test_process_pool_matches_serial_backend(self):
        data = make_data(11, 200, 4)
        reference = condense_sharded(
            data, 8, strategy="random", random_state=42,
            n_shards=4, n_workers=1,
        )
        pooled = condense_sharded(
            data, 8, strategy="random", random_state=42,
            n_shards=4, n_workers=2,
        )
        assert reference.metadata["parallel"]["effective_backend"] \
            == "serial"
        assert pooled.metadata["parallel"]["effective_backend"] \
            == "process"
        assert fingerprint(pooled) == fingerprint(reference)
        assert membership_sets(pooled) == membership_sets(reference)


class TestStatisticalEquivalence:
    @given(
        seed=st.integers(0, 500),
        k=st.integers(2, 10),
        n_shards=st.integers(2, 6),
    )
    def test_moment_mass_is_conserved_exactly(self, seed, k, n_shards):
        data = make_data(seed, 30 + (seed % 70), 4)
        model = condense_sharded(
            data, k, strategy="mdav", random_state=seed,
            n_shards=n_shards, n_workers=1,
        )
        scale = np.abs(data).sum() + 1.0
        total_first = sum(group.first_order for group in model.groups)
        assert np.abs(
            total_first - data.sum(axis=0)
        ).max() <= 1e-9 * scale
        total_second = sum(group.second_order for group in model.groups)
        second_scale = np.abs(data.T @ data).max() + 1.0
        assert np.abs(
            total_second - data.T @ data
        ).max() <= 1e-9 * second_scale

    @given(
        seed=st.integers(0, 500),
        k=st.integers(2, 10),
        n_shards=st.integers(2, 8),
    )
    def test_privacy_invariant_and_size_distribution(
        self, seed, k, n_shards
    ):
        n = 20 + (seed % 80)
        data = make_data(seed, n, 3)
        model = condense_sharded(
            data, k, strategy="mdav", random_state=seed,
            n_shards=n_shards, n_workers=1,
        )
        sizes = model.group_sizes
        assert privacy_report(model).achieved_k >= k
        assert (sizes >= k).all()
        assert int(sizes.sum()) == n
        assert model.n_groups <= n // k
        # When every shard could condense on its own (>= k records), no
        # boundary repair runs and each group obeys the serial
        # algorithm's size band [k, 2k).
        if model.metadata["parallel"]["shard_min_size"] >= k:
            assert model.metadata["parallel"]["n_merge_repairs"] == 0
            assert (sizes < 2 * k).all()

    @given(
        seed=st.integers(0, 500),
        k=st.integers(2, 8),
        n_shards=st.integers(2, 8),
    )
    def test_memberships_partition_the_records(self, seed, k, n_shards):
        n = 20 + (seed % 60)
        data = make_data(seed, n, 2)
        model = condense_sharded(
            data, k, strategy="mdav", random_state=seed,
            n_shards=n_shards, n_workers=1,
        )
        memberships = model.metadata["memberships"]
        combined = np.concatenate(memberships)
        assert np.array_equal(np.sort(combined), np.arange(n))
        for group, members in zip(model.groups, memberships):
            assert group.count == members.shape[0]

    @given(
        seed=st.integers(0, 200),
        k=st.integers(2, 6),
        n_shards=st.integers(4, 10),
    )
    def test_merge_resplit_keeps_the_privacy_invariant(
        self, seed, k, n_shards
    ):
        n = 15 + (seed % 40)
        data = make_data(seed, n, 3)
        model = condense_sharded(
            data, k, strategy="mdav", random_state=seed,
            n_shards=n_shards, n_workers=1, repair="merge_resplit",
        )
        assert privacy_report(model).achieved_k >= k
        assert model.total_count == n


class TestDownstreamUtility:
    def test_nn_accuracy_within_tolerance_of_serial(self, labelled_blobs):
        # Anonymize the same labelled data through both pipelines and
        # compare nearest-neighbour accuracy against the original
        # records.  Sharding may cost a little utility at boundaries but
        # must stay close to serial.
        from repro.core.condenser import ClasswiseCondenser

        data, labels = labelled_blobs
        accuracies = {}
        for name, shards in (("serial", None), ("sharded", 3)):
            condenser = ClasswiseCondenser(
                k=8, random_state=0, n_shards=shards
            )
            anonymized, anonymized_labels = condenser.fit_generate(
                data, labels
            )
            classifier = KNeighborsClassifier(n_neighbors=1)
            classifier.fit(anonymized, anonymized_labels)
            accuracies[name] = classifier.score(data, labels)
        assert abs(accuracies["sharded"] - accuracies["serial"]) <= 0.10


class TestValidation:
    def test_rejects_bad_backend_and_repair(self):
        # The worker count is the only execution setting; there is no
        # backend to choose.
        data = make_data(0, 20, 2)
        with pytest.raises(TypeError, match="backend"):
            condense_sharded(data, 2, backend="serial")
        with pytest.raises(ValueError, match="repair"):
            condense_sharded(data, 2, repair="drop")
        with pytest.raises(ValueError, match="n_shards"):
            condense_sharded(data, 2, n_shards=0)
        with pytest.raises(ValueError, match="n_workers"):
            condense_sharded(data, 2, n_workers=0)

    @pytest.mark.parametrize("option, value", [
        ("k", 2.5), ("k", True), ("n_shards", 2.5), ("n_shards", True),
        ("n_workers", 2.5), ("n_workers", True),
    ])
    def test_rejects_non_integer_counts(self, option, value):
        options = dict(k=2, n_shards=2, n_workers=1)
        options[option] = value
        with pytest.raises(ValueError,
                           match=f"{option} must be an integer"):
            condense_sharded(make_data(0, 20, 2), **options)

    def test_accepts_numpy_integer_counts(self):
        model = condense_sharded(
            make_data(0, 20, 2), np.int64(2), n_shards=np.int32(2),
            n_workers=np.int64(1),
        )
        recorded = model.metadata["parallel"]
        assert (model.k, recorded["n_shards"], recorded["n_workers"]) \
            == (2, 2, 1)

    def test_rejects_non_finite_and_undersized_data(self):
        with pytest.raises(ValueError, match="NaN"):
            condense_sharded(np.array([[np.nan, 0.0]] * 5), 2)
        with pytest.raises(ValueError, match="at least k"):
            condense_sharded(make_data(0, 3, 2), 5)

    def test_metadata_records_the_run_configuration(self):
        data = make_data(5, 50, 3)
        model = condense_sharded(
            data, 5, strategy="mdav", random_state=1,
            n_shards=3, n_workers=2,
        )
        recorded = model.metadata["parallel"]
        assert recorded["n_shards"] == 3
        assert recorded["n_workers"] == 2
        assert recorded["effective_backend"] == "process"
        assert recorded["repair"] == "merge"
        assert model.metadata["strategy"] == "mdav"
