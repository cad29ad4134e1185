"""Tests for repro.core.condensation — the static algorithm (Fig. 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.condensation import (
    condensation_information_loss,
    create_condensed_groups,
)


class TestGroupSizes:
    def test_every_group_at_least_k(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=7, random_state=0)
        assert (model.group_sizes >= 7).all()

    def test_exact_multiple_gives_equal_groups(self, gaussian_data):
        # 120 records, k=10 -> exactly 12 groups of 10.
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        assert model.n_groups == 12
        assert (model.group_sizes == 10).all()

    def test_leftovers_absorbed(self, gaussian_data):
        # 120 records, k=7 -> 17 groups of 7 with 1 leftover absorbed.
        model = create_condensed_groups(gaussian_data, k=7, random_state=0)
        assert model.n_groups == 17
        assert model.total_count == 120
        assert model.group_sizes.max() == 8

    def test_k_one_gives_singletons(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=1, random_state=0)
        assert model.n_groups == 120
        assert (model.group_sizes == 1).all()

    def test_k_equals_n_single_group(self, gaussian_data):
        model = create_condensed_groups(
            gaussian_data, k=120, random_state=0
        )
        assert model.n_groups == 1
        assert model.group_sizes[0] == 120


class TestPartition:
    def test_memberships_partition_all_records(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=9, random_state=1)
        memberships = model.metadata["memberships"]
        combined = np.concatenate(memberships)
        assert sorted(combined.tolist()) == list(range(120))

    def test_group_statistics_match_members(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=9, random_state=2)
        for group, members in zip(
            model.groups, model.metadata["memberships"]
        ):
            records = gaussian_data[members]
            np.testing.assert_allclose(
                group.centroid, records.mean(axis=0), atol=1e-9
            )
            np.testing.assert_allclose(
                group.covariance, np.cov(records.T, bias=True), atol=1e-7
            )

    def test_total_first_order_preserved(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=11, random_state=3)
        total = sum(group.first_order for group in model.groups)
        np.testing.assert_allclose(
            total, gaussian_data.sum(axis=0), atol=1e-8
        )

    def test_total_second_order_preserved(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=11, random_state=3)
        total = sum(group.second_order for group in model.groups)
        np.testing.assert_allclose(
            total, gaussian_data.T @ gaussian_data, rtol=1e-10
        )


class TestLocality:
    def test_groups_are_local(self, rng):
        # Two well-separated blobs: no group should straddle them.
        blob_a = rng.normal(loc=0.0, size=(50, 2))
        blob_b = rng.normal(loc=100.0, size=(50, 2))
        data = np.vstack([blob_a, blob_b])
        model = create_condensed_groups(data, k=5, random_state=0)
        for members in model.metadata["memberships"]:
            sides = set((np.asarray(members) >= 50).tolist())
            assert len(sides) == 1

    def test_information_loss_increases_with_k(self, gaussian_data):
        losses = []
        for k in (2, 10, 40):
            model = create_condensed_groups(
                gaussian_data, k=k, random_state=4
            )
            losses.append(
                condensation_information_loss(gaussian_data, model)
            )
        assert losses[0] < losses[1] < losses[2]

    def test_information_loss_bounds(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10, random_state=5)
        loss = condensation_information_loss(gaussian_data, model)
        assert 0.0 <= loss <= 1.0

    def test_information_loss_zero_for_singletons(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=1, random_state=6)
        loss = condensation_information_loss(gaussian_data, model)
        assert loss == pytest.approx(0.0, abs=1e-12)


class TestValidationAndDeterminism:
    def test_too_few_records(self):
        with pytest.raises(ValueError, match="at least k"):
            create_condensed_groups(np.zeros((3, 2)), k=5)

    def test_invalid_k(self, gaussian_data):
        with pytest.raises(ValueError):
            create_condensed_groups(gaussian_data, k=0)

    @pytest.mark.parametrize("k", [2.5, 8.0, True, "8"])
    def test_k_must_be_an_integer(self, gaussian_data, k):
        # A float is not truncated and a bool is not a group size.
        with pytest.raises(ValueError, match="k must be an integer"):
            create_condensed_groups(gaussian_data, k=k)

    @pytest.mark.parametrize("option", ["n_shards", "n_workers"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_shard_counts_must_be_integers(self, gaussian_data, option,
                                           value):
        with pytest.raises(ValueError,
                           match=f"{option} must be an integer"):
            create_condensed_groups(gaussian_data, k=8, **{option: value})

    def test_numpy_integer_k_accepted(self, gaussian_data):
        model = create_condensed_groups(
            gaussian_data, k=np.int64(8), random_state=0
        )
        assert type(model.k) is int and model.k == 8

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            create_condensed_groups(np.zeros(5), k=2)

    def test_deterministic_given_seed(self, gaussian_data):
        a = create_condensed_groups(gaussian_data, k=8, random_state=42)
        b = create_condensed_groups(gaussian_data, k=8, random_state=42)
        np.testing.assert_allclose(a.centroids(), b.centroids())

    def test_different_seeds_differ(self, gaussian_data):
        a = create_condensed_groups(gaussian_data, k=8, random_state=1)
        b = create_condensed_groups(gaussian_data, k=8, random_state=2)
        assert not np.allclose(a.centroids(), b.centroids())

    def test_unknown_strategy(self, gaussian_data):
        with pytest.raises(ValueError, match="unknown strategy"):
            create_condensed_groups(gaussian_data, k=5, strategy="magic")

    def test_information_loss_requires_memberships(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        model.metadata.pop("memberships")
        with pytest.raises(ValueError, match="membership"):
            condensation_information_loss(gaussian_data, model)


class TestPropertyInvariants:
    @given(
        seed=st.integers(0, 300),
        n=st.integers(5, 80),
        d=st.integers(1, 5),
        k=st.integers(1, 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_partition_and_sizes(self, seed, n, d, k):
        k = min(k, n)
        data = np.random.default_rng(seed).normal(size=(n, d))
        model = create_condensed_groups(data, k=k, random_state=seed)
        assert model.total_count == n
        assert (model.group_sizes >= k).all()
        combined = np.concatenate(model.metadata["memberships"])
        assert sorted(combined.tolist()) == list(range(n))
        # No group can exceed 2k - 1: a group only exceeds k through
        # leftover absorption, and there are at most k - 1 leftovers.
        assert model.group_sizes.max() <= 2 * k - 1


class TestNonFiniteInputs:
    def test_nan_rejected(self, gaussian_data):
        corrupted = gaussian_data.copy()
        corrupted[3, 1] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite"):
            create_condensed_groups(corrupted, k=5, random_state=0)

    def test_inf_rejected(self, gaussian_data):
        corrupted = gaussian_data.copy()
        corrupted[0, 0] = np.inf
        with pytest.raises(ValueError, match="NaN or infinite"):
            create_condensed_groups(corrupted, k=5, random_state=0)

    def test_group_add_rejects_nan(self):
        from repro.core.statistics import GroupStatistics

        group = GroupStatistics.empty(2)
        with pytest.raises(ValueError, match="NaN or infinite"):
            group.add(np.array([1.0, np.nan]))

    def test_maintainer_add_rejects_nan(self, gaussian_data):
        from repro.core.dynamic import DynamicGroupMaintainer

        maintainer = DynamicGroupMaintainer(
            10, initial_data=gaussian_data, random_state=0
        )
        record = np.full(4, np.nan)
        with pytest.raises(ValueError, match="NaN or infinite"):
            maintainer.add(record)
