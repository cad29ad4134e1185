"""Tests for repro.core.dynamic — the streaming algorithm (Figs. 2-4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic import DynamicGroupMaintainer, split_group_statistics
from repro.core.statistics import GroupStatistics


def make_group(seed=0, n=40, d=4, scale=1.0):
    records = scale * np.random.default_rng(seed).normal(size=(n, d))
    return GroupStatistics.from_records(records)


class TestSplitGroupStatistics:
    def test_child_counts(self):
        group = make_group(n=40)
        first, second = split_group_statistics(group, k=20)
        assert first.count == 20
        assert second.count == 20

    def test_paper_invariant_enforced(self):
        group = make_group(n=30)
        with pytest.raises(ValueError, match="n = 2k"):
            split_group_statistics(group, k=20)

    def test_odd_split_without_k(self):
        group = make_group(n=41)
        first, second = split_group_statistics(group)
        assert first.count == 21
        assert second.count == 20

    def test_centroid_midpoint_is_parent_centroid(self):
        group = make_group(n=40)
        first, second = split_group_statistics(group, k=20)
        midpoint = (first.centroid + second.centroid) / 2.0
        np.testing.assert_allclose(midpoint, group.centroid, atol=1e-8)

    def test_centroid_offset_along_leading_eigenvector(self):
        group = make_group(n=40)
        eigenvalues, eigenvectors = group.eigen_system()
        first, second = split_group_statistics(group, k=20)
        offset = first.centroid - group.centroid
        expected = np.sqrt(12.0 * eigenvalues[0]) / 4.0
        # Offset is ± expected along e1 and zero elsewhere.
        along = float(offset @ eigenvectors[:, 0])
        assert abs(abs(along) - expected) < 1e-8
        residual = offset - along * eigenvectors[:, 0]
        np.testing.assert_allclose(residual, 0.0, atol=1e-8)

    def test_children_share_covariance(self):
        group = make_group(n=40)
        first, second = split_group_statistics(group, k=20)
        np.testing.assert_allclose(
            first.covariance, second.covariance, atol=1e-8
        )

    def test_variance_along_split_axis_quartered(self):
        group = make_group(n=40)
        parent_values, parent_vectors = group.eigen_system()
        first, __ = split_group_statistics(group, k=20)
        along = float(
            parent_vectors[:, 0] @ first.covariance @ parent_vectors[:, 0]
        )
        assert along == pytest.approx(parent_values[0] / 4.0, rel=1e-7)

    def test_non_leading_eigenvalues_unchanged(self):
        group = make_group(n=40)
        parent_values, __ = group.eigen_system()
        first, __ = split_group_statistics(group, k=20)
        child_values = np.sort(first.eigen_system()[0])
        expected = np.sort(
            np.concatenate([[parent_values[0] / 4.0], parent_values[1:]])
        )
        np.testing.assert_allclose(child_values, expected, atol=1e-7)

    def test_eigenvectors_unchanged(self):
        group = make_group(n=40)
        __, parent_vectors = group.eigen_system()
        first, __ = split_group_statistics(group, k=20)
        child_covariance = first.covariance
        # The parent's eigenvectors must still diagonalize the child.
        diagonalized = (
            parent_vectors.T @ child_covariance @ parent_vectors
        )
        off_diagonal = diagonalized - np.diag(np.diag(diagonalized))
        np.testing.assert_allclose(off_diagonal, 0.0, atol=1e-7)

    def test_sum_of_first_order_preserved(self):
        # Fs(M1) + Fs(M2) = 2k * Y(M) = Fs(M): the split conserves the
        # total first-order mass.
        group = make_group(n=40)
        first, second = split_group_statistics(group, k=20)
        np.testing.assert_allclose(
            first.first_order + second.first_order,
            group.first_order,
            atol=1e-7,
        )

    def test_equation_3_consistency(self):
        # Sc must satisfy Sc = n*C + n*outer(mean, mean) for each child.
        group = make_group(n=40)
        first, __ = split_group_statistics(group, k=20)
        rebuilt = 20 * (
            first.covariance + np.outer(first.centroid, first.centroid)
        )
        np.testing.assert_allclose(rebuilt, first.second_order, rtol=1e-7)

    def test_merged_children_variance_along_split_axis(self):
        # Merging the two children's statistics recovers the parent's
        # variance along e1: two uniforms of variance λ/4 displaced by
        # ±a/4 have pooled variance λ/4 + (a/4)^2 = λ/4 + 12λ/16/4 = λ.
        group = make_group(n=40)
        parent_values, parent_vectors = group.eigen_system()
        first, second = split_group_statistics(group, k=20)
        merged = first.copy()
        merged.merge(second)
        merged_covariance = merged.covariance
        along = float(
            parent_vectors[:, 0]
            @ merged_covariance
            @ parent_vectors[:, 0]
        )
        assert along == pytest.approx(parent_values[0], rel=1e-6)

    def test_merged_children_recover_parent_covariance(self):
        group = make_group(n=40)
        first, second = split_group_statistics(group, k=20)
        merged = first.copy()
        merged.merge(second)
        np.testing.assert_allclose(
            merged.covariance, group.covariance, atol=1e-7
        )

    def test_tiny_group_rejected(self):
        group = GroupStatistics.from_records(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="cannot split"):
            split_group_statistics(group)

    def test_zero_variance_group_splits_in_place(self):
        records = np.ones((10, 3))
        group = GroupStatistics.from_records(records)
        first, second = split_group_statistics(group, k=5)
        np.testing.assert_allclose(first.centroid, second.centroid)

    @given(seed=st.integers(0, 500), k=st.integers(1, 30),
           d=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_property_split_conserves_mass_and_psd(self, seed, k, d):
        records = np.random.default_rng(seed).normal(size=(2 * k, d))
        group = GroupStatistics.from_records(records)
        first, second = split_group_statistics(group, k=k)
        assert first.count + second.count == 2 * k
        np.testing.assert_allclose(
            first.first_order + second.first_order,
            group.first_order,
            atol=1e-6,
        )
        for child in (first, second):
            eigenvalues, __ = child.eigen_system()
            assert (eigenvalues >= -1e-9).all()


class TestDynamicGroupMaintainer:
    def test_bootstrap_from_static_database(self, gaussian_data):
        maintainer = DynamicGroupMaintainer(
            k=10, initial_data=gaussian_data, random_state=0
        )
        assert maintainer.n_groups == 12
        assert maintainer.n_absorbed == 120

    def test_group_sizes_stay_in_band(self, gaussian_data, rng):
        maintainer = DynamicGroupMaintainer(
            k=10, initial_data=gaussian_data, random_state=0
        )
        stream = rng.normal(
            loc=gaussian_data.mean(axis=0), size=(500, 4)
        )
        for record in stream:
            maintainer.add(record)
            assert (maintainer.group_sizes() < 20).all()
        assert (maintainer.group_sizes() >= 10).all()

    def test_splits_occur(self, gaussian_data, rng):
        maintainer = DynamicGroupMaintainer(
            k=10, initial_data=gaussian_data, random_state=0
        )
        stream = rng.normal(
            loc=gaussian_data.mean(axis=0), size=(300, 4)
        )
        maintainer.add_stream(stream)
        assert maintainer.n_splits > 0
        assert maintainer.n_absorbed == 420

    def test_total_count_conserved(self, gaussian_data, rng):
        maintainer = DynamicGroupMaintainer(
            k=5, initial_data=gaussian_data, random_state=0
        )
        maintainer.add_stream(rng.normal(size=(200, 4)))
        assert maintainer.group_sizes().sum() == 320

    def test_cold_start_buffers_until_k(self, rng):
        maintainer = DynamicGroupMaintainer(k=10, random_state=0)
        for record in rng.normal(size=(9, 3)):
            maintainer.add(record)
        assert maintainer.n_groups == 0
        assert maintainer.n_pending == 9
        maintainer.add(rng.normal(size=3))
        assert maintainer.n_groups == 1
        assert maintainer.n_pending == 0

    def test_cold_start_rejects_non_finite_records(self):
        maintainer = DynamicGroupMaintainer(k=2, random_state=0)
        with pytest.raises(ValueError, match="NaN"):
            maintainer.add(np.array([np.nan, 0.0]))
        assert maintainer.n_pending == 0
        maintainer.add(np.array([1.0, 2.0]))
        maintainer.add(np.array([3.0, 4.0]))
        (founding,) = maintainer.to_model().groups
        np.testing.assert_array_equal(founding.first_order, [4.0, 6.0])

    def test_cold_start_rejects_a_record_of_another_width(self):
        maintainer = DynamicGroupMaintainer(k=3, random_state=0)
        maintainer.add(np.zeros(2))
        with pytest.raises(ValueError, match="expected 2 attributes"):
            maintainer.add(np.zeros(3))
        with pytest.raises(ValueError, match="expected 2 attributes"):
            maintainer.ingest_block(np.zeros((4, 3)))
        assert maintainer.n_pending == 1
        maintainer.ingest_block(np.ones((2, 2)))
        assert maintainer.n_groups == 1 and maintainer.n_pending == 0

    def test_cold_start_model_before_k_rejected(self, rng):
        maintainer = DynamicGroupMaintainer(k=10, random_state=0)
        maintainer.add(rng.normal(size=3))
        with pytest.raises(ValueError, match="fewer than k"):
            maintainer.to_model()

    def test_snapshot_is_independent(self, gaussian_data, rng):
        maintainer = DynamicGroupMaintainer(
            k=10, initial_data=gaussian_data, random_state=0
        )
        snapshot = maintainer.to_model()
        before = snapshot.total_count
        maintainer.add_stream(rng.normal(size=(50, 4)))
        assert snapshot.total_count == before

    def test_routing_to_nearest_group(self):
        # Two far-apart groups; a point near one must be absorbed there.
        blob_a = np.random.default_rng(0).normal(loc=0.0, size=(10, 2))
        blob_b = np.random.default_rng(1).normal(loc=100.0, size=(10, 2))
        maintainer = DynamicGroupMaintainer(
            k=10, initial_data=np.vstack([blob_a, blob_b]), random_state=0
        )
        sizes_before = np.sort(maintainer.group_sizes())
        maintainer.add(np.array([99.0, 101.0]))
        centroids = [group.centroid for group in maintainer.to_model().groups]
        big = max(
            range(len(centroids)), key=lambda i: centroids[i][0]
        )
        assert maintainer.group_sizes()[big] == 11
        assert sizes_before.sum() + 1 == maintainer.group_sizes().sum()

    def test_record_dimension_mismatch(self, gaussian_data):
        maintainer = DynamicGroupMaintainer(
            k=10, initial_data=gaussian_data, random_state=0
        )
        with pytest.raises(ValueError, match="attributes"):
            maintainer.add(np.zeros(3))

    def test_non_vector_record_rejected(self, gaussian_data):
        maintainer = DynamicGroupMaintainer(
            k=10, initial_data=gaussian_data, random_state=0
        )
        with pytest.raises(ValueError, match="vector"):
            maintainer.add(np.zeros((2, 4)))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            DynamicGroupMaintainer(k=0)
        with pytest.raises(ValueError, match="k must be an integer"):
            DynamicGroupMaintainer(k=2.7)

    def test_metadata_in_snapshot(self, gaussian_data, rng):
        maintainer = DynamicGroupMaintainer(
            k=10, initial_data=gaussian_data, random_state=0
        )
        maintainer.add_stream(rng.normal(size=(150, 4)))
        model = maintainer.to_model()
        assert model.metadata["n_splits"] == maintainer.n_splits
        assert model.metadata["n_absorbed"] == 270
