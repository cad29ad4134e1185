"""Tests for repro.core.generation — anonymized-data construction (§2.1)."""

import numpy as np
import pytest

from repro.core.condensation import create_condensed_groups
from repro.core.generation import (
    generate_anonymized_data,
    generate_group_records,
    resolve_sampler,
)
from repro.core.statistics import CondensedModel, GroupStatistics


class TestGroupGeneration:
    def test_default_size_matches_group(self, gaussian_data):
        group = GroupStatistics.from_records(gaussian_data)
        generated = generate_group_records(group, random_state=0)
        assert generated.shape == gaussian_data.shape

    def test_mean_preserved(self, gaussian_data):
        group = GroupStatistics.from_records(gaussian_data)
        generated = generate_group_records(
            group, size=20000, random_state=0
        )
        np.testing.assert_allclose(
            generated.mean(axis=0), group.centroid, atol=0.05
        )

    def test_covariance_preserved(self, gaussian_data):
        group = GroupStatistics.from_records(gaussian_data)
        generated = generate_group_records(
            group, size=60000, random_state=0
        )
        np.testing.assert_allclose(
            np.cov(generated.T, bias=True),
            group.covariance,
            atol=0.08,
        )

    def test_uniform_support_is_bounded(self):
        # Along each eigenvector the uniform sampler spans sqrt(12 λ);
        # coordinates must never exceed half that range.
        records = np.random.default_rng(0).normal(size=(200, 3))
        group = GroupStatistics.from_records(records)
        eigenvalues, eigenvectors = group.eigen_system()
        generated = generate_group_records(
            group, size=5000, random_state=1
        )
        coordinates = (generated - group.centroid) @ eigenvectors
        half_ranges = np.sqrt(12.0 * eigenvalues) / 2.0
        assert (np.abs(coordinates) <= half_ranges + 1e-9).all()

    def test_gaussian_sampler_exceeds_uniform_support(self):
        records = np.random.default_rng(0).normal(size=(200, 3))
        group = GroupStatistics.from_records(records)
        eigenvalues, eigenvectors = group.eigen_system()
        generated = generate_group_records(
            group, size=5000, sampler="gaussian", random_state=1
        )
        coordinates = (generated - group.centroid) @ eigenvectors
        half_ranges = np.sqrt(12.0 * eigenvalues) / 2.0
        assert (np.abs(coordinates) > half_ranges + 1e-9).any()

    def test_singleton_group_reproduces_record(self):
        record = np.array([[1.0, -2.0, 3.0]])
        group = GroupStatistics.from_records(record)
        generated = generate_group_records(group, random_state=0)
        np.testing.assert_allclose(generated, record, atol=1e-6)

    def test_zero_size(self, gaussian_data):
        group = GroupStatistics.from_records(gaussian_data)
        generated = generate_group_records(group, size=0, random_state=0)
        assert generated.shape == (0, 4)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            generate_group_records(GroupStatistics.empty(2))

    def test_negative_size_rejected(self, gaussian_data):
        group = GroupStatistics.from_records(gaussian_data)
        with pytest.raises(ValueError):
            generate_group_records(group, size=-1)

    def test_deterministic_given_seed(self, gaussian_data):
        group = GroupStatistics.from_records(gaussian_data)
        a = generate_group_records(group, random_state=5)
        b = generate_group_records(group, random_state=5)
        np.testing.assert_array_equal(a, b)


class TestResolveSampler:
    def test_known_names(self):
        assert callable(resolve_sampler("uniform"))
        assert callable(resolve_sampler("gaussian"))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            resolve_sampler("cauchy")

    def test_callable_passthrough(self):
        def sampler(rng, eigenvalues, size):
            return np.zeros((size, eigenvalues.shape[0]))

        assert resolve_sampler(sampler) is sampler

    def test_wrong_type(self):
        with pytest.raises(TypeError):
            resolve_sampler(3)

    def test_custom_sampler_shape_checked(self, gaussian_data):
        group = GroupStatistics.from_records(gaussian_data)

        def bad_sampler(rng, eigenvalues, size):
            return np.zeros((size, eigenvalues.shape[0] + 1))

        with pytest.raises(ValueError, match="wrong shape"):
            generate_group_records(group, sampler=bad_sampler,
                                   random_state=0)


class TestModelGeneration:
    def test_cardinality_matches_input(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        generated = generate_anonymized_data(model, random_state=0)
        assert generated.shape == gaussian_data.shape

    def test_custom_sizes(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=60, random_state=0)
        generated = generate_anonymized_data(
            model, sizes=[5, 7], random_state=0
        )
        assert generated.shape == (12, 4)

    def test_sizes_length_checked(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=60, random_state=0)
        with pytest.raises(ValueError, match="one entry per group"):
            generate_anonymized_data(model, sizes=[5], random_state=0)

    def test_all_zero_sizes(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=60, random_state=0)
        generated = generate_anonymized_data(
            model, sizes=[0, 0], random_state=0
        )
        assert generated.shape == (0, 4)

    def test_global_mean_approximately_preserved(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        generated = generate_anonymized_data(model, random_state=0)
        np.testing.assert_allclose(
            generated.mean(axis=0), gaussian_data.mean(axis=0), atol=0.5
        )

    def test_k1_reproduces_original_multiset(self, gaussian_data):
        # Singleton groups have zero covariance, so generation returns
        # exactly the original records (the paper's k=1 anchor point).
        model = create_condensed_groups(gaussian_data, k=1, random_state=0)
        generated = generate_anonymized_data(model, random_state=0)
        original_rows = sorted(map(tuple, np.round(gaussian_data, 6)))
        generated_rows = sorted(map(tuple, np.round(generated, 6)))
        assert original_rows == generated_rows


class TestSizesValidation:
    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(0)
        return CondensedModel(
            [GroupStatistics.from_records(rng.normal(size=(4, 2)))
             for __ in range(3)],
            k=4,
        )

    @pytest.mark.parametrize("bad", [-4, 1.5, 2.0, True, "2", None])
    def test_bad_entry_named_by_index(self, model, bad):
        with pytest.raises(ValueError, match=r"sizes\[1\] must be a "
                                             r"non-negative integer"):
            generate_anonymized_data(model, sizes=[2, bad, 1],
                                     random_state=0)

    def test_first_bad_index_is_reported(self, model):
        with pytest.raises(ValueError, match=r"sizes\[1\]"):
            generate_anonymized_data(model, sizes=[2, -1, 0.5])

    def test_rejected_before_any_draw(self, model):
        calls = []

        def sampler(rng, eigenvalues, size):
            calls.append(size)
            return np.zeros((size, eigenvalues.shape[0]))

        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"sizes\[2\]"):
            generate_anonymized_data(model, sampler=sampler,
                                     random_state=rng, sizes=[3, 2, -1])
        assert calls == []
        assert rng.bit_generator.state == state

    def test_numpy_integers_accepted(self, model):
        sizes = np.array([2, 0, 3])
        generated = generate_anonymized_data(model, sizes=sizes,
                                             random_state=0)
        assert generated.shape == (5, 2)
        generated = generate_anonymized_data(
            model, sizes=[np.int32(1), np.uint8(200), np.uint8(100)],
            random_state=0,
        )
        assert generated.shape == (301, 2)


class TestGroupSizeValidation:
    def test_non_integer_size_rejected(self, gaussian_data):
        group = GroupStatistics.from_records(gaussian_data)
        for bad in (1.5, True):
            with pytest.raises(ValueError, match="non-negative integer"):
                generate_group_records(group, size=bad)

    def test_negative_size_reported_before_empty_group(self):
        with pytest.raises(ValueError, match="non-negative"):
            generate_group_records(GroupStatistics.empty(2), size=-1)

    def test_empty_group_with_draws_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            generate_group_records(GroupStatistics.empty(2), size=3)
