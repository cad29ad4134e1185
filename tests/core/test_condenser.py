"""Tests for repro.core.condenser — the public estimator API."""

import numpy as np
import pytest

from repro.core.condenser import (
    ClasswiseCondenser,
    DynamicCondenser,
    StaticCondenser,
)
from repro.metrics.compatibility import covariance_compatibility


class TestStaticCondenser:
    def test_fit_generate_shape(self, gaussian_data):
        anonymized = StaticCondenser(k=10, random_state=0).fit_generate(
            gaussian_data
        )
        assert anonymized.shape == gaussian_data.shape

    def test_covariance_structure_preserved(self, gaussian_data):
        condenser = StaticCondenser(k=10, random_state=0)
        anonymized = condenser.fit_generate(gaussian_data)
        assert covariance_compatibility(gaussian_data, anonymized) > 0.9

    def test_records_differ_from_original(self, gaussian_data):
        anonymized = StaticCondenser(k=10, random_state=0).fit_generate(
            gaussian_data
        )
        original_rows = {tuple(np.round(row, 8)) for row in gaussian_data}
        overlap = sum(
            tuple(np.round(row, 8)) in original_rows for row in anonymized
        )
        assert overlap == 0

    def test_average_group_size(self, gaussian_data):
        condenser = StaticCondenser(k=10, random_state=0).fit(gaussian_data)
        assert condenser.average_group_size == pytest.approx(10.0)

    def test_generate_before_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            StaticCondenser(k=5).generate()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            StaticCondenser(k=0)
        with pytest.raises(ValueError, match="k must be an integer"):
            StaticCondenser(k=2.7)

    def test_model_exposed(self, gaussian_data):
        condenser = StaticCondenser(k=10, random_state=0).fit(gaussian_data)
        assert condenser.model_.k == 10
        assert condenser.model_.total_count == 120

    def test_gaussian_sampler_option(self, gaussian_data):
        condenser = StaticCondenser(
            k=10, sampler="gaussian", random_state=0
        )
        anonymized = condenser.fit_generate(gaussian_data)
        assert covariance_compatibility(gaussian_data, anonymized) > 0.85


class TestDynamicCondenser:
    def test_fit_partial_fit_generate(self, gaussian_data, rng):
        condenser = DynamicCondenser(k=10, random_state=0).fit(
            gaussian_data
        )
        stream = rng.normal(
            loc=gaussian_data.mean(axis=0), size=(100, 4)
        )
        condenser.partial_fit(stream)
        anonymized = condenser.generate()
        assert anonymized.shape == (220, 4)

    def test_single_record_partial_fit(self, gaussian_data):
        condenser = DynamicCondenser(k=10, random_state=0).fit(
            gaussian_data
        )
        condenser.partial_fit(gaussian_data[0])
        assert condenser.model_.total_count == 121

    def test_cold_start(self, rng):
        condenser = DynamicCondenser(k=5, random_state=0).fit()
        condenser.partial_fit(rng.normal(size=(50, 3)))
        assert condenser.n_groups >= 1
        assert condenser.model_.total_count == 50

    def test_bad_record_rank(self, gaussian_data):
        condenser = DynamicCondenser(k=10, random_state=0).fit(
            gaussian_data
        )
        with pytest.raises(ValueError, match="1-D or 2-D"):
            condenser.partial_fit(np.zeros((2, 2, 2)))

    def test_unfitted(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            DynamicCondenser(k=5).partial_fit(np.zeros(3))

    def test_n_splits_property(self, gaussian_data, rng):
        condenser = DynamicCondenser(k=10, random_state=0).fit(
            gaussian_data
        )
        condenser.partial_fit(
            rng.normal(loc=gaussian_data.mean(axis=0), size=(300, 4))
        )
        assert condenser.n_splits > 0


class TestClasswiseCondenser:
    def test_labels_preserved(self, labelled_blobs):
        data, labels = labelled_blobs
        anonymized, anonymized_labels = ClasswiseCondenser(
            k=10, random_state=0
        ).fit_generate(data, labels)
        assert anonymized.shape == data.shape
        counts = dict(zip(*np.unique(anonymized_labels,
                                     return_counts=True)))
        assert counts == {0: 60, 1: 60}

    def test_class_separation_survives(self, labelled_blobs):
        data, labels = labelled_blobs
        anonymized, anonymized_labels = ClasswiseCondenser(
            k=10, random_state=0
        ).fit_generate(data, labels)
        mean_a = anonymized[anonymized_labels == 0].mean(axis=0)
        mean_b = anonymized[anonymized_labels == 1].mean(axis=0)
        assert np.linalg.norm(mean_a - mean_b) > 3.0

    def test_dynamic_mode(self, labelled_blobs):
        data, labels = labelled_blobs
        anonymized, anonymized_labels = ClasswiseCondenser(
            k=10, mode="dynamic", random_state=0
        ).fit_generate(data, labels)
        assert anonymized.shape[0] == data.shape[0]

    def test_small_class_error_policy(self, rng):
        data = rng.normal(size=(25, 3))
        labels = np.array([0] * 22 + [1] * 3)
        with pytest.raises(ValueError, match="fewer than k"):
            ClasswiseCondenser(k=10, random_state=0).fit(data, labels)

    def test_small_class_single_group_policy(self, rng):
        data = rng.normal(size=(25, 3))
        labels = np.array([0] * 22 + [1] * 3)
        condenser = ClasswiseCondenser(
            k=10, small_class_policy="single_group", random_state=0
        ).fit(data, labels)
        assert condenser.models_[1].n_groups == 1
        anonymized, anonymized_labels = condenser.generate()
        assert int(np.sum(anonymized_labels == 1)) == 3

    def test_invalid_policy(self):
        with pytest.raises(ValueError, match="small_class_policy"):
            ClasswiseCondenser(k=5, small_class_policy="drop")

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ClasswiseCondenser(k=5, mode="batch")

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k must be an integer"):
            ClasswiseCondenser(k=0)
        with pytest.raises(ValueError, match="k must be an integer"):
            ClasswiseCondenser(k=2.7)

    def test_average_group_size(self, labelled_blobs):
        data, labels = labelled_blobs
        condenser = ClasswiseCondenser(k=10, random_state=0).fit(
            data, labels
        )
        assert condenser.average_group_size == pytest.approx(10.0)

    def test_unfitted(self):
        with pytest.raises(RuntimeError):
            ClasswiseCondenser(k=5).generate()

    def test_label_shape_mismatch(self, gaussian_data):
        with pytest.raises(ValueError):
            ClasswiseCondenser(k=5).fit(gaussian_data, np.zeros(3))

    def test_string_labels(self, labelled_blobs):
        data, labels = labelled_blobs
        names = np.where(labels == 0, "neg", "pos")
        anonymized, anonymized_labels = ClasswiseCondenser(
            k=10, random_state=0
        ).fit_generate(data, names)
        assert set(anonymized_labels.tolist()) == {"neg", "pos"}
