"""Tests for repro.neighbors.brute."""

import numpy as np
import pytest

from repro.neighbors.brute import (
    BruteForceIndex,
    _row_norms,
    _squared_distances,
    pairwise_distances,
)


class TestPairwiseDistances:
    def test_matches_direct_computation(self, rng):
        queries = rng.normal(size=(5, 3))
        points = rng.normal(size=(8, 3))
        distances = pairwise_distances(queries, points)
        for i in range(5):
            for j in range(8):
                expected = np.linalg.norm(queries[i] - points[j])
                assert distances[i, j] == pytest.approx(expected)

    def test_squared_option(self, rng):
        queries = rng.normal(size=(3, 2))
        points = rng.normal(size=(4, 2))
        squared = pairwise_distances(queries, points, squared=True)
        np.testing.assert_allclose(
            np.sqrt(squared), pairwise_distances(queries, points)
        )

    def test_self_distance_zero(self, rng):
        points = rng.normal(size=(6, 4))
        distances = pairwise_distances(points, points)
        np.testing.assert_allclose(np.diag(distances), 0.0, atol=1e-7)

    def test_never_negative_under_cancellation(self):
        # Large coordinates provoke catastrophic cancellation in the
        # expanded form; the clip must keep results non-negative.
        points = np.full((2, 3), 1e8)
        distances = pairwise_distances(points, points, squared=True)
        assert (distances >= 0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensionality"):
            pairwise_distances(np.ones((2, 3)), np.ones((2, 4)))


class TestSquaredDistanceHelper:
    """The one distance expression behind ``pairwise_distances``."""

    @staticmethod
    def expanded(queries, points):
        # The expression as pairwise_distances first wrote it.
        q_norms = np.einsum("ij,ij->i", queries, queries)[:, None]
        p_norms = np.einsum("ij,ij->i", points, points)[None, :]
        squared = q_norms - 2.0 * queries @ points.T + p_norms
        np.clip(squared, 0.0, None, out=squared)
        return squared

    @pytest.mark.parametrize("trial", range(12))
    def test_byte_equal_to_pairwise_distances(self, trial):
        rng = np.random.default_rng(trial)
        m, n, d = rng.integers(1, (40, 300, 12))
        queries = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-3, 4)
        points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
        helper = _squared_distances(queries, points, _row_norms(points))
        assert helper.tobytes() == pairwise_distances(
            queries, points, squared=True
        ).tobytes()
        assert helper.tobytes() == self.expanded(queries, points).tobytes()

    def test_clips_cancellation_at_zero(self):
        points = np.full((3, 2), 1e8)
        squared = _squared_distances(points, points, _row_norms(points))
        assert (squared >= 0).all()


class TestBruteForceIndex:
    def test_nearest_is_self_for_indexed_point(self, rng):
        points = rng.normal(size=(20, 3))
        index = BruteForceIndex(points)
        distances, indices = index.query(points, k=1)
        np.testing.assert_array_equal(indices[:, 0], np.arange(20))
        np.testing.assert_allclose(distances[:, 0], 0.0, atol=1e-7)

    def test_distances_ascending(self, rng):
        points = rng.normal(size=(30, 4))
        index = BruteForceIndex(points)
        distances, __ = index.query(rng.normal(size=(5, 4)), k=7)
        assert (np.diff(distances, axis=1) >= -1e-12).all()

    def test_k_equal_n(self, rng):
        points = rng.normal(size=(6, 2))
        index = BruteForceIndex(points)
        distances, indices = index.query(rng.normal(size=(1, 2)), k=6)
        assert sorted(indices[0].tolist()) == list(range(6))
        assert (np.diff(distances[0]) >= -1e-12).all()

    def test_single_query_vector(self, rng):
        points = rng.normal(size=(10, 3))
        index = BruteForceIndex(points)
        distances, indices = index.query(points[4], k=2)
        assert distances.shape == (2,)
        assert indices[0] == 4

    def test_matches_argsort_reference(self, rng):
        points = rng.normal(size=(40, 3))
        queries = rng.normal(size=(7, 3))
        index = BruteForceIndex(points)
        __, indices = index.query(queries, k=5)
        reference = np.argsort(
            pairwise_distances(queries, points), axis=1
        )[:, :5]
        ref_d = np.take_along_axis(
            pairwise_distances(queries, points), reference, axis=1
        )
        got_d = np.take_along_axis(
            pairwise_distances(queries, points), indices, axis=1
        )
        np.testing.assert_allclose(got_d, ref_d, atol=1e-9)

    def test_invalid_k(self, rng):
        index = BruteForceIndex(rng.normal(size=(5, 2)))
        with pytest.raises(ValueError):
            index.query(np.zeros(2), k=0)
        with pytest.raises(ValueError):
            index.query(np.zeros(2), k=6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            BruteForceIndex(np.empty((0, 3)))

    def test_points_copied(self, rng):
        original = rng.normal(size=(5, 2))
        index = BruteForceIndex(original)
        original[:] = 0.0
        assert not np.allclose(index.points, 0.0)

    def test_points_view_read_only(self, rng):
        index = BruteForceIndex(rng.normal(size=(5, 2)))
        with pytest.raises(ValueError):
            index.points[0, 0] = 1.0

    def test_query_radius(self):
        points = np.array([[0.0], [1.0], [2.0], [10.0]])
        index = BruteForceIndex(points)
        hits = index.query_radius(np.array([0.5]), radius=2.0)
        assert sorted(hits.tolist()) == [0, 1, 2]

    def test_query_radius_negative(self):
        index = BruteForceIndex(np.zeros((2, 1)))
        with pytest.raises(ValueError):
            index.query_radius(np.zeros(1), radius=-1.0)

    def test_properties(self, rng):
        index = BruteForceIndex(rng.normal(size=(9, 4)))
        assert index.n_points == 9
        assert index.n_features == 4
