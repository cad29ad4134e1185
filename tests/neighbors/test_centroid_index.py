"""Index-invariance tests for :class:`repro.neighbors.CentroidIndex`.

The maintained centroid index is a pure accelerator: at every point of
a churning ingest/split/merge/remove workload its ``nearest`` answer
must equal the brute-force argmin (lowest id on ties), including right
after a lazy rebuild and right after an invalidation.  The tests drive
the index directly, with synthetic churn against a mutable centroid
matrix.
"""

import numpy as np
import pytest

from repro.neighbors.brute import pairwise_distances
from repro.neighbors.centroids import CentroidIndex
from repro.neighbors.kdtree import KDTreeIndex


def brute_nearest(record, centroids):
    distances = pairwise_distances(
        record[None, :], centroids, squared=True
    )[0]
    return int(np.argmin(distances))


class TestKDTreeMask:
    def test_masked_query_matches_masked_brute_force(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(200, 3))
        tree = KDTreeIndex(points, leaf_size=4)
        for seed in range(30):
            local = np.random.default_rng(seed)
            mask = local.random(200) < 0.6
            if not mask.any():
                mask[0] = True
            query = local.normal(size=3)
            __, indices = tree.query(query, k=1, mask=mask)
            eligible = np.flatnonzero(mask)
            distances = pairwise_distances(
                query[None, :], points[eligible], squared=True
            )[0]
            assert int(indices[0]) == int(eligible[np.argmin(distances)])

    def test_mask_validates_shape_and_k(self):
        points = np.random.default_rng(1).normal(size=(20, 2))
        tree = KDTreeIndex(points)
        with pytest.raises(ValueError, match="mask"):
            tree.query(points[0], k=1, mask=np.ones(5, dtype=bool))
        sparse = np.zeros(20, dtype=bool)
        sparse[3] = True
        with pytest.raises(ValueError, match="k must be"):
            tree.query(points[0], k=2, mask=sparse)
        __, indices = tree.query(points[0], k=1, mask=sparse)
        assert int(indices[0]) == 3


class TestSyntheticChurn:
    def test_randomized_churn_matches_brute_at_every_step(self):
        # Tiny thresholds so rebuilds, overlays, and invalidations all
        # happen many times within a few hundred steps.
        rng = np.random.default_rng(42)
        index = CentroidIndex(min_index_size=8, staleness=0.2,
                              min_stale=2, leaf_size=2)
        centroids = rng.normal(size=(12, 3))
        for step in range(400):
            action = rng.random()
            if action < 0.35 and centroids.shape[0] > 4:
                # Nudge one centroid (an absorb).
                target = int(rng.integers(centroids.shape[0]))
                centroids[target] += rng.normal(scale=0.3, size=3)
                index.mark_dirty(target)
            elif action < 0.55:
                # Append one centroid (a split).
                centroids = np.vstack(
                    [centroids, rng.normal(size=(1, 3))]
                )
            elif action < 0.65 and centroids.shape[0] > 6:
                # Pop one centroid (a merge renumbers ids).
                victim = int(rng.integers(centroids.shape[0]))
                centroids = np.delete(centroids, victim, axis=0)
                index.invalidate()
            query = rng.normal(size=3)
            got = index.nearest(query, centroids)
            assert got == brute_nearest(query, centroids), step

    def test_every_snapshot_entry_dirty_still_exact(self):
        rng = np.random.default_rng(7)
        index = CentroidIndex(min_index_size=4, staleness=1.0,
                              min_stale=1_000_000)
        centroids = rng.normal(size=(10, 2))
        index.nearest(rng.normal(size=2), centroids)
        assert index.indexed
        for target in range(10):
            centroids[target] += rng.normal(scale=0.5, size=2)
            index.mark_dirty(target)
            query = rng.normal(size=2)
            assert index.nearest(query, centroids) == brute_nearest(
                query, centroids
            )

    def test_tie_breaks_toward_lowest_id(self):
        centroids = np.array(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        )
        index = CentroidIndex(min_index_size=2)
        query = np.array([0.5, 0.5])
        assert index.nearest(query, centroids) == 0
        # Same after a rebuild with an overlay over the duplicates.
        index.mark_dirty(2)
        assert index.nearest(query, centroids) == 0

    def test_brute_below_min_index_size(self):
        rng = np.random.default_rng(3)
        index = CentroidIndex(min_index_size=64)
        centroids = rng.normal(size=(20, 3))
        query = rng.normal(size=3)
        assert index.nearest(query, centroids) == brute_nearest(
            query, centroids
        )
        assert not index.indexed

    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="min_index_size"):
            CentroidIndex(min_index_size=1)
        with pytest.raises(ValueError, match="staleness"):
            CentroidIndex(staleness=0.0)
