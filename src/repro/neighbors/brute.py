"""Exact nearest-neighbour search by brute force.

Distances are squared Euclidean internally (monotone in the Euclidean
distance, so orderings agree) and converted on output.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.telemetry import DEFAULT_SIZE_BUCKETS


def pairwise_distances(
    queries: np.ndarray, points: np.ndarray, squared: bool = False
) -> np.ndarray:
    """Euclidean distances between two record sets.

    Parameters
    ----------
    queries:
        Array of shape ``(m, d)``.
    points:
        Array of shape ``(n, d)``.
    squared:
        Return squared distances (cheaper; same ordering).

    Returns
    -------
    numpy.ndarray, shape (m, n)
        ``out[i, j]`` is the distance between ``queries[i]`` and
        ``points[j]``.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if queries.shape[1] != points.shape[1]:
        raise ValueError(
            "dimensionality mismatch: "
            f"{queries.shape[1]} vs {points.shape[1]}"
        )
    squared_distances = _squared_distances(
        queries, points, _row_norms(points)
    )
    if squared:
        return squared_distances
    return np.sqrt(squared_distances)


def _row_norms(points: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every row of a 2-D array."""
    return np.einsum("ij,ij->i", points, points)


def _squared_distances(
    queries: np.ndarray, points: np.ndarray, point_norms: np.ndarray
) -> np.ndarray:
    """Squared distances, given the squared norms of ``points``.

    ``||q - p||^2 = ||q||^2 - 2 q·p + ||p||^2``, clipped at zero against
    round-off.  The one place this expression lives: callers that keep
    ``point_norms`` across many queries (the static absorb loop) get
    the same bytes as :func:`pairwise_distances`.
    """
    squared_distances = queries @ points.T
    squared_distances *= -2.0
    squared_distances += _row_norms(queries)[:, None]
    squared_distances += point_norms[None, :]
    np.clip(squared_distances, 0.0, None, out=squared_distances)
    return squared_distances


class BruteForceIndex:
    """Exact k-NN index backed by full pairwise distance computation.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)`` to index.  A copy is stored.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        if points.shape[0] == 0:
            raise ValueError("cannot index an empty point set")
        self._points = points.copy()

    @property
    def n_points(self) -> int:
        """Number of indexed records."""
        return self._points.shape[0]

    @property
    def n_features(self) -> int:
        """Dimensionality of the indexed records."""
        return self._points.shape[1]

    @property
    def points(self) -> np.ndarray:
        """Read-only view of the indexed records."""
        view = self._points.view()
        view.flags.writeable = False
        return view

    def query(self, queries: np.ndarray, k: int = 1):
        """Find the ``k`` nearest indexed records for each query.

        Parameters
        ----------
        queries:
            Array of shape ``(m, d)`` or a single record of shape
            ``(d,)``.
        k:
            Number of neighbours, ``1 <= k <= n_points``.

        Returns
        -------
        distances : numpy.ndarray, shape (m, k)
            Euclidean distances, ascending within each row.
        indices : numpy.ndarray, shape (m, k)
            Positions of the neighbours in the indexed array.
        """
        queries = np.asarray(queries, dtype=float)
        single = queries.ndim == 1
        queries = np.atleast_2d(queries)
        if not 1 <= k <= self.n_points:
            raise ValueError(
                f"k must be in [1, {self.n_points}], got {k}"
            )
        telemetry.counter_inc(
            "neighbors.brute.queries", queries.shape[0]
        )
        # A brute query scans every indexed point: each query's
        # candidate set is the whole index.
        for __ in range(queries.shape[0]):
            telemetry.histogram_observe(
                "neighbors.brute.candidates", self.n_points,
                buckets=DEFAULT_SIZE_BUCKETS,
            )
        squared = pairwise_distances(queries, self._points, squared=True)
        if k < self.n_points:
            part = np.argpartition(squared, k - 1, axis=1)[:, :k]
        else:
            part = np.broadcast_to(
                np.arange(self.n_points), (queries.shape[0], self.n_points)
            ).copy()
        part_distances = np.take_along_axis(squared, part, axis=1)
        order = np.argsort(part_distances, axis=1, kind="stable")
        indices = np.take_along_axis(part, order, axis=1)
        distances = np.sqrt(np.take_along_axis(part_distances, order, axis=1))
        if single:
            return distances[0], indices[0]
        return distances, indices

    def query_radius(self, query: np.ndarray, radius: float) -> np.ndarray:
        """Indices of all records within ``radius`` of a single query."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        query = np.asarray(query, dtype=float).reshape(1, -1)
        distances = pairwise_distances(query, self._points)[0]
        return np.flatnonzero(distances <= radius)
