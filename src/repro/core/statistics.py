"""Condensed-group statistics (§2 of the paper).

A condensed group ``G`` never stores its member records.  It stores only:

* ``Fs(G)`` — the vector of first-order sums, one per attribute;
* ``Sc(G)`` — the matrix of second-order product sums, one per attribute
  pair;
* ``n(G)`` — the number of records condensed into the group.

From these the group mean (Observation 1) and covariance (Observation 2)
are derivable, and from the covariance's eigendecomposition the group's
orthonormal axis system used for anonymized-data generation and for the
dynamic split.

Public documents (saved models, ``/model``, shard checkpoints) carry a
group as JSON float lists (:meth:`GroupStatistics.to_dict`).  Durable
streaming state (WAL sub-operations and snapshots) carries it packed —
the exact little-endian float64 bytes, base64-encoded
(:func:`pack_group` / :func:`unpack_group`) — which skips float
``repr`` on the ingest hot path and round-trips bit for bit.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field

import numpy as np

from repro.linalg.symmetric import covariance_from_sums, sums_from_covariance


@dataclass
class GroupStatistics:
    """Aggregate statistics of one condensed group.

    Attributes
    ----------
    first_order:
        ``Fs(G)``, shape ``(d,)``.
    second_order:
        ``Sc(G)``, shape ``(d, d)``.
    count:
        ``n(G)``, the number of condensed records.
    """

    first_order: np.ndarray
    second_order: np.ndarray
    count: int

    def __post_init__(self):
        self.first_order = np.asarray(self.first_order, dtype=float)
        self.second_order = np.asarray(self.second_order, dtype=float)
        if self.first_order.ndim != 1:
            raise ValueError("first_order must be a vector")
        d = self.first_order.shape[0]
        if self.second_order.shape != (d, d):
            raise ValueError(
                f"second_order must have shape {(d, d)}, "
                f"got {self.second_order.shape}"
            )
        if self.count < 0:
            raise ValueError(f"count must be non-negative, got {self.count}")
        self.count = int(self.count)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, n_features: int) -> "GroupStatistics":
        """A zero-record group of the given dimensionality."""
        if n_features <= 0:
            raise ValueError(f"n_features must be positive, got {n_features}")
        return cls(
            first_order=np.zeros(n_features),
            second_order=np.zeros((n_features, n_features)),
            count=0,
        )

    @classmethod
    def from_records(cls, records: np.ndarray) -> "GroupStatistics":
        """Condense a record array of shape ``(m, d)`` into statistics."""
        records = np.asarray(records, dtype=float)
        if records.ndim != 2 or records.shape[0] == 0:
            raise ValueError(
                f"records must be a non-empty 2-D array, got {records.shape}"
            )
        return cls(
            first_order=records.sum(axis=0),
            second_order=records.T @ records,
            count=records.shape[0],
        )

    @classmethod
    def from_moments(
        cls, mean: np.ndarray, covariance: np.ndarray, count: int
    ) -> "GroupStatistics":
        """Build statistics from a mean / covariance / count triple.

        This is Equation 3 of the paper, used by the dynamic split to
        reassemble child sums from derived moments.
        """
        first_order, second_order = sums_from_covariance(
            mean, covariance, count
        )
        return cls(
            first_order=first_order, second_order=second_order, count=count
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add(self, record: np.ndarray) -> None:
        """Fold one record into the group sums (dynamic ingestion)."""
        record = self._validate_record(record)
        self.first_order += record
        self.second_order += np.outer(record, record)
        self.count += 1

    def add_batch(self, records: np.ndarray) -> None:
        """Fold a batch of records into the group sums."""
        records = np.asarray(records, dtype=float)
        if records.ndim != 2 or records.shape[1] != self.n_features:
            raise ValueError(
                f"expected shape (m, {self.n_features}), got {records.shape}"
            )
        if records.shape[0] == 0:
            return
        self.first_order += records.sum(axis=0)
        self.second_order += records.T @ records
        self.count += records.shape[0]

    def merge(self, other: "GroupStatistics") -> None:
        """Fold another group's sums into this group (used for leftovers)."""
        if other.n_features != self.n_features:
            raise ValueError(
                "cannot merge groups of different dimensionality: "
                f"{self.n_features} vs {other.n_features}"
            )
        self.first_order += other.first_order
        self.second_order += other.second_order
        self.count += other.count

    def remove(self, record: np.ndarray) -> None:
        """Subtract one record from the group sums (deletion downdate).

        The record need not be one that was literally added — in the
        statistics-only world of condensation a deletion request can
        only be honoured against the group whose locality the record
        belongs to.  Removing the last record leaves a valid empty
        group.
        """
        record = self._validate_record(record)
        if self.count <= 0:
            raise ValueError("cannot remove from an empty group")
        self.first_order -= record
        self.second_order -= np.outer(record, record)
        self.count -= 1

    def ensure_psd(self) -> None:
        """Repair the second-order sums if the covariance went indefinite.

        Statistical deletion subtracts a record that may never have been
        a literal member of this group, which can push the implied
        covariance matrix outside the PSD cone.  This projects the
        covariance back onto it and rebuilds ``Sc`` accordingly; a no-op
        for already-valid groups.
        """
        if self.count == 0:
            return
        from repro.linalg.symmetric import nearest_psd

        covariance = covariance_from_sums(
            self.first_order, self.second_order, self.count
        )
        eigenvalues = np.linalg.eigvalsh(covariance)
        scale = max(abs(float(eigenvalues[-1])), 1.0)
        if eigenvalues[0] >= -1e-10 * scale:
            return
        repaired = nearest_psd(covariance)
        __, self.second_order = sums_from_covariance(
            self.centroid, repaired, self.count
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def n_features(self) -> int:
        """Dimensionality ``d`` of the condensed records."""
        return self.first_order.shape[0]

    @property
    def centroid(self) -> np.ndarray:
        """Group mean ``Fs(G) / n(G)`` (Observation 1)."""
        if self.count == 0:
            raise ValueError("centroid of an empty group is undefined")
        return self.first_order / self.count

    @property
    def covariance(self) -> np.ndarray:
        """Group population covariance (Observation 2)."""
        return covariance_from_sums(
            self.first_order, self.second_order, self.count
        )

    def eigen_system(self):
        """Orthonormal axis system of the group (Equation 1).

        Returns
        -------
        eigenvalues : numpy.ndarray, shape (d,)
            Variances along the eigenvectors, decreasing and clipped to be
            non-negative.
        eigenvectors : numpy.ndarray, shape (d, d)
            Columns are the eigenvectors; column 0 is the most elongated
            direction (the dynamic split axis).

        Notes
        -----
        The mathematical group covariance is PSD by construction, so any
        negative eigenvalue here is floating-point cancellation in the
        raw-sum representation (severe when ``|mean| >> stddev``).  All
        negatives are therefore clipped to zero unconditionally rather
        than raising — the decomposition stays usable, at the cost of
        treating the cancellation noise as zero variance.
        """
        eigenvalues, eigenvectors = stacked_eigen_systems([self])
        return eigenvalues[0], eigenvectors[0]

    def copy(self) -> "GroupStatistics":
        """Deep copy of the group statistics."""
        return GroupStatistics(
            first_order=self.first_order.copy(),
            second_order=self.second_order.copy(),
            count=self.count,
        )

    # ------------------------------------------------------------------
    # Serialization — group statistics are exactly what a server may
    # persist (the paper's relaxed trust model), so round-tripping them
    # is a first-class operation.
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-python representation for JSON-style persistence."""
        return {
            "first_order": self.first_order.tolist(),
            "second_order": self.second_order.tolist(),
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GroupStatistics":
        """Inverse of :meth:`to_dict`."""
        return cls(
            first_order=np.asarray(payload["first_order"], dtype=float),
            second_order=np.asarray(payload["second_order"], dtype=float),
            count=int(payload["count"]),
        )

    def _validate_record(self, record: np.ndarray) -> np.ndarray:
        record = np.asarray(record, dtype=float)
        if record.shape != (self.n_features,):
            raise ValueError(
                f"expected shape ({self.n_features},), got {record.shape}"
            )
        if not np.isfinite(record).all():
            raise ValueError(
                "record contains NaN or infinite values"
            )
        return record

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"GroupStatistics(n_features={self.n_features}, "
            f"count={self.count})"
        )


def _packed_array(payload: dict, key: str) -> bytes:
    """Strictly base64-decode one packed array field."""
    text = payload.get(key)
    if not isinstance(text, str):
        raise ValueError(f"packed group field {key!r} must be a string")
    try:
        return base64.b64decode(text, validate=True)
    except ValueError as error:
        raise ValueError(
            f"packed group field {key!r} is not valid base64: {error}"
        ) from None


def pack_group(group: GroupStatistics) -> dict:
    """Durable form of one group: exact little-endian float64 bytes.

    ``Fs`` and the whole ``d × d`` ``Sc`` are stored as base64 of their
    ``"<f8"`` bytes, so :func:`unpack_group` restores them bit for bit
    without formatting a single float.

    Parameters
    ----------
    group:
        The group to pack.

    Returns
    -------
    dict
        ``{"count": n, "fs": <base64>, "sc": <base64>}``.
    """
    return {
        "count": group.count,
        "fs": base64.b64encode(
            group.first_order.astype("<f8", copy=False).tobytes()
        ).decode("ascii"),
        "sc": base64.b64encode(
            group.second_order.astype("<f8", copy=False).tobytes()
        ).decode("ascii"),
    }


def unpack_group(payload: dict) -> GroupStatistics:
    """Inverse of :func:`pack_group`; also reads the list form.

    Payloads holding ``first_order`` / ``second_order`` lists (durable
    state written before 1.15, or :meth:`GroupStatistics.to_dict`) are
    read through :meth:`GroupStatistics.from_dict`.

    Parameters
    ----------
    payload:
        A packed or list-form group payload.

    Returns
    -------
    GroupStatistics

    Raises
    ------
    ValueError
        If a packed payload is malformed: a count that is not an
        integer ``>= 1``, a field that is not strict base64, an ``Fs``
        that is empty or not a whole number of float64s, or an ``Sc``
        of other than ``8 d²`` bytes.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"group payload must be a mapping, got {type(payload).__name__}"
        )
    if "first_order" in payload:
        return GroupStatistics.from_dict(payload)
    count = payload.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(
            f"packed group count must be an integer >= 1, got {count!r}"
        )
    first = _packed_array(payload, "fs")
    second = _packed_array(payload, "sc")
    if not first or len(first) % 8:
        raise ValueError(
            f"packed Fs must be a non-empty float64 vector, got "
            f"{len(first)} bytes"
        )
    d = len(first) // 8
    if len(second) != 8 * d * d:
        raise ValueError(
            f"packed Sc must hold {8 * d * d} bytes for d={d}, got "
            f"{len(second)}"
        )
    return GroupStatistics(
        first_order=np.frombuffer(first, dtype="<f8").astype(float),
        second_order=np.frombuffer(second, dtype="<f8").astype(
            float
        ).reshape(d, d),
        count=count,
    )


def stacked_covariances(groups) -> np.ndarray:
    """Covariances (Observation 2) of several groups, stacked.

    Matrix ``i`` has exactly the bytes of ``groups[i].covariance``: it
    is formed and symmetrized as in
    :func:`~repro.linalg.symmetric.covariance_from_sums`, elementwise
    on the stack.

    Parameters
    ----------
    groups:
        Non-empty sequence of non-empty groups of one dimensionality
        ``d``.

    Returns
    -------
    numpy.ndarray, shape (m, d, d)

    Raises
    ------
    ValueError
        If a group is empty.
    """
    counts = [group.count for group in groups]
    if 0 in counts:
        raise ValueError("cannot decompose an empty group")
    counts = np.array(counts, dtype=float)
    means = np.array([group.first_order for group in groups]) / counts[:, None]
    covariances = (
        np.array([group.second_order for group in groups])
        / counts[:, None, None]
        - means[:, :, None] * means[:, None, :]
    )
    # (A + Aᵀ) / 2 is exactly symmetric, so one pass suffices: a
    # second would change no bit.
    return (covariances + covariances.swapaxes(1, 2)) / 2.0


def stacked_eigen_systems(groups):
    """Axis systems of several groups from one stacked decomposition.

    Group ``i`` gets exactly the bytes a decomposition of its covariance
    alone would give: the covariances come from
    :func:`stacked_covariances`, and NumPy's ``eigh`` runs LAPACK once
    per matrix of a stack.

    Parameters
    ----------
    groups:
        Non-empty sequence of non-empty groups of one dimensionality
        ``d``.

    Returns
    -------
    eigenvalues : numpy.ndarray, shape (m, d)
        Row ``i`` holds group ``i``'s variances along its eigenvectors,
        decreasing and clipped to be non-negative (see
        :meth:`GroupStatistics.eigen_system`).
    eigenvectors : numpy.ndarray, shape (m, d, d)
        ``eigenvectors[i]`` holds group ``i``'s eigenvectors as columns,
        in the order of ``eigenvalues[i]``.

    Raises
    ------
    ValueError
        If a group is empty.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(stacked_covariances(groups))
    order = np.argsort(eigenvalues, axis=1)[:, ::-1]
    rows = np.arange(order.shape[0])[:, None]
    # Columns gathered as rows and swapped back, so every
    # eigenvectors[i] is column-major like a per-matrix
    # ``vectors[:, order]``: BLAS products downstream can round
    # differently on the other layout.
    eigenvectors = eigenvectors.swapaxes(1, 2)[rows, order].swapaxes(1, 2)
    return np.clip(eigenvalues[rows, order], 0.0, None), eigenvectors


@dataclass
class CondensedModel:
    """The full output of condensation: the set ``H`` of group statistics.

    This is what the paper's server retains — aggregate statistics only,
    never records.  The model knows how to report privacy levels and to
    expose centroids for routing and generation.

    Attributes
    ----------
    groups:
        The condensed groups.
    k:
        The indistinguishability level the model was built with.
    """

    groups: list[GroupStatistics]
    k: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not self.groups:
            raise ValueError("a condensed model needs at least one group")
        dims = {group.n_features for group in self.groups}
        if len(dims) != 1:
            raise ValueError(
                f"groups disagree on dimensionality: {sorted(dims)}"
            )

    @property
    def n_features(self) -> int:
        """Dimensionality of the condensed records."""
        return self.groups[0].n_features

    @property
    def n_groups(self) -> int:
        """Number of condensed groups."""
        return len(self.groups)

    @property
    def total_count(self) -> int:
        """Total number of condensed records across groups."""
        return sum(group.count for group in self.groups)

    @property
    def group_sizes(self) -> np.ndarray:
        """Per-group record counts."""
        return np.array([group.count for group in self.groups])

    @property
    def average_group_size(self) -> float:
        """Mean group size — the paper's sweep variable (X axis)."""
        return float(self.group_sizes.mean())

    @property
    def minimum_group_size(self) -> int:
        """The achieved indistinguishability level."""
        return int(self.group_sizes.min())

    def centroids(self) -> np.ndarray:
        """Stacked group centroids, shape ``(n_groups, d)``."""
        return np.vstack([group.centroid for group in self.groups])

    def to_dict(self) -> dict:
        """Plain-python representation for persistence."""
        return {
            "k": self.k,
            "metadata": dict(self.metadata),
            "groups": [group.to_dict() for group in self.groups],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CondensedModel":
        """Inverse of :meth:`to_dict`."""
        return cls(
            groups=[
                GroupStatistics.from_dict(entry)
                for entry in payload["groups"]
            ],
            k=int(payload["k"]),
            metadata=dict(payload.get("metadata", {})),
        )

    def __repr__(self) -> str:
        return (
            f"CondensedModel(n_groups={self.n_groups}, k={self.k}, "
            f"total_count={self.total_count})"
        )
