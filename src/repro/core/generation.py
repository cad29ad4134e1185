"""Anonymized-data generation from condensed groups (§2.1 of the paper).

For a group with statistics ``(Fs, Sc, n)``:

1. Form the covariance matrix ``C`` (Observation 2) and decompose it as
   ``C = P Λ Pᵀ`` (Equation 1) — ``P``'s columns are an orthonormal axis
   system along which second-order correlations vanish.
2. Draw ``n`` points whose coordinates along each eigenvector are
   *independently and uniformly* distributed with variance equal to the
   corresponding eigenvalue: a uniform over a range ``a`` has variance
   ``a² / 12``, so the range is ``a = sqrt(12 λ)``.
3. Shift by the group centroid.

The uniform choice is the paper's locally-flat approximation.  The module
also provides a Gaussian sampler (same first two moments, different shape
assumption) as an ablation, and accepts arbitrary callables for custom
per-axis distributions.
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.core.statistics import (
    CondensedModel,
    GroupStatistics,
    stacked_eigen_systems,
)
from repro.linalg.rng import check_random_state
from repro.telemetry import DEFAULT_SIZE_BUCKETS

#: Groups whose eigen-systems :func:`generate_anonymized_data` computes
#: in one stacked ``eigh`` call; bounds the stack's memory.
_GENERATION_BLOCK = 256


def _uniform_axis_sampler(rng, eigenvalues: np.ndarray, size: int):
    """Unit-variance-λ uniform coordinates, shape ``(size, d)``."""
    half_range = np.sqrt(12.0 * eigenvalues) / 2.0
    return rng.uniform(-1.0, 1.0, size=(size, eigenvalues.shape[0])) * (
        half_range[None, :]
    )


def _gaussian_axis_sampler(rng, eigenvalues: np.ndarray, size: int):
    """Gaussian coordinates with per-axis variance λ."""
    stddev = np.sqrt(eigenvalues)
    return rng.standard_normal((size, eigenvalues.shape[0])) * stddev[None, :]


_SAMPLERS = {
    "uniform": _uniform_axis_sampler,
    "gaussian": _gaussian_axis_sampler,
}


def resolve_sampler(sampler):
    """Normalize a sampler name or callable into a callable.

    A sampler callable has signature ``(rng, eigenvalues, size)`` and
    returns coordinates in the eigen-basis, shape ``(size, d)``, with
    per-axis variance equal to the given eigenvalues.

    Parameters
    ----------
    sampler:
        ``"uniform"``, ``"gaussian"``, or a callable with the signature
        above (returned unchanged).

    Returns
    -------
    callable
        The resolved sampler.

    Raises
    ------
    ValueError
        If ``sampler`` is an unknown name.
    TypeError
        If ``sampler`` is neither a string nor callable.
    """
    if isinstance(sampler, str):
        try:
            return _SAMPLERS[sampler]
        except KeyError:
            raise ValueError(
                f"unknown sampler {sampler!r}; "
                f"expected one of {sorted(_SAMPLERS)}"
            ) from None
    if callable(sampler):
        return sampler
    raise TypeError(
        f"sampler must be a known name or callable, "
        f"got {type(sampler).__name__}"
    )


def generate_group_records(
    group: GroupStatistics,
    size: int | None = None,
    sampler="uniform",
    random_state=None,
) -> np.ndarray:
    """Draw anonymized records from one group's statistics.

    Parameters
    ----------
    group:
        The condensed group.
    size:
        Number of records to draw; defaults to ``n(G)`` so the anonymized
        data set has the same size as the original.
    sampler:
        ``"uniform"`` (paper), ``"gaussian"``, or a custom callable — see
        :func:`resolve_sampler`.
    random_state:
        Seed or generator.

    Returns
    -------
    numpy.ndarray, shape (size, d)
    """
    if size is None:
        size = group.count
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    rng = check_random_state(random_state)
    return _draw_block([group], [size], sampler, rng)[0]


def _draw_block(groups, sizes, sampler, rng) -> list:
    """Draw ``sizes[i]`` records from each of ``groups``, in order.

    The eigen-systems of the whole block come from one stacked
    decomposition; the sampler is then called once per group, so the
    random stream is consumed exactly as by one-group-at-a-time draws.
    """
    sampler = resolve_sampler(sampler)
    tick = time.perf_counter()
    eigenvalues, eigenvectors = stacked_eigen_systems(groups)
    telemetry.histogram_observe(
        "generation.eigen_seconds", time.perf_counter() - tick
    )
    parts = []
    for group, size, values, vectors in zip(
        groups, sizes, eigenvalues, eigenvectors
    ):
        tick = time.perf_counter()
        coordinates = sampler(rng, values, size)
        telemetry.histogram_observe(
            "generation.draw_seconds", time.perf_counter() - tick
        )
        telemetry.counter_inc("generation.records", size)
        coordinates = np.asarray(coordinates, dtype=float)
        if coordinates.shape != (size, group.n_features):
            raise ValueError(
                "sampler returned wrong shape: expected "
                f"{(size, group.n_features)}, got {coordinates.shape}"
            )
        parts.append(group.centroid[None, :] + coordinates @ vectors.T)
    return parts


def generate_anonymized_data(
    model: CondensedModel,
    sampler="uniform",
    random_state=None,
    sizes=None,
) -> np.ndarray:
    """Draw a full anonymized data set from a condensed model.

    Each group contributes records independently; by default every group
    contributes exactly ``n(G)`` records so the output matches the input
    cardinality.

    Parameters
    ----------
    model:
        Condensed model to generate from.
    sampler:
        Per-axis distribution, as in :func:`generate_group_records`.
    random_state:
        Seed or generator.
    sizes:
        Optional per-group record counts (sequence aligned with
        ``model.groups``) to over- or under-sample specific groups.

    Returns
    -------
    numpy.ndarray, shape (sum(sizes), d)
    """
    rng = check_random_state(random_state)
    if sizes is None:
        sizes = [group.count for group in model.groups]
    elif len(sizes) != model.n_groups:
        raise ValueError(
            f"sizes must have one entry per group ({model.n_groups}), "
            f"got {len(sizes)}"
        )
    with telemetry.span("generation.generate") as generate_span:
        generate_span.set_attribute("n_groups", model.n_groups)
        generate_span.set_attribute("n_records", int(sum(sizes)))
        for size in sizes:
            telemetry.histogram_observe(
                "generation.group_size", size,
                buckets=DEFAULT_SIZE_BUCKETS,
            )
        drawn = [
            (group, size)
            for group, size in zip(model.groups, sizes) if size > 0
        ]
        parts = []
        for start in range(0, len(drawn), _GENERATION_BLOCK):
            groups, block_sizes = zip(
                *drawn[start:start + _GENERATION_BLOCK]
            )
            parts += _draw_block(groups, block_sizes, sampler, rng)
        if not parts:
            return np.empty((0, model.n_features))
        return np.vstack(parts)
