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
#: in one stacked ``eigh`` call and whose records it draws in one
#: sampler call; bounds the block's memory.
_GENERATION_BLOCK = 256


def _uniform_block_sampler(rng, eigenvalues: np.ndarray, sizes):
    """Uniform coordinates with per-axis variance λ for a block of groups.

    ``eigenvalues`` has one row per group, shape ``(g, d)``; group ``i``
    gets ``sizes[i]`` consecutive rows of the ``(sum(sizes), d)``
    result.  A uniform over a range ``a`` has variance ``a² / 12``, so
    each row is scaled by its group's half range ``sqrt(12 λ) / 2``.
    """
    half_range = np.sqrt(12.0 * eigenvalues) / 2.0
    coordinates = rng.uniform(
        -1.0, 1.0, size=(int(np.sum(sizes)), eigenvalues.shape[1])
    )
    coordinates *= np.repeat(half_range, sizes, axis=0)
    return coordinates


def _gaussian_block_sampler(rng, eigenvalues: np.ndarray, sizes):
    """Gaussian coordinates with per-axis variance λ for a block of groups."""
    stddev = np.sqrt(eigenvalues)
    coordinates = rng.standard_normal(
        (int(np.sum(sizes)), eigenvalues.shape[1])
    )
    coordinates *= np.repeat(stddev, sizes, axis=0)
    return coordinates


def _one_group(block_sampler):
    """The per-group sampler that is ``block_sampler`` on a block of one."""
    def sampler(rng, eigenvalues: np.ndarray, size: int):
        return block_sampler(rng, eigenvalues[None, :], [size])
    return sampler


_BLOCK_SAMPLERS = {
    "uniform": _uniform_block_sampler,
    "gaussian": _gaussian_block_sampler,
}

_SAMPLERS = {
    name: _one_group(block_sampler)
    for name, block_sampler in _BLOCK_SAMPLERS.items()
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


def _block_sampler(sampler):
    """Resolve ``sampler`` into a block sampler.

    A block sampler has signature ``(rng, eigenvalues, sizes)``, takes
    one eigenvalue row per group and returns the ``(sum(sizes), d)``
    coordinates of the whole block, group after group.  A built-in
    sampler draws the block in one call; a custom callable is called
    once per group, in order, with that group's ``(eigenvalues, size)``.
    """
    sampler = resolve_sampler(sampler)
    for name, one_group in _SAMPLERS.items():
        if sampler is one_group:
            return _BLOCK_SAMPLERS[name]

    def per_group(rng, eigenvalues, sizes):
        parts = []
        for values, size in zip(eigenvalues, sizes):
            coordinates = np.asarray(sampler(rng, values, size), dtype=float)
            if coordinates.shape != (size, values.shape[0]):
                raise ValueError(
                    "sampler returned wrong shape: expected "
                    f"{(size, values.shape[0])}, got {coordinates.shape}"
                )
            parts.append(coordinates)
        return np.concatenate(parts)

    return per_group


def _check_size(size, name: str) -> int:
    """``size`` as an ``int``, if it is a non-negative integer.

    Raises
    ------
    ValueError
        Naming ``name``, if it is not; a ``bool`` is not a count.
    """
    if (
        isinstance(size, bool)
        or not isinstance(size, (int, np.integer))
        or size < 0
    ):
        raise ValueError(
            f"{name} must be a non-negative integer, got {size!r}"
        )
    return int(size)


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

    Raises
    ------
    ValueError
        If ``size`` is not a non-negative integer, or the group is
        empty.
    """
    if size is None:
        size = group.count
    size = _check_size(size, "size")
    rng = check_random_state(random_state)
    out = np.empty((size, group.n_features))
    _draw_block([group], [size], _block_sampler(sampler), rng, out)
    return out


def _draw_block(groups, sizes, block_sampler, rng, out) -> None:
    """Draw ``sizes[i]`` records from each of ``groups`` into ``out``.

    ``out`` has ``sum(sizes)`` rows, filled group after group.  The
    block costs a fixed number of NumPy calls: one stacked
    decomposition, one sampler draw (the random stream is contiguous
    across calls, so it is consumed exactly as by one-group-at-a-time
    draws), and one stacked product per distinct draw size.  Each slice
    of that product multiplies C-contiguous coordinates by the
    C-contiguous transpose of the column-major eigenvectors, so NumPy
    runs the same gemm per slice as a one-group product would.
    """
    tick = time.perf_counter()
    eigenvalues, eigenvectors = stacked_eigen_systems(groups)
    telemetry.histogram_observe(
        "generation.eigen_seconds", time.perf_counter() - tick
    )
    sizes = np.asarray(sizes, dtype=np.intp)
    tick = time.perf_counter()
    coordinates = block_sampler(rng, eigenvalues, sizes)
    telemetry.histogram_observe(
        "generation.draw_seconds", time.perf_counter() - tick
    )
    telemetry.counter_inc("generation.records", int(sizes.sum()))
    counts = np.array([group.count for group in groups], dtype=float)
    centroids = (
        np.array([group.first_order for group in groups]) / counts[:, None]
    )
    transposed = eigenvectors.swapaxes(1, 2)
    starts = np.cumsum(sizes) - sizes
    for size in sorted(set(sizes.tolist())):
        members = np.flatnonzero(sizes == size)
        rows = starts[members, None] + np.arange(size)
        out[rows] = centroids[members, None, :] + np.matmul(
            coordinates[rows], transposed[members]
        )


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

    Raises
    ------
    ValueError
        If ``sizes`` does not have one entry per group, or an entry is
        not a non-negative integer (checked before any draw).
    """
    rng = check_random_state(random_state)
    if sizes is None:
        sizes = [group.count for group in model.groups]
    elif len(sizes) != model.n_groups:
        raise ValueError(
            f"sizes must have one entry per group ({model.n_groups}), "
            f"got {len(sizes)}"
        )
    else:
        sizes = [
            _check_size(size, f"sizes[{index}]")
            for index, size in enumerate(sizes)
        ]
    block_sampler = _block_sampler(sampler)
    out = np.empty((sum(sizes), model.n_features))
    with telemetry.span("generation.generate") as generate_span:
        generate_span.set_attribute("n_groups", model.n_groups)
        generate_span.set_attribute("n_records", out.shape[0])
        for size in sizes:
            telemetry.histogram_observe(
                "generation.group_size", size,
                buckets=DEFAULT_SIZE_BUCKETS,
            )
        drawn = [
            (group, size)
            for group, size in zip(model.groups, sizes) if size > 0
        ]
        row = 0
        for start in range(0, len(drawn), _GENERATION_BLOCK):
            groups, block_sizes = zip(
                *drawn[start:start + _GENERATION_BLOCK]
            )
            end = row + sum(block_sizes)
            _draw_block(groups, block_sizes, block_sampler, rng, out[row:end])
            row = end
        return out
