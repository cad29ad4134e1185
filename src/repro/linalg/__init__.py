"""Low-level linear-algebra and numerical substrates.

This package provides the numerical building blocks the condensation
algorithms rest on:

* :mod:`repro.linalg.rng` — uniform handling of seeds and generators so
  every stochastic step in the library is reproducible.
* :mod:`repro.linalg.symmetric` — symmetric/PSD eigendecomposition helpers
  used to derive the per-group orthonormal axis systems of the paper.
* :mod:`repro.linalg.accumulators` — streaming moment accumulators: the
  raw-sum accumulator mandated by the paper (first-order sums ``Fs`` and
  second-order sums ``Sc``) and a numerically robust Welford accumulator
  used as a cross-check in tests.
"""

from repro.linalg.accumulators import MomentAccumulator, WelfordAccumulator
from repro.linalg.rng import (
    check_random_state,
    derive_seed,
    restore_rng_state,
    rng_from_seed_sequence,
    rng_from_state,
    rng_state,
    spawn_rngs,
    spawn_seed_sequences,
)
from repro.linalg.symmetric import (
    covariance_from_sums,
    is_positive_semidefinite,
    nearest_psd,
    sorted_eigh,
    symmetrize,
)

__all__ = [
    "MomentAccumulator",
    "WelfordAccumulator",
    "check_random_state",
    "derive_seed",
    "restore_rng_state",
    "rng_from_seed_sequence",
    "rng_from_state",
    "rng_state",
    "spawn_rngs",
    "spawn_seed_sequences",
    "covariance_from_sums",
    "is_positive_semidefinite",
    "nearest_psd",
    "sorted_eigh",
    "symmetrize",
]
