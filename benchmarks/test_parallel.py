"""Ablation A15 — serial versus sharded condensation across scale tiers.

Times the serial ``create_condensed_groups`` against the sharded
engine on the same data at a *fixed utility contract*: both models
must conserve moment mass exactly and meet the privacy level, so the
timing comparison is between runs producing equivalent models — not a
fast path that quietly trades utility away.  Every sharded run also
records a model digest, and digests must agree between serial and
process-pool runs at fixed ``n_shards`` — the determinism contract,
re-checked at benchmark scale.

Tiers run at 4×10³, 2×10⁴ and 10⁵ records (set ``REPRO_BENCH_SCALE=
full`` for the 10⁶ tier); the series plus the measured serial/process
**crossover** is dumped to ``BENCH_parallel.json`` at the repo root
for CI artifact upload.  CI ratchets the top tier: the process pool
must beat serial by ≥ 2× there — the zero-copy payload plus warm-pool
design carries that margin even on a single-CPU runner, because
sharding shrinks the per-record group-distance scan
(``docs/performance.md`` walks through why).
"""

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.condensation import (
    condensation_information_loss,
    create_condensed_groups,
)
from repro.linalg.rng import check_random_state
from repro.parallel import condense_sharded

RESULTS_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_parallel.json"
)

N_DIMENSIONS = 8
K = 20

#: ``(n_records, rounds, shard_grid)`` per tier; larger tiers run
#: fewer rounds (their variance is lower) and coarser shard grids.
TIERS = [
    (4_000, 3, (2, 4)),
    (20_000, 2, (4, 8)),
    (100_000, 1, (8, 16)),
]

#: The 10⁶ tier only runs when explicitly requested — minutes, not
#: seconds.
FULL_SCALE = os.environ.get("REPRO_BENCH_SCALE") == "full"
if FULL_SCALE:
    TIERS.append((1_000_000, 1, (32,)))

#: Ratchet: at and above this tier the process pool must beat
#: serial by this factor.
RATCHET_RECORDS = 100_000
RATCHET_SPEEDUP = 2.0

#: ``(label, n_workers)`` sweep at each ``(tier, n_shards)`` point: one
#: worker runs the shards in-process, more run them on the process pool.
BACKEND_GRID = (("serial", 1), ("process", 2))


def make_data(n_records):
    return check_random_state(20140331).normal(
        size=(n_records, N_DIMENSIONS)
    )


def timed(callable_, rounds):
    """Best-of-``rounds`` wall-clock and the last result."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def model_digest(model):
    """SHA-256 over the ordered group statistics — the determinism
    contract's observable."""
    digest = hashlib.sha256()
    for group in model.groups:
        digest.update(str(group.count).encode())
        digest.update(group.first_order.tobytes())
        digest.update(group.second_order.tobytes())
    return digest.hexdigest()


def check_utility(data, model, k=K):
    """The fixed utility contract both engines must meet."""
    assert model.total_count == data.shape[0]
    assert min(group.count for group in model.groups) >= k
    total_first = sum(group.first_order for group in model.groups)
    scale = np.abs(data).sum() + 1.0
    assert np.abs(
        total_first - data.sum(axis=0)
    ).max() <= 1e-9 * scale
    return condensation_information_loss(data, model)


def measure_tier(n_records, rounds, shard_grid):
    """Serial baseline plus the worker-count sweep for one tier."""
    data = make_data(n_records)
    serial_seconds, serial_model = timed(
        lambda: create_condensed_groups(
            data, K, strategy="random", random_state=0
        ),
        rounds,
    )
    serial_loss = check_utility(data, serial_model)

    runs = []
    for n_shards in shard_grid:
        digests = set()
        for backend, n_workers in BACKEND_GRID:
            seconds, model = timed(
                lambda w=n_workers: condense_sharded(
                    data, K, strategy="random", random_state=0,
                    n_shards=n_shards, n_workers=w,
                ),
                rounds,
            )
            loss = check_utility(data, model)
            digests.add(model_digest(model))
            runs.append({
                "n_shards": n_shards,
                "n_workers": n_workers,
                "backend": backend,
                "effective_backend":
                    model.metadata["parallel"]["effective_backend"],
                "seconds": seconds,
                "speedup_vs_serial": serial_seconds / seconds,
                "information_loss": loss,
                "n_groups": model.n_groups,
                "n_merge_repairs":
                    model.metadata["parallel"]["n_merge_repairs"],
                "model_digest": model_digest(model),
            })
            # Fixed utility: sharding may cost a little locality but
            # must stay in the serial engine's information-loss regime.
            assert loss <= max(2.0 * serial_loss, serial_loss + 0.05)
        # Determinism at benchmark scale: every worker count produced
        # the bit-identical model for this shard count.
        assert len(digests) == 1, (
            f"worker-count-dependent result at n={n_records}, "
            f"n_shards={n_shards}: {sorted(digests)}"
        )
    return {
        "n_records": n_records,
        "n_dimensions": N_DIMENSIONS,
        "rounds": rounds,
        "serial": {
            "seconds": serial_seconds,
            "information_loss": serial_loss,
            "n_groups": serial_model.n_groups,
        },
        "sharded": runs,
    }


def best_process_seconds(tier):
    """Fastest process-pool wall-clock measured in a tier."""
    return min(
        run["seconds"] for run in tier["sharded"]
        if run["backend"] == "process"
        and run["effective_backend"] == "process"
    )


def measured_crossover(tiers):
    """Smallest tier from which the process pool always beats
    serial; ``None`` when it never does."""
    crossover = None
    for tier in tiers:
        if best_process_seconds(tier) < tier["serial"]["seconds"]:
            if crossover is None:
                crossover = tier["n_records"]
        else:
            crossover = None
    return crossover


def test_serial_vs_sharded_wall_clock():
    tiers = [
        measure_tier(n_records, rounds, shard_grid)
        for n_records, rounds, shard_grid in TIERS
    ]
    crossover = measured_crossover(tiers)

    RESULTS_PATH.write_text(json.dumps({
        "schema_version": 2,
        "k": K,
        "full_scale": FULL_SCALE,
        "crossover_records": crossover,
        "ratchet": {
            "records": RATCHET_RECORDS,
            "min_speedup": RATCHET_SPEEDUP,
        },
        "tiers": tiers,
    }, indent=2, sort_keys=True) + "\n")
    for tier in tiers:
        print(
            f"\nn={tier['n_records']}: serial "
            f"{tier['serial']['seconds']:.3f}s, " + ", ".join(
                f"{run['n_shards']}x{run['n_workers']}@{run['backend']}"
                f" {run['seconds']:.3f}s" for run in tier["sharded"]
            )
        )
    print(f"crossover: {crossover} records")

    # CI ratchet: above the crossover the warm process pool must hold
    # a real margin over serial, not a rounding error.
    for tier in tiers:
        if tier["n_records"] < RATCHET_RECORDS:
            continue
        speedup = tier["serial"]["seconds"] / best_process_seconds(tier)
        assert speedup >= RATCHET_SPEEDUP, (
            f"process pool speedup {speedup:.2f}x at "
            f"n={tier['n_records']} is under the {RATCHET_SPEEDUP}x "
            f"ratchet"
        )
    assert crossover is not None and crossover <= RATCHET_RECORDS
