"""Ingest throughput — vectorized batch blocks versus sequential adds.

Times ``DynamicGroupMaintainer.add_stream`` (record-at-a-time routing)
against ``ingest_many`` (one distance matrix per block, batched
absorbs) on the same stream at a *fixed utility contract*: both paths
must conserve moment mass exactly and keep every group inside the
``[k, 2k)`` privacy band, so the comparison is between runs producing
equivalent models.  Records-per-second series for the 10k and 100k
streams are dumped to ``BENCH_ingest.json`` at the repo root for CI
artifact upload.

The ratchet: the batch path must ingest the 100k stream at least
**5x** faster than the sequential path (CI floor; local runs land far
higher).  A regression in the blocked distance computation, the
re-dispatch loop, or the centroid index shows up here before it shows
up for users.

A durable series streams the 10k records through a
``DynamicCondenser(wal_dir=..., batch_size=256)`` and records the WAL
bytes and the entry-encoding time per record.  Its ratchet: at most
**800** WAL bytes per record, a figure fixed by the seed, so a change
to the journaled group encoding shows up exactly.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.core.condenser import DynamicCondenser
from repro.core.dynamic import DynamicGroupMaintainer
from repro.durability import wal

RESULTS_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_ingest.json"
)

K = 50
N_DIMENSIONS = 8
BATCH_SIZE = 4096
SCALES = (10_000, 100_000)
MIN_SPEEDUP_AT_100K = 5.0
DURABLE_RECORDS = 10_000
DURABLE_BATCH_SIZE = 256
MAX_WAL_BYTES_PER_RECORD = 800


def make_stream(n):
    rng = np.random.default_rng(20140331)
    base = rng.normal(size=(8 * K, N_DIMENSIONS))
    stream = rng.normal(size=(n, N_DIMENSIONS))
    return base, stream


def check_utility(base, stream, maintainer):
    """The fixed utility contract both ingest paths must meet."""
    sizes = maintainer.group_sizes()
    assert (sizes >= K).all() and (sizes < 2 * K).all()
    everything = np.vstack([base, stream])
    total_first = sum(group.first_order for group in maintainer._groups)
    scale = np.abs(everything).sum() + 1.0
    assert np.abs(
        total_first - everything.sum(axis=0)
    ).max() <= 1e-9 * scale


def timed_ingest(base, stream, batch_size, rounds):
    """Best-of-``rounds`` ingest wall-clock and the last maintainer."""
    best = float("inf")
    maintainer = None
    for __ in range(rounds):
        maintainer = DynamicGroupMaintainer(
            K, initial_data=base, random_state=0
        )
        start = time.perf_counter()
        if batch_size == 1:
            maintainer.add_stream(stream)
        else:
            maintainer.ingest_many(stream, batch_size=batch_size)
        best = min(best, time.perf_counter() - start)
    return best, maintainer


def write_results(**fields):
    """Merge ``fields`` into ``BENCH_ingest.json``, keeping other series."""
    results = (
        json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists()
        else {}
    )
    results.update(fields, schema_version=1)
    RESULTS_PATH.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n"
    )


def wal_segments(directory):
    """WAL segment files of a durability directory, in log order."""
    return sorted(Path(directory).glob("wal-*.log"))


def test_batch_vs_sequential_ingest_throughput():
    scales = []
    for n in SCALES:
        base, stream = make_stream(n)
        # The sequential path is the expensive side (it is the thing
        # being beaten); one round at the large scale keeps the bench
        # runnable while the batch side still takes best-of-2.
        sequential_rounds = 2 if n <= 10_000 else 1
        sequential_seconds, sequential = timed_ingest(
            base, stream, 1, sequential_rounds
        )
        check_utility(base, stream, sequential)
        batch_seconds, batched = timed_ingest(
            base, stream, BATCH_SIZE, 2
        )
        check_utility(base, stream, batched)
        speedup = sequential_seconds / batch_seconds
        scales.append({
            "n_records": n,
            "sequential": {
                "seconds": sequential_seconds,
                "records_per_second": n / sequential_seconds,
                "n_groups": sequential.n_groups,
            },
            "batch": {
                "seconds": batch_seconds,
                "records_per_second": n / batch_seconds,
                "n_groups": batched.n_groups,
            },
            "speedup": speedup,
        })
        if n == 100_000:
            assert speedup >= MIN_SPEEDUP_AT_100K, (
                f"batch ingest regressed: {speedup:.1f}x < "
                f"{MIN_SPEEDUP_AT_100K}x at 100k records"
            )

    write_results(
        k=K, n_dimensions=N_DIMENSIONS, batch_size=BATCH_SIZE,
        min_speedup_at_100k=MIN_SPEEDUP_AT_100K, scales=scales,
    )
    print("\nwrote " + RESULTS_PATH.name + ": " + ", ".join(
        f"{entry['n_records']} records "
        f"seq {entry['sequential']['records_per_second']:.0f}/s "
        f"batch {entry['batch']['records_per_second']:.0f}/s "
        f"({entry['speedup']:.1f}x)"
        for entry in scales
    ))


def test_durable_ingest_wal_bytes(tmp_path, monkeypatch):
    base, stream = make_stream(DURABLE_RECORDS)
    encode_entry = wal.encode_entry
    encode_seconds = []

    def timed_encode(entry):
        start = time.perf_counter()
        line = encode_entry(entry)
        encode_seconds.append(time.perf_counter() - start)
        return line

    monkeypatch.setattr(wal, "encode_entry", timed_encode)
    condenser = DynamicCondenser(
        K, random_state=0, wal_dir=tmp_path,
        batch_size=DURABLE_BATCH_SIZE,
    )
    condenser.fit(base)
    bootstrap_bytes = sum(
        path.stat().st_size for path in wal_segments(tmp_path)
    )
    encode_seconds.clear()
    start = time.perf_counter()
    condenser.partial_fit(stream)
    seconds = time.perf_counter() - start
    condenser.close()
    check_utility(base, stream, condenser._maintainer)
    wal_bytes = sum(
        path.stat().st_size for path in wal_segments(tmp_path)
    ) - bootstrap_bytes
    durable = {
        "n_records": DURABLE_RECORDS,
        "batch_size": DURABLE_BATCH_SIZE,
        "n_entries": len(encode_seconds),
        "wal_bytes_per_record": wal_bytes / DURABLE_RECORDS,
        "encode_us_per_record": 1e6 * sum(encode_seconds)
        / DURABLE_RECORDS,
        "records_per_second": DURABLE_RECORDS / seconds,
        "max_wal_bytes_per_record": MAX_WAL_BYTES_PER_RECORD,
    }
    assert durable["wal_bytes_per_record"] <= MAX_WAL_BYTES_PER_RECORD, (
        f"WAL grew to {durable['wal_bytes_per_record']:.0f} B/record > "
        f"{MAX_WAL_BYTES_PER_RECORD}"
    )
    write_results(durable=durable)
    print(
        f"\nwrote {RESULTS_PATH.name}: durable "
        f"{durable['wal_bytes_per_record']:.0f} WAL B/record, encode "
        f"{durable['encode_us_per_record']:.2f} us/record"
    )
