"""The durable sliding window's on-disk bytes, pinned.

A fixed-seed :class:`~repro.stream.windowed.SlidingWindowCondenser`
runs through warm-up (one ``bootstrap`` entry), the fill phase, the
steady state (every push expires a record, with merges), ``generate``
(an ``rng`` entry), an explicit checkpoint and a cadence checkpoint.
The SHA-256 of every WAL segment and snapshot it leaves must equal
the digests release 1.16.0 recorded for the same run.
"""

import hashlib
from pathlib import Path

import numpy as np

from repro.stream.windowed import SlidingWindowCondenser

K = 3
WINDOW = 15

EXPECTED = {
    "snapshot-000000000064.json":
        "20aa2ca9417a919660b4068b5879bef5b4abafbcbdcd3fcd6953fc1dce99d110",
    "snapshot-000000000096.json":
        "bf4c9447957bd5124e4664de9e9bd8bf3fabd79aa8958ec39e4dae8adb5f38d7",
    "wal-000000.log":
        "a012e82c84b03bb210a069ff3d59846bba7edcfc263337062003413294f7dd20",
}


def window_run(wal_dir):
    """Warm-up, fill, steady state, generate and checkpoints."""
    rng = np.random.default_rng(4021)
    stream = rng.normal(size=(160, 3)) * np.array([1.0, 3.0, 0.5])
    condenser = SlidingWindowCondenser(
        K, WINDOW, random_state=11, wal_dir=wal_dir, checkpoint_every=64,
    )
    condenser.push_stream(stream[:2 * K])
    assert condenser.is_warm
    condenser.push_stream(stream[2 * K:WINDOW])
    condenser.push_stream(stream[WINDOW:100])
    condenser.generate()
    condenser.checkpoint()
    condenser.push_stream(stream[100:])
    condenser.generate()
    maintainer = condenser._maintainer
    assert maintainer.n_merges > 0 and maintainer.n_splits > 0
    condenser.close()
    return condenser


def digests(directory):
    """SHA-256 of each WAL segment and snapshot, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(directory).iterdir())
        if path.suffix in (".log", ".json")
    }


def test_window_directory_bytes_are_pinned(tmp_path):
    window_run(tmp_path / "wal")
    assert digests(tmp_path / "wal") == EXPECTED
