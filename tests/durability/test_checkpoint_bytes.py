"""Shard checkpoint and router document bytes, pinned.

A fixed-seed serial ``condense_sharded`` run with a checkpoint
directory leaves one CRC-framed checkpoint per shard, and a fixed-seed
durable :class:`~repro.serve.ShardedCondensationService` bootstrap
publishes ``router.json``.  The SHA-256 of one shard file and of the
router document must equal the digests release 1.17.0 recorded for
the same runs.
"""

import hashlib

import numpy as np

from repro.durability import ShardCheckpointStore, shard_fingerprint
from repro.parallel import condense_sharded
from repro.serve import ShardedCondensationService

SHARD_SHA256 = (
    "dbbe5b3788b09c3479fd310d0495deaa14b34385a16d01485ab4186fc3564d91"
)
ROUTER_SHA256 = (
    "1a89f6953ac8b4ec0e3f0b102c0dbe6a8f27ea7675f27f5f93fcae02ff431859"
)


def sha256(path):
    """Hex SHA-256 of one file's bytes."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_shard_checkpoint_bytes(tmp_path):
    data = np.random.default_rng(2917).normal(size=(240, 3))
    condense_sharded(data, 5, random_state=13, n_shards=2, n_workers=1,
                     checkpoint_dir=tmp_path)
    (store_dir,) = tmp_path.iterdir()
    names = sorted(path.name for path in store_dir.iterdir())
    assert names == ["shard-00000.json", "shard-00001.json"]
    assert sha256(store_dir / "shard-00000.json") == SHARD_SHA256


def test_non_utf8_byte_in_a_shard_checkpoint_reads_as_absent(tmp_path):
    data = np.random.default_rng(2917).normal(size=(240, 3))
    condense_sharded(data, 5, random_state=13, n_shards=2, n_workers=1,
                     checkpoint_dir=tmp_path)
    (store_dir,) = tmp_path.iterdir()
    store = ShardCheckpointStore(
        tmp_path, shard_fingerprint(data, 5, "random", 2, 13)
    )
    assert store.load(0) is not None
    path = store_dir / "shard-00000.json"
    document = bytearray(path.read_bytes())
    document[len(document) // 2] = 0xFF
    path.write_bytes(bytes(document))
    assert store.load(0) is None


def test_router_document_bytes(tmp_path):
    service = ShardedCondensationService(
        n_shards=3, k=4, root=tmp_path, bootstrap_size=30, random_state=7,
    )
    service.ingest(np.random.default_rng(0).normal(size=(40, 3)))
    service.close()
    assert not list(tmp_path.glob("*.tmp"))
    assert sha256(tmp_path / "router.json") == ROUTER_SHA256
