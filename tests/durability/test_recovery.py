"""Recovery semantics: entry vocabulary, positions, RNG continuity."""

import numpy as np
import pytest

from repro.core.condenser import DynamicCondenser
from repro.durability import (
    DurabilityManager,
    RecoveredState,
    RecoveryError,
    rebuild_maintainer,
    recovered_position,
    recovered_window,
)
from repro.stream.windowed import SlidingWindowCondenser


def fingerprint(model):
    return [
        (group.count, group.first_order.tobytes(),
         group.second_order.tobytes())
        for group in model.groups
    ]


class TestRebuildErrors:
    def test_empty_recovery_raises(self):
        empty = RecoveredState(snapshot_state=None, entries=[], last_seq=0)
        with pytest.raises(RecoveryError, match="nothing to recover"):
            rebuild_maintainer(empty)

    def test_op_before_state_raises(self):
        orphan = RecoveredState(
            snapshot_state=None,
            entries=[(1, {"kind": "op", "pos": 1, "ops": []})],
            last_seq=1,
        )
        with pytest.raises(RecoveryError, match="before any"):
            rebuild_maintainer(orphan)

    def test_unknown_kind_raises(self):
        unknown = RecoveredState(
            snapshot_state=None,
            entries=[(1, {"kind": "telepathy", "pos": 1})],
            last_seq=1,
        )
        with pytest.raises(RecoveryError, match="unknown kind"):
            rebuild_maintainer(unknown)


class TestPositions:
    def test_position_from_snapshot_then_entries(self):
        recovered = RecoveredState(
            snapshot_state={"position": 40},
            entries=[(9, {"kind": "op", "pos": 41, "ops": []}),
                     (10, {"kind": "op", "pos": 42, "ops": []})],
            last_seq=10,
        )
        assert recovered_position(recovered) == 42

    def test_position_empty(self):
        empty = RecoveredState(snapshot_state=None, entries=[], last_seq=0)
        assert recovered_position(empty) == 0

    def test_window_from_snapshot(self):
        recovered = RecoveredState(
            snapshot_state={"position": 3, "window": 50},
            entries=[], last_seq=1,
        )
        assert recovered_window(recovered) == 50

    def test_window_from_bootstrap_entry(self):
        recovered = RecoveredState(
            snapshot_state=None,
            entries=[(1, {"kind": "bootstrap", "pos": 6, "state": {},
                          "window": 25})],
            last_seq=1,
        )
        assert recovered_window(recovered) == 25

    def test_window_absent_for_dynamic(self):
        recovered = RecoveredState(
            snapshot_state={"position": 3},
            entries=[(1, {"kind": "bootstrap", "pos": 0, "state": {}})],
            last_seq=1,
        )
        assert recovered_window(recovered) is None


class TestDynamicRoundtrip:
    def test_wal_only_recovery(self, tmp_path, rng):
        """No checkpoint ever taken: the WAL alone rebuilds the state."""
        data = rng.normal(size=(60, 4))
        condenser = DynamicCondenser(
            4, random_state=3, wal_dir=tmp_path, checkpoint_every=0,
        )
        condenser.fit(data)
        condenser.partial_fit(rng.normal(size=(50, 4)))
        recovered = DynamicCondenser.recover(tmp_path)
        assert recovered.position == condenser.position
        assert fingerprint(recovered.model_) == fingerprint(condenser.model_)

    def test_rng_position_survives_generate(self, tmp_path, rng):
        """Draws after recovery continue the original RNG sequence."""
        data = rng.normal(size=(80, 3))
        condenser = DynamicCondenser(
            5, random_state=21, wal_dir=tmp_path, checkpoint_every=10,
        )
        condenser.fit(data)
        first = condenser.generate()
        recovered = DynamicCondenser.recover(tmp_path)
        np.testing.assert_array_equal(condenser.generate(),
                                      recovered.generate())
        assert first.shape == (80, 3)

    def test_counters_survive_recovery(self, tmp_path, rng):
        condenser = DynamicCondenser(
            3, random_state=1, wal_dir=tmp_path, checkpoint_every=7,
        )
        condenser.fit(rng.normal(size=(30, 3)))
        condenser.partial_fit(rng.normal(size=(60, 3)))
        condenser.partial_remove(rng.normal(size=(10, 3)))
        recovered = DynamicCondenser.recover(tmp_path)
        ours, theirs = condenser._maintainer, recovered._maintainer
        assert (ours.n_splits, ours.n_merges, ours.n_absorbed) == (
            theirs.n_splits, theirs.n_merges, theirs.n_absorbed
        )

    def test_checkpoint_requires_durability(self, rng):
        condenser = DynamicCondenser(3, random_state=0)
        condenser.fit(rng.normal(size=(20, 3)))
        with pytest.raises(RuntimeError, match="wal_dir"):
            condenser.checkpoint()

    def test_explicit_checkpoint_prunes_wal(self, tmp_path, rng):
        condenser = DynamicCondenser(
            3, random_state=0, wal_dir=tmp_path, checkpoint_every=0,
        )
        condenser.fit(rng.normal(size=(30, 3)))
        condenser.partial_fit(rng.normal(size=(40, 3)))
        path = condenser.checkpoint()
        assert path.exists()
        recovered = DynamicCondenser.recover(tmp_path)
        assert fingerprint(recovered.model_) == fingerprint(condenser.model_)

    def test_checkpoint_right_after_rotation_keeps_later_writes(
        self, tmp_path, rng
    ):
        condenser = DynamicCondenser(3, random_state=0, wal_dir=tmp_path)
        condenser.fit(rng.normal(size=(30, 3)))
        # Every entry outgrows the segment, so each append rotates the
        # log and the checkpoint lands before the next segment exists.
        condenser._manager.wal.max_segment_bytes = 1
        condenser.partial_fit(rng.normal(size=(20, 3)))
        condenser.checkpoint()
        condenser.close()
        resumed = DynamicCondenser.recover(tmp_path)
        resumed.partial_fit(rng.normal(size=(25, 3)))
        resumed.close()
        recovered = DynamicCondenser.recover(tmp_path)
        recovered.close()
        assert recovered.position == resumed.position == 45
        assert fingerprint(recovered.model_) == fingerprint(resumed.model_)


class TestWindowedRoundtrip:
    def test_recover_requires_window_restore(self, tmp_path, rng):
        condenser = SlidingWindowCondenser(
            3, 20, random_state=2, wal_dir=tmp_path, checkpoint_every=9,
        )
        stream = rng.normal(size=(70, 3))
        for record in stream:
            condenser.push(record)
        recovered = SlidingWindowCondenser.recover(tmp_path)
        with pytest.raises(RuntimeError, match="restore_window"):
            recovered.push(stream[0])
        with pytest.raises(ValueError, match="expected the last"):
            recovered.restore_window(stream[:3])
        recovered.restore_window(stream[50:70])
        assert fingerprint(recovered.to_model()) == fingerprint(
            condenser.to_model()
        )

    def test_restore_window_only_after_recover(self, tmp_path, rng):
        condenser = SlidingWindowCondenser(3, 20, random_state=2)
        with pytest.raises(RuntimeError, match="already populated"):
            condenser.restore_window(rng.normal(size=(20, 3)))

    def test_dynamic_directory_rejected(self, tmp_path, rng):
        durable = DynamicCondenser(
            3, random_state=0, wal_dir=tmp_path, checkpoint_every=0,
        )
        durable.fit(rng.normal(size=(30, 3)))
        with pytest.raises(RecoveryError, match="window"):
            SlidingWindowCondenser.recover(tmp_path)

    def test_warmup_pushes_never_durable(self, tmp_path, rng):
        """Raw warm-up records leave nothing on disk to recover."""
        condenser = SlidingWindowCondenser(
            5, 20, random_state=2, wal_dir=tmp_path, checkpoint_every=3,
        )
        for record in rng.normal(size=(9, 3)):  # below 2k = 10: no boot
            condenser.push(record)
        assert condenser.position == 9
        assert not list(tmp_path.glob("snapshot-*"))
        recovered = DurabilityManager(tmp_path).recover()
        assert recovered.is_empty
