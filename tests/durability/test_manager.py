"""Unit tests for the WAL + checkpoint coordination protocol."""

import pytest

from repro.durability import (
    DurabilityManager,
    latest_snapshot,
    list_snapshots,
    list_segments,
    write_snapshot,
)


class TestValidation:
    def test_rejects_negative_cadence(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            DurabilityManager(tmp_path, checkpoint_every=-1)

    def test_rejects_zero_keep(self, tmp_path):
        with pytest.raises(ValueError, match="keep_snapshots"):
            DurabilityManager(tmp_path, keep_snapshots=0)

    def test_bind_requires_callable(self, tmp_path):
        with DurabilityManager(tmp_path) as manager:
            with pytest.raises(TypeError):
                manager.bind("not callable")

    def test_checkpoint_requires_provider(self, tmp_path):
        with DurabilityManager(tmp_path) as manager:
            with pytest.raises(RuntimeError, match="state provider"):
                manager.checkpoint()


class TestCheckpointing:
    def test_auto_checkpoint_on_cadence(self, tmp_path):
        with DurabilityManager(tmp_path, checkpoint_every=5) as manager:
            manager.bind(lambda: {"position": manager.wal.last_seq})
            for position in range(12):
                manager.append({"pos": position})
        snapshots = list_snapshots(tmp_path)
        assert len(snapshots) == 2  # seq 5 and 10, default keep=2
        info = latest_snapshot(tmp_path)
        assert info.seq == 10
        assert info.state == {"position": 10}

    def test_no_auto_checkpoint_without_provider(self, tmp_path):
        with DurabilityManager(tmp_path, checkpoint_every=2) as manager:
            for position in range(6):
                manager.append({"pos": position})
        assert list_snapshots(tmp_path) == []

    def test_snapshot_retention(self, tmp_path):
        with DurabilityManager(
            tmp_path, checkpoint_every=2, keep_snapshots=3
        ) as manager:
            manager.bind(lambda: {"position": 0})
            for position in range(20):
                manager.append({"pos": position})
        assert len(list_snapshots(tmp_path)) == 3

    def test_wal_pruned_only_to_oldest_snapshot(self, tmp_path):
        with DurabilityManager(
            tmp_path, checkpoint_every=4, keep_snapshots=2,
            max_segment_bytes=80,
        ) as manager:
            manager.bind(lambda: {"position": 0})
            for position in range(16):
                manager.append({"pos": position, "pad": "p" * 20})
            # The oldest retained snapshot covers seq 12; its tail
            # (entries 13..16) must still be replayable so recovery can
            # fall back past a torn newest snapshot.
            replayed = list(manager.wal.replay(after_seq=12))
            assert [seq for seq, __ in replayed] == [13, 14, 15, 16]


class TestRotation:
    def test_checkpoint_right_after_rotation_keeps_the_log(self, tmp_path):
        # Every entry outgrows a 10-byte segment, so each append rotates
        # and the checkpoint lands before the next segment exists.
        settings = dict(max_segment_bytes=10, keep_snapshots=1)
        with DurabilityManager(tmp_path, **settings) as manager:
            manager.bind(lambda: {"position": manager.wal.last_seq})
            for position in range(3):
                manager.append({"pos": position})
            manager.checkpoint()
        assert [path.name for path in list_segments(tmp_path)] == [
            "wal-000002.log"
        ]
        with DurabilityManager(tmp_path, **settings) as manager:
            assert manager.wal.last_seq == 3
            assert manager.append({"pos": 3}) == 4
        with DurabilityManager(tmp_path) as manager:
            recovered = manager.recover()
        assert recovered.snapshot_state == {"position": 3}
        assert [seq for seq, __ in recovered.entries] == [4]

    def test_snapshot_only_directory_numbers_after_the_snapshot(
        self, tmp_path
    ):
        write_snapshot(tmp_path, {"position": 3}, seq=3)
        with DurabilityManager(tmp_path) as manager:
            assert manager.wal.last_seq == 3
            assert manager.append({"pos": 3}) == 4
        with DurabilityManager(tmp_path) as manager:
            recovered = manager.recover()
        assert recovered.snapshot_state == {"position": 3}
        assert [seq for seq, __ in recovered.entries] == [4]
        assert recovered.last_seq == 4


class TestRecover:
    def test_empty_directory(self, tmp_path):
        with DurabilityManager(tmp_path) as manager:
            recovered = manager.recover()
        assert recovered.is_empty
        assert recovered.snapshot_state is None
        assert recovered.entries == []
        assert recovered.last_seq == 0

    def test_snapshot_plus_tail(self, tmp_path):
        with DurabilityManager(tmp_path, checkpoint_every=3) as manager:
            manager.bind(lambda: {"position": manager.wal.last_seq})
            for position in range(8):
                manager.append({"pos": position})
        with DurabilityManager(tmp_path) as manager:
            recovered = manager.recover()
        assert recovered.snapshot_state == {"position": 6}
        assert [seq for seq, __ in recovered.entries] == [7, 8]
        assert recovered.last_seq == 8

    def test_wal_only(self, tmp_path):
        with DurabilityManager(tmp_path) as manager:
            for position in range(4):
                manager.append({"pos": position})
        with DurabilityManager(tmp_path) as manager:
            recovered = manager.recover()
        assert recovered.snapshot_state is None
        assert len(recovered.entries) == 4

    def test_falls_back_past_torn_snapshot(self, tmp_path):
        with DurabilityManager(tmp_path, checkpoint_every=3) as manager:
            manager.bind(lambda: {"position": manager.wal.last_seq})
            for position in range(8):
                manager.append({"pos": position})
        newest = list_snapshots(tmp_path)[-1]
        newest.write_text(newest.read_text()[:11])
        with DurabilityManager(tmp_path) as manager:
            recovered = manager.recover()
        # Fallback anchor is the seq-3 snapshot; entries 4..8 replay.
        assert recovered.snapshot_state == {"position": 3}
        assert [seq for seq, __ in recovered.entries] == [4, 5, 6, 7, 8]
