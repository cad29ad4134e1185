"""Read-only WAL inspection, dry-run replay, and disk-usage gauges."""

import pytest

from repro import telemetry
from repro.core.condenser import DynamicCondenser
from repro.durability import (
    DurabilityManager,
    WriteAheadLog,
    inspect_frames,
    list_segments,
    replay_directory,
)
from repro.stream.windowed import SlidingWindowCondenser


def write_log(directory, n=6, **kwargs):
    with WriteAheadLog(directory, **kwargs) as wal:
        for position in range(n):
            wal.append({"kind": "op", "pos": position})


def segment_bytes(directory):
    return {
        path.name: path.read_bytes() for path in list_segments(directory)
    }


class TestListSegments:
    def test_missing_directory_is_empty(self, tmp_path):
        assert list_segments(tmp_path / "absent") == []

    def test_segments_in_log_order(self, tmp_path):
        write_log(tmp_path, n=20, max_segment_bytes=100)
        names = [path.name for path in list_segments(tmp_path)]
        assert len(names) > 1
        assert names == sorted(names)

    def test_ignores_foreign_files(self, tmp_path):
        write_log(tmp_path)
        (tmp_path / "notes.txt").write_text("x", encoding="utf-8")
        assert all(
            path.name.startswith("wal-")
            for path in list_segments(tmp_path)
        )


class TestInspectFrames:
    def test_clean_log_is_all_ok(self, tmp_path):
        write_log(tmp_path, n=6)
        frames = list(inspect_frames(tmp_path))
        assert [frame["status"] for frame in frames] == ["ok"] * 6
        assert [frame["seq"] for frame in frames] == list(range(1, 7))
        assert frames[0]["kind"] == "op"
        assert all(frame["crc_ok"] for frame in frames)

    def test_offsets_tile_the_segment(self, tmp_path):
        write_log(tmp_path, n=5)
        frames = list(inspect_frames(tmp_path))
        position = 0
        for frame in frames:
            assert frame["offset"] == position
            position += frame["length"]
        [segment] = list_segments(tmp_path)
        assert position == segment.stat().st_size

    def test_torn_tail_and_orphans_are_labelled(self, tmp_path):
        write_log(tmp_path, n=5)
        [segment] = list_segments(tmp_path)
        lines = segment.read_bytes().splitlines(keepends=True)
        # Corrupt frame 3; frames 4-5 become orphaned.
        lines[2] = b"garbage " + lines[2][8:]
        segment.write_bytes(b"".join(lines))
        statuses = [f["status"] for f in inspect_frames(tmp_path)]
        assert statuses == ["ok", "ok", "torn", "orphaned", "orphaned"]

    def test_sequence_gap_is_labelled(self, tmp_path):
        write_log(tmp_path, n=5)
        [segment] = list_segments(tmp_path)
        lines = segment.read_bytes().splitlines(keepends=True)
        del lines[2]
        segment.write_bytes(b"".join(lines))
        statuses = [f["status"] for f in inspect_frames(tmp_path)]
        assert statuses == ["ok", "ok", "gap", "orphaned"]

    def test_inspection_is_read_only(self, tmp_path):
        write_log(tmp_path, n=5)
        [segment] = list_segments(tmp_path)
        torn = segment.read_bytes()[:-10]
        segment.write_bytes(torn)
        list(inspect_frames(tmp_path))
        assert segment.read_bytes() == torn


class TestReplayDirectory:
    def test_matches_wal_replay(self, tmp_path):
        write_log(tmp_path, n=8, max_segment_bytes=120)
        with WriteAheadLog(tmp_path) as wal:
            expected = list(wal.replay(after_seq=3))
        assert list(replay_directory(tmp_path, after_seq=3)) == expected

    def test_stops_at_torn_tail_without_repair(self, tmp_path):
        write_log(tmp_path, n=6)
        [segment] = list_segments(tmp_path)
        torn = segment.read_bytes()[:-7]
        segment.write_bytes(torn)
        before = segment_bytes(tmp_path)
        replayed = list(replay_directory(tmp_path))
        assert [seq for seq, __ in replayed] == [1, 2, 3, 4, 5]
        # Unlike WriteAheadLog (which truncates the torn line on
        # open), the read-only replay leaves every byte in place.
        assert segment_bytes(tmp_path) == before

    def test_empty_directory_yields_nothing(self, tmp_path):
        assert list(replay_directory(tmp_path)) == []

    def test_non_utf8_byte_is_a_torn_frame(self, tmp_path):
        # A stray 0xff inside frame 4 fails that frame's CRC: the
        # read-only replay stops at the frontier the inspector and the
        # repairing WriteAheadLog both see, instead of raising.
        write_log(tmp_path, n=5)
        [segment] = list_segments(tmp_path)
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[3] = lines[3][:12] + b"\xff" + lines[3][13:]
        segment.write_bytes(b"".join(lines))
        before = segment_bytes(tmp_path)
        statuses = [f["status"] for f in inspect_frames(tmp_path)]
        assert statuses == ["ok", "ok", "ok", "torn", "orphaned"]
        replayed = list(replay_directory(tmp_path))
        assert [seq for seq, __ in replayed] == [1, 2, 3]
        assert segment_bytes(tmp_path) == before
        with WriteAheadLog(tmp_path) as wal:
            assert list(wal.replay()) == replayed
            assert wal.last_seq == 3


class TestDiskUsageGauges:
    def test_disk_usage_sums_wal_and_snapshots(self, tmp_path):
        with DurabilityManager(tmp_path) as manager:
            manager.bind(lambda: {"position": manager.wal.last_seq})
            for position in range(4):
                manager.append({"pos": position})
            manager.checkpoint()
            usage = manager.disk_usage()
        wal_total = sum(
            path.stat().st_size for path in list_segments(tmp_path)
        )
        snapshot_total = sum(
            path.stat().st_size
            for path in tmp_path.glob("snapshot-*.json")
        )
        assert usage["wal_bytes"] == wal_total > 0
        assert usage["snapshot_bytes"] == snapshot_total > 0

    def test_checkpoint_publishes_gauges(self, tmp_path):
        pipeline = telemetry.configure()
        try:
            with DurabilityManager(tmp_path) as manager:
                manager.bind(lambda: {"seq": manager.wal.last_seq})
                manager.append({"pos": 0})
                manager.checkpoint()
                usage = manager.disk_usage()
            registry = pipeline.registry
            assert registry.gauge("durability.wal_bytes").value() == (
                usage["wal_bytes"]
            )
            assert registry.gauge(
                "durability.snapshot_bytes"
            ).value() == usage["snapshot_bytes"]
        finally:
            telemetry.disable()

    def test_recover_publishes_gauges(self, tmp_path):
        with DurabilityManager(tmp_path) as manager:
            for position in range(3):
                manager.append({"pos": position})
        pipeline = telemetry.configure()
        try:
            with DurabilityManager(tmp_path) as manager:
                manager.recover()
            assert pipeline.registry.gauge(
                "durability.wal_bytes"
            ).value() > 0
        finally:
            telemetry.disable()


class TestFsyncEveryPlumbing:
    def test_dynamic_condenser_forwards_fsync_every(self, tmp_path):
        condenser = DynamicCondenser(
            3, wal_dir=tmp_path, fsync_every=16
        )
        assert condenser.fsync_every == 16
        assert condenser._manager.wal.fsync_every == 16
        condenser.close()

    def test_dynamic_recover_forwards_fsync_every(
        self, tmp_path, gaussian_data
    ):
        condenser = DynamicCondenser(
            5, random_state=0, wal_dir=tmp_path, fsync_every=4
        )
        condenser.fit()
        condenser.partial_fit(gaussian_data[:40])
        condenser.close()
        recovered = DynamicCondenser.recover(tmp_path, fsync_every=4)
        assert recovered.fsync_every == 4
        assert recovered._manager.wal.fsync_every == 4
        recovered.close()

    def test_windowed_condenser_forwards_fsync_every(self, tmp_path):
        condenser = SlidingWindowCondenser(
            2, window=6, wal_dir=tmp_path, fsync_every=8
        )
        assert condenser.fsync_every == 8
        assert condenser._manager.wal.fsync_every == 8
        condenser.close()

    def test_batched_fsync_preserves_recovery_equivalence(
        self, tmp_path, gaussian_data
    ):
        # Group commit must not change *what* is recovered after a
        # clean close — only how often the page cache is flushed.
        serial_dir = tmp_path / "serial"
        batched_dir = tmp_path / "batched"
        for directory, fsync_every in (
            (serial_dir, 1), (batched_dir, 32),
        ):
            condenser = DynamicCondenser(
                5, random_state=7, wal_dir=directory,
                fsync_every=fsync_every,
            )
            condenser.fit()
            condenser.partial_fit(gaussian_data)
            condenser.close()
        serial = DynamicCondenser.recover(serial_dir)
        batched = DynamicCondenser.recover(batched_dir)
        try:
            assert (serial.model_.to_dict()["groups"]
                    == batched.model_.to_dict()["groups"])
            assert serial.position == batched.position
        finally:
            serial.close()
            batched.close()

    def test_rejects_fsync_every_below_one(self, tmp_path):
        with pytest.raises(ValueError, match="fsync_every"):
            DynamicCondenser(3, wal_dir=tmp_path, fsync_every=0)

    @pytest.mark.parametrize("durable", [True, False])
    @pytest.mark.parametrize("knob, value", [
        ("checkpoint_every", 2.7), ("fsync_every", 1.5),
    ])
    def test_rejects_a_float_knob(self, tmp_path, durable, knob, value):
        wal_dir = tmp_path if durable else None
        with pytest.raises(ValueError, match=f"{knob} must be an integer"):
            DynamicCondenser(3, wal_dir=wal_dir, **{knob: value})
        with pytest.raises(ValueError, match=f"{knob} must be an integer"):
            SlidingWindowCondenser(3, 10, wal_dir=wal_dir, **{knob: value})
