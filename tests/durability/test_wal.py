"""Unit tests for the size-rotated, CRC-framed write-ahead log."""

import os

import pytest

from repro import telemetry
from repro.durability import (
    WriteAheadLog,
    decode_line,
    encode_entry,
)


def entries_of(wal, after_seq=0):
    return list(wal.replay(after_seq=after_seq))


class TestFraming:
    def test_encode_decode_roundtrip(self):
        entry = {"kind": "op", "seq": 3, "pos": 7, "ops": [{"op": "x"}]}
        assert decode_line(encode_entry(entry) + "\n") == entry

    def test_decode_rejects_bad_crc(self):
        line = encode_entry({"seq": 1}) + "\n"
        broken = ("0" if line[0] != "0" else "1") + line[1:]
        assert decode_line(broken) is None

    def test_decode_rejects_missing_newline_as_torn(self):
        # A line without its newline is a write torn mid-line.
        assert decode_line(encode_entry({"seq": 1})) is None

    def test_decode_rejects_torn_line(self):
        line = encode_entry({"seq": 1, "payload": "abcdef"}) + "\n"
        assert decode_line(line[: len(line) // 2]) is None

    def test_decode_rejects_garbage(self):
        assert decode_line("not a log line\n") is None
        assert decode_line("\n") is None
        assert decode_line("") is None


class TestAppendReplay:
    def test_roundtrip_in_order(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for position in range(10):
                wal.append({"kind": "op", "pos": position})
        with WriteAheadLog(tmp_path) as wal:
            replayed = entries_of(wal)
        assert [seq for seq, __ in replayed] == list(range(1, 11))
        assert [entry["pos"] for __, entry in replayed] == list(range(10))

    def test_replay_after_seq(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for position in range(8):
                wal.append({"pos": position})
            tail = entries_of(wal, after_seq=5)
        assert [seq for seq, __ in tail] == [6, 7, 8]

    def test_rotation_splits_segments(self, tmp_path):
        with WriteAheadLog(tmp_path, max_segment_bytes=200) as wal:
            for position in range(30):
                wal.append({"pos": position, "pad": "x" * 40})
            assert len(wal.segments()) > 1
            assert len(entries_of(wal)) == 30

    def test_bytes_written_counter_matches_the_segments(self, tmp_path):
        pipeline = telemetry.configure()
        try:
            with WriteAheadLog(tmp_path, max_segment_bytes=200) as wal:
                for position in range(30):
                    wal.append({"pos": position, "pad": "é" * 20})
                assert len(wal.segments()) > 1
                on_disk = sum(
                    path.stat().st_size for path in wal.segments()
                )
            written = pipeline.registry.counter(
                "durability.wal_bytes_written"
            ).value()
        finally:
            telemetry.disable()
        assert written == on_disk

    def test_last_seq_survives_reopen(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for __ in range(5):
                wal.append({})
        with WriteAheadLog(tmp_path) as wal:
            assert wal.last_seq == 5
            assert wal.append({}) == 6


class TestCrashSemantics:
    def test_torn_tail_marks_frontier(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for position in range(6):
                wal.append({"pos": position})
            segment = wal.segments()[-1]
        # Tear the final line mid-write.
        raw = segment.read_bytes()
        segment.write_bytes(raw[:-7])
        with WriteAheadLog(tmp_path) as wal:
            replayed = entries_of(wal)
            assert [entry["pos"] for __, entry in replayed] == [0, 1, 2, 3, 4]
            # The torn bytes were physically truncated on open, so the
            # next append produces a valid, contiguous line.
            assert wal.append({"pos": 99}) == 6
        with WriteAheadLog(tmp_path) as wal:
            assert entries_of(wal)[-1][1]["pos"] == 99

    def test_corrupt_middle_line_discards_rest(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for position in range(6):
                wal.append({"pos": position})
            segment = wal.segments()[-1]
        lines = segment.read_text().splitlines()
        lines[2] = "deadbeef {broken"
        segment.write_text("\n".join(lines) + "\n")
        with WriteAheadLog(tmp_path) as wal:
            assert [entry["pos"] for __, entry in entries_of(wal)] == [0, 1]

    def test_seq_discontinuity_stops_replay(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for position in range(4):
                wal.append({"pos": position})
            segment = wal.segments()[-1]
        lines = segment.read_text().splitlines()
        # Rewrite entry 3 with a skipped sequence number (valid CRC).
        lines[2] = encode_entry({"pos": 2, "seq": 9})
        segment.write_text("\n".join(lines) + "\n")
        with WriteAheadLog(tmp_path) as wal:
            assert [entry["pos"] for __, entry in entries_of(wal)] == [0, 1]

    def test_later_segments_after_tear_are_dropped(self, tmp_path):
        with WriteAheadLog(tmp_path, max_segment_bytes=120) as wal:
            for position in range(20):
                wal.append({"pos": position, "pad": "y" * 30})
            segments = wal.segments()
        assert len(segments) >= 3
        # Corrupt an early segment: everything after it is unreachable
        # (the frontier is a prefix property) and must be discarded.
        segments[0].write_text(segments[0].read_text()[:25])
        with WriteAheadLog(tmp_path) as wal:
            for path in segments[1:]:
                assert not path.exists()
            assert wal.last_seq == len(entries_of(wal))


class TestPrune:
    def test_prune_unlinks_covered_segments(self, tmp_path):
        with WriteAheadLog(tmp_path, max_segment_bytes=150) as wal:
            for position in range(24):
                wal.append({"pos": position, "pad": "z" * 30})
            before = len(wal.segments())
            assert before > 2
            wal.prune(upto_seq=wal.last_seq - 2)
            after = len(wal.segments())
            assert after < before
            # Entries past the prune point are untouched.
            tail = entries_of(wal, after_seq=wal.last_seq - 2)
            assert [seq for seq, __ in tail] == [23, 24]

    def test_prune_never_removes_active_segment(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for position in range(5):
                wal.append({"pos": position})
            wal.prune(upto_seq=wal.last_seq)
            assert len(wal.segments()) == 1
            assert wal.append({}) == 6


class TestFsyncPolicy:
    @pytest.mark.parametrize("fsync_every", [1, 4])
    def test_all_entries_durable_after_sync(self, tmp_path, fsync_every):
        wal = WriteAheadLog(tmp_path, fsync_every=fsync_every)
        for position in range(9):
            wal.append({"pos": position})
        wal.sync()
        wal.close()
        with WriteAheadLog(tmp_path) as reopened:
            assert len(entries_of(reopened)) == 9

    def test_empty_directory_replays_nothing(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            assert entries_of(wal) == []
            assert wal.last_seq == 0
