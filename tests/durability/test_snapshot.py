"""Unit tests for atomic CRC-checked snapshots."""

from repro.durability import (
    latest_snapshot,
    list_snapshots,
    prune_snapshots,
    read_snapshot,
    write_snapshot,
)


STATE = {"maintainer": {"k": 3, "groups": []}, "position": 12}


class TestRoundtrip:
    def test_write_read(self, tmp_path):
        path = write_snapshot(tmp_path, STATE, seq=7)
        info = read_snapshot(path)
        assert info is not None
        assert info.seq == 7
        assert info.state == STATE

    def test_no_tmp_residue(self, tmp_path):
        write_snapshot(tmp_path, STATE, seq=1)
        assert not list(tmp_path.glob("*.tmp"))

    def test_list_is_seq_ordered(self, tmp_path):
        for seq in (5, 1, 9):
            write_snapshot(tmp_path, STATE, seq=seq)
        listed = [read_snapshot(path) for path in list_snapshots(tmp_path)]
        assert [info.seq for info in listed] == [1, 5, 9]


class TestCorruption:
    def test_torn_snapshot_rejected(self, tmp_path):
        path = write_snapshot(tmp_path, STATE, seq=3)
        document = path.read_text()
        path.write_text(document[: len(document) // 2])
        assert read_snapshot(path) is None

    def test_flipped_byte_rejected(self, tmp_path):
        path = write_snapshot(tmp_path, STATE, seq=3)
        document = path.read_text()
        position = len(document) // 2
        flipped = (
            document[:position]
            + ("0" if document[position] != "0" else "1")
            + document[position + 1:]
        )
        path.write_text(flipped)
        assert read_snapshot(path) is None

    def test_latest_falls_back_past_corrupt(self, tmp_path):
        write_snapshot(tmp_path, {"position": 1}, seq=10)
        newest = write_snapshot(tmp_path, {"position": 2}, seq=20)
        newest.write_text("garbage")
        info = latest_snapshot(tmp_path)
        assert info is not None
        assert info.seq == 10
        assert info.state == {"position": 1}

    def test_non_utf8_byte_falls_back(self, tmp_path):
        write_snapshot(tmp_path, {"position": 1}, seq=10)
        newest = write_snapshot(tmp_path, {"position": 2}, seq=20)
        document = bytearray(newest.read_bytes())
        document[len(document) // 2] = 0xFF
        newest.write_bytes(bytes(document))
        assert read_snapshot(newest) is None
        assert latest_snapshot(tmp_path).seq == 10

    def test_latest_none_when_all_corrupt(self, tmp_path):
        path = write_snapshot(tmp_path, STATE, seq=4)
        path.write_text("")
        assert latest_snapshot(tmp_path) is None

    def test_latest_none_on_empty_directory(self, tmp_path):
        assert latest_snapshot(tmp_path) is None


class TestPrune:
    def test_keeps_newest(self, tmp_path):
        for seq in range(1, 7):
            write_snapshot(tmp_path, {"position": seq}, seq=seq)
        removed = prune_snapshots(tmp_path, keep=2)
        assert removed == 4
        kept = [read_snapshot(path) for path in list_snapshots(tmp_path)]
        assert [info.seq for info in kept] == [5, 6]

    def test_keep_at_least_one(self, tmp_path):
        write_snapshot(tmp_path, STATE, seq=1)
        prune_snapshots(tmp_path, keep=1)
        assert len(list_snapshots(tmp_path)) == 1
