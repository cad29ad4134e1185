"""Packed group statistics in WAL entries and snapshots.

Since 1.15 durable state carries each group as ``{"count", "fs",
"sc"}``: base64 of the exact little-endian float64 bytes of ``Fs`` and
the whole ``Sc``.  Directories written before hold ``first_order`` /
``second_order`` float lists, and must keep recovering.

``legacy_v1_14_0/wal`` is the directory :func:`crash_run` left when
release 1.14.0 ran it: a list-form snapshot after 48 records plus a WAL
tail of ``batch``, ``op`` (removals, with merges and re-splits) and
``rng`` entries.  ``legacy_v1_14_0/expected.json`` holds the
fingerprints 1.14.0 took of its *live* condenser at the crash and
after :data:`SECOND` was streamed on; they are the oracle for every
case here:

(a) the legacy directory recovers to the recorded fingerprint;
(b) a legacy directory recovered and then appended to in packed form
    recovers across both forms;
(c) the same run journaled natively, rewritten by a test-side oracle
    into list form with its frames re-CRC'd, recovers identically —
    and the rewrite is byte for byte the directory 1.14.0 wrote;
(d) malformed packed payloads are rejected with ``ValueError``.

Fingerprints compare group bytes, the centroid cache, the counters, the
RNG state and the saved-model digest.
"""

import base64
import hashlib
import json
import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core import dynamic
from repro.core.condenser import DynamicCondenser
from repro.core.dynamic import DynamicGroupMaintainer
from repro.core.statistics import GroupStatistics, pack_group, unpack_group
from repro.io.model_store import save_model
from repro.linalg.rng import rng_state

FIXTURE = Path(__file__).resolve().parent / "legacy_v1_14_0"
EXPECTED = json.loads((FIXTURE / "expected.json").read_text())

K = 3
D = 3
BATCH = 8


def streams():
    """Bootstrap data, first stream, removals and the continuation."""
    rng = np.random.default_rng(2214)
    scale = np.array([1.0, 2.0, 0.5])
    initial = rng.normal(size=(6 * K, D)) * scale
    first = rng.normal(size=(96, D)) * scale
    removals = rng.normal(size=(4, D)) * scale
    second = rng.normal(size=(64, D)) * scale
    return initial, first, removals, second


INITIAL, FIRST, REMOVALS, SECOND = streams()


def crash_run(wal_dir):
    """The fixture's run, up to where the fixture's process was killed.

    With ``fsync_every=1`` every entry is on disk when this returns, so
    closing the returned condenser (which checkpoints nothing) leaves
    the directory as the kill did.
    """
    condenser = DynamicCondenser(K, random_state=7, wal_dir=wal_dir,
                                 batch_size=BATCH)
    condenser.fit(INITIAL)
    condenser.partial_fit(FIRST[:48])
    condenser.checkpoint()
    condenser.partial_fit(FIRST[48:80])
    condenser.partial_remove(REMOVALS)
    condenser.generate()
    condenser.partial_fit(FIRST[80:])
    return condenser


def fingerprint(condenser, scratch):
    """Byte-exact signature of a condenser, as ``expected.json`` holds."""
    maintainer = condenser._maintainer
    digest = hashlib.sha256()
    for group in maintainer._groups:
        digest.update(np.int64(group.count).tobytes())
        digest.update(group.first_order.tobytes())
        digest.update(group.second_order.tobytes())
    path = Path(scratch) / "model.json"
    save_model(path, condenser.model_)
    return {
        "position": condenser.position,
        "groups_sha256": digest.hexdigest(),
        "centroids_sha256": hashlib.sha256(
            maintainer._centroids.tobytes()).hexdigest(),
        "counters": {
            "n_groups": maintainer.n_groups,
            "n_splits": maintainer.n_splits,
            "n_merges": maintainer.n_merges,
            "n_absorbed": maintainer.n_absorbed,
        },
        "rng": json.loads(json.dumps(rng_state(maintainer._rng))),
        "model_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }


def recover(wal_dir):
    return DynamicCondenser.recover(wal_dir, batch_size=BATCH)


def durable_files(directory):
    """WAL segments and snapshots of a directory, by name."""
    return {
        path.name: path.read_bytes()
        for path in sorted(Path(directory).iterdir())
        if path.suffix in (".log", ".json")
    }


# ----------------------------------------------------------------------
# The list-form oracle: packed payloads back to 1.14.0's float lists,
# decoded here with base64 and NumPy only (never ``unpack_group``).
# ----------------------------------------------------------------------


def to_list_form(value):
    if isinstance(value, list):
        return [to_list_form(item) for item in value]
    if not isinstance(value, dict):
        return value
    if set(value) == {"count", "fs", "sc"}:
        first = np.frombuffer(base64.b64decode(value["fs"]), dtype="<f8")
        second = np.frombuffer(base64.b64decode(value["sc"]), dtype="<f8")
        d = first.shape[0]
        return {
            "first_order": first.tolist(),
            "second_order": second.reshape(d, d).tolist(),
            "count": value["count"],
        }
    return {key: to_list_form(item) for key, item in value.items()}


def frame(document):
    """``document`` as one ``<crc32> <json>`` frame, as the WAL writes."""
    body = json.dumps(document, separators=(",", ":"))
    return f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x} {body}"


def reframe(body):
    return frame(to_list_form(json.loads(body)))


def rewrite_to_list_form(directory):
    """Rewrite every WAL frame and snapshot of ``directory`` in place."""
    for path in Path(directory).glob("wal-*.log"):
        lines = path.read_text().splitlines()
        path.write_text("".join(reframe(line[9:]) + "\n" for line in lines))
    for path in Path(directory).glob("snapshot-*.json"):
        path.write_text(reframe(path.read_text()[9:]))


# ----------------------------------------------------------------------
# (a)-(c): compatibility and differential recovery
# ----------------------------------------------------------------------


class TestLegacyDirectory:
    def test_fixture_is_list_form(self):
        wal = (FIXTURE / "wal" / "wal-000000.log").read_text()
        assert '"first_order"' in wal and '"fs"' not in wal
        assert EXPECTED["written_by"] == "1.14.0"

    def test_recovers_to_the_recorded_fingerprint(self, tmp_path):
        shutil.copytree(FIXTURE / "wal", tmp_path / "wal")
        recovered = recover(tmp_path / "wal")
        assert fingerprint(recovered, tmp_path) == EXPECTED["at_crash"]
        recovered.close()

    def test_mixed_directory_recovers_across_both_forms(self, tmp_path):
        wal_dir = tmp_path / "wal"
        shutil.copytree(FIXTURE / "wal", wal_dir)
        live = recover(wal_dir)
        live.partial_fit(SECOND[:32])
        live.close()
        text = (wal_dir / "wal-000000.log").read_text()
        assert '"first_order"' in text and '"fs"' in text
        # Legacy snapshot, legacy tail, then packed appends.
        middle = recover(wal_dir)
        assert fingerprint(middle, tmp_path) == fingerprint(live, tmp_path)
        middle.checkpoint()
        middle.partial_fit(SECOND[32:])
        middle.close()
        # Packed snapshot, then packed appends.
        final = recover(wal_dir)
        assert fingerprint(final, tmp_path) == (
            EXPECTED["after_second_stream"]
        )
        final.close()


class TestNativeAgainstListForm:
    def test_native_run_matches_the_parent_release(self, tmp_path):
        condenser = crash_run(tmp_path / "native")
        condenser.close()
        assert fingerprint(condenser, tmp_path) == EXPECTED["at_crash"]
        text = (tmp_path / "native" / "wal-000000.log").read_text()
        assert '"fs"' in text and '"first_order"' not in text

    def test_list_form_rewrite_recovers_identically(self, tmp_path):
        crash_run(tmp_path / "native").close()
        shutil.copytree(tmp_path / "native", tmp_path / "lists")
        rewrite_to_list_form(tmp_path / "lists")
        # The oracle's rewrite is exactly what 1.14.0 wrote.
        assert durable_files(tmp_path / "lists") == (
            durable_files(FIXTURE / "wal")
        )
        native = recover(tmp_path / "native")
        lists = recover(tmp_path / "lists")
        assert fingerprint(native, tmp_path) == fingerprint(lists, tmp_path)
        assert fingerprint(native, tmp_path) == EXPECTED["at_crash"]
        native.close()
        lists.close()

    def test_packed_entries_are_smaller(self, tmp_path):
        crash_run(tmp_path / "native").close()
        native = (tmp_path / "native" / "wal-000000.log").stat().st_size
        legacy = (FIXTURE / "wal" / "wal-000000.log").stat().st_size
        assert native < legacy


# ----------------------------------------------------------------------
# (d): the packed payload itself
# ----------------------------------------------------------------------


def packed(d=3, count=4):
    rng = np.random.default_rng(d)
    records = rng.normal(size=(count, d))
    return pack_group(GroupStatistics.from_records(records))


def b64(raw):
    return base64.b64encode(raw).decode("ascii")


class TestPackGroup:
    @pytest.mark.parametrize("d", [1, 2, 8, 34])
    def test_round_trip_is_byte_exact(self, d):
        group = GroupStatistics.from_records(
            np.random.default_rng(d).normal(size=(d + 3, d)) * 1e150
        )
        group.first_order[0] = -0.0
        group.second_order[0, -1] = 5e-324
        group.second_order[-1, 0] = np.nextafter(1.0, 2.0)
        restored = unpack_group(json.loads(json.dumps(pack_group(group))))
        assert restored.count == group.count
        assert restored.first_order.tobytes() == group.first_order.tobytes()
        assert restored.second_order.tobytes() == (
            group.second_order.tobytes()
        )
        # Restored arrays are writable copies: ingestion mutates them.
        restored.add(np.ones(d))

    def test_payload_is_little_endian_float64(self):
        group = GroupStatistics(np.array([1.5, -2.0]),
                                np.array([[1.0, 2.0], [3.0, 4.0]]), 2)
        payload = pack_group(group)
        assert set(payload) == {"count", "fs", "sc"}
        assert base64.b64decode(payload["fs"]) == (
            np.array([1.5, -2.0], dtype="<f8").tobytes()
        )
        assert base64.b64decode(payload["sc"]) == (
            np.arange(1.0, 5.0).astype("<f8").tobytes()
        )

    def test_reads_the_list_form(self):
        group = GroupStatistics.from_records(
            np.random.default_rng(1).normal(size=(5, 3))
        )
        restored = unpack_group(json.loads(json.dumps(group.to_dict())))
        assert restored.first_order.tobytes() == group.first_order.tobytes()
        assert restored.second_order.tobytes() == (
            group.second_order.tobytes()
        )

    @pytest.mark.parametrize("mutate", [
        lambda p: p.update(fs=b64(b"\0" * 23)),
        lambda p: p.update(fs=""),
        lambda p: p.update(sc=b64(b"\0" * 64)),
        lambda p: p.update(sc=b64(b"\0" * 80)),
        lambda p: p.update(fs=p["fs"][:-4]),
        lambda p: p.update(fs="!" + p["fs"][1:]),
        lambda p: p.update(sc=p["sc"][:-1]),
        lambda p: p.update(fs="QU==" + p["fs"]),
        lambda p: p.update(sc=p["sc"][:8] + "\n" + p["sc"][8:]),
        lambda p: p.update(fs=list(range(3))),
        lambda p: p.pop("sc"),
        lambda p: p.update(count=0),
        lambda p: p.update(count=-3),
        lambda p: p.update(count=4.0),
        lambda p: p.update(count=True),
        lambda p: p.update(count="4"),
        lambda p: p.pop("count"),
    ], ids=[
        "fs-not-whole-float64s", "fs-empty", "sc-too-short", "sc-too-long",
        "fs-truncated-base64", "fs-bad-alphabet", "sc-broken-quantum",
        "fs-padding-inside",
        "sc-embedded-newline", "fs-not-a-string", "sc-missing",
        "count-zero", "count-negative", "count-float", "count-bool",
        "count-string", "count-missing",
    ])
    def test_malformed_payload_is_rejected(self, mutate):
        payload = packed()
        mutate(payload)
        with pytest.raises(ValueError):
            unpack_group(payload)

    def test_non_mapping_is_rejected(self):
        with pytest.raises(ValueError):
            unpack_group([1, 2, 3])

    def test_malformed_wal_entry_fails_recovery(self, tmp_path):
        crash_run(tmp_path / "wal").close()
        segment = tmp_path / "wal" / "wal-000000.log"
        lines = segment.read_text().splitlines()
        entry = json.loads(lines[-1][9:])
        group = entry["ops"][0].get("group") or entry["ops"][0]["first"]
        group["sc"] = group["sc"][:-8]
        lines[-1] = frame(entry)
        segment.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError, match="Sc"):
            recover(tmp_path / "wal")


# ----------------------------------------------------------------------
# Journal cost: packing only when journaled, one refresh per entry
# ----------------------------------------------------------------------


class CountingPack:
    def __init__(self):
        self.calls = 0

    def __call__(self, group):
        self.calls += 1
        return pack_group(group)


class TestJournalCost:
    def test_no_packing_without_a_journal(self, monkeypatch):
        counting = CountingPack()
        monkeypatch.setattr(dynamic, "pack_group", counting)
        rng = np.random.default_rng(3)
        maintainer = DynamicGroupMaintainer(4)
        maintainer.ingest_many(rng.normal(size=(600, 3)), batch_size=64)
        maintainer.add_stream(rng.normal(size=(40, 3)))
        for record in rng.normal(size=(30, 3)):
            maintainer.remove(record)
        assert maintainer.n_splits > 0 and maintainer.n_merges > 0
        assert counting.calls == 0
        maintainer.journal = [].append
        maintainer.ingest_many(rng.normal(size=(64, 3)), batch_size=64)
        assert counting.calls > 0

    def test_replay_refreshes_centroids_once_per_entry(
        self, tmp_path, monkeypatch
    ):
        wal_dir = tmp_path / "wal"
        rng = np.random.default_rng(8)
        live = DynamicCondenser(2, random_state=3, wal_dir=wal_dir,
                                batch_size=128)
        live.fit(rng.normal(size=(40, 4)))
        live.partial_fit(rng.normal(size=(1280, 4)))
        live.partial_remove(rng.normal(size=(5, 4)))
        live.close()
        entries = [
            json.loads(line[9:])
            for line in (wal_dir / "wal-000000.log").read_text().splitlines()
        ]
        replayed = [e for e in entries if e["kind"] in ("op", "batch")]
        n_subs = sum(len(entry["ops"]) for entry in replayed)
        assert n_subs > 20 * len(replayed)

        refreshes = []
        original = DynamicGroupMaintainer._refresh_centroids

        def counting(self):
            refreshes.append(len(self._groups))
            original(self)

        monkeypatch.setattr(
            DynamicGroupMaintainer, "_refresh_centroids", counting
        )
        recovered = DynamicCondenser.recover(wal_dir, batch_size=128)
        # One for the bootstrap state, one per replayed entry.
        assert len(refreshes) == 1 + len(replayed)
        assert recovered._maintainer._centroids.tobytes() == (
            live._maintainer._centroids.tobytes()
        )
        assert fingerprint(recovered, tmp_path) == fingerprint(
            live, tmp_path
        )
        recovered.close()
