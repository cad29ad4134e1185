"""Zero-copy payload lifecycle: round-trips, no leaks, no shm → serial.

The RES-001 promise for shared memory is absolute: a published payload
is unlinked on success, on failure, and at interpreter exit — nothing
this test file runs may leave a segment behind in ``/dev/shm``.  The
interpreter-exit case necessarily runs in a subprocess (the ``atexit``
hook only fires when the publisher dies).  Where shared memory is
unavailable, publishing fails rather than spilling raw records to
files; ``test_degradation.py`` checks that the engine then runs
serially.
"""

import glob
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import telemetry
from repro.parallel import shm
from repro.parallel.shm import (
    PayloadDescriptor,
    attach_payload,
    detach_worker_payloads,
    publish_payload,
)


def shm_segments():
    """Names of repro-visible POSIX shared-memory segments."""
    return set(glob.glob("/dev/shm/psm_*"))


@pytest.fixture()
def payload_fixture():
    """A published 3-shard payload, unconditionally closed afterwards."""
    rng = np.random.default_rng(0)
    data = rng.normal(size=(30, 4))
    shards = [
        np.arange(0, 10), np.arange(10, 25), np.arange(25, 30),
    ]
    payload = publish_payload(data, shards)
    yield data, shards, payload
    payload.close()
    detach_worker_payloads()


class TestRoundTrip:
    def test_shard_records_match_fancy_indexing(self, payload_fixture):
        data, shards, payload = payload_fixture
        attachment = attach_payload(payload.descriptor)
        for index, shard in enumerate(shards):
            np.testing.assert_array_equal(
                attachment.shard_records(index), data[shard]
            )

    def test_descriptor_is_picklable_scalars(self, payload_fixture):
        _data, _shards, payload = payload_fixture
        descriptor = payload.descriptor
        assert isinstance(descriptor, PayloadDescriptor)
        import pickle

        clone = pickle.loads(pickle.dumps(descriptor))
        assert clone == descriptor

    def test_attachment_is_cached_per_token(self, payload_fixture):
        _data, _shards, payload = payload_fixture
        first = attach_payload(payload.descriptor)
        second = attach_payload(payload.descriptor)
        assert second is first

    def test_view_is_read_only(self, payload_fixture):
        _data, _shards, payload = payload_fixture
        attachment = attach_payload(payload.descriptor)
        with pytest.raises(ValueError):
            attachment._view[0, 0] = 99.0

    def test_empty_shard_list_round_trips(self):
        payload = publish_payload(np.zeros((4, 2)), [])
        try:
            assert payload.descriptor.shard_offsets == (0,)
        finally:
            payload.close()


class TestUnlinkDiscipline:
    def test_close_unlinks_and_is_idempotent(self):
        before = shm_segments()
        payload = publish_payload(np.zeros((8, 2)), [np.arange(8)])
        payload.close()
        payload.close()
        assert payload.closed
        assert shm_segments() == before

    def test_context_manager_unlinks_on_failure(self):
        before = shm_segments()
        with pytest.raises(RuntimeError, match="boom"):
            with publish_payload(np.zeros((8, 2)), [np.arange(8)]):
                raise RuntimeError("boom")
        assert shm_segments() == before

    def test_interpreter_exit_unlinks_live_payloads(self, tmp_path):
        """Publish and *don't* close; the atexit hook must unlink."""
        script = tmp_path / "leaker.py"
        script.write_text(
            "import numpy as np\n"
            "from repro.parallel.shm import publish_payload\n"
            "payload = publish_payload(\n"
            "    np.zeros((64, 8)), [np.arange(64)]\n"
            ")\n"
            "print(payload.descriptor.token)\n"
        )
        before = shm_segments()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.getcwd(), "src"),
             env.get("PYTHONPATH", "")]
        )
        completed = subprocess.run(
            [sys.executable, str(script)], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert shm_segments() == before

    def test_engine_run_leaves_no_segments(self):
        from repro.parallel import condense_sharded

        rng = np.random.default_rng(1)
        data = rng.normal(size=(400, 3))
        before = shm_segments()
        condense_sharded(
            data, k=8, n_shards=2, n_workers=2,
            strategy="mdav", random_state=0,
        )
        assert shm_segments() == before


class TestBytesGauge:
    def test_gauge_tracks_total_of_live_payloads(self):
        pipeline = telemetry.configure()
        try:
            base = sum(
                payload.nbytes
                for payload in shm._LIVE_PAYLOADS.values()
            )
            gauge = pipeline.registry.gauge("parallel.shm.bytes")
            first = publish_payload(np.zeros((8, 2)), [np.arange(8)])
            second = publish_payload(np.zeros((16, 2)), [np.arange(16)])
            assert gauge.value() == base + first.nbytes + second.nbytes
            first.close()
            assert gauge.value() == base + second.nbytes
            second.close()
            assert gauge.value() == base
        finally:
            telemetry.disable()


class TestSharedMemoryUnavailable:
    def test_publish_raises_without_shared_memory(self, monkeypatch):
        monkeypatch.setattr(shm, "_shared_memory", None)
        live = dict(shm._LIVE_PAYLOADS)
        with pytest.raises(OSError, match="shared memory"):
            publish_payload(np.zeros((8, 2)), [np.arange(8)])
        assert shm._LIVE_PAYLOADS == live
