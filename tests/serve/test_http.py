"""HTTP endpoints: payloads, structured errors, and metrics."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import telemetry
from repro.linalg.rng import check_random_state
from repro.serve import (
    AnonymizationHTTPServer,
    ShardedCondensationService,
)


@pytest.fixture()
def server():
    """A live threaded server on an ephemeral port, torn down after."""
    service = ShardedCondensationService(
        n_shards=2, k=3, bootstrap_size=12, random_state=0
    )
    instance = AnonymizationHTTPServer(
        ("127.0.0.1", 0), service, max_body_bytes=4096
    )
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    thread.join(timeout=5)
    instance.server_close()
    service.close()


def _call(server, endpoint, body=None, method=None,
          content_length=None):
    """Issue one request; return (status, decoded JSON or text)."""
    url = f"http://127.0.0.1:{server.server_port}{endpoint}"
    request = urllib.request.Request(url, method=method)
    if body is not None:
        encoded = body if isinstance(body, bytes) \
            else json.dumps(body).encode("utf-8")
        request.data = encoded
        request.add_header("Content-Type", "application/json")
    if content_length is not None:
        request.add_header("Content-Length", str(content_length))
    try:
        with urllib.request.urlopen(request, timeout=10) as reply:
            status, payload = reply.status, reply.read()
            content_type = reply.headers.get("Content-Type", "")
    except urllib.error.HTTPError as error:
        status, payload = error.code, error.read()
        content_type = error.headers.get("Content-Type", "")
        error.close()
    if content_type.startswith("application/json"):
        return status, json.loads(payload)
    return status, payload.decode("utf-8")


def _records(n, d=3, seed=0):
    return check_random_state(seed).normal(size=(n, d)).tolist()


class TestEndpoints:
    def test_healthz(self, server):
        status, health = _call(server, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["n_shards"] == 2

    def test_ingest_batch_and_single(self, server):
        status, result = _call(
            server, "/ingest", body={"records": _records(20)}
        )
        assert status == 200
        assert result["accepted"] == 20
        assert result["bootstrapped"]
        status, result = _call(
            server, "/ingest", body={"record": [0.0, 0.0, 0.0]}
        )
        assert status == 200
        assert result["accepted"] == 1

    def test_ingest_bare_array(self, server):
        status, result = _call(server, "/ingest", body=_records(5))
        assert status == 200
        assert result["accepted"] == 5

    def test_generate_after_warmup(self, server):
        _call(server, "/ingest", body={"records": _records(30)})
        status, drawn = _call(server, "/generate?n=7")
        assert status == 200
        assert drawn["n"] == 7
        assert drawn["n_features"] == 3
        assert np.asarray(drawn["records"]).shape == (7, 3)

    def test_model_matches_service(self, server):
        _call(server, "/ingest", body={"records": _records(30)})
        status, document = _call(server, "/model")
        assert status == 200
        assert document == json.loads(server.service.model())

    def test_metrics_exposition(self, server):
        previous = telemetry.get_pipeline()
        telemetry.configure()
        try:
            _call(server, "/ingest", body={"records": _records(15)})
            status, text = _call(server, "/metrics")
        finally:
            telemetry.set_pipeline(previous)
        assert status == 200
        assert "repro_serve_ingested_total" in text

    def test_metrics_without_telemetry_still_answers(self, server):
        telemetry.disable()
        status, text = _call(server, "/metrics")
        assert status == 200
        assert "telemetry disabled" in text


class TestGracefulDegradation:
    def test_malformed_json_is_structured_400(self, server):
        status, reply = _call(server, "/ingest", body=b"{not json")
        assert status == 400
        assert reply["error"]["code"] == "bad-json"
        assert "Traceback" not in json.dumps(reply)

    def test_non_numeric_records_400(self, server):
        status, reply = _call(
            server, "/ingest", body={"records": [["a", "b"]]}
        )
        assert status == 400
        assert reply["error"]["code"] == "bad-records"

    def test_wrong_dimensionality_400(self, server):
        _call(server, "/ingest", body={"records": _records(15)})
        status, reply = _call(
            server, "/ingest", body={"record": [1.0, 2.0]}
        )
        assert status == 400
        assert reply["error"]["code"] == "bad-records"
        assert "attributes" in reply["error"]["message"]

    def test_non_finite_values_400(self, server):
        status, reply = _call(
            server, "/ingest",
            body={"record": [1.0, float("nan"), 0.0]},
        )
        assert status == 400
        assert reply["error"]["code"] == "bad-records"
        assert "finite" in reply["error"]["message"]

    def test_oversized_body_413(self, server):
        status, reply = _call(
            server, "/ingest", body={"records": _records(500)}
        )
        assert status == 413
        assert reply["error"]["code"] == "body-too-large"

    def test_missing_payload_keys_400(self, server):
        status, reply = _call(server, "/ingest", body={"rows": [[1.0]]})
        assert status == 400
        assert reply["error"]["code"] == "bad-payload"

    def test_unknown_endpoint_404(self, server):
        status, reply = _call(server, "/nope")
        assert status == 404
        assert reply["error"]["code"] == "not-found"

    def test_wrong_method_405(self, server):
        status, reply = _call(server, "/model", body={"x": 1})
        assert status == 405
        assert reply["error"]["code"] == "method-not-allowed"

    def test_bad_generate_n_400(self, server):
        for query in ("n=zero", "n=0", "n=-3", "n=9999999999"):
            status, reply = _call(server, f"/generate?{query}")
            assert status == 400
            assert reply["error"]["code"] == "bad-n"

    def test_generate_before_ready_409(self, server):
        status, reply = _call(server, "/generate?n=5")
        assert status == 409
        assert reply["error"]["code"] == "not-ready"

    def test_rejections_increment_counter(self, server):
        previous = telemetry.get_pipeline()
        pipeline = telemetry.configure()
        try:
            _call(server, "/ingest", body=b"{not json")
            _call(server, "/nope")
        finally:
            telemetry.set_pipeline(previous)
        counter = pipeline.registry.counter("serve.rejected")
        assert sum(counter.series().values()) == 2

    def test_worker_threads_survive_rejections(self, server):
        # A burst of bad requests must leave the server answering.
        for _ in range(5):
            _call(server, "/ingest", body=b"broken")
        status, health = _call(server, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
