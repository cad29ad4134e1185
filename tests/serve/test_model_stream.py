"""``GET /model`` streamed from the chunk cache over a real socket.

The handler never joins the document: it sends ``Content-Length`` as the
sum of the piece lengths and writes the pieces in bounded batches.  The
body must still be the ``test_model_render`` oracle byte for byte, the
length header must match it, a client that hangs up mid-body must not
take the server down, and each complete ``/model`` counts one 200
response.
"""

import http.client
import socket
import struct
import threading
import time

import pytest

from repro import telemetry
from repro.linalg.rng import check_random_state
from repro.serve import AnonymizationHTTPServer, ShardedCondensationService
from repro.serve.http import WRITE_BATCH_BYTES, _write_batches
from tests.serve.test_model_render import oracle

#: Wide records make every group chunk ~12 KB, so a few hundred groups
#: give a multi-megabyte document: many write batches, and more than a
#: small receive window plus the server's send buffer can absorb.
D = 24
WAIT = 10.0


@pytest.fixture(scope="module")
def served():
    """A running server over a service holding a multi-MB model."""
    service = ShardedCondensationService(
        n_shards=3, k=5, bootstrap_size=30, random_state=3
    )
    rng = check_random_state(21)
    for _ in range(8):
        service.ingest(rng.normal(size=(256, D)))
    server = AnonymizationHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, oracle(service)
    finally:
        server.shutdown()
        thread.join(timeout=WAIT)
        server.server_close()
        service.close()
    assert not thread.is_alive()


@pytest.fixture()
def pipeline():
    previous = telemetry.get_pipeline()
    configured = telemetry.configure()
    try:
        yield configured
    finally:
        telemetry.set_pipeline(previous)


def _get_model(connection):
    connection.request("GET", "/model")
    reply = connection.getresponse()
    return reply, reply.read()


def _ok_responses(pipeline) -> float:
    return pipeline.registry.counter("serve.responses").value(
        {"status": "200"}
    )


def _eventually(read, expected):
    """``read()`` once it equals ``expected``, or at the deadline.

    The server thread counts a response just after its last write, so
    the client can hold the whole body a moment before the counter
    moves.
    """
    deadline = time.monotonic() + WAIT
    value = read()
    while value != expected and time.monotonic() < deadline:
        time.sleep(0.01)
        value = read()
    return value


def test_body_is_the_oracle_and_counts_one_ok_response(served, pipeline):
    server, expected = served
    assert len(expected) > 8 * WRITE_BATCH_BYTES
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.server_port, timeout=WAIT
    )
    try:
        for count in range(1, 4):  # one keep-alive connection
            reply, body = _get_model(connection)
            assert reply.status == 200
            assert reply.headers["Content-Type"] == "application/json"
            assert int(reply.headers["Content-Length"]) == len(body)
            assert body == expected
            ok = _eventually(lambda: _ok_responses(pipeline), count)
            assert ok == count
    finally:
        connection.close()


def test_hang_up_mid_body_leaves_the_server_answering(served, pipeline):
    server, expected = served
    client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    # A tiny receive window stalls the server part-way through the
    # body; linger 0 makes close() reset the connection.
    client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                      struct.pack("ii", 1, 0))
    client.settimeout(WAIT)
    client.connect(("127.0.0.1", server.server_port))
    client.sendall(b"GET /model HTTP/1.1\r\nHost: test\r\n\r\n")
    assert client.recv(1024).startswith(b"HTTP/1.1 200")
    client.close()

    statuses = _eventually(lambda: [
        span["attributes"].get("status")
        for span in pipeline.finished_spans()
        if span["name"] == "serve.http"
    ], ["disconnected"])
    assert statuses == ["disconnected"]
    assert _ok_responses(pipeline) == 0

    connection = http.client.HTTPConnection(
        "127.0.0.1", server.server_port, timeout=WAIT
    )
    try:
        reply, body = _get_model(connection)
    finally:
        connection.close()
    assert reply.status == 200
    assert body == expected
    assert _eventually(lambda: _ok_responses(pipeline), 1) == 1


@pytest.mark.parametrize("sizes", [
    [3],
    [WRITE_BATCH_BYTES - 1, 2],
    [1500] * 200 + [2],
    [WRITE_BATCH_BYTES, WRITE_BATCH_BYTES, 5],
    [40_000] * 9,
])
def test_batches_are_bounded_and_the_last_is_never_short(sizes):
    pieces = [bytes([65 + index % 26]) * size
              for index, size in enumerate(sizes)]
    total = sum(sizes)
    batches = list(_write_batches(pieces, total))
    assert b"".join(batches) == b"".join(pieces)
    largest = max(sizes)
    for batch in batches:
        assert len(batch) < 2 * WRITE_BATCH_BYTES + largest
    if total >= WRITE_BATCH_BYTES:
        assert all(len(batch) >= WRITE_BATCH_BYTES for batch in batches)
    else:
        assert len(batches) == 1
