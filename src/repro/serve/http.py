"""The HTTP front of ``repro serve`` — stdlib only, statistics out.

A :class:`AnonymizationHTTPServer` (a ``ThreadingHTTPServer``) wraps a
:class:`~repro.serve.service.ShardedCondensationService` and exposes
the paper's server role over five endpoints:

================  =======================================================
``POST /ingest``  Condense one record or a batch (JSON body).
``GET /generate``  Draw ``?n=`` synthetic records from group statistics.
``GET /model``    Statistics-only condensed-model document.
``GET /healthz``  Liveness/readiness scalars.
``GET /metrics``  Prometheus text exposition of the ``serve.*`` metrics.
================  =======================================================

Raw records cross the wire exactly once — inward, in an ``/ingest``
body — and exist in the process only until the service condenses them;
every response body is built from group statistics or synthetic draws.
Request handling degrades gracefully: malformed JSON, wrong
dimensionality, non-finite values, and oversized bodies produce
structured ``{"error": ...}`` documents with 400/413 status codes (and
a ``serve.rejected`` counter increment) instead of tracebacks taking
the worker thread down.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro import telemetry
from repro.telemetry.exporters import render_prometheus

#: Reject /ingest bodies larger than this many bytes (HTTP 413).
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Cap on ``/generate?n=`` so one request cannot wedge a worker.
MAX_GENERATE_RECORDS = 1_000_000


class RequestError(Exception):
    """A client error that maps to one structured HTTP error document.

    Parameters
    ----------
    status:
        HTTP status code (4xx).
    code:
        Stable machine-readable error identifier.
    message:
        Human-readable explanation (never a traceback).
    """

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = int(status)
        self.code = str(code)
        self.message = str(message)


def ingest_records(service, records) -> dict:
    """Condense client-submitted records into the service fleet.

    The single point where raw ingested records touch the service from
    the HTTP layer; the return value is the service's scalar ingest
    summary, safe to serialize back to the client.

    Parameters
    ----------
    service:
        The :class:`~repro.serve.service.ShardedCondensationService`.
    records:
        Parsed record array, shape ``(m, d)`` or ``(d,)``.

    Returns
    -------
    dict
        Scalar summary (``accepted``/``buffered``/``bootstrapped``/
        ``position``).
    """
    return service.ingest(records)


class AnonymizationHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one condensation service.

    Parameters
    ----------
    address:
        ``(host, port)`` pair; port 0 binds an ephemeral port
        (read the result back from :attr:`server_port`).
    service:
        The :class:`~repro.serve.service.ShardedCondensationService`
        answering the endpoints.
    max_body_bytes:
        Largest accepted ``/ingest`` body; larger requests get 413.

    Examples
    --------
    >>> import threading
    >>> from repro.serve import (
    ...     AnonymizationHTTPServer, ShardedCondensationService)
    >>> service = ShardedCondensationService(
    ...     n_shards=2, k=3, bootstrap_size=12, random_state=0)
    >>> server = AnonymizationHTTPServer(("127.0.0.1", 0), service)
    >>> thread = threading.Thread(target=server.serve_forever)
    >>> thread.start()
    >>> server.server_port > 0
    True
    >>> server.shutdown(); thread.join(); server.server_close()
    >>> service.close()
    """

    daemon_threads = True

    def __init__(self, address, service,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES):
        self.service = service
        self.max_body_bytes = int(max_body_bytes)
        super().__init__(address, AnonymizationRequestHandler)


class AnonymizationRequestHandler(BaseHTTPRequestHandler):
    """Request handler implementing the five serve endpoints.

    Every response is JSON except ``/metrics`` (Prometheus text).
    Client errors become structured ``{"error": {"code", "message",
    "status"}}`` documents; unexpected server-side failures become a
    structured 500 with the exception class name only — tracebacks
    never cross the wire.
    """

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:
        """Dispatch ``GET`` endpoints."""
        self._dispatch("GET")

    def do_POST(self) -> None:
        """Dispatch ``POST`` endpoints."""
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        """Route one request, converting failures to error documents."""
        split = urlsplit(self.path)
        endpoint = split.path.rstrip("/") or "/"
        with telemetry.span("serve.http") as request_span:
            request_span.set_attribute("endpoint", endpoint)
            request_span.set_attribute("method", method)
            try:
                handler = self._resolve(method, endpoint)
                handler(parse_qs(split.query))
                status = "ok"
            except RequestError as error:
                telemetry.counter_inc(
                    "serve.rejected", labels={"code": error.code}
                )
                self._send_json(error.status, {"error": {
                    "status": error.status,
                    "code": error.code,
                    "message": error.message,
                }})
                status = "rejected"
            except (BrokenPipeError, ConnectionResetError):
                # The client hung up mid-response; nothing to send.
                status = "disconnected"
            except Exception as error:  # noqa: BLE001 - worker must survive
                telemetry.counter_inc("serve.errors")
                try:
                    self._send_json(500, {"error": {
                        "status": 500,
                        "code": "internal",
                        "message": type(error).__name__,
                    }})
                except OSError:
                    pass
                status = "error"
            request_span.set_attribute("status", status)

    def _resolve(self, method: str, endpoint: str):
        """Find the endpoint handler or raise 404/405."""
        routes = {
            "/ingest": ("POST", self._handle_ingest),
            "/generate": ("GET", self._handle_generate),
            "/model": ("GET", self._handle_model),
            "/healthz": ("GET", self._handle_healthz),
            "/metrics": ("GET", self._handle_metrics),
        }
        if endpoint not in routes:
            raise RequestError(
                404, "not-found", f"unknown endpoint {endpoint}"
            )
        expected, handler = routes[endpoint]
        if method != expected:
            raise RequestError(
                405, "method-not-allowed",
                f"{endpoint} requires {expected}",
            )
        return handler

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _handle_ingest(self, query) -> None:
        """``POST /ingest`` — condense the body's record payload."""
        payload = self._read_json_body()
        parsed = _parse_record_payload(payload)
        try:
            result = ingest_records(self.server.service, parsed)
        except ValueError as error:
            raise RequestError(400, "bad-records", str(error)) from None
        except RuntimeError as error:
            raise RequestError(409, "closed", str(error)) from None
        self._send_json(200, result)

    def _handle_generate(self, query) -> None:
        """``GET /generate?n=`` — draw synthetic anonymized records."""
        raw_n = query.get("n", ["100"])[-1]
        try:
            n_records = int(raw_n)
        except ValueError:
            raise RequestError(
                400, "bad-n", f"n must be an integer, got {raw_n!r}"
            ) from None
        if not 1 <= n_records <= MAX_GENERATE_RECORDS:
            raise RequestError(
                400, "bad-n",
                f"n must be in [1, {MAX_GENERATE_RECORDS}], "
                f"got {n_records}",
            )
        from repro.serve.service import NotReadyError

        try:
            drawn = self.server.service.generate(n_records)
        except NotReadyError as error:
            raise RequestError(409, "not-ready", str(error)) from None
        except RuntimeError as error:
            raise RequestError(409, "closed", str(error)) from None
        self._send_json(200, {
            "n": int(drawn.shape[0]),
            "n_features": int(drawn.shape[1]),
            "records": drawn.tolist(),
        })

    def _handle_model(self, query) -> None:
        """``GET /model`` — the statistics-only model document."""
        self._send_bytes(
            200, self.server.service.model(), "application/json"
        )

    def _handle_healthz(self, query) -> None:
        """``GET /healthz`` — liveness and readiness scalars."""
        health = self.server.service.status()
        status = 200 if health["status"] == "ok" else 503
        self._send_json(status, health)

    def _handle_metrics(self, query) -> None:
        """``GET /metrics`` — Prometheus text exposition."""
        registry = getattr(telemetry.get_pipeline(), "registry", None)
        if registry is None:
            text = "# telemetry disabled\n"
        else:
            text = render_prometheus(registry)
        self._send_bytes(
            200, text.encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _read_json_body(self):
        """Read and parse the request body, or raise 400/411/413."""
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise RequestError(
                411, "length-required",
                "requests must carry Content-Length",
            )
        try:
            length = int(length_header)
        except ValueError:
            raise RequestError(
                400, "bad-length",
                f"invalid Content-Length {length_header!r}",
            ) from None
        limit = self.server.max_body_bytes
        if length > limit:
            raise RequestError(
                413, "body-too-large",
                f"body of {length} bytes exceeds the {limit}-byte limit",
            )
        body = self.rfile.read(length)
        try:
            return json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise RequestError(
                400, "bad-json", f"malformed JSON body: {error}"
            ) from None

    def _send_json(self, status: int, document) -> None:
        """Send one sorted-key JSON response document."""
        self._send_bytes(
            status,
            json.dumps(document, sort_keys=True).encode("utf-8"),
            "application/json",
        )

    def _send_bytes(self, status: int, body: bytes,
                    content_type: str) -> None:
        """Send a complete response with explicit Content-Length."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        telemetry.counter_inc(
            "serve.responses", labels={"status": str(status)}
        )

    def log_message(self, format, *args) -> None:  # noqa: A002
        """Silence the default stderr access log (telemetry covers it)."""


def _parse_record_payload(payload):
    """Extract the record array from an ``/ingest`` JSON document.

    Accepts ``{"records": [[...], ...]}``, ``{"record": [...]}``, or a
    bare JSON array.

    Parameters
    ----------
    payload:
        Decoded JSON body.

    Returns
    -------
    numpy.ndarray

    Raises
    ------
    RequestError
        With status 400 when the document has none of the accepted
        shapes or the values are not numeric.
    """
    if isinstance(payload, dict):
        if "records" in payload:
            candidate = payload["records"]
        elif "record" in payload:
            candidate = payload["record"]
        else:
            raise RequestError(
                400, "bad-payload",
                'body must carry "records" (batch) or "record" (single)',
            )
    elif isinstance(payload, list):
        candidate = payload
    else:
        raise RequestError(
            400, "bad-payload",
            f"body must be an object or array, got "
            f"{type(payload).__name__}",
        )
    try:
        parsed = np.asarray(candidate, dtype=float)
    except (TypeError, ValueError) as error:
        raise RequestError(
            400, "bad-records", f"records are not numeric: {error}"
        ) from None
    if parsed.ndim not in (1, 2) or not parsed.size:
        raise RequestError(
            400, "bad-records",
            f"records must be a vector or non-empty matrix, got shape "
            f"{parsed.shape}",
        )
    return parsed


def install_signal_handlers(server, service) -> None:
    """Make SIGTERM/SIGINT drain the server and close every shard.

    The handler asks the server loop to stop from a helper thread
    (``shutdown()`` must not run on the thread executing
    ``serve_forever``), then checkpoints and closes the service — so a
    terminated process leaves the same durable state as a clean
    shutdown, and the next :meth:`ShardedCondensationService.open`
    recovers it exactly.

    Parameters
    ----------
    server:
        The running :class:`AnonymizationHTTPServer`.
    service:
        Its :class:`~repro.serve.service.ShardedCondensationService`.
    """
    def handle(signum, frame):
        threading.Thread(
            target=_drain, args=(server, service), daemon=True
        ).start()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, handle)


def _drain(server, service) -> None:
    """Stop accepting requests, then close the service durably."""
    server.shutdown()
    service.close()
