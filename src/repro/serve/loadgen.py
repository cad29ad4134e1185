"""Replay UCI-shaped streams against a running ``repro serve``.

The traffic side of the serving benchmark: :func:`run_loadgen` drives a
deterministic endpoint mix — mostly ``/ingest`` with periodic
``/generate``, ``/model``, and ``/healthz`` probes — against a server at
a target QPS, paced on the monotonic clock, and reports per-endpoint
latency percentiles plus the achieved rate.  :func:`write_report`
publishes the result as ``BENCH_serve.json`` (atomic
write-fsync-replace, like every benchmark artifact in this repo).

This module is the *trusted client*: it synthesizes records with the
``repro.datasets`` twins and ships them raw to the server, which is
exactly the data holder's role in the paper — raw records exist
upstream of condensation by definition.  The whole-program taint rule
PRIV-003 sanctions this module for that reason (see
``repro.analysis.project.taint``).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from repro.datasets import load_twin
from repro.durability._files import publish

#: Default benchmark artifact filename.
DEFAULT_REPORT_PATH = "BENCH_serve.json"

#: Deterministic endpoint mix: every Nth request is diverted.
GENERATE_EVERY = 10
MODEL_EVERY = 25
HEALTHZ_EVERY = 50


def _request(base_url: str, endpoint: str, body=None,
             timeout: float = 10.0):
    """Issue one HTTP request and time it.

    Parameters
    ----------
    base_url:
        Server root, e.g. ``http://127.0.0.1:8000``.
    endpoint:
        Path (plus query) to hit.
    body:
        JSON-able document to POST, or ``None`` for GET.
    timeout:
        Socket timeout in seconds.

    Returns
    -------
    tuple
        ``(latency_seconds, status)`` — status is the HTTP code, or 0
        when the connection itself failed.
    """
    request = urllib.request.Request(base_url.rstrip("/") + endpoint)
    if body is not None:
        request.data = json.dumps(body).encode("utf-8")
        request.add_header("Content-Type", "application/json")
    started = time.monotonic()
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            reply.read()
            status = reply.status
    except urllib.error.HTTPError as error:
        error.read()
        error.close()
        status = error.code
    except (urllib.error.URLError, OSError):
        status = 0
    return time.monotonic() - started, status


def run_loadgen(base_url: str, dataset: str = "ionosphere",
                duration_seconds: float = 10.0, qps: float = 50.0,
                batch_size: int = 1, generate_n: int = 32,
                random_state: int = 0, timeout: float = 10.0) -> dict:
    """Drive the endpoint mix at a target rate and measure latency.

    Parameters
    ----------
    base_url:
        Root URL of the running server.
    dataset:
        Twin name fed to :func:`repro.datasets.load_twin`; its records
        are replayed cyclically as the ingest stream.
    duration_seconds:
        Wall-clock run length.
    qps:
        Target request rate; pacing sleeps between sends to hold it.
    batch_size:
        Records per ``/ingest`` body (1 = single-record JSON shape).
    generate_n:
        ``n`` passed to ``/generate``.
    random_state:
        Seed for the dataset twin.
    timeout:
        Per-request socket timeout in seconds.

    Returns
    -------
    dict
        Benchmark report: per-endpoint ``n``/``p50_ms``/``p95_ms``/
        ``p99_ms``/``mean_ms``, plus ``achieved_qps``, ``n_requests``,
        ``n_failures`` and the run parameters.

    Raises
    ------
    RuntimeError
        If not a single request succeeded (server unreachable).
    """
    if qps <= 0:
        raise ValueError(f"qps must be positive, got {qps}")
    if duration_seconds <= 0:
        raise ValueError(
            f"duration_seconds must be positive, got {duration_seconds}"
        )
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    stream = load_twin(dataset, random_state=random_state).data
    interval = 1.0 / float(qps)
    latencies: dict = {}
    n_failures = 0
    cursor = 0
    tick = 0
    started = time.monotonic()
    deadline = started + float(duration_seconds)
    next_send = started
    while True:
        now = time.monotonic()
        if now >= deadline:
            break
        if now < next_send:
            time.sleep(min(next_send - now, deadline - now))
            continue
        next_send += interval
        tick += 1
        if tick % HEALTHZ_EVERY == 0:
            endpoint, body = "/healthz", None
        elif tick % MODEL_EVERY == 0:
            endpoint, body = "/model", None
        elif tick % GENERATE_EVERY == 0:
            endpoint, body = f"/generate?n={int(generate_n)}", None
        else:
            rows = [
                stream[(cursor + offset) % stream.shape[0]].tolist()
                for offset in range(batch_size)
            ]
            cursor += batch_size
            body = {"records": rows} if batch_size > 1 \
                else {"record": rows[0]}
            endpoint = "/ingest"
        latency, status = _request(
            base_url, endpoint, body=body, timeout=timeout
        )
        bucket = endpoint.split("?")[0]
        # /generate 409s until enough records arrive for a first group;
        # that is expected warm-up, not a failure of the server.
        if status == 200 or (bucket == "/generate" and status == 409):
            latencies.setdefault(bucket, []).append(latency)
        else:
            n_failures += 1
    elapsed = time.monotonic() - started
    n_ok = sum(len(values) for values in latencies.values())
    if not n_ok:
        raise RuntimeError(
            f"no request against {base_url} succeeded "
            f"({n_failures} failures); is the server running?"
        )
    return {
        "dataset": dataset,
        "duration_seconds": round(elapsed, 3),
        "target_qps": float(qps),
        "achieved_qps": round((n_ok + n_failures) / elapsed, 2),
        "batch_size": int(batch_size),
        "n_requests": n_ok + n_failures,
        "n_failures": n_failures,
        "endpoints": {
            endpoint: _summarize(values)
            for endpoint, values in sorted(latencies.items())
        },
    }


def _summarize(latencies) -> dict:
    """Latency percentiles for one endpoint, in milliseconds.

    Parameters
    ----------
    latencies:
        Per-request latencies in seconds.

    Returns
    -------
    dict
        ``n``, ``p50_ms``, ``p95_ms``, ``p99_ms``, ``mean_ms``.
    """
    values = np.asarray(latencies, dtype=float) * 1000.0
    p50, p95, p99 = np.percentile(values, [50.0, 95.0, 99.0])
    return {
        "n": int(values.shape[0]),
        "p50_ms": round(float(p50), 3),
        "p95_ms": round(float(p95), 3),
        "p99_ms": round(float(p99), 3),
        "mean_ms": round(float(values.mean()), 3),
    }


def write_report(report: dict, path=DEFAULT_REPORT_PATH) -> Path:
    """Atomically publish the benchmark report document.

    Parameters
    ----------
    report:
        Document from :func:`run_loadgen`.
    path:
        Destination file.

    Returns
    -------
    pathlib.Path
        The written path.
    """
    final = Path(path)
    publish(final, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return final
