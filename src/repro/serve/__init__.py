"""Anonymization as a service over durable sharded condensers.

The serving subsystem puts live traffic on the reproduction: a
dependency-free HTTP server (stdlib ``http.server``) fronts a fleet of
durable :class:`~repro.core.condenser.DynamicCondenser` shards, routes
each ingested record along frozen principal-axis bisection cuts, and
answers every read endpoint from group statistics only — the paper's
privacy contract as a deployment boundary.  See ``docs/serving.md``.
"""

from repro._lazy import lazy_exports
from repro.serve.http import (
    AnonymizationHTTPServer,
    AnonymizationRequestHandler,
    RequestError,
    install_signal_handlers,
)
from repro.serve.router import PrincipalAxisRouter
from repro.serve.service import (
    NotReadyError,
    ShardedCondensationService,
)

__all__ = [
    "AnonymizationHTTPServer",
    "AnonymizationRequestHandler",
    "NotReadyError",
    "PrincipalAxisRouter",
    "RequestError",
    "ShardedCondensationService",
    "install_signal_handlers",
    "run_loadgen",
    "write_report",
]

# The load generator is a client; the server never loads it.
__getattr__, __dir__ = lazy_exports(__name__, {
    "run_loadgen": "repro.serve.loadgen",
    "write_report": "repro.serve.loadgen",
})
