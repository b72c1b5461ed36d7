"""Long-lived IDLOG server: sessions, prepared programs, NDJSON wire.

The layers, bottom-up (full reference: ``docs/SERVER.md``):

* :mod:`~repro.server.protocol` — wire vocabulary (request/error types,
  encode/decode, versioning).
* :mod:`~repro.server.service` — the synchronous core: session
  registry, prepared-program cache, one handler per request type.
* :mod:`~repro.server.server` — the asyncio transport: TCP + unix
  listeners, worker pool, timeouts/cancel, ``/metrics`` + ``/healthz``,
  graceful shutdown.  :class:`ServerThread` runs one in-process for
  tests and benchmarks.
* :mod:`~repro.server.client` — blocking :class:`ServerClient` shared
  by ``repro-idlog connect``, the e2e benchmark and the tests.
"""

from .client import ServerClient, http_get
from .protocol import (ERROR_TYPES, PROTOCOL_VERSION, REQUEST_TYPES,
                       RequestError, ServerError)
from .server import IdlogServer, ServerThread, serve
from .service import IdlogService, RequestContext, ServerConfig

__all__ = [
    "ERROR_TYPES",
    "PROTOCOL_VERSION",
    "REQUEST_TYPES",
    "RequestError",
    "ServerError",
    "ServerClient",
    "http_get",
    "IdlogServer",
    "ServerThread",
    "serve",
    "IdlogService",
    "RequestContext",
    "ServerConfig",
]
