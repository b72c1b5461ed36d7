"""The IDLOG server wire protocol: newline-delimited JSON.

One request is one JSON object on one line; one response is one JSON
object on one line.  The full request/response reference (with examples)
lives in ``docs/SERVER.md``; this module is the single source of truth
for the *vocabulary* — request types, error types, protocol version —
shared by the server (:mod:`repro.server.server`), the client
(:mod:`repro.server.client`), and the docs health checks
(``tests/test_docs.py`` cross-checks ``docs/SERVER.md`` against
:data:`REQUEST_TYPES`).

Framing
-------

* Request:  ``{"id": 7, "type": "run", ...}\\n`` — ``id`` is optional
  and client-chosen; the server echoes it verbatim so a client may keep
  several requests in flight on one connection and match responses out
  of order.
* Success:  ``{"id": 7, "ok": true, "result": {...}}\\n``
* Failure:  ``{"id": 7, "ok": false, "error": {"type": "...",
  "message": "..."}}\\n`` — a malformed or failing request NEVER drops
  the connection; the error response is the contract.

The same listener also answers two HTTP GET paths (``/metrics``,
``/healthz``) for scrape tooling; see :mod:`repro.server.server`.
"""

from __future__ import annotations

import json
from typing import Optional

from ..errors import (EvaluationError, InputError, ParseError, ReplayError,
                      ReproError, SafetyError, SchemaError,
                      StratificationError)

#: Bumped when the wire format changes incompatibly.  ``ping`` reports it
#: so clients can refuse to talk across versions.
PROTOCOL_VERSION = 1

#: Every request type the server answers.  ``docs/SERVER.md`` documents
#: each one and ``tests/server/test_server.py`` exercises each one — both
#: facts are enforced by tests, so this tuple cannot silently grow.
REQUEST_TYPES = (
    "ping",
    "open_session",
    "close_session",
    "assert_facts",
    "prepare",
    "run",
    "answers",
    "snapshot",
    "restore",
    "stats",
    "server_stats",
    "recent",
    "slowlog",
    "plans",
    "cancel",
    "shutdown",
)

#: Error types a response may carry.  ``bad_request`` covers malformed
#: requests (unknown type, missing/ill-typed fields, a malformed choice
#: log); ``internal`` is the catch-all for unexpected exceptions (the
#: message names the exception class, never a traceback).
ERROR_TYPES = (
    "bad_request",
    "parse_error",
    "safety_error",
    "stratification_error",
    "schema_error",
    "evaluation_error",
    "replay_error",
    "unknown_session",
    "unknown_prepared",
    "timeout",
    "cancelled",
    "shutting_down",
    "error",
    "internal",
)

#: Library exception -> wire error type (checked most-specific first).
_EXCEPTION_MAP = (
    (ParseError, "parse_error"),
    (SafetyError, "safety_error"),
    (StratificationError, "stratification_error"),
    (SchemaError, "schema_error"),
    (ReplayError, "replay_error"),
    (InputError, "bad_request"),
    (EvaluationError, "evaluation_error"),
    (ReproError, "error"),
)


class RequestError(ReproError):
    """A request that cannot be served, carrying its wire error type.

    Raised inside the service/server layers and serialized with
    :func:`error_response`; raising it never tears down the connection.
    """

    def __init__(self, error_type: str, message: str) -> None:
        if error_type not in ERROR_TYPES:
            raise ValueError(f"unknown error type {error_type!r}")
        super().__init__(message)
        self.error_type = error_type


class ServerError(ReproError):
    """Client-side view of an ``ok: false`` response.

    Attributes:
        error_type: The wire error type (one of :data:`ERROR_TYPES`).
    """

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"[{error_type}] {message}")
        self.error_type = error_type


def classify_exception(exc: BaseException) -> str:
    """The wire error type for a library exception."""
    if isinstance(exc, RequestError):
        return exc.error_type
    for cls, error_type in _EXCEPTION_MAP:
        if isinstance(exc, cls):
            return error_type
    return "internal"


def encode(message: dict) -> bytes:
    """One protocol message as its wire line (newline included)."""
    return (json.dumps(message, separators=(",", ":"),
                       sort_keys=True) + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict:
    """Parse one wire line into a message dict.

    Raises:
        RequestError: (``bad_request``) when the line is not a JSON
            object — the caller turns this into an error *response*, so a
            garbage line costs one reply, not the connection.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RequestError("bad_request",
                           f"request line is not valid JSON: {exc}")
    if not isinstance(message, dict):
        raise RequestError(
            "bad_request",
            f"request must be a JSON object, got {type(message).__name__}")
    return message


def ok_response(request_id, result: dict) -> dict:
    """A success response echoing ``request_id``."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, error_type: str, message: str) -> dict:
    """A failure response echoing ``request_id``."""
    if error_type not in ERROR_TYPES:
        error_type = "internal"
    return {"id": request_id, "ok": False,
            "error": {"type": error_type, "message": message}}


# -- request-field validation helpers ----------------------------------------

def field(request: dict, name: str, kind: type,
          required: bool = True, default=None):
    """Pull one typed field out of a request.

    ``bool`` is not accepted where ``int`` is asked for (JSON ``true``
    silently being 1 hides client bugs).

    Raises:
        RequestError: (``bad_request``) on a missing required field or a
            type mismatch.
    """
    if name not in request or request[name] is None:
        if required:
            raise RequestError(
                "bad_request",
                f"{request.get('type', '?')} request needs a "
                f"{kind.__name__} field {name!r}")
        return default
    value = request[name]
    if not isinstance(value, kind) or (kind is not bool
                                       and isinstance(value, bool)):
        raise RequestError(
            "bad_request",
            f"field {name!r} must be {kind.__name__}, "
            f"got {type(value).__name__}")
    return value


def positive_number(request: dict, name: str,
                    default: Optional[float] = None) -> Optional[float]:
    """An optional strictly-positive numeric field (int or float)."""
    value = request.get(name)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value <= 0:
        raise RequestError("bad_request",
                           f"field {name!r} must be a positive number")
    return float(value)
