"""The asyncio transport for the IDLOG server.

:class:`IdlogServer` frames NDJSON requests off TCP and unix-socket
connections, schedules them onto a bounded thread pool (evaluation is
CPU-bound synchronous Python — the event loop only frames and
dispatches), and writes one response line per request.  The same
listeners also answer two HTTP GET paths — ``/metrics`` (Prometheus
text) and ``/healthz`` — by sniffing the first bytes of a connection.

Guarantees (the operator-facing contract, documented in
``docs/SERVER.md``):

* A malformed or failing request costs one error response, never the
  connection.
* Several requests may be in flight per connection; responses carry the
  request ``id`` and may arrive out of order.
* Per-request timeouts and ``cancel`` stop *waiting* immediately; a
  worker thread already inside the engine runs on, its result discarded
  (Python threads cannot be interrupted) — the semantics are
  "best-effort abandon", stated rather than hidden.
* Graceful shutdown drains in-flight requests for ``drain_s`` seconds,
  cancels stragglers, and flushes metrics in a ``finally:`` — a
  SIGTERM mid-request still leaves a valid metrics file and all
  completed choice logs on disk (the PR-4/PR-5 flush-on-error contract).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import json
import os
import queue
import signal
import threading
from time import perf_counter
from typing import Optional

from .protocol import (RequestError, classify_exception, decode, encode,
                       error_response, ok_response, positive_number)
from .service import IdlogService, ServerConfig

#: asyncio streams default to a 64 KiB line limit — far too small for a
#: big ``assert_facts`` or a recorded choice log on one line.
LINE_LIMIT = 8 * 2 ** 20


class DaemonWorkerPool:
    """Bounded pool of daemon worker threads with an executor-shaped
    :meth:`submit` (usable with ``loop.run_in_executor``).

    A deliberate stand-in for :class:`concurrent.futures.ThreadPoolExecutor`:
    that class joins its non-daemon workers at interpreter exit, so a
    timed-out or cancelled request whose thread is still mid-evaluation
    (Python threads cannot be interrupted) would keep a SIGTERM'd server
    process alive until the abandoned work finished.  Daemon workers let
    the process exit as soon as the graceful drain-and-flush completes.
    """

    def __init__(self, max_workers: int) -> None:
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._threads = [
            threading.Thread(target=self._work, daemon=True,
                             name=f"idlog-worker-{index}")
            for index in range(max(1, max_workers))]
        for thread in self._threads:
            thread.start()

    def submit(self, fn, *args) -> concurrent.futures.Future:
        future: concurrent.futures.Future = concurrent.futures.Future()
        self._queue.put((future, fn, args))
        return future

    def _work(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            future, fn, args = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                future.set_result(fn(*args))
            except BaseException as exc:  # delivered via the future
                future.set_exception(exc)

    def shutdown(self) -> None:
        """Stop the idle workers; busy ones exit after their item."""
        for _ in self._threads:
            self._queue.put(None)


def _key(request_id) -> str:
    """Hashable in-flight-table key for an arbitrary JSON request id."""
    return json.dumps(request_id, sort_keys=True, default=repr)


class _Connection:
    """One client connection: its streams, write lock, in-flight tasks."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.inflight: dict[str, asyncio.Task] = {}
        self._wlock = asyncio.Lock()

    async def send(self, message: dict) -> None:
        """Write one response line (serialized; losing the race against a
        closing connection is silently absorbed)."""
        try:
            async with self._wlock:
                self.writer.write(encode(message))
                await self.writer.drain()
        except (ConnectionError, RuntimeError):
            pass


class IdlogServer:
    """NDJSON-over-asyncio front end for one :class:`IdlogService`.

    Args:
        service: The synchronous core; defaults to a fresh one.
        host/port: TCP listener (``port=0`` picks an ephemeral port;
            ``host=None`` disables TCP).
        unix_path: Unix-socket listener path (``None`` disables it).
    """

    def __init__(self, service: Optional[IdlogService] = None,
                 host: Optional[str] = "127.0.0.1", port: int = 0,
                 unix_path: Optional[str] = None) -> None:
        if host is None and unix_path is None:
            raise ValueError("need a TCP host or a unix socket path")
        self.service = service or IdlogService()
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self._servers: list[asyncio.base_events.Server] = []
        self._connections: set[_Connection] = set()
        self._stopping = asyncio.Event()
        self._stop_reason = ""
        self.pool = DaemonWorkerPool(self.service.config.workers)
        self.tcp_address: Optional[tuple[str, int]] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listeners (after this, :attr:`tcp_address` is real)."""
        if self.host is not None:
            server = await asyncio.start_server(
                self._handle_connection, self.host, self.port,
                limit=LINE_LIMIT)
            self._servers.append(server)
            sock = server.sockets[0].getsockname()
            self.tcp_address = (sock[0], sock[1])
        if self.unix_path is not None:
            if os.path.exists(self.unix_path):
                os.unlink(self.unix_path)
            server = await asyncio.start_unix_server(
                self._handle_connection, self.unix_path, limit=LINE_LIMIT)
            self._servers.append(server)
        self.service.log.info(
            "listening",
            tcp=(f"{self.tcp_address[0]}:{self.tcp_address[1]}"
                 if self.tcp_address else None),
            unix=self.unix_path, workers=self.service.config.workers)

    def request_shutdown(self, reason: str = "requested") -> None:
        """Begin graceful shutdown (idempotent; safe from signal
        handlers scheduled on the loop)."""
        if not self._stopping.is_set():
            self._stop_reason = reason
            self._stopping.set()

    async def serve_until_shutdown(self,
                                   install_signals: bool = False) -> str:
        """Run until a shutdown request, then drain and clean up.

        The ``finally:`` block is the flush-on-error contract: metrics
        land on disk whether shutdown was a clean ``shutdown`` request,
        a SIGTERM, or a crashed loop.

        Returns:
            The shutdown reason.
        """
        loop = asyncio.get_running_loop()
        if install_signals:
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(
                    signum, self.request_shutdown,
                    signal.Signals(signum).name)
        try:
            await self._stopping.wait()
            self.service.log.info(
                "draining", reason=self._stop_reason,
                inflight=int(self.service.m_inflight.value),
                drain_s=self.service.config.drain_s)
            # Listeners stay bound through the drain, so /healthz
            # answers 503 "draining" (not connection refused) and new
            # requests get `shutting_down`; they close in the finally.
            await self._drain()
        finally:
            await self._close_connections()
            for server in self._servers:
                server.close()
                with contextlib.suppress(Exception):
                    await server.wait_closed()
            if self.unix_path and os.path.exists(self.unix_path):
                with contextlib.suppress(OSError):
                    os.unlink(self.unix_path)
            self.service.close_all_sessions()
            self.service.flush_metrics()
            self.pool.shutdown()
            self.service.log.info("stopped", reason=self._stop_reason)
            self.service.log.close()
            if install_signals:
                for signum in (signal.SIGINT, signal.SIGTERM):
                    with contextlib.suppress(Exception):
                        loop.remove_signal_handler(signum)
        return self._stop_reason

    async def _drain(self) -> None:
        """Give in-flight requests ``drain_s`` to finish, then cancel
        them (each cancelled request still sends its error response)."""
        tasks = [task for conn in list(self._connections)
                 for task in list(conn.inflight.values())]
        if not tasks:
            return
        _done, pending = await asyncio.wait(
            tasks, timeout=self.service.config.drain_s)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    async def _close_connections(self) -> None:
        for conn in list(self._connections):
            for task in list(conn.inflight.values()):
                task.cancel()
            with contextlib.suppress(Exception):
                conn.writer.close()
        self._connections.clear()

    # -- connections --------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        service = self.service
        service.m_connections.inc()
        service.m_connections_total.inc()
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        try:
            line = await reader.readline()
            if line[:4] == b"GET " or line[:5] == b"HEAD ":
                await self._serve_http(conn, line)
                return
            while line:
                if line.strip():
                    await self._dispatch_line(conn, line.strip())
                line = await reader.readline()
        except asyncio.CancelledError:
            pass  # loop teardown cancelled a blocked readline
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except ValueError:
            # Line over LINE_LIMIT: answer, then give up on the stream
            # (we cannot find the next line boundary reliably).
            service.log.warning("oversized_line", limit=LINE_LIMIT)
            await conn.send(error_response(
                None, "bad_request",
                f"request line exceeds the {LINE_LIMIT} byte limit"))
        finally:
            for task in list(conn.inflight.values()):
                task.cancel()
            self._connections.discard(conn)
            with contextlib.suppress(Exception):
                conn.writer.close()
            service.m_connections.dec()

    async def _dispatch_line(self, conn: _Connection, line: bytes) -> None:
        try:
            request = decode(line)
        except RequestError as exc:
            await conn.send(error_response(None, exc.error_type, str(exc)))
            return
        rid = request.get("id")
        rtype = request.get("type")
        if not isinstance(rtype, str):
            await conn.send(error_response(
                rid, "bad_request", "request needs a string 'type' field"))
            return
        if self._stopping.is_set():
            await conn.send(error_response(
                rid, "shutting_down",
                f"server is shutting down ({self._stop_reason})"))
            return
        if rtype == "cancel":
            await self._serve_cancel(conn, request, rid)
            return
        if rtype == "shutdown":
            self.service.observe("shutdown", "ok", 0.0)
            # Flip the stopping state BEFORE acknowledging: a client
            # that has read "stopping": true must never observe a
            # healthy /healthz afterwards.
            self.request_shutdown("shutdown request")
            await conn.send(ok_response(rid, {"stopping": True}))
            return
        loop = asyncio.get_running_loop()
        # The request-scoped identity is minted here, at dispatch, so
        # the queue wait (dispatch -> worker pickup) is part of it.
        context = self.service.new_context(request, rtype)
        task = loop.create_task(self._serve_request(conn, request, rid,
                                                    rtype, context))
        conn.inflight[_key(rid)] = task
        # A cancel can land before the task's first step, when its body
        # never runs: this callback still sends (and observes) the
        # typed response of a task that ends in the cancelled state.
        task.add_done_callback(
            lambda t: self._respond_if_killed(conn, rid, rtype, t,
                                              context))

    def _respond_if_killed(self, conn: _Connection, rid, rtype: str,
                           task: asyncio.Task, context=None) -> None:
        if not task.cancelled():
            return
        self.service.observe(rtype, "cancelled", 0.0, context)
        conn.inflight.pop(_key(rid), None)
        with contextlib.suppress(RuntimeError):  # loop already closing
            asyncio.get_running_loop().create_task(conn.send(
                error_response(rid, "cancelled",
                               f"{rtype} was cancelled before it "
                               "started")))

    async def _serve_cancel(self, conn: _Connection, request: dict,
                            rid) -> None:
        """Cancel an in-flight request *on this connection* by its id."""
        target = request.get("target")
        task = conn.inflight.get(_key(target))
        cancelled = task is not None and task.cancel()
        self.service.observe("cancel", "ok", 0.0)
        await conn.send(ok_response(
            rid, {"target": target, "cancelled": bool(cancelled)}))

    async def _serve_request(self, conn: _Connection, request: dict,
                             rid, rtype: str, context=None) -> None:
        """Run one request on the worker pool and send its response."""
        service = self.service
        service.m_inflight.inc()
        start = perf_counter()
        status = "ok"
        try:
            try:
                timeout = positive_number(request, "timeout",
                                          default=service.config.timeout_s)
                future = asyncio.get_running_loop().run_in_executor(
                    self.pool, service.handle, request, context)
                result = await asyncio.wait_for(future, timeout)
            except asyncio.TimeoutError:
                status = "timeout"
                response = error_response(
                    rid, "timeout",
                    f"{rtype} exceeded its {timeout}s timeout; the worker "
                    "thread finishes in the background and its result is "
                    "discarded")
            except asyncio.CancelledError:
                status = "cancelled"
                response = error_response(
                    rid, "cancelled", f"{rtype} was cancelled")
            except BaseException as exc:
                status = classify_exception(exc)
                response = error_response(
                    rid, status, str(exc) or type(exc).__name__)
            else:
                response = ok_response(rid, result)
        finally:
            service.m_inflight.dec()
            conn.inflight.pop(_key(rid), None)
            service.observe(rtype, status, perf_counter() - start,
                            context)
        await conn.send(response)

    # -- HTTP ---------------------------------------------------------------

    async def _serve_http(self, conn: _Connection,
                          first_line: bytes) -> None:
        """Answer one HTTP/1.0-style GET on the NDJSON listener."""
        parts = first_line.decode("latin-1").split()
        path = (parts[1] if len(parts) > 1 else "/").split("?")[0]
        while True:  # drain request headers
            line = await conn.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
        if path == "/metrics":
            code, reason = 200, "OK"
            ctype = "text/plain; version=0.0.4; charset=utf-8"
            body = self.service.metrics_text()
        elif path == "/healthz":
            # Liveness vs readiness: while draining the process is alive
            # but must not receive new traffic, so balancers get an
            # explicit 503 + "draining" instead of a green 200.
            draining = self._stopping.is_set()
            code, reason = (503, "Service Unavailable") if draining \
                else (200, "OK")
            ctype = "application/json"
            body = json.dumps({
                "status": "draining" if draining else "ok",
                "sessions": self.service.session_count(),
                "inflight": int(self.service.m_inflight.value),
                "stopping": draining,
            }) + "\n"
        else:
            code, reason = 404, "Not Found"
            ctype = "text/plain; charset=utf-8"
            body = f"no such path {path} (try /metrics or /healthz)\n"
        # Known paths keep their label whatever the status code; the
        # rest collapse into "other" so garbage cannot grow the labels.
        self.service.m_http.labels(
            path=path if path in ("/metrics", "/healthz") else "other"
        ).inc()
        self.service.log.debug("http", path=path, code=code)
        payload = body.encode("utf-8")
        head = (f"HTTP/1.0 {code} {reason}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n")
        with contextlib.suppress(ConnectionError):
            conn.writer.write(head.encode("latin-1") + payload)
            await conn.writer.drain()


def serve(config: Optional[ServerConfig] = None,
          host: Optional[str] = "127.0.0.1", port: int = 0,
          unix_path: Optional[str] = None,
          ready=None) -> str:
    """Blocking entry point: run a server until a ``shutdown`` request
    or, when called from the main thread, SIGINT/SIGTERM (what
    ``repro-idlog serve`` and :class:`ServerThread` call).

    Args:
        ready: Optional callback invoked once with the
            :class:`IdlogServer` after the listeners are bound (the CLI
            prints its ready line from here).

    Returns:
        The shutdown reason.
    """

    async def _main() -> str:
        server = IdlogServer(IdlogService(config), host=host, port=port,
                             unix_path=unix_path)
        await server.start()
        if ready is not None:
            ready(server)
        return await server.serve_until_shutdown(
            install_signals=threading.current_thread()
            is threading.main_thread())

    return asyncio.run(_main())


class ServerThread:
    """A live server on a background thread — the test/bench harness.

    >>> from repro.server import ServerThread
    >>> with ServerThread() as handle:
    ...     client = handle.client()
    ...     client.call("ping")["pong"]
    ...     client.close()
    True

    The context manager guarantees a bound listener on entry and a
    drained shutdown (metrics flushed) on exit.
    """

    def __init__(self, config: Optional[ServerConfig] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 unix_path: Optional[str] = None) -> None:
        self.config = config or ServerConfig()
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self.server: Optional[IdlogServer] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(target=self._run,
                                        name="idlog-server", daemon=True)

    def _run(self) -> None:
        def ready(server: IdlogServer) -> None:
            self.server = server
            self._loop = asyncio.get_running_loop()
            self._ready.set()

        try:
            serve(self.config, self._host, self._port, self._unix_path, ready)
        except BaseException as exc:  # surfaced by start()/__enter__
            self._error = exc
            self._ready.set()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise RuntimeError(
                f"server failed to start: {self._error}") from self._error
        if self.server is None or not self._ready.is_set():
            raise RuntimeError("server failed to start in time")
        return self

    def stop(self) -> None:
        if self.server is not None and self._loop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(
                    self.server.request_shutdown, "ServerThread.stop")
        self._thread.join(timeout=30)

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` of the TCP listener."""
        assert self.server is not None and self.server.tcp_address
        return self.server.tcp_address

    @property
    def service(self) -> IdlogService:
        assert self.server is not None
        return self.server.service

    def client(self, timeout: float = 30.0):
        """A connected :class:`~repro.server.client.ServerClient`."""
        from .client import ServerClient
        host, port = self.address
        return ServerClient.connect_tcp(host, port, timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
