"""Server lifecycle: shutdown, drain, kill-resilience, CLI surface.

These tests own their servers (unlike ``test_server.py``'s shared one)
because they stop, kill, or reconfigure them.  The subprocess tests
exercise the real ``repro-idlog serve`` entry point and the PR-4/PR-5
flush contract: a SIGTERM mid-request must still leave a valid metrics
export and valid choice logs for every *completed* request.
"""

import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.core.choicelog import ChoiceLog
from repro.server import (ServerClient, ServerConfig, ServerThread,
                          ServerError, http_get)
from repro.server.service import IdlogService

TC_PROGRAM = """
  path(X, Y) :- edge(X, Y).
  path(X, Y) :- edge(X, Z), path(Z, Y).
"""

SAMPLE_PROGRAM = "pick(N) :- emp[2](N, D, I), I < 1.\n"


def serve_env() -> dict:
    env = dict(os.environ)
    root = os.path.join(os.path.dirname(__file__), "..", "..")
    env["PYTHONPATH"] = os.path.abspath(os.path.join(root, "src"))
    return env


def start_serve(tmp_path, *extra) -> tuple[subprocess.Popen, str, int]:
    """Start ``repro-idlog serve`` on an ephemeral port; returns
    (process, host, port) once the ready line confirms the bind."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=str(tmp_path), env=serve_env())
    line = proc.stdout.readline()
    assert "serving on" in line, line
    host, port = line.split()[2].rsplit(":", 1)
    return proc, host, int(port)


@pytest.fixture
def held_run(monkeypatch):
    """Hold every ``run`` request in its handler until the test sets
    ``release``; ``started`` is set once one is held.  The drain tests
    need a request that outlasts ``shutdown`` — gating it here keeps
    their outcome independent of how fast the engine evaluates."""
    started, release = threading.Event(), threading.Event()
    handle_run = IdlogService._handle_run

    def held(self, request, context):
        started.set()
        release.wait(30)
        return handle_run(self, request, context)

    monkeypatch.setattr(IdlogService, "_handle_run", held)
    return started, release


class TestShutdown:
    def test_shutdown_request_stops_server(self):
        handle = ServerThread().start()
        try:
            with handle.client() as client:
                assert client.call("shutdown")["stopping"] is True
            deadline = time.monotonic() + 10
            while handle._thread.is_alive() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not handle._thread.is_alive()
        finally:
            handle.stop()

    def test_requests_during_shutdown_get_typed_error(self, held_run):
        started, release = held_run
        handle = ServerThread(ServerConfig(drain_s=5.0)).start()
        try:
            with handle.client() as client:
                # hold a run in flight so the connection stays open long
                # enough to observe the typed refusal
                sid = client.call("open_session")["session"]
                client.call("assert_facts", session=sid,
                            facts={"edge": [["a", "b"], ["b", "c"]]})
                slow_id = client.send({"type": "run", "session": sid,
                                       "program": TC_PROGRAM})
                assert started.wait(10)
                client.call("shutdown")
                with pytest.raises(ServerError) as err:
                    client.call("ping")
                assert err.value.error_type == "shutting_down"
                # the in-flight request still completes during the drain
                release.set()
                response = client.recv_for(slow_id)
                assert response["ok"] is True
        finally:
            release.set()
            handle.stop()

    def test_healthz_reports_draining(self, held_run):
        """While in-flight work drains, the listener stays bound and
        ``/healthz`` flips to an explicit 503 "draining" — balancers
        see not-ready, not connection-refused."""
        started, release = held_run
        handle = ServerThread(ServerConfig(drain_s=5.0)).start()
        try:
            host, port = handle.address
            code, body = http_get(host, port, "/healthz")
            assert code == 200 and json.loads(body)["status"] == "ok"
            with handle.client() as client:
                sid = client.call("open_session")["session"]
                client.call("assert_facts", session=sid,
                            facts={"edge": [["a", "b"], ["b", "c"]]})
                slow_id = client.send({"type": "run", "session": sid,
                                       "program": TC_PROGRAM})
                assert started.wait(10)
                client.call("shutdown")
                code, body = http_get(host, port, "/healthz")
                assert code == 503
                payload = json.loads(body)
                assert payload["status"] == "draining"
                assert payload["stopping"] is True
                # the drain still completes the in-flight request
                release.set()
                assert client.recv_for(slow_id)["ok"] is True
        finally:
            release.set()
            handle.stop()

    def test_sessions_dropped_on_shutdown(self):
        handle = ServerThread().start()
        with handle.client() as client:
            client.call("open_session")
            assert handle.service.session_count() == 1
        handle.stop()
        assert handle.service.session_count() == 0

    def test_metrics_flushed_on_stop(self, tmp_path):
        path = str(tmp_path / "metrics.prom")
        handle = ServerThread(ServerConfig(metrics_path=path)).start()
        with handle.client() as client:
            client.call("ping")
        handle.stop()
        text = open(path).read()
        assert 'idlog_server_requests_total{type="ping",status="ok"} 1' \
            in text


class TestUnixSocket:
    def test_unix_round_trip(self, tmp_path):
        sock_path = str(tmp_path / "idlog.sock")
        with ServerThread(unix_path=sock_path) as handle:
            with ServerClient.connect_unix(sock_path) as client:
                sid = client.call("open_session")["session"]
                client.call("assert_facts", session=sid,
                            facts={"edge": [["a", "b"]]})
                result = client.call("run", session=sid,
                                     program=TC_PROGRAM)
                assert result["answers"]["path"] == [["a", "b"]]
        assert not os.path.exists(sock_path)  # cleaned up on shutdown


class TestTimeoutsConfig:
    def test_server_default_timeout_applies(self):
        config = ServerConfig(timeout_s=0.005)
        with ServerThread(config) as handle:
            with handle.client() as client:
                sid = client.call("open_session")["session"]
                client.call("assert_facts", session=sid, timeout=30,
                            facts={"edge": [[f"n{i}", f"n{i + 1}"]
                                            for i in range(600)]})
                with pytest.raises(ServerError) as err:
                    client.call("run", session=sid, program=TC_PROGRAM)
                assert err.value.error_type == "timeout"
                # a per-request timeout overrides the tight default
                result = client.call("run", session=sid,
                                     program="p(X) :- edge(X, _).",
                                     timeout=30)
                assert len(result["answers"]["p"]) == 600


class TestChoiceLogDir:
    def test_recorded_runs_land_on_disk(self, tmp_path):
        log_dir = str(tmp_path / "choices")
        config = ServerConfig(choice_log_dir=log_dir)
        with ServerThread(config) as handle:
            with handle.client() as client:
                sid = client.call("open_session")["session"]
                client.call("assert_facts", session=sid,
                            facts={"emp": [["a", "x"], ["b", "x"]]})
                result = client.call("run", session=sid,
                                     program=SAMPLE_PROGRAM, mode="one",
                                     seed=5, record=True)
                path = result["choice_log_path"]
        log = ChoiceLog.load(path)
        assert len(log) == len(result["choice_log"]["choices"]) == 1
        assert log.meta["session"] == sid


class TestKillMidRequest:
    def test_sigterm_leaves_valid_partial_artifacts(self, tmp_path):
        """SIGTERM while a request is executing: the server drains,
        cancels the straggler, and still flushes (a) a parseable
        metrics export counting everything served and (b) the completed
        requests' choice logs — nothing half-written."""
        proc, host, port = start_serve(
            tmp_path, "--metrics", "m.prom", "--choice-log-dir", "logs",
            "--drain", "0.3")
        try:
            client = ServerClient.connect_tcp(host, port)
            sid = client.call("open_session")["session"]
            client.call("assert_facts", session=sid,
                        facts={"emp": [["a", "x"], ["b", "x"]]})
            done = client.call("run", session=sid, program=SAMPLE_PROGRAM,
                               mode="one", seed=1, record=True)
            # paths are relative to the server's cwd (tmp_path)
            done_log = tmp_path / done["choice_log_path"]
            assert done_log.exists()
            # a slow request that will still be running at SIGTERM
            client.call("assert_facts", session=sid,
                        facts={"edge": [[f"n{i}", f"n{i + 1}"]
                                        for i in range(2500)]})
            slow_id = client.send({"type": "run", "session": sid,
                                   "program": TC_PROGRAM})
            time.sleep(0.3)  # let the worker enter the evaluation
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
            assert "shutdown: SIGTERM" in out
        finally:
            if proc.poll() is None:
                proc.kill()
        # (a) metrics file: valid exposition, all completed requests in it
        metrics = (tmp_path / "m.prom").read_text()
        assert "# TYPE idlog_server_requests_total counter" in metrics
        assert 'type="open_session",status="ok"} 1' in metrics
        # the interrupted run was counted as cancelled or timed out work,
        # never silently lost
        assert "idlog_server_cancelled_total" in metrics
        # (b) the completed request's choice log still loads
        log = ChoiceLog.load(str(done_log))
        assert len(log) == 1
        assert slow_id  # the slow request existed; its log was never
        # written — partial work leaves no torn files behind
        logs = os.listdir(tmp_path / "logs")
        assert logs == [done_log.name]


class TestCliServeConnect:
    def test_connect_ping(self):
        with ServerThread() as handle:
            host, port = handle.address
            out = io.StringIO()
            rc = main(["connect", "--host", host, "--port", str(port)],
                      out=out)
            assert rc == 0
            assert "server ok: protocol 1" in out.getvalue()

    def test_connect_runs_program_remotely(self, tmp_path):
        program = tmp_path / "tc.dl"
        facts = tmp_path / "facts.dl"
        program.write_text(TC_PROGRAM)
        facts.write_text("edge(a, b).\nedge(b, c).\n")
        with ServerThread() as handle:
            host, port = handle.address
            out = io.StringIO()
            rc = main(["connect", "--host", host, "--port", str(port),
                       str(program), "-f", str(facts), "--stats"], out=out)
            assert rc == 0
            text = out.getvalue()
            assert "path: 3 tuple(s)" in text
            assert "derived=3" in text
            # the one-shot session was closed behind itself
            assert handle.service.session_count() == 0

    def test_connect_refused_is_clean_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises((ConnectionError, OSError)):
            ServerClient.connect_tcp("127.0.0.1", free_port)

    def test_serve_subprocess_clean_sigint(self, tmp_path):
        proc, host, port = start_serve(tmp_path)
        with ServerClient.connect_tcp(host, port) as client:
            assert client.call("ping")["pong"] is True
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert "shutdown: SIGINT" in out
        # stderr carries only the structured lifecycle log (one JSON
        # object per line), nothing ad hoc
        events = [json.loads(line)["event"] for line in err.splitlines()]
        assert events[0] == "listening"
        assert events[-1] == "stopped"
        assert "draining" in events

    def test_serve_log_file_and_level(self, tmp_path):
        proc, host, port = start_serve(
            tmp_path, "--log-file", "server.log", "--log-level", "debug")
        with ServerClient.connect_tcp(host, port) as client:
            assert client.call("ping")["pong"] is True
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert err.strip() == ""  # the log went to the file instead
        lines = [json.loads(line) for line in
                 (tmp_path / "server.log").read_text().splitlines()]
        events = [line["event"] for line in lines]
        assert events[0] == "listening"
        assert "stopped" in events
        # debug level records every request summary
        ping = next(line for line in lines if line["event"] == "request")
        assert ping["type"] == "ping" and ping["status"] == "ok"
        assert ping["request_id"].startswith("r")


def concurrent_session_churn(handle: ServerThread, rounds: int,
                             errors: list) -> None:
    try:
        with handle.client() as client:
            for _ in range(rounds):
                sid = client.call("open_session")["session"]
                client.call("close_session", session=sid)
    except Exception as exc:
        errors.append(repr(exc))


def test_session_churn_under_concurrency():
    """Open/close storms from several threads never corrupt the
    registry or leak sessions."""
    with ServerThread() as handle:
        errors: list = []
        threads = [threading.Thread(target=concurrent_session_churn,
                                    args=(handle, 10, errors))
                   for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert handle.service.session_count() == 0
        assert handle.service.m_sessions.value == 0
