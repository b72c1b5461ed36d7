"""Live-server tests: every protocol request type over real sockets.

One module-scoped server hosts most tests (sessions are isolated, so
tests cannot see each other); lifecycle-sensitive cases (shutdown,
SIGTERM, unix sockets) spin up their own servers in
``test_lifecycle.py``.  ``docs/SERVER.md`` documents every request type
in :data:`repro.server.protocol.REQUEST_TYPES`; ``tests/test_docs.py``
cross-checks that each of those types appears in THIS file, so a new
request type cannot ship untested.
"""

import json
import socket
import threading

import pytest

from repro.core import IdlogEngine
from repro.core.choicelog import ChoiceLog
from repro.datalog import Database
from repro.server import ServerConfig, ServerError, ServerThread, http_get

TC_PROGRAM = """
  path(X, Y) :- edge(X, Y).
  path(X, Y) :- edge(X, Z), path(Z, Y).
"""

SAMPLE_PROGRAM = """
  pick(Name, Dept) :- emp[2](Name, Dept, N), N < 1.
"""

EMP_ROWS = [["ann", "toys"], ["bob", "toys"], ["cal", "toys"],
            ["dee", "it"], ["eli", "it"]]


@pytest.fixture(scope="module")
def server():
    with ServerThread(ServerConfig(workers=4, drain_s=2.0)) as handle:
        yield handle


@pytest.fixture
def client(server):
    with server.client() as handle:
        yield handle


@pytest.fixture
def session(client):
    sid = client.call("open_session")["session"]
    yield sid
    try:
        client.call("close_session", session=sid)
    except (ServerError, ConnectionError):
        pass


def slow_edges(n: int = 600) -> list[list[str]]:
    """A chain whose transitive closure takes a few hundred ms."""
    return [[f"n{i}", f"n{i + 1}"] for i in range(n)]


def metric(server, sample: str) -> float:
    """One sample's value in the server's exposition (0 when absent)."""
    for line in server.service.metrics_text().splitlines():
        if line.startswith(sample + " "):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def terminal_counts(server) -> dict:
    """The counters a timed-out or cancelled run moves."""
    return {sample: metric(server, sample) for sample in (
        "idlog_server_timeouts_total", "idlog_server_cancelled_total",
        'idlog_server_requests_total{type="run",status="timeout"}',
        'idlog_server_requests_total{type="run",status="cancelled"}')}


class TestBasics:
    def test_ping(self, client):
        result = client.call("ping")
        assert result["pong"] is True
        assert result["protocol"] == 1

    def test_open_session(self, client):
        result = client.call("open_session")
        assert result["session"].startswith("s")
        assert result == {"session": result["session"], "plan": "greedy"}
        client.call("close_session", session=result["session"])

    @pytest.mark.parametrize("engine", ["batch", "vectorized", 7])
    def test_retired_engine_field_is_ignored(self, client, engine):
        """Clients from before the single-engine release may still send
        ``engine``; like any unrecognised field it is ignored, and neither
        open_session nor prepare echoes it back."""
        result = client.call("open_session", plan="cost", engine=engine)
        sid = result["session"]
        assert result == {"session": sid, "plan": "cost"}
        client.call("assert_facts", session=sid,
                    facts={"edge": [["a", "b"], ["b", "c"]]})
        prepared = client.call("prepare", session=sid, name="tc",
                               program=TC_PROGRAM, engine=engine)
        assert "engine" not in prepared
        run = client.call("run", session=sid, prepared="tc")
        assert run["answers"]["path"] == [["a", "b"], ["a", "c"],
                                          ["b", "c"]]
        client.call("close_session", session=sid)

    def test_close_session_then_use_fails(self, client):
        sid = client.call("open_session")["session"]
        assert client.call("close_session", session=sid)["closed"] == sid
        with pytest.raises(ServerError) as err:
            client.call("stats", session=sid)
        assert err.value.error_type == "unknown_session"

    def test_assert_facts(self, client, session):
        result = client.call("assert_facts", session=session,
                             facts={"emp": EMP_ROWS},
                             udom=["extra"])
        assert result["added"] == 5
        assert result["relations"] == {"emp": 5}
        # 5 names + 2 departments + the declared extra
        assert result["udomain_size"] == 8

    def test_assert_facts_rejects_bad_rows(self, client, session):
        with pytest.raises(ServerError) as err:
            client.call("assert_facts", session=session,
                        facts={"emp": [[["nested"]]]})
        assert err.value.error_type == "bad_request"

    @pytest.mark.parametrize("facts, error_type", [
        ({"emp": [["a", "d1"], ["b", 1.5]]}, "bad_request"),
        ({"emp": [["a", "d1"], ["b", "d2", "x"]]}, "schema_error"),
        ({"emp": [["a", "d1"], ["b", 2]]}, "schema_error"),
        ({"edge": [["x", "y"], ["x"]]}, "schema_error"),
        ({"emp": [["a", "d1"]], "edge": [["x", 1]]}, "schema_error"),
    ], ids=["bad-value", "arity", "sort", "existing-arity",
            "second-predicate"])
    def test_failed_assert_facts_writes_nothing(self, client, session,
                                                facts, error_type):
        client.call("assert_facts", session=session,
                    facts={"edge": [["a", "b"]]})
        before = client.call("stats", session=session)
        with pytest.raises(ServerError) as err:
            client.call("assert_facts", session=session, facts=facts)
        assert err.value.error_type == error_type
        assert client.call("stats", session=session) == before
        result = client.call("run", session=session, program=TC_PROGRAM)
        assert result["answers"]["path"] == [["a", "b"]]

    def test_stats(self, client, session):
        client.call("assert_facts", session=session,
                    facts={"edge": [["a", "b"]]})
        report = client.call("stats", session=session)
        assert report["session"] == session
        assert report["relations"]["edge"]["rows"] == 1

    def test_server_stats(self, client, session):
        report = client.call("server_stats")
        assert report["sessions"] >= 1
        assert report["protocol"] == 1
        assert report["workers"] == 4


class TestEvaluation:
    def test_run_canonical(self, client, session):
        client.call("assert_facts", session=session,
                    facts={"edge": [["a", "b"], ["b", "c"]]})
        result = client.call("run", session=session, program=TC_PROGRAM)
        assert result["answers"]["path"] == \
            [["a", "b"], ["a", "c"], ["b", "c"]]
        assert result["mode"] == "run"
        again = client.call("run", session=session, program=TC_PROGRAM)
        assert again["answers"] == result["answers"]

    def test_run_query_restriction(self, client, session):
        client.call("assert_facts", session=session,
                    facts={"edge": [["a", "b"]]})
        result = client.call("run", session=session, program=TC_PROGRAM,
                             query=["path"])
        assert list(result["answers"]) == ["path"]
        with pytest.raises(ServerError) as err:
            client.call("run", session=session, program=TC_PROGRAM,
                        query=["nope"])
        assert err.value.error_type == "bad_request"

    def test_run_one_seeded_and_recorded(self, client, session):
        client.call("assert_facts", session=session,
                    facts={"emp": EMP_ROWS})
        result = client.call("run", session=session,
                             program=SAMPLE_PROGRAM, mode="one", seed=3,
                             record=True)
        assert result["id_choices"] == 2  # one per department block
        picks = result["answers"]["pick"]
        assert len(picks) == 2
        log = ChoiceLog.from_jsonable(result["choice_log"])
        assert len(log) == 2

    def test_replay_reproduces_recorded_run(self, client, session):
        client.call("assert_facts", session=session,
                    facts={"emp": EMP_ROWS})
        recorded = client.call("run", session=session,
                               program=SAMPLE_PROGRAM, mode="one",
                               seed=11, record=True)
        replayed = client.call("run", session=session,
                               program=SAMPLE_PROGRAM,
                               replay=recorded["choice_log"])
        assert replayed["answers"] == recorded["answers"]

    def test_replay_drift_is_typed(self, client, session):
        client.call("assert_facts", session=session,
                    facts={"emp": EMP_ROWS})
        recorded = client.call("run", session=session,
                               program=SAMPLE_PROGRAM, mode="one",
                               seed=1, record=True)
        client.call("assert_facts", session=session,
                    facts={"emp": [["new", "toys"]]})
        with pytest.raises(ServerError) as err:
            client.call("run", session=session, program=SAMPLE_PROGRAM,
                        replay=recorded["choice_log"])
        assert err.value.error_type == "replay_error"

    def test_record_and_replay_are_exclusive(self, client, session):
        with pytest.raises(ServerError) as err:
            client.call("run", session=session, program=SAMPLE_PROGRAM,
                        record=True, replay={"records": []})
        assert err.value.error_type == "bad_request"

    def test_replay_with_edited_answers_is_a_replay_error(self, client,
                                                           session):
        client.call("assert_facts", session=session,
                    facts={"emp": EMP_ROWS})
        recorded = client.call("run", session=session,
                               program=SAMPLE_PROGRAM, mode="one",
                               seed=2, record=True)
        log = recorded["choice_log"]
        log["answers"] = {"pick": [["zzz", "d9"]]}
        with pytest.raises(ServerError) as err:
            client.call("run", session=session, program=SAMPLE_PROGRAM,
                        replay=log)
        assert err.value.error_type == "replay_error"
        assert "replayed answers for pick differ" in str(err.value)

    @pytest.mark.parametrize("replay", [
        {"choices": [{"pred": "emp"}]},
        {"choices": [1]},
        {"groupings": [{"x": 1}]},
    ])
    def test_malformed_replay_log_is_a_bad_request(self, client, session,
                                                    replay):
        with pytest.raises(ServerError) as err:
            client.call("run", session=session, program=SAMPLE_PROGRAM,
                        replay=replay)
        assert err.value.error_type == "bad_request"
        assert "choice log" in str(err.value)

    def test_answers(self, client, session):
        client.call("assert_facts", session=session,
                    facts={"emp": EMP_ROWS})
        result = client.call("answers", session=session,
                             program=SAMPLE_PROGRAM, pred="pick")
        # 3 toys choices x 2 it choices
        assert result["count"] == 6
        assert all(len(answer) == 2 for answer in result["answers"])


class TestPreparedPrograms:
    def test_prepare_describes_program(self, client, session):
        result = client.call("prepare", session=session, name="tc",
                             program=TC_PROGRAM)
        assert result["name"] == "tc"
        assert result["outputs"] == ["path"]
        assert result["inputs"] == ["edge"]
        assert result["cached"] is False

    def test_prepare_again_is_cached(self, client, session):
        client.call("prepare", session=session, name="tc",
                    program=TC_PROGRAM)
        assert client.call("prepare", session=session, name="tc",
                           program=TC_PROGRAM)["cached"] is True
        # same name, new source: recompiled
        assert client.call("prepare", session=session, name="tc",
                           program="p(X) :- edge(X, _).")["cached"] is False

    def test_prepared_run_reuses_pipelines(self, client, session):
        client.call("assert_facts", session=session,
                    facts={"edge": [["a", "b"], ["b", "c"]]})
        client.call("prepare", session=session, name="tc",
                    program=TC_PROGRAM)
        first = client.call("run", session=session, prepared="tc")
        assert first["stats"]["pipelines_compiled"] > 0
        second = client.call("run", session=session, prepared="tc")
        assert second["stats"]["pipelines_compiled"] == 0
        assert second["stats"]["pipelines_reused"] > 0
        assert second["answers"] == first["answers"]

    def test_inline_program_cache_hits(self, client, session):
        client.call("assert_facts", session=session,
                    facts={"edge": [["a", "b"]]})
        first = client.call("run", session=session, program=TC_PROGRAM)
        second = client.call("run", session=session, program=TC_PROGRAM)
        assert second["stats"]["pipelines_compiled"] == 0
        assert second["stats"]["pipelines_reused"] > 0
        assert first["prepared"] == second["prepared"]  # same cache entry

    def test_unknown_prepared(self, client, session):
        with pytest.raises(ServerError) as err:
            client.call("run", session=session, prepared="ghost")
        assert err.value.error_type == "unknown_prepared"

    def test_prepare_parse_error_is_typed(self, client, session):
        with pytest.raises(ServerError) as err:
            client.call("prepare", session=session, name="bad",
                        program="p(X :- q(X).")
        assert err.value.error_type == "parse_error"

    def test_prepare_rejects_choice_programs(self, client, session):
        with pytest.raises(ServerError) as err:
            client.call("prepare", session=session, name="ch",
                        program="s(N) :- emp(N, D), choice((D), (N)).")
        assert err.value.error_type == "bad_request"


class TestSnapshotRestore:
    def test_round_trip(self, client, session, tmp_path):
        target = str(tmp_path / "db")
        client.call("assert_facts", session=session,
                    facts={"edge": [["a", "b"], ["b", "c"]]})
        saved = client.call("snapshot", session=session, dir=target)
        assert saved == {"dir": target, "relations": 1, "rows": 2,
                         "format": 2}
        fresh = client.call("open_session")["session"]
        restored = client.call("restore", session=fresh, dir=target)
        assert restored["rows"] == 2
        result = client.call("run", session=fresh, program=TC_PROGRAM)
        assert len(result["answers"]["path"]) == 3
        client.call("close_session", session=fresh)

    def test_restore_missing_dir_is_typed(self, client, session,
                                          tmp_path):
        with pytest.raises(ServerError) as err:
            client.call("restore", session=session,
                        dir=str(tmp_path / "nope"))
        assert err.value.error_type == "schema_error"


class TestRobustness:
    def test_garbage_line_keeps_connection(self, client):
        client._sock.sendall(b"this is not json\n")
        response = client.recv()
        assert response["ok"] is False
        assert response["error"]["type"] == "bad_request"
        assert client.call("ping")["pong"] is True

    def test_unknown_type_keeps_connection(self, client):
        with pytest.raises(ServerError) as err:
            client.call("frobnicate")
        assert err.value.error_type == "bad_request"
        assert client.call("ping")["pong"] is True

    def test_unknown_session(self, client):
        with pytest.raises(ServerError) as err:
            client.call("run", session="s999999", program=TC_PROGRAM)
        assert err.value.error_type == "unknown_session"

    def test_request_timeout(self, server, client, session):
        client.call("assert_facts", session=session,
                    facts={"edge": slow_edges()})
        before = terminal_counts(server)
        with pytest.raises(ServerError) as err:
            client.call("run", session=session, program=TC_PROGRAM,
                        timeout=0.01, id="timed-out-run")
        assert err.value.error_type == "timeout"
        # the connection and session both survive the timeout
        assert client.call("ping")["pong"] is True
        # both counters derive from the one event's status
        after = terminal_counts(server)
        assert {k: after[k] - before[k] for k in after} == {
            "idlog_server_timeouts_total": 1,
            "idlog_server_cancelled_total": 0,
            'idlog_server_requests_total{type="run",status="timeout"}': 1,
            'idlog_server_requests_total{type="run",status="cancelled"}':
                0}
        recent = client.call("recent", limit=128)["requests"]
        assert [e["status"] for e in recent
                if e["id"] == "timed-out-run"] == ["timeout"]

    def test_cancel_inflight_request(self, server, client, session):
        client.call("assert_facts", session=session,
                    facts={"edge": slow_edges()})
        before = terminal_counts(server)
        run_id = client.send({"type": "run", "session": session,
                              "program": TC_PROGRAM, "id": "cancelled-run"})
        cancel_id = client.send({"type": "cancel", "target": run_id})
        by_id = {}
        while len(by_id) < 2:
            response = client.recv()
            by_id[response["id"]] = response
        assert by_id[cancel_id]["result"]["cancelled"] is True
        assert by_id[run_id]["ok"] is False
        assert by_id[run_id]["error"]["type"] == "cancelled"
        assert client.call("ping")["pong"] is True
        after = terminal_counts(server)
        assert {k: after[k] - before[k] for k in after} == {
            "idlog_server_timeouts_total": 0,
            "idlog_server_cancelled_total": 1,
            'idlog_server_requests_total{type="run",status="timeout"}': 0,
            'idlog_server_requests_total{type="run",status="cancelled"}':
                1}
        recent = client.call("recent", limit=128)["requests"]
        assert [e["status"] for e in recent
                if e["id"] == "cancelled-run"] == ["cancelled"]

    def test_cancel_unknown_target(self, client):
        result = client.call("cancel", target=424242)
        assert result["cancelled"] is False

    def test_pipelined_requests_one_connection(self, client, session):
        client.call("assert_facts", session=session,
                    facts={"edge": [["a", "b"], ["b", "c"]]})
        ids = [client.send({"type": "run", "session": session,
                            "program": TC_PROGRAM}) for _ in range(5)]
        responses = {}
        while len(responses) < len(ids):
            response = client.recv()
            responses[response["id"]] = response
        assert all(responses[i]["ok"] for i in ids)
        answers = {tuple(map(tuple, responses[i]["result"]["answers"]
                             ["path"])) for i in ids}
        assert len(answers) == 1  # all five identical


class TestConcurrentClients:
    def test_eight_parallel_clients(self, server):
        errors: list[str] = []
        answers: list[list] = []

        def one_client(index: int) -> None:
            try:
                with server.client() as handle:
                    sid = handle.call("open_session")["session"]
                    handle.call("assert_facts", session=sid,
                                facts={"edge": [["a", "b"], ["b", "c"]]})
                    for _ in range(3):
                        result = handle.call("run", session=sid,
                                             program=TC_PROGRAM)
                        answers.append(result["answers"]["path"])
                    handle.call("close_session", session=sid)
            except Exception as exc:
                errors.append(f"client {index}: {exc!r}")

        threads = [threading.Thread(target=one_client, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert len(answers) == 24
        assert all(a == [["a", "b"], ["a", "c"], ["b", "c"]]
                   for a in answers)

    def test_sessions_are_isolated(self, server):
        with server.client() as a, server.client() as b:
            sid_a = a.call("open_session")["session"]
            sid_b = b.call("open_session")["session"]
            a.call("assert_facts", session=sid_a,
                   facts={"edge": [["a", "b"]]})
            b.call("assert_facts", session=sid_b,
                   facts={"edge": [["x", "y"]]})
            paths_a = a.call("run", session=sid_a,
                             program=TC_PROGRAM)["answers"]["path"]
            paths_b = b.call("run", session=sid_b,
                             program=TC_PROGRAM)["answers"]["path"]
            assert paths_a == [["a", "b"]]
            assert paths_b == [["x", "y"]]
            a.call("close_session", session=sid_a)
            b.call("close_session", session=sid_b)


class TestHttp:
    def test_healthz(self, server):
        host, port = server.address
        code, body = http_get(host, port, "/healthz")
        assert code == 200
        assert '"status": "ok"' in body

    def test_metrics_exposition(self, server, client, session):
        client.call("run", session=session, program="p(X) :- udom(X).")
        host, port = server.address
        code, body = http_get(host, port, "/metrics")
        assert code == 200
        assert "# TYPE idlog_server_requests_total counter" in body
        assert 'idlog_server_requests_total{type="run",status="ok"}' \
            in body
        assert "idlog_server_request_duration_bucket" in body
        # engine metrics share the registry
        assert "idlog_evaluation_seconds" in body

    def test_http_404(self, server):
        host, port = server.address
        code, body = http_get(host, port, "/nope")
        assert code == 404


class TestRequestObservability:
    EDGES = [["a", "b"], ["b", "c"], ["c", "d"]]

    def test_every_run_returns_its_request_id(self, client, session):
        result = client.call("run", session=session,
                             program="p(X) :- udom(X).")
        assert result["request_id"].startswith("r")

    def test_plain_run_carries_no_observability_payload(self, client,
                                                        session):
        result = client.call("run", session=session,
                             program="p(X) :- udom(X).")
        assert "trace" not in result
        assert "profile" not in result
        assert "choice_digest" not in result  # no slow capture here

    def test_trace_events_are_context_stamped(self, client, session):
        client.call("assert_facts", session=session,
                    facts={"edge": self.EDGES})
        result = client.call("run", session=session, program=TC_PROGRAM,
                             trace=True)
        events = result["trace"]
        assert events[0]["event"] == "eval_start"
        assert events[-1]["event"] == "eval_end"
        assert all(e["schema"] == 1 for e in events)
        assert all(e["request_id"] == result["request_id"]
                   for e in events)
        assert all(e["session_id"] == session for e in events)

    def test_profile_is_the_per_clause_fold(self, client, session):
        client.call("assert_facts", session=session,
                    facts={"edge": self.EDGES})
        result = client.call("run", session=session, program=TC_PROGRAM,
                             profile=True)
        profile = result["profile"]
        assert profile["schema"] == 1
        assert profile["clauses"], "per-clause rows expected"
        for row in profile["clauses"]:
            assert {"clause", "wall_s", "probes", "firings"} <= set(row)
        assert "trace" not in result  # profile alone buffers no events

    def test_choice_digest_matches_the_recorded_log(self, client,
                                                    session):
        client.call("assert_facts", session=session,
                    facts={"emp": EMP_ROWS})
        result = client.call("run", session=session,
                             program=SAMPLE_PROGRAM, mode="one", seed=5,
                             record=True, trace=True)
        log = ChoiceLog.from_jsonable(result["choice_log"])
        assert result["choice_digest"] == log.digest()

    def test_replay_digest_matches_the_recording(self, client, session):
        client.call("assert_facts", session=session,
                    facts={"emp": EMP_ROWS})
        recorded = client.call("run", session=session,
                               program=SAMPLE_PROGRAM, mode="one",
                               seed=9, record=True, trace=True)
        replayed = client.call("run", session=session,
                               program=SAMPLE_PROGRAM,
                               replay=recorded["choice_log"],
                               trace=True)
        assert replayed["choice_digest"] == recorded["choice_digest"]
        assert replayed["answers"] == recorded["answers"]

    def test_recent_ring_summarises_requests(self, client, session):
        result = client.call("run", session=session,
                             program="p(X) :- udom(X).")
        recent = client.call("recent", limit=20)
        assert recent["capacity"] >= recent["count"] >= 1
        assert recent["requests_served"] >= recent["count"]
        entry = next(e for e in recent["requests"]
                     if e["request_id"] == result["request_id"])
        assert entry["type"] == "run"
        assert entry["status"] == "ok"
        assert entry["session"] == session
        assert isinstance(entry["wall_ms"], (int, float))
        assert isinstance(entry["queue_ms"], (int, float))
        # newest first: the run is nearer the head than its session open
        ids = [e["request_id"] for e in recent["requests"]]
        assert ids == sorted(ids, key=lambda r: -int(r[1:]))

    def test_recent_rejects_bad_limit(self, client):
        with pytest.raises(ServerError) as err:
            client.call("recent", limit=0)
        assert err.value.error_type == "bad_request"

    def test_slowlog_off_by_default(self, client):
        result = client.call("slowlog")
        assert result == {"slow_ms": None, "path": None, "count": 0,
                          "entries": []}
        assert client.call("server_stats")["slow_ms"] is None


class TestSlowQueryCapture:
    @pytest.fixture
    def slow_server(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        config = ServerConfig(workers=2, slow_ms=0.0,
                              slow_log_path=str(path),
                              log_level="error")
        with ServerThread(config) as handle:
            yield handle, path

    def test_entries_match_wire_responses(self, slow_server):
        handle, path = slow_server
        with handle.client() as client:
            sid = client.call("open_session")["session"]
            client.call("assert_facts", session=sid,
                        facts={"emp": EMP_ROWS})
            result = client.call("run", session=sid,
                                 program=SAMPLE_PROGRAM, mode="one",
                                 seed=3)
            assert client.call("server_stats")["slow_ms"] == 0.0
            wire = client.call("slowlog")
        entries = [json.loads(line)
                   for line in path.read_text().splitlines()]
        entry = next(e for e in entries
                     if e["request_id"] == result["request_id"])
        assert entry["event"] == "slow_request"
        assert entry["schema"] == 1
        assert entry["type"] == "run"
        assert entry["session"] == sid
        # at threshold 0 the run was captured WITH profile and digest,
        # both agreeing with the response the client saw
        assert entry["choice_digest"] == result["choice_digest"]
        assert entry["profile"]["clauses"]
        # the in-memory view (the slowlog request) agrees with the file
        assert wire["slow_ms"] == 0.0
        assert wire["path"] == str(path)
        assert any(e["request_id"] == result["request_id"]
                   for e in wire["entries"])

    def test_digests_match_under_concurrent_clients(self, slow_server):
        """Eight clients sampling at once: every captured run entry
        carries the choice digest its own wire response carried."""
        handle, path = slow_server
        digests: dict = {}
        errors: list[str] = []

        def one_client(index: int) -> None:
            try:
                with handle.client() as client:
                    sid = client.call("open_session")["session"]
                    client.call("assert_facts", session=sid,
                                facts={"emp": EMP_ROWS})
                    for seed in range(3):
                        result = client.call(
                            "run", session=sid, program=SAMPLE_PROGRAM,
                            mode="one", seed=index * 10 + seed)
                        digests[result["request_id"]] = \
                            result["choice_digest"]
                    client.call("close_session", session=sid)
            except Exception as exc:
                errors.append(f"client {index}: {exc!r}")

        threads = [threading.Thread(target=one_client, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert len(digests) == 24
        runs = [json.loads(line) for line in path.read_text().splitlines()]
        runs = [e for e in runs if e.get("type") == "run"]
        assert {e["request_id"] for e in runs} == set(digests)
        for entry in runs:
            assert entry["choice_digest"] == digests[entry["request_id"]]

    def test_slow_counter_in_metrics(self, slow_server):
        handle, _ = slow_server
        with handle.client() as client:
            client.call("ping")
        text = handle.service.metrics_text()
        assert "idlog_server_slow_requests_total" in text
        assert "idlog_server_request_duration_bucket" in text


class TestHttpEdgeCases:
    def test_404_body_names_the_real_paths(self, server):
        host, port = server.address
        code, body = http_get(host, port, "/bogus")
        assert code == 404
        assert "/metrics" in body and "/healthz" in body

    def test_http_counter_labels_per_path(self, server):
        host, port = server.address
        http_get(host, port, "/healthz")
        http_get(host, port, "/nope")
        _, text = http_get(host, port, "/metrics")
        assert 'idlog_server_http_requests_total{path="/healthz"}' \
            in text
        assert 'idlog_server_http_requests_total{path="other"}' in text
        # the /metrics scrape itself is labelled too
        _, text = http_get(host, port, "/metrics")
        assert 'idlog_server_http_requests_total{path="/metrics"}' \
            in text

    def test_oversized_request_line_is_typed(self, server):
        from repro.server.server import LINE_LIMIT
        host, port = server.address
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(b"x" * (LINE_LIMIT + 2))
            sock.shutdown(socket.SHUT_WR)
            blob = b""
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                blob += chunk
        response = json.loads(blob.splitlines()[0])
        assert response["ok"] is False
        assert response["error"]["type"] == "bad_request"
        assert "byte limit" in response["error"]["message"]


class TestServeVsInProcessDifferential:
    """Same program + facts + seed through the wire and in process must
    produce identical answers AND identical choice-log digests — the
    server adds transport, not semantics (acceptance criterion 3)."""

    def test_differential(self, client, session):
        facts = {"emp": [(r[0], r[1]) for r in EMP_ROWS]}
        for seed in (0, 7, 123):
            local_log = ChoiceLog()
            local = IdlogEngine(SAMPLE_PROGRAM).one(
                Database.from_facts(facts), seed=seed, record=local_log)
            client.call("assert_facts", session=session,
                        facts={"emp": EMP_ROWS})
            remote = client.call("run", session=session,
                                 program=SAMPLE_PROGRAM, mode="one",
                                 seed=seed, record=True)
            local_answers = sorted(
                [list(row) for row in local.tuples("pick")])
            assert remote["answers"]["pick"] == local_answers, seed
            remote_log = ChoiceLog.from_jsonable(remote["choice_log"])
            local_records = sorted(
                ((r.pred, tuple(r.group), r.block_digest,
                  tuple(r.ordering)) for r in local_log.records),
                key=repr)
            remote_records = sorted(
                ((r.pred, tuple(r.group), r.block_digest,
                  tuple(r.ordering)) for r in remote_log.records),
                key=repr)
            assert remote_records == local_records, seed


class TestPlanQuality:
    """The estimated-vs-actual cardinality feedback loop over the wire:
    profiled runs return a ``plan_quality`` block, the ring summary
    carries a compact roll-up, and the ``plans`` request serves the
    cross-request aggregate ranked by q-error."""

    EDGES = [["a", "b"], ["b", "c"], ["c", "d"]]

    def profiled_run(self, client, session):
        client.call("assert_facts", session=session,
                    facts={"edge": self.EDGES})
        return client.call("run", session=session, program=TC_PROGRAM,
                           profile=True)

    def test_profiled_run_returns_plan_quality(self, client, session):
        result = self.profiled_run(client, session)
        quality = result["plan_quality"]
        assert quality["schema"] == 1
        assert quality["misestimate_threshold"] == 4.0
        assert quality["clauses"], "estimate-bearing rows expected"
        for row in quality["clauses"]:
            assert {"clause", "calls", "est_probes", "probes",
                    "q_error", "worst_stage_q_error",
                    "misestimated"} <= set(row)
        assert quality["max_q_error"] >= quality["median_q_error"] >= 1.0

    def test_plain_run_has_no_plan_quality(self, client, session):
        client.call("assert_facts", session=session,
                    facts={"edge": self.EDGES})
        result = client.call("run", session=session, program=TC_PROGRAM)
        assert "plan_quality" not in result

    def test_ring_summary_carries_the_rollup(self, client, session):
        result = self.profiled_run(client, session)
        recent = client.call("recent", limit=50)
        entry = next(e for e in recent["requests"]
                     if e["request_id"] == result["request_id"])
        rollup = entry["plan_quality"]
        assert set(rollup) == {"median_q_error", "max_q_error",
                               "misestimates", "plan_drifts",
                               "worst_clause"}
        assert rollup["max_q_error"] == \
            result["plan_quality"]["max_q_error"]
        assert rollup["worst_clause"] == \
            result["plan_quality"]["clauses"][0]["clause"]

    def test_plans_aggregates_across_requests(self, client, session):
        self.profiled_run(client, session)
        self.profiled_run(client, session)
        report = client.call("plans", limit=10)
        assert report["requests_observed"] >= 2
        assert report["misestimate_threshold"] == 4.0
        assert report["count"] == len(report["clauses"])
        rows = report["clauses"]
        assert rows, "the profiled runs must have folded in"
        for row in rows:
            assert {"clause", "stratum", "requests", "calls",
                    "est_probes", "probes", "worst_q_error",
                    "misestimates", "plan_drifts"} <= set(row)
        # Worst-estimated first; clause text breaks ties.
        worsts = [r["worst_q_error"] for r in rows]
        assert worsts == sorted(worsts, reverse=True)
        both = next(r for r in rows
                    if r["clause"].startswith("path(X, Y) :- edge(X, Y)"))
        assert both["requests"] >= 2

    def test_plans_limit_drops_the_tail(self, client, session):
        self.profiled_run(client, session)
        full = client.call("plans", limit=4096)
        cut = client.call("plans", limit=1)
        assert len(cut["clauses"]) == 1
        assert cut["dropped"] == full["count"] - 1
        assert cut["clauses"][0] == full["clauses"][0]

    def test_plans_rejects_bad_limit(self, client):
        with pytest.raises(ServerError, match="limit"):
            client.call("plans", limit=0)

    def test_plans_on_idle_server_is_empty(self, tmp_path):
        config = ServerConfig(workers=1, log_level="error")
        with ServerThread(config) as handle:
            with handle.client() as client:
                report = client.call("plans")
        assert report["clauses"] == []
        assert report["requests_observed"] == 0
        assert report["observing"] is False
