"""The request-completed event: one per finished request, folded by
every per-request sink.

``IdlogService.observe`` builds one :class:`RequestEvent` and hands it
to each sink in ``service._sinks``.  These tests read that list through
a capture sink (the ``_LogCapture`` idiom: a sink that only records),
and drive the folds with hand-built events where the engine cannot be
made to produce one on demand (a plan drift).
"""

import copy
import json

import pytest

from repro.server import IdlogService, ServerConfig, ServerThread
from repro.server.service import RequestEvent

TC_PROGRAM = """
  path(X, Y) :- edge(X, Y).
  path(X, Y) :- edge(X, Z), path(Z, Y).
"""


class _EventCapture:
    """A sink that keeps every event it is handed."""

    def __init__(self) -> None:
        self.events: list[RequestEvent] = []

    def __call__(self, event: RequestEvent) -> None:
        self.events.append(event)


@pytest.fixture
def captured(tmp_path):
    config = ServerConfig(workers=2, slow_ms=0.0,
                          slow_log_path=str(tmp_path / "slow.jsonl"),
                          log_level="error")
    with ServerThread(config) as handle:
        capture = _EventCapture()
        handle.service._sinks.append(capture)
        yield handle, capture


class TestOneEventPerRequest:
    def test_every_sink_folds_the_same_event(self, captured):
        handle, capture = captured
        with handle.client() as client:
            sid = client.call("open_session")["session"]
            client.call("assert_facts", session=sid,
                        facts={"edge": [["a", "b"], ["b", "c"]]})
            result = client.call("run", session=sid, program=TC_PROGRAM,
                                 profile=True)
            client.call("cancel", target="nothing")
            recent = client.call("recent")["requests"]
        # one event per request, in completion order
        events = capture.events
        assert [e.type for e in events] == [
            "open_session", "assert_facts", "run", "cancel", "recent"]
        run = next(e for e in events if e.type == "run")
        assert run.summary["request_id"] == result["request_id"]
        assert run.plan_quality == result["plan_quality"]
        assert run.profile == result["profile"]
        assert run.slow is True
        # the ring holds the event's own summary row, not a rebuilt one
        ring = handle.service._recent
        assert any(row is run.summary for row in ring)
        assert recent[0]["request_id"] == result["request_id"]
        # the transport's cancel carries no context: metrics only
        cancel = next(e for e in events if e.type == "cancel")
        assert cancel.summary is None and cancel.slow is False
        assert all(row["type"] != "cancel" for row in ring)
        slow = handle.service._slow
        assert [entry["request_id"] for entry in slow] == \
            [e.summary["request_id"] for e in events if e.summary]

    def test_timed_out_run_is_folded_once_without_plans(self, captured):
        handle, capture = captured
        with handle.client() as client:
            sid = client.call("open_session")["session"]
            client.call("assert_facts", session=sid, facts={
                "edge": [[f"n{i}", f"n{i + 1}"] for i in range(600)]})
            client.send({"type": "run", "session": sid, "id": "slow",
                         "program": TC_PROGRAM, "timeout": 0.01})
            assert client.recv()["error"]["type"] == "timeout"
            # the session lock waits out the abandoned worker
            client.call("stats", session=sid)
            plans = client.call("plans")
        timed_out = [e for e in capture.events if e.type == "run"]
        assert [e.status for e in timed_out] == ["timeout"]
        assert timed_out[0].plan_quality is None
        assert plans["requests_observed"] == 0


def _drifting_quality(service: IdlogService) -> dict:
    """A real run's plan-quality report, edited to carry one drift."""
    sid = service.handle({"type": "open_session"})["session"]
    service.handle({"type": "assert_facts", "session": sid,
                    "facts": {"edge": [["a", "b"], ["b", "c"]]}})
    quality = copy.deepcopy(service.handle(
        {"type": "run", "session": sid, "program": TC_PROGRAM,
         "profile": True})["plan_quality"])
    quality["plan_drifts"] = 1
    quality["clauses"][0]["plan_drifts"] = 1
    return quality


class TestPlanDriftTrail:
    @pytest.mark.parametrize("slow_ms", [None, 60_000.0],
                             ids=["capture-off", "under-threshold"])
    def test_drift_lands_in_slowlog_file_and_log(self, tmp_path, slow_ms):
        slow_path = tmp_path / "slow.jsonl"
        log_path = tmp_path / "log.jsonl"
        service = IdlogService(ServerConfig(
            slow_ms=slow_ms, slow_log_path=str(slow_path),
            log_path=str(log_path), log_level="warning"))
        context = service.new_context({"id": 7}, "run")
        context.session = "s1"
        context.plan_quality = _drifting_quality(service)
        service.observe("run", "ok", 0.002, context)
        service.log.close()

        wire = service.handle({"type": "slowlog"})["entries"]
        on_disk = [json.loads(line)
                   for line in slow_path.read_text().splitlines()]
        assert [e["event"] for e in wire] == ["plan_drift"]
        assert on_disk == wire
        entry = wire[0]
        # the slow_request schema, profile aside
        summary = context.summary("ok", 0.002)
        assert set(entry) == {"event", "schema"} | set(summary)
        assert entry["schema"] == 1
        assert entry["request_id"] == context.request_id
        assert entry["id"] == 7
        assert entry["plan_quality"]["plan_drifts"] == 1
        assert entry["plan_quality"]["worst_clause"] == \
            context.plan_quality["clauses"][0]["clause"]

        lines = [json.loads(line)
                 for line in log_path.read_text().splitlines()]
        drifts = [line for line in lines if line["event"] == "plan_drift"]
        assert len(drifts) == 1
        assert drifts[0]["level"] == "warning"
        assert drifts[0]["request_id"] == context.request_id
        assert not any(line["event"] == "slow_request" for line in lines)

        # the plans fold saw the same drift
        rows = service.handle({"type": "plans"})["clauses"]
        drifted = context.plan_quality["clauses"][0]["clause"]
        assert next(r for r in rows
                    if r["clause"] == drifted)["plan_drifts"] == 1
