"""The CLI and the server run through one entry point
(:func:`repro.core.run_program`): the same program, facts and seed give
the same recorded choices on both surfaces, a log recorded on either
replays on the other, and no replay object can crash a session."""

import io
import uuid

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import IdlogEngine, run_program
from repro.core import run as run_module
from repro.core.choicelog import ChoiceLog
from repro.datalog.database import Database
from repro.datalog import trace as trace_module
from repro.server import ServerConfig
from repro.server import service as service_module
from repro.server.protocol import ERROR_TYPES, classify_exception
from repro.server.service import IdlogService

PROGRAM = "pick(N, D) :- emp[2](N, D, T), T < 2.\n"
EMP = [["ann", "toys"], ["bob", "toys"], ["cal", "toys"], ["dee", "it"],
       ["eli", "it"], ["fay", "hr"]]


def run_cli(*argv):
    out = io.StringIO()
    return main(list(argv), out=out), out.getvalue()


def open_session(service) -> str:
    sid = service.handle({"type": "open_session"})["session"]
    service.handle({"type": "assert_facts", "session": sid,
                    "facts": {"emp": EMP}})
    return sid


@pytest.fixture
def files(tmp_path):
    program = tmp_path / "sample.dl"
    program.write_text(PROGRAM)
    facts = tmp_path / "facts.dl"
    facts.write_text("".join(f"emp({n}, {d}).\n" for n, d in EMP))
    return str(program), str(facts)


def without_meta(log: ChoiceLog) -> dict:
    data = log.to_jsonable()
    del data["meta"]
    return data


@pytest.mark.parametrize("mode, seed", [("run", None), ("one", 7),
                                        ("one", 8)])
def test_cli_and_server_record_the_same_run(files, tmp_path, mode, seed):
    program, facts = files
    seed_args = [] if seed is None else ["--seed", str(seed)]
    cli_file = tmp_path / "cli.jsonl"
    code, _ = run_cli("run", program, "-f", facts, "--mode", mode,
                      *seed_args, "--record", str(cli_file))
    assert code == 0
    cli_log = ChoiceLog.load(str(cli_file))

    service = IdlogService(ServerConfig(
        choice_log_dir=str(tmp_path / "logs")))
    sid = open_session(service)
    request = {"type": "run", "session": sid, "program": PROGRAM,
               "mode": mode, "record": True}
    if seed is not None:
        request["seed"] = seed
    response = service.handle(request)
    server_log = ChoiceLog.from_jsonable(response["choice_log"])

    assert without_meta(server_log) == without_meta(cli_log)
    assert response["choice_digest"] == cli_log.digest()

    # Server-recorded file -> CLI replay.
    code, output = run_cli("run", program, "-f", facts, "--replay",
                           response["choice_log_path"])
    assert code == 0
    assert "answers match the recorded run (1 predicate(s) verified)" \
        in output
    # CLI-recorded file -> server replay.
    replayed = service.handle({"type": "run", "session": sid,
                               "program": PROGRAM,
                               "replay": cli_log.to_jsonable()})
    assert replayed["answers"] == response["answers"]
    assert replayed["choice_digest"] == cli_log.digest()


def test_untraced_run_request_builds_no_observer(monkeypatch):
    service = IdlogService()
    sid = open_session(service)

    def refuse(*args, **kwargs):
        raise AssertionError("an untraced run built an observer")
    monkeypatch.setattr(run_module, "ChoiceLog", refuse)
    monkeypatch.setattr(run_module, "TimingTracer", refuse)
    monkeypatch.setattr(trace_module, "TeeTracer", refuse)
    monkeypatch.setattr(service_module, "ContextTracer", refuse)
    result = service.handle({"type": "run", "session": sid,
                             "program": PROGRAM, "mode": "one", "seed": 1})
    assert "choice_digest" not in result
    assert len(result["answers"]["pick"]) == 5


def gauge(service, name: str) -> float:
    for line in service.metrics_text().splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    raise AssertionError(f"{name} not exported")


def test_pool_gauges_follow_the_constant_pool(tmp_path):
    path = tmp_path / "metrics.prom"
    service = IdlogService(ServerConfig(metrics_path=str(path)))
    sid = open_session(service)
    constants = gauge(service, "idlog_pool_constants")
    size = gauge(service, "idlog_pool_approx_bytes")
    fresh = [[f"fresh_{uuid.uuid4().hex}"] for _ in range(5)]
    service.handle({"type": "assert_facts", "session": sid,
                    "facts": {"tag": fresh}})
    assert gauge(service, "idlog_pool_constants") >= constants + 5
    assert gauge(service, "idlog_pool_approx_bytes") > size
    service.flush_metrics()
    assert "idlog_pool_constants " in path.read_text()


# -- random replay objects ---------------------------------------------------

#: A real recording: random replay objects are mostly this log with one
#: entry field dropped or replaced, so they get past the early checks.
RECORDED = run_program(IdlogEngine(PROGRAM),
                       Database.from_facts({"emp": map(tuple, EMP)}),
                       "one", 5, ["pick"], record={}).log.to_jsonable()

scalars = (st.none() | st.booleans() | st.integers(-2, 3)
           | st.sampled_from(["emp", "toys", "it", "ann", "", "x"])
           | st.floats(allow_nan=False, allow_infinity=False))
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(["a", "pred"]), inner,
                                     max_size=2)),
    max_leaves=6)
FIELDS = ["pred", "group", "tid_limit", "block", "block_digest",
          "block_size", "ordering", "kind"]


def corrupted(entry: dict) -> st.SearchStrategy:
    """``entry`` with one field replaced or dropped, or any JSON value."""
    return st.one_of(
        st.tuples(st.sampled_from(FIELDS),
                  values | st.lists(values, min_size=1, max_size=2)).map(
            lambda t: {**entry, t[0]: t[1]}),
        st.sampled_from(FIELDS).map(
            lambda name: {k: v for k, v in entry.items() if k != name}),
        values)


@st.composite
def replays(draw) -> dict:
    """The recorded log with one part broken: an entry, a whole field, or
    its answers."""
    log = {key: list(value) if isinstance(value, list) else value
           for key, value in RECORDED.items()}
    part = draw(st.sampled_from(["groupings", "choices", "choices",
                                 "choices", "field", "answers"]))
    if part in ("groupings", "choices"):
        index = draw(st.integers(0, len(log[part]) - 1))
        log[part][index] = draw(corrupted(log[part][index]))
    elif part == "field":
        log[draw(st.sampled_from(sorted(log)))] = draw(values)
    else:
        log["answers"] = draw(st.dictionaries(
            st.sampled_from(["pick", "emp", "nope"]),
            st.lists(st.lists(scalars, max_size=2), max_size=2) | values,
            max_size=2))
    return log


@pytest.fixture(scope="module")
def shared_session():
    service = IdlogService()
    return service, open_session(service)


@given(replay=replays())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_replay_objects_get_typed_errors(shared_session, replay):
    service, sid = shared_session
    try:
        service.handle({"type": "run", "session": sid, "program": PROGRAM,
                        "replay": replay})
    except Exception as exc:  # every failure must be a typed one
        kind = classify_exception(exc)
        assert kind in ERROR_TYPES and kind != "internal", repr(exc)
    result = service.handle({"type": "run", "session": sid,
                             "program": PROGRAM, "mode": "one", "seed": 3})
    assert len(result["answers"]["pick"]) == 5
