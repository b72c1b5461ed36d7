"""Self-test of the end-to-end benchmark at ``--smoke`` sizes.

Runs every workload untraced and traced through the command line, then
checks what the benchmark promises: every metric of ``BENCHMARK.json``
printed with its unit, a corrupted answer counted as failed, every
wrapped entry point firing on the workloads it is mapped to, and the
traced self times adding up to op wall time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import run  # noqa: E402
from spans import SITES  # noqa: E402


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{(workload, trace): (stdout, result, spans)}`` of smoke runs."""
    out = tmp_path_factory.mktemp("e2e")
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", "7",
                 "--seconds", "0.5", "--trace", str(trace), "--smoke",
                 "--out", str(out)],
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            stem = f"{name}-s7" + ("-trace" if trace else "")
            result = json.loads((out / f"{stem}-1.json").read_text())
            spans = []
            if trace:
                spans = [json.loads(line) for line in
                         (out / f"{stem}-1.spans.jsonl").open()]
            results[name, trace] = (proc.stdout, result, spans)
    return results


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_printed_with_its_unit(runs, name, trace):
    stdout, result, _ = runs[name, trace]
    metrics = SPEC["per_layer" if trace else "end_to_end"]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert list(last["metrics"]) == [m["name"] for m in metrics]
    lines = stdout.splitlines()
    for metric in metrics:
        entry = last["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(line.split()[1:2] == [metric["name"]]
                   and line.split()[-1] == metric["unit"] for line in lines)
    validity = result["validity"]
    assert validity["nproc"] and validity["python"]
    assert validity["seed"] == 7 and validity["ops"]


@pytest.mark.parametrize("name", ["sample", "recursive", "enumerate"])
def test_corrupted_answer_lands_in_failed(monkeypatch, name):
    from repro.datalog.database import Relation

    frozen = Relation.frozen

    def drop_one(self):
        rows = frozen(self)
        return rows - {min(rows, key=repr)} if rows else rows

    monkeypatch.setattr(Relation, "frozen", drop_one)
    measured = run.measure(name, 7, 0.2, False, True)
    assert measured["failed"] >= measured["attempted"] > 0


def test_corrupted_server_answer_lands_in_failed(monkeypatch):
    from repro.server import ServerClient

    recv = ServerClient.recv

    def corrupt(self):
        response = recv(self)
        answers = response.get("result", {}).get("answers", {})
        for rows in answers.values():
            del rows[:1]
        return response

    monkeypatch.setattr(ServerClient, "recv", corrupt)
    measured = run.measure("serve", 7, 0.3, False, True)
    assert measured["failed"] > 0


@pytest.mark.parametrize("site", SITES, ids=lambda s: s.target)
def test_every_wrapper_fires_where_it_is_mapped(runs, site):
    for name in site.workloads:
        calls = runs[name, 1][1]["calls"]
        assert calls.get(site.target, 0) > 0, \
            f"{site.target} recorded no call on {name}"


@pytest.mark.parametrize("name", WORKLOADS)
def test_self_times_and_residual_add_up_to_op_wall(runs, name):
    _, result, spans = runs[name, 1]
    shares = [v["value"] for k, v in result["metrics"].items()
              if k.endswith("share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.05)
    roots = {}
    self_s: dict = {}
    for span in spans:
        key = span["op"], span["span"]
        duration = span["end"] - span["start"]
        self_s[key] = self_s.get(key, 0.0) + duration
        if span["parent"]:
            parent = span["op"], span["parent"]
            self_s[parent] = self_s.get(parent, 0.0) - duration
        else:
            roots[span["op"]] = duration
    assert roots, "no raw spans kept"
    for op, wall in roots.items():
        total = sum(v for (o, _), v in self_s.items() if o == op)
        assert total == pytest.approx(wall, rel=1e-9, abs=1e-9)
        assert all(v > -1e-9 for (o, _), v in self_s.items() if o == op)


def test_compare_verdicts(tmp_path):
    base = {"schema": "idlog-e2e-bench/1", "workload": "sample",
            "trace": False, "failed_ratio": 0.0, "detail": {},
            "validity": {"valid": True}}
    spec = {"workloads": [{"name": "sample"}],
            "end_to_end": [{"name": "latency_ms.p50", "unit": "ms",
                            "better": "lower", "bound": 0.1}]}
    for directory, values in (("a", (10.0, 10.1, 9.9)),
                              ("same", (10.05, 9.95, 10.0)),
                              ("slow", (13.0, 13.1, 12.9))):
        (tmp_path / directory).mkdir()
        for i, value in enumerate(values):
            record = dict(base, metrics={"latency_ms.p50": {
                "value": value, "unit": "ms"}})
            (tmp_path / directory / f"r{i}.json").write_text(
                json.dumps(record))
    verdicts = {row[1]: row[4] for row in compare.compare(
        tmp_path / "a", tmp_path / "same", spec)}
    assert verdicts == {"latency_ms.p50": "unchanged",
                        "failed_ratio": "unchanged"}
    verdicts = {row[1]: row[4] for row in compare.compare(
        tmp_path / "a", tmp_path / "slow", spec)}
    assert verdicts["latency_ms.p50"] == "worse"
