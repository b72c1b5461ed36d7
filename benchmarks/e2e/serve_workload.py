"""The ``serve`` workload: a long-lived server under an open-loop mix.

A server subprocess (``server_launcher.py``, two workers) holds one shared
session with a Zipf ``emp`` table.  One connection carries all the load,
alternating :data:`CYCLES` times between two phases:

1. Open loop (70% of the run): Poisson arrivals at :data:`RATE`
   requests/s, from a sender thread while a receiver thread matches
   responses by ``id``.  Latency counts from each request's *due* time, so
   a stall also charges the requests queued behind it.  The mix is 70%
   prepared ``run mode=one`` reads, 15% ``assert_facts`` writes of four
   fresh rows, and 15% inline ``run`` requests with unique program text
   (parse, stratify, plan and pipeline compile on every request).
2. Saturation (30%): reads only, two requests outstanding; completions
   per second are the workload's ``ops_per_s``.

One connection sustains about 90 requests/s of this mix sequentially on
a 2-core machine (read 11-12.6 ms, ad hoc 11.3-12.7 ms, write 1-1.2 ms),
but a read that overlaps another request takes about twice as long, as
the event loop and the two workers contend for the interpreter lock.  At
:data:`RATE` about one read in six overlaps another request, so the open
loop measures latency rather than a growing backlog.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, sleep

from repro.server import ServerClient
from repro.workloads import zipf_group_sizes

from metrics import layer_metrics, percentile
from spans import total_calls

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "server_launcher.py"

RATE = 12.0
OPEN_SHARE = 0.7
READ_SHARE, WRITE_SHARE = 0.70, 0.15
WRITE_ROWS = 4
SETUP_REPEATS = 3
#: The open loop and the saturation phase alternate this many times, so
#: both sample the whole run rather than one stretch of the host's speed.
CYCLES = 5
#: A run is invalid (not failed) when the load generator itself lagged
#: or the open loop's backlog grew.
MAX_LATE_MS = 5.0
MAX_BACKLOG_RATIO = 2.0
#: Load request ids are ``2 * (FIRST_ID + index) + traced``: odd ids are
#: the traced ones (the launcher's rule), and ids never collide with the
#: set-up requests' small ones.
FIRST_ID = 1000

READ_PROGRAM = "pick(N, D) :- emp[2](N, D, T), T < 2."
ADHOC_PROGRAM = "adhoc{n}(N, D) :- emp[2](N, D, T), T < 1."


class ServerProcess:
    """One launcher subprocess, connected and ready."""

    def __init__(self, trace: bool, recent: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), "--recent", str(recent),
             "--trace", str(int(trace))],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            # One malloc arena, as in the single-threaded workloads: with
            # one per worker thread, peak RSS depends on which thread
            # happened to allocate first.
            env={**os.environ, "MALLOC_ARENA_MAX": "1"})
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("server launcher exited before binding")
        self.port = json.loads(line)["port"]
        self.client = ServerClient.connect_tcp("127.0.0.1", self.port)

    def shutdown(self) -> dict:
        """Stop the server gracefully; its final report line."""
        self.client.call("shutdown")
        self.client.close()
        out, _ = self.proc.communicate(timeout=60)
        return json.loads(out.splitlines()[-1])

    def close(self) -> None:
        """Kill the server if it is still running, and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Serve:
    """Inputs, schedule and oracles of the serve workload."""

    name = "serve"

    def __init__(self, seed: int, smoke: bool) -> None:
        departments, total = (20, 300) if smoke else (60, 1200)
        self.rng = random.Random(seed)
        names = [f"e{n:05d}" for n in self.rng.sample(range(100_000), total)]
        self.rows: list[list[str]] = []
        self.members: dict[str, set[str]] = {}
        for d, size in enumerate(zipf_group_sizes(departments, total)):
            dept = f"d{d:03d}_{self.rng.randrange(1000):03d}"
            people = [names.pop() for _ in range(size)]
            self.members[dept] = set(people)
            self.rows += [[person, dept] for person in people]
        self.rng.shuffle(self.rows)
        self.quota = {dept: min(2, len(people))
                      for dept, people in self.members.items()}
        # Writes go to departments that already hold two people, so every
        # read's per-department count is fixed however reads and writes
        # interleave on the server.
        self.writable = sorted(d for d, k in self.quota.items() if k == 2)

    # -- set-up -----------------------------------------------------------

    def start(self, trace: bool, recent: int) -> tuple[ServerProcess, str,
                                                       float, float]:
        """Spawn, load and prepare: ``(server, session, setup_s, load_s)``."""
        start = perf_counter()
        server = ServerProcess(trace, recent)
        try:
            client = server.client
            session = client.call("open_session")["session"]
            load_start = perf_counter()
            added = client.call("assert_facts", session=session,
                                facts={"emp": self.rows})["added"]
            load_s = perf_counter() - load_start
            client.call("prepare", session=session, name="pick",
                        program=READ_PROGRAM)
        except BaseException:
            server.close()
            raise
        if added != len(self.rows):
            server.close()
            raise RuntimeError(f"set-up loaded {added} of {len(self.rows)}")
        return server, session, perf_counter() - start, load_s

    # -- requests ---------------------------------------------------------

    def read(self, rid: int, session: str) -> dict:
        return {"id": rid, "type": "run", "session": session,
                "prepared": "pick", "mode": "one",
                "seed": self.rng.randrange(2 ** 31)}

    def write(self, rid: int, session: str) -> dict:
        dept = self.rng.choice(self.writable)
        rows = [[f"w{rid}_{j}", dept] for j in range(WRITE_ROWS)]
        self.members[dept].update(name for name, _ in rows)
        return {"id": rid, "type": "assert_facts", "session": session,
                "facts": {"emp": rows}}

    def adhoc(self, rid: int, session: str) -> dict:
        return {"id": rid, "type": "run", "session": session,
                "program": ADHOC_PROGRAM.format(n=rid)}

    def schedule(self, seconds: float, session: str) -> list[tuple]:
        """Open-loop arrivals: ``(offset_s, kind, request)``.

        Poisson arrivals with the variance between seeds taken out: the
        gaps are the exponential distribution's quantiles at ``(k + 0.5)
        / n`` and the kinds come in exact mix proportions, both in
        seed-shuffled order, so every seed offers the same load and
        writes the same number of rows.  Every other request of each kind
        is traced, starting with the first.
        """
        n = max(3, round(RATE * seconds))
        gaps = [-math.log(1.0 - (k + 0.5) / n) / RATE for k in range(n)]
        writes = max(1, round(n * WRITE_SHARE))
        adhoc = max(1, round(n * (1.0 - READ_SHARE - WRITE_SHARE)))
        kinds = ["read"] * (n - writes - adhoc) + ["write"] * writes \
            + ["adhoc"] * adhoc
        self.rng.shuffle(gaps)
        self.rng.shuffle(kinds)
        arrivals, offset, seen = [], 0.0, {}
        for index, (gap, kind) in enumerate(zip(gaps, kinds)):
            offset += gap
            seen[kind] = seen.get(kind, 0) + 1
            rid = request_id(index, seen[kind] % 2 == 1)
            arrivals.append((offset, kind,
                             getattr(self, kind)(rid, session)))
        return arrivals

    # -- oracles ----------------------------------------------------------

    def _per_dept(self, rows, quota) -> bool:
        chosen: dict[str, int] = {}
        for name, dept in rows:
            if name not in self.members.get(dept, ()):
                return False
            chosen[dept] = chosen.get(dept, 0) + 1
        return chosen == quota

    def check(self, kind: str, request: dict, response: dict) -> bool:
        """No typed error, and an answer some ID-function allows."""
        if not response.get("ok"):
            return False
        result = response["result"]
        if kind == "write":
            return result.get("added") == WRITE_ROWS
        if kind == "read":
            return self._per_dept(result["answers"]["pick"], self.quota)
        head = f"adhoc{request['id']}"
        return self._per_dept(result["answers"][head],
                              dict.fromkeys(self.quota, 1))


def request_id(index: int, traced: bool) -> int:
    """The wire id of the ``index``-th load request."""
    return 2 * (FIRST_ID + index) + traced


def open_loop(client: ServerClient, arrivals: list[tuple]) -> dict:
    """Send on schedule from this thread, receive on another: per id,
    ``(due, sent, arrived, response)``."""
    arrived: dict = {}
    errors: list[BaseException] = []

    def receive() -> None:
        try:
            for _ in arrivals:
                response = client.recv()
                arrived[response.get("id")] = (perf_counter(), response)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    receiver = threading.Thread(target=receive, name="e2e-receiver")
    receiver.start()
    timing = {}
    origin = perf_counter() + 0.02
    for offset, _, request in arrivals:
        due = origin + offset
        pause = due - perf_counter()
        if pause > 0:
            sleep(pause)
        sent = perf_counter()
        client.send(request)
        timing[request["id"]] = (due, sent)
    receiver.join(timeout=120)
    if receiver.is_alive() or errors:
        raise RuntimeError(f"open loop lost responses: {errors[:1]}")
    return {rid: (*timing[rid], *arrived[rid]) for rid in timing}


def saturate(client: ServerClient, workload: Serve, session: str,
             seconds: float, first_index: int) -> tuple[list, float]:
    """Reads with two outstanding until ``seconds`` pass, every other one
    traced: ``([(request, latency_s, response)], elapsed_s)``."""
    outstanding: dict[int, tuple[dict, float]] = {}
    done = []
    start = perf_counter()
    end = start + seconds
    index = first_index

    def send() -> None:
        nonlocal index
        rid = request_id(index, (index - first_index) % 2 == 0)
        request = workload.read(rid, session)
        outstanding[rid] = (request, perf_counter())
        client.send(request)
        index += 1

    send()
    send()
    last = start
    while outstanding:
        response = client.recv()
        last = perf_counter()
        request, sent = outstanding.pop(response["id"])
        done.append((request, last - sent, response))
        if last < end:
            send()
    return done, last - start


def run(seed: int, seconds: float, trace: bool, smoke: bool,
        warmup_s: float) -> dict:
    """One serve run, measured (the shape ``run.py`` reports)."""
    workload = Serve(seed, smoke)
    open_s = seconds * OPEN_SHARE
    recent = 64 + math.ceil(RATE * open_s * 1.5) + math.ceil(
        1000 * (seconds - open_s))
    setups, loads = [], []
    for repeat in range(SETUP_REPEATS):
        server, session, setup_s, load_s = workload.start(trace, recent)
        setups.append(setup_s)
        loads.append(load_s)
        if repeat < SETUP_REPEATS - 1:
            try:
                server.shutdown()
            finally:
                server.close()
    try:
        client = server.client
        warm_until = perf_counter() + warmup_s
        while perf_counter() < warm_until:  # untimed warm-up reads
            client.call("run", session=session, prepared="pick", mode="one",
                        seed=0)
        arrivals = workload.schedule(open_s, session)
        timings, saturated, saturated_s = {}, [], 0.0
        next_index = len(arrivals)
        for cycle in range(CYCLES):
            low = cycle * open_s / CYCLES
            high = (cycle + 1) * open_s / CYCLES \
                if cycle < CYCLES - 1 else math.inf
            timings.update(open_loop(client, [
                (offset - low, kind, request)
                for offset, kind, request in arrivals
                if low <= offset < high]))
            done, elapsed = saturate(client, workload, session,
                                     (seconds - open_s) / CYCLES, next_index)
            saturated += done
            saturated_s += elapsed
            next_index += len(done)
        ring = {}
        if trace:
            ring = {entry["id"]: entry for entry in client.call(
                "recent", limit=recent)["requests"]}
        pool = client.call("stats", session=session)["pool_constants"]
        prepared = client.call("server_stats")["prepared_programs"]
        report = server.shutdown()
    finally:
        server.close()

    latencies: dict[str, list[float]] = {"read": [], "write": [],
                                         "adhoc": []}
    late, failed, ops = [], 0, []
    # Read round trips by id parity: odd ids are the traced ones.
    round_trips: tuple[list, list] = ([], [])
    server_ops = {op["op"]: op for op in report["ops"]}
    for _, kind, request in arrivals:
        due, sent, arrived, response = timings[request["id"]]
        late.append(sent - due)
        if not workload.check(kind, request, response):
            failed += 1
            continue
        latencies[kind].append(arrived - due)
        if kind == "read":
            round_trips[request["id"] % 2].append(arrived - sent)
        if request["id"] in server_ops and request["id"] in ring:
            ops.append(compose_op(server_ops[request["id"]],
                                  ring[request["id"]], arrived - sent))
    for request, latency, response in saturated:
        if workload.check("read", request, response):
            round_trips[request["id"] % 2].append(latency)
        else:
            failed += 1

    reads = latencies["read"]
    ms = 1000.0
    detail = {name: percentile(values, q) * ms for name, values, q in (
        ("latency_ms.p90", reads, 90), ("latency_ms.p95", reads, 95),
        ("latency_ms.p99", reads, 99),
        ("write_ms.p50", latencies["write"], 50),
        ("write_ms.p95", latencies["write"], 95),
        ("adhoc_ms.p50", latencies["adhoc"], 50),
        ("adhoc_ms.p95", latencies["adhoc"], 95),
        ("saturation_ms.p50", [latency for _, latency, _ in saturated],
         50),
        ("loadgen.late_ms.p99", late, 99)) if values}
    invalid = []
    if detail["loadgen.late_ms.p99"] > MAX_LATE_MS:
        invalid.append(f"load generator ran late: p99 "
                       f"{detail['loadgen.late_ms.p99']:.2f} ms > "
                       f"{MAX_LATE_MS} ms")
    if reads:
        decile = max(1, len(reads) // 10)
        detail["loadgen.backlog_ratio"] = statistics.median(
            reads[-decile:]) / statistics.median(reads[:decile])
        if detail["loadgen.backlog_ratio"] > MAX_BACKLOG_RATIO:
            invalid.append(
                f"backlog grew: last-decile over first-decile read p50 = "
                f"{detail['loadgen.backlog_ratio']:.2f} > "
                f"{MAX_BACKLOG_RATIO}")
    measured = {
        "attempted": len(arrivals) + len(saturated), "failed": failed,
        "detail": detail, "invalid": invalid,
        "counts": {"open_loop_reads": len(reads),
                   "writes": len(latencies["write"]),
                   "adhoc": len(latencies["adhoc"]),
                   "saturation_reads": len(saturated)},
    }
    if failed:
        return measured
    if not trace:
        measured["e2e"] = {
            "setup_s": statistics.median(setups),
            "latency_ms.p50": percentile(reads, 50) * ms,
            "ops_per_s": len(saturated) / saturated_s,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        return measured
    detail.update(server_breakdown(ops))
    measured["layers"] = layer_metrics(
        ops,
        **{"trace.overhead_ratio": percentile(round_trips[1], 50)
           / percentile(round_trips[0], 50),
           "datalog.database.load_rows_per_s":
               len(workload.rows) / statistics.median(loads),
           "datalog.pool.constants": pool,
           "server.prepared_programs": prepared})
    measured["calls"] = total_calls(report["ops"])
    measured["spans"] = report["spans"]
    return measured


def compose_op(server_op: dict, entry: dict, round_trip: float) -> dict:
    """One traced request as a client-side op: the server's spans plus
    queue (from the ``recent`` ring), transport (round trip minus the
    server's wall) and the residual between the ring's handler time and
    the handler span."""
    wall = entry["wall_ms"] / 1000.0
    queue = entry["queue_ms"] / 1000.0
    self_s = dict(server_op["self_s"])
    self_s["server.queue"] = queue
    self_s["server.transport"] = round_trip - wall
    self_s["op"] = wall - queue - server_op["wall_s"]
    return {"op": server_op["op"], "wall_s": round_trip, "self_s": self_s,
            "incl_s": server_op["incl_s"], "calls": server_op["calls"],
            "counts": server_op["counts"]}


def server_breakdown(ops: list[dict]) -> dict:
    """Per-request server timings of the traced open-loop requests, ms."""
    ms = 1000.0
    queue = [op["self_s"]["server.queue"] for op in ops]
    handler = [op["wall_s"] - op["self_s"]["server.transport"]
               - op["self_s"]["server.queue"] for op in ops]
    transport = [op["self_s"]["server.transport"] for op in ops]
    evals = [op["incl_s"].get("core.engine", 0.0) for op in ops]
    return {"server.queue_ms.p50": percentile(queue, 50) * ms,
            "server.queue_ms.p99": percentile(queue, 99) * ms,
            "server.handler_ms.p50": percentile(handler, 50) * ms,
            "server.handler_ms.p99": percentile(handler, 99) * ms,
            "server.transport_ms.p50": percentile(transport, 50) * ms,
            "server.eval_ms.p50": percentile(evals, 50) * ms}
