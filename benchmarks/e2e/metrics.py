"""Percentiles and the per-layer metrics folded from traced ops.

Layer times are reported as shares of the traced ops' summed wall time:
the layers a workload never enters (ID materialization on ``recursive``,
the server on the in-process workloads) then read as a measured 0 share
rather than as a time, and the shares of one run add up to 1 with the
residual.  ``trace.op_ms`` gives the wall time the shares divide, so a
layer's milliseconds per op are its share times ``trace.op_ms``.
"""

from __future__ import annotations

import math

#: Layers whose self time is reported as ``<layer>.self_share``.
SELF_SHARE_LAYERS = (
    "core.engine",
    "core.assignment.id_function",
    "core.idrelations.make_id_relation",
    "core.idrelations.enumerate",
    "core.program.compile",
    "datalog.parser.parse",
    "datalog.planner.plan",
    "datalog.executor",
    "datalog.seminaive",
    "datalog.database.decode",
    "datalog.database.copy",
    "server.handler",
)

#: Waits outside any span (serve only), reported as ``<name>.share``.
WAIT_SHARES = ("server.queue", "server.transport")

#: Counts reported as their mean per traced op.
PER_OP_COUNTS = (
    "core.engine.branches",
    "core.idrelations.id_tuples",
    "datalog.executor.probes",
    "datalog.executor.firings",
    "datalog.executor.rows_out",
    "datalog.executor.pipelines_compiled",
    "datalog.executor.pipelines_reused",
    "datalog.planner.plans_built",
    "datalog.planner.plans_reused",
    "datalog.seminaive.iterations",
    "datalog.seminaive.derived",
    "datalog.database.decode_rows",
)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def layer_metrics(ops: list[dict], **gauges: float) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    Args:
        ops: Traced ops (``OpTrace.as_dict()`` shape); each op's
            ``self_s`` holds its layers' self times, with the root's own
            self time under the root name or ``"op"``.
        gauges: Values measured once per run (overhead ratio, load rate,
            pool size, prepared programs), passed through by name.
    """
    if not ops:
        raise ValueError("no traced ops")
    n = len(ops)
    wall = sum(op["wall_s"] for op in ops)

    def total(section: str, key: str) -> float:
        return sum(op[section].get(key, 0.0) for op in ops)

    out: dict[str, float] = {}
    for layer in SELF_SHARE_LAYERS:
        out[f"{layer}.self_share"] = total("self_s", layer) / wall
    for name in WAIT_SHARES:
        out[f"{name}.share"] = total("self_s", name) / wall
    out["residual.share"] = total("self_s", "op") / wall
    out["trace.op_ms"] = wall / n * 1000.0
    out["core.engine.eval_ms"] = total("incl_s", "core.engine") / n * 1000.0
    for name in PER_OP_COUNTS:
        out[name] = total("counts", name) / n
    base = total("counts", "core.idrelations.base_rows")
    out["core.idrelations.kept_ratio"] = \
        total("counts", "core.idrelations.id_tuples") / base if base else 0.0
    rows_out = total("counts", "datalog.executor.rows_out")
    out["datalog.seminaive.fresh_ratio"] = \
        total("counts", "datalog.seminaive.derived") / rows_out \
        if rows_out else 0.0
    out.update(gauges)
    return out
