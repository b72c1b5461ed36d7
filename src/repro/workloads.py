"""Synthetic workload generators for benchmarks and examples.

Deterministic (seeded) builders for the dataset shapes this repository's
experiments use: grouped relations like the paper's running ``emp(Name,
Dept)``, graph families for reachability workloads, and a small org
hierarchy for same-generation-style queries.  All generators return
ready :class:`~repro.datalog.database.Database` objects.

Realistic sampling workloads are *skewed*: department sizes follow
power laws, not uniform blocks.  The skewed builders
(:func:`zipf_employees`, :func:`mixture_employees`) generate grouped
relations whose group-size distributions stress the stratified-sampling
scenarios of :mod:`repro.eval` — Zipf ranks for heavy-tail skew, a
two-component mixture for the "few huge, many tiny" shape.  Same-seed
calls are bit-identical; the statistical assertions depend on that.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .datalog.database import Database, Relation
from .errors import ReproError


def employees(per_dept: int, departments: int,
              salary_range: Optional[tuple[int, int]] = None,
              seed: int = 0) -> Database:
    """``emp(Name, Dept)`` (or ``emp(Name, Dept, Salary)``) with equal-size
    departments — the paper's running example at any scale."""
    return _grouped_employees([per_dept] * departments, salary_range,
                              random.Random(seed))


def zipf_group_sizes(groups: int, total: int, skew: float = 1.5) -> list[int]:
    """Group sizes following a Zipf law: size(rank r) ∝ 1 / r**skew.

    Deterministic (no randomness): exactly ``total`` rows over exactly
    ``groups`` groups, every group at least 1, sizes non-increasing in
    rank.  The heavy head / long tail is the shape real department,
    customer, and product-category distributions take.
    """
    if groups < 1 or total < groups:
        raise ReproError(
            f"need total >= groups >= 1, got groups={groups} total={total}")
    weights = [1.0 / (rank ** skew) for rank in range(1, groups + 1)]
    scale = sum(weights)
    sizes = [max(1, int(total * w / scale)) for w in weights]
    # Fix rounding drift by adjusting the largest groups first (keeps the
    # distribution shape and the sizes non-increasing).
    drift = total - sum(sizes)
    rank = 0
    while drift != 0:
        if drift > 0:
            sizes[rank] += 1
            drift -= 1
        elif sizes[rank] > 1:
            sizes[rank] -= 1
            drift += 1
        rank = (rank + 1) % groups
    return sizes


def _grouped_employees(sizes: Sequence[int],
                       salary_range: Optional[tuple[int, int]],
                       rng: random.Random) -> Database:
    rows = []
    for d, size in enumerate(sizes):
        for i in range(size):
            row: tuple = (f"e{d}_{i}", f"dept{d}")
            if salary_range is not None:
                low, high = salary_range
                row = row + (rng.randrange(low, high + 1),)
            rows.append(row)
    return Database.from_facts({"emp": rows})


def zipf_employees(departments: int, total: int, skew: float = 1.5,
                   salary_range: Optional[tuple[int, int]] = None,
                   seed: int = 0) -> Database:
    """``emp(Name, Dept)`` with Zipf-skewed department sizes.

    ``dept0`` is the heavy head, the tail departments shrink as
    ``1 / rank**skew`` (never below one employee); exactly ``total``
    rows.  The stratified-sampling scenarios use this to check
    exactly-k-per-group semantics when k exceeds some groups and is a
    tiny fraction of others.
    """
    return _grouped_employees(zipf_group_sizes(departments, total, skew),
                              salary_range, random.Random(seed))


def mixture_employees(head_departments: int, tail_departments: int,
                      head_size: int, tail_size: int,
                      spread: float = 0.25,
                      salary_range: Optional[tuple[int, int]] = None,
                      seed: int = 0) -> Database:
    """``emp(Name, Dept)`` with a two-component mixture of group sizes.

    A few huge departments (mean ``head_size``) plus many small ones
    (mean ``tail_size``), each department's size drawn from a gaussian
    around its component mean with relative ``spread`` (floored at 1) —
    the bimodal shape Zipf alone cannot produce.  Seeded and
    deterministic.
    """
    if head_departments < 0 or tail_departments < 0 \
            or head_departments + tail_departments < 1:
        raise ReproError("need at least one department")
    if head_size < 1 or tail_size < 1:
        raise ReproError("component mean sizes must be >= 1")
    rng = random.Random(seed)
    sizes = []
    for mean in [head_size] * head_departments \
            + [tail_size] * tail_departments:
        sizes.append(max(1, round(rng.gauss(mean, mean * spread))))
    return _grouped_employees(sizes, salary_range, rng)


def people(n: int, prefix: str = "p") -> Database:
    """``person(X)`` over ``n`` individuals — the A/B-assignment shape.

    The paper's man/woman Example 2 partitions this relation via a
    two-way guess per person; at scale it is an A/B assignment over the
    whole population.
    """
    if n < 0:
        raise ReproError(f"population size must be >= 0, got {n}")
    person = Relation(1, tuples=[(f"{prefix}{i}",) for i in range(n)])
    return Database({"person": person})


def chain_graph(n: int, fanout: int = 0) -> Database:
    """``edge`` forming a chain ``n0 -> ... -> n<n>`` with optional leaf
    fan-out at every node (the E6 workload shape)."""
    rows = [(f"n{i}", f"n{i+1}") for i in range(n)]
    rows += [(f"n{i}", f"leaf{i}_{j}")
             for i in range(n) for j in range(fanout)]
    return Database.from_facts({"edge": rows})


def forest_graph(reachable: int, components: int, size: int) -> Database:
    """One chain reachable from ``n0`` plus disconnected clutter chains
    (the magic-sets / relevance workload shape)."""
    rows = [(f"n{i}", f"n{i+1}") for i in range(reachable)]
    for c in range(components):
        rows += [(f"u{c}_{i}", f"u{c}_{i+1}") for i in range(size)]
    return Database.from_facts({"edge": rows})


def random_graph(nodes: int, edges: int, seed: int = 0) -> Database:
    """A uniform random digraph with named nodes ``v0..v<nodes-1>``.

    The ``node`` relation lists every vertex (isolated ones included), so
    negation-style queries have their domain.
    """
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(nodes)]
    edge = Relation(2)
    while len(edge) < min(edges, nodes * nodes):
        edge.add((rng.choice(names), rng.choice(names)))
    node = Relation(1, tuples=[(n,) for n in names])
    return Database({"edge": edge, "node": node})


def org_hierarchy(depth: int, branching: int) -> Database:
    """A complete management tree: ``reports_to(Employee, Manager)`` and
    ``person(X)`` — the same-generation workload shape."""
    person = Relation(1)
    reports = Relation(2)
    frontier = ["ceo"]
    person.add(("ceo",))
    counter = 0
    for _ in range(depth):
        next_frontier = []
        for boss in frontier:
            for _ in range(branching):
                name = f"w{counter}"
                counter += 1
                person.add((name,))
                reports.add((name, boss))
                next_frontier.append(name)
        frontier = next_frontier
    return Database({"person": person, "reports_to": reports})
