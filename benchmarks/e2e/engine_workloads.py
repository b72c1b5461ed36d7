"""The three in-process engine workloads: sample, recursive, enumerate.

Each workload generates its inputs from the seed, sets up (load with
``Database.from_facts`` plus compile), and then runs one kind of op through
the engine's public API; every op's answer is checked against a
harness-side oracle that never calls the engine.

The seed changes names, row order and graph edges, never the amount of
work an op does, so runs with different seeds measure the same thing:
``sample`` always has the same Zipf department sizes, ``enumerate`` always
has seven people, and ``recursive`` keeps only graphs whose transitive
closure costs the same number of clause firings (within 2%).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from time import perf_counter

from repro.core import IdlogEngine
from repro.datalog.database import Database
from repro.datalog.engine import DatalogEngine
from repro.workloads import zipf_group_sizes

SAMPLE_PROGRAM = "pick(N, D) :- emp[2](N, D, T), T < 2."

TC_PROGRAM = """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
"""

#: The paper's Example 2 (man/woman): every subset of person is an answer.
EXAMPLE2_PROGRAM = """
    sex_guess(X, male) :- person(X).
    sex_guess(X, female) :- person(X).
    man(X) :- sex_guess[1](X, male, 1).
    woman(X) :- sex_guess[1](X, female, 1).
"""


@dataclass
class Setup:
    """What one set-up produced, and how long its load took."""

    state: object
    rows: int
    load_s: float


def load(facts: dict) -> tuple[Database, float]:
    start = perf_counter()
    db = Database.from_facts(facts)
    return db, perf_counter() - start


class Sample:
    """``emp[2]`` sampling: two employees per department, one draw per op.

    Nearly all of an op is ID materialization (random ID-function, block
    partition, ID-relation build); joins are trivial.
    """

    name = "sample"
    block = 1

    def __init__(self, seed: int, smoke: bool) -> None:
        departments, total = (40, 2000) if smoke else (200, 20_000)
        rng = random.Random(seed)
        names = [f"e{n:05d}" for n in rng.sample(range(100_000), total)]
        rows, members = [], {}
        for d, size in enumerate(zipf_group_sizes(departments, total)):
            dept = f"d{d:03d}_{rng.randrange(1000):03d}"
            people = [names.pop() for _ in range(size)]
            members[dept] = frozenset(people)
            rows += [(person, dept) for person in people]
        rng.shuffle(rows)
        self.rows = rows
        self.members = members
        self.op_seed = rng.randrange(2 ** 31)

    def setup(self) -> Setup:
        db, load_s = load({"emp": self.rows})
        engine = IdlogEngine(SAMPLE_PROGRAM, persistent_caches=True)
        return Setup((db, engine), len(self.rows), load_s)

    def op(self, state, i: int):
        db, engine = state
        return engine.one(db, seed=self.op_seed + i).tuples("pick")

    def check(self, i: int, answer) -> bool:
        """Admissible under some ID-function: exactly ``min(2, |dept|)``
        rows per department, every row from ``emp``."""
        chosen: dict[str, list[str]] = {}
        for person, dept in answer:
            chosen.setdefault(dept, []).append(person)
        if chosen.keys() != self.members.keys():
            return False
        return all(len(people) == min(2, len(self.members[dept]))
                   and self.members[dept].issuperset(people)
                   for dept, people in chosen.items())


def _closure(nodes: int, edges: list[tuple[int, int]]) -> list[int]:
    """Per node, the bitset of nodes reachable in one or more steps."""
    succ = [0] * nodes
    for a, b in edges:
        succ[a] |= 1 << b
    reach = list(succ)
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            merged = reach[a] | reach[b]
            if merged != reach[a]:
                reach[a] = merged
                changed = True
    return reach


class Recursive:
    """Transitive closure over seeded random graphs, rotated per op.

    Joins, semi-naive dedup and answer decode, with no ID-relations: the
    control on which a change to ID materialization must not move.  A
    random graph's closure cost varies threefold with the seed, so only
    graphs whose firings (``|E| + sum over edges (a, b) of |reach(b)|``)
    land within 2% of a fixed target are kept.
    """

    name = "recursive"

    def __init__(self, seed: int, smoke: bool) -> None:
        nodes, edges, graphs = (60, 90, 2) if smoke else (300, 450, 4)
        target = None if smoke else 40_000
        rng = random.Random(seed)
        self.graphs: list[list[tuple[str, str]]] = []
        self.expected: list[frozenset] = []
        while len(self.graphs) < graphs:
            pairs: set[tuple[int, int]] = set()
            while len(pairs) < edges:
                pairs.add((rng.randrange(nodes), rng.randrange(nodes)))
            edge_list = sorted(pairs)
            reach = _closure(nodes, edge_list)
            firings = len(edge_list) + sum(bin(reach[b]).count("1")
                                           for _, b in edge_list)
            if target is not None and abs(firings - target) > target // 50:
                continue
            self.graphs.append([(f"v{a}", f"v{b}") for a, b in edge_list])
            self.expected.append(frozenset(
                (f"v{a}", f"v{b}") for a in range(nodes)
                for b in range(nodes) if reach[a] >> b & 1))
        self.block = graphs

    def setup(self) -> Setup:
        dbs, load_s = [], 0.0
        for edges in self.graphs:
            db, seconds = load({"edge": edges})
            dbs.append(db)
            load_s += seconds
        engine = DatalogEngine(TC_PROGRAM)
        return Setup((dbs, engine), sum(map(len, self.graphs)), load_s)

    def op(self, state, i: int):
        dbs, engine = state
        return engine.run(dbs[i % len(dbs)]).tuples("path")

    def check(self, i: int, answer) -> bool:
        """Equal to the harness's own closure of the same graph."""
        return answer == self.expected[i % len(self.expected)]


class Enumerate:
    """Exact answer set of Example 2: ``2^n`` leaves of tiny evaluations.

    Per-evaluation fixed cost dominates: store preparation, relation
    copies, plan and pipeline lookup, and one ``frozen()`` per leaf.
    """

    name = "enumerate"
    block = 1

    def __init__(self, seed: int, smoke: bool) -> None:
        people = 4 if smoke else 7
        rng = random.Random(seed)
        self.people = [f"p{n:06d}" for n in rng.sample(range(10 ** 6),
                                                        people)]
        self.expected = frozenset(
            frozenset((person,) for person in subset)
            for size in range(people + 1)
            for subset in combinations(self.people, size))

    def setup(self) -> Setup:
        db, load_s = load({"person": [(p,) for p in self.people]})
        return Setup((db, IdlogEngine(EXAMPLE2_PROGRAM)), len(self.people),
                     load_s)

    def op(self, state, i: int):
        db, engine = state
        return engine.answers(db, "man")

    def check(self, i: int, answer) -> bool:
        """Every subset of person, and nothing else."""
        return answer == self.expected


WORKLOADS = {cls.name: cls for cls in (Sample, Recursive, Enumerate)}
