"""Workloads of the enclosings benchmark: seeded instance pools, the timed
attempt pipelines, the untimed correctness gates, and the primitive
micro-timings.

An attempt on an enclose workload is the sequence `enclosings enclose`
runs: make_params, the battery, stage 1 (enclose_in_mu_kn), the
amalgamated triad, fair_detach, verify_enclosing.  A verdict on `decide` is
make_params plus the battery that `enclosings check` picks by target size.
Every call into the library is timed from here; the library is not touched.
"""

from __future__ import annotations

import hashlib
import random
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from enclosings import (
    Decomposition,
    Enclosing,
    Multigraph,
    brute_force_admissible,
    build_amalgamated_triad,
    check_b,
    check_c,
    check_theorem15,
    complete_multigraph,
    enclose_in_mu_kn,
    fair_detach,
    make_params,
    random_admissible,
    verify_detachment,
    verify_enclosing,
)
from enclosings.decomp import class_admissibility_violation
from enclosings.errors import BudgetExhaustedError

from tracing import tail_percentile

DETACH_BUDGET = 50_000
# Neither stage bounds its wall time: stage 1 on the T15 route can spend tens
# of seconds in bryant_decompose (n=8, pipeline seed 44: 32 s), and
# fair_detach can spend 16 s on 31k nodes where most attempts need 0.1 s.
# One such attempt would fill a whole run, so each stage runs under a
# CPU-time cap.  A capped attempt is reported as such, with its stage, and
# counts as unsolved.
STAGE1_CPU_CAP_S = 1.0
DETACH_CPU_CAP_S = 2.0
SETUP_REPEATS = 5
CORPUS_ATTEMPTS = 4
# The speed of the shared machine drifts by up to 1.6 times over minutes,
# more than any bound the benchmark may set (see the README).  So a run
# times a fixed piece of pure-Python graph code, the benchmark's own, every
# REFERENCE_EVERY_S of attempt time, and reports its times at the speed at
# which that reference takes REFERENCE_S: each time is multiplied by
# REFERENCE_S over the run's median reference time.
REFERENCE_S = 0.0014
REFERENCE_EVERY_S = 0.05

BATTERIES = {"B": check_b, "C": check_c, "T15": check_theorem15}
# Name of the admissibility entry in each battery's report.
ADMISSIBILITY_ENTRY = {"B": "B2", "C": "C2", "T15": "T3"}
SUCCESS = ("solved", "yes", "no")


class GateError(Exception):
    """An output of the program failed a correctness check."""


def regime_by_size(n: int, m: int) -> str:
    """The battery `enclosings check` runs for a target of size m."""
    if m >= 2 * n - 1:
        return "B"
    if m == 2 * n - 2:
        return "C"
    return "T15"


@dataclass(frozen=True)
class Target:
    regime: str
    n: int
    m: int
    r: int
    k: int
    lam: int = 1
    mu: int = 2

    @property
    def input_r(self) -> int:
        """Admissibility the battery asks of the input: T15 asks r-1."""
        return self.r - 1 if self.regime == "T15" else self.r


@dataclass(frozen=True)
class Cell:
    """`count` instances for one target, of one kind: "admissible" (from
    oracle.random_admissible) or "random" (an arbitrary partition)."""

    target: Target
    kind: str
    count: int


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "enclose" or "decide"
    cells: tuple[Cell, ...]
    # Every run makes at least this many attempts; the count metrics and the
    # output digest are taken over exactly these, so they repeat per seed.
    min_attempts: int

    @property
    def tail_p(self) -> int:
        return tail_percentile(self.min_attempts)


def _decide_cells() -> tuple[Cell, ...]:
    # T15 by size needs n < m < 2n-2; with r=3, mu=2 divisibility needs
    # m = 4 (mod 6).  The T4 margin fails at these n, so every T15 verdict is
    # "no", but the battery still runs its (r-1)-admissibility check.  Its
    # admissible inputs take 0.06-0.6 s each to generate at n >= 11, by seed,
    # which made the calls spent on set-up spread by 0.29 across seeds (0.14
    # without them); so only n=8 gets them (4), and T15 cells hold random
    # partitions otherwise.
    t15_m = {8: 10, 11: 16, 14: 22}
    cells = []
    for n in (8, 11, 14):
        for m, r in ((2 * n - 1, 2), (2 * n - 2, 2), (t15_m[n], 3)):
            t = Target(regime_by_size(n, m), n, m, r, 2 * (m - 1) // r)
            admissible = 12 if t.regime != "T15" else 4 if n == 8 else 0
            if admissible:
                cells.append(Cell(t, "admissible", admissible))
            cells.append(Cell(t, "random", 24 - admissible))
    return tuple(cells)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enclose-r2",
            "enclose",
            # Both targets have m=14, so the two regimes take about the same
            # time per attempt (medians 0.058 and 0.045 s).  With B at n=8,
            # m=16 against C at n=8, m=14, B attempts took twice as long as
            # C attempts, the median fell in the gap between the two, and it
            # moved by 0.18 (quartile spread) across seeds.  At m=16 a run
            # held about 350 attempts, and the few budget-exhausted ones,
            # 15-30% of its time, made solved_per_s spread by 0.17.
            (
                Cell(Target("B", 7, 14, 2, 13), "admissible", 240),
                Cell(Target("C", 8, 14, 2, 13), "admissible", 240),
            ),
            # 60 rather than 100, so the tail is p75, not p90: in an earlier
            # version of this workload (B at m=16) p90 sat where the slow B
            # instances begin, and over ten seeds on 2 shared cores its
            # quartile spread was 0.18 against 0.09 for p75.
            min_attempts=60,
        ),
        # Runnable by hand but not listed in BENCHMARK.json: over ten seeds on
        # 2 shared cores its time metrics spread by 0.23-0.41 (quartile
        # distance over median), beyond the largest bound the benchmark may
        # set.  It is the only workload through proper_padding.
        Workload(
            "enclose-t15",
            "enclose",
            (Cell(Target("T15", 8, 16, 3, 10), "admissible", 160),),
            min_attempts=60,
        ),
        Workload("decide", "decide", _decide_cells(), min_attempts=1000),
    )
}


@dataclass(frozen=True)
class Instance:
    ident: int
    target: Target
    seed: int  # instance seed, also the stage-1 and detach seed
    kind: str  # "admissible" or "random"
    g: Decomposition


@dataclass
class Attempt:
    index: int
    instance: Instance
    status: str  # solved | exhausted | capped (enclose); yes | no (decide)
    start: float
    end: float
    marks: list[tuple[str, float, float]]
    nodes: int = 0
    actions: int = 0
    digest: str = ""
    cpu_s: float = 0.0  # process CPU time, user plus system, set by the caller
    sys_s: float = 0.0  # system part of cpu_s
    output: tuple | None = field(default=None, repr=False)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def layer_seconds(self) -> dict[str, float]:
        layers: dict[str, float] = {}
        for name, start, end in self.marks:
            layers[name] = layers.get(name, 0.0) + end - start
        return layers

    def record(self, workload: str) -> dict:
        t = self.instance.target
        return {
            "attempt": self.index,
            "workload": workload,
            "instance": self.instance.ident,
            "regime": t.regime,
            "n": t.n,
            "m": t.m,
            "r": t.r,
            "k": t.k,
            "kind": self.instance.kind,
            "seed": self.instance.seed,
            "status": self.status,
            "nodes": self.nodes,
            "seconds": round(self.seconds, 6),
            "cpu_s": round(self.cpu_s, 6),
            "sys_s": round(self.sys_s, 6),
            "layer_s": {name: round(v, 6) for name, v in self.layer_seconds().items()},
        }


def random_partition(n: int, lam: int, k: int, seed: int) -> Decomposition:
    """Every edge copy of lam*K_n in a uniformly random class."""
    rng = random.Random(seed)
    classes = [Multigraph(n) for _ in range(k)]
    for u in range(n):
        for v in range(u + 1, n):
            for _ in range(lam):
                classes[rng.randrange(k)].add_edge(u, v)
    return Decomposition(complete_multigraph(n, lam), tuple(classes))


def make_pool(w: Workload, seed: int, tracer) -> list[Instance]:
    """The workload's inputs, a function of the workload seed alone, taken
    from the cells in turn until each has its count."""
    rng = random.Random(f"{w.name}/{seed}")
    pool = []
    for j in range(max(cell.count for cell in w.cells)):
        for cell in w.cells:
            if j >= cell.count:
                continue
            t = cell.target
            s = rng.randrange(1, 2**31)
            if cell.kind == "random":
                g = random_partition(t.n, t.lam, t.k, s)
            else:
                start = perf_counter()
                g = random_admissible(t.n, t.lam, t.k, t.input_r, seed=s)
                tracer.add("oracle.random_admissible", start, perf_counter())
            pool.append(Instance(len(pool), t, s, cell.kind, g))
    return pool


class Capped(Exception):
    """A stage used up its CPU-time cap."""


def _on_cpu_alarm(signum, frame):
    raise Capped


@contextmanager
def cpu_cap(cap: float):
    """Raise Capped inside the block once the process has spent `cap` more
    seconds of CPU time.  The library is called straight from the block, so
    the cap adds no frame to its stack (see the README on stack depth).  The
    handler raises inside the library call, which keeps no state across
    calls, so nothing outlives the interruption."""
    previous = signal.signal(signal.SIGPROF, _on_cpu_alarm)
    signal.setitimer(signal.ITIMER_PROF, cap)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def _params(t: Target):
    return make_params(n=t.n, m=t.m, lam=t.lam, mu=t.mu, r=t.r, k=t.k)


def enclose_attempt(index: int, inst: Instance, budget: int = DETACH_BUDGET) -> Attempt:
    t = inst.target
    start = perf_counter()
    params = _params(t)
    a = perf_counter()
    report = BATTERIES[t.regime](inst.g, params)
    b = perf_counter()
    marks = [("conditions.make_params", start, a), ("conditions.battery", a, b)]
    if not report.ok:
        raise GateError(
            f"instance {inst.ident}: battery fails {report.first_failing()} "
            "on an input built to pass it"
        )
    layer, since = "extend.enclose_in_mu_kn", b
    try:
        with cpu_cap(STAGE1_CPU_CAP_S):
            full, trace = enclose_in_mu_kn(inst.g, params, t.regime, seed=inst.seed)
        c = perf_counter()
        marks.append((layer, since, c))
        triad = build_amalgamated_triad(full, params)
        d = perf_counter()
        marks.append(("detach.build_amalgamated_triad", c, d))
        layer, since = "detach.fair_detach", d
        with cpu_cap(DETACH_CPU_CAP_S):
            witness = fair_detach(triad, params, seed=inst.seed, budget=budget)
    except Capped:
        end = perf_counter()
        marks.append((layer, since, end))
        return Attempt(index, inst, "capped", start, end, marks, digest=f"capped:{layer}")
    except BudgetExhaustedError:
        e = perf_counter()
        marks.append(("detach.fair_detach", d, e))
        return Attempt(
            index, inst, "exhausted", start, e, marks,
            nodes=budget, actions=len(trace.actions), digest="exhausted",
            output=(params, full, triad, None),
        )
    e = perf_counter()
    marks.append(("detach.fair_detach", d, e))
    ok, problems = verify_enclosing(inst.g, Enclosing(witness.result, t.n), params)
    f = perf_counter()
    marks.append(("decomp.verify_enclosing", e, f))
    if not ok:
        raise GateError(f"instance {inst.ident}: verify_enclosing: {problems[:3]}")
    return Attempt(
        index, inst, "solved", start, f, marks,
        nodes=witness.stats.nodes, actions=len(trace.actions),
        digest=_decomposition_digest(witness.result),
        output=(params, full, triad, witness),
    )


def decide_attempt(index: int, inst: Instance) -> Attempt:
    t = inst.target
    start = perf_counter()
    params = _params(t)
    a = perf_counter()
    report = BATTERIES[t.regime](inst.g, params)
    b = perf_counter()
    marks = [("conditions.make_params", start, a), ("conditions.battery", a, b)]
    verdict = f"{t.regime}:{report.ok}:{','.join(report.failing())}"
    return Attempt(
        index, inst, "yes" if report.ok else "no", start, b, marks,
        digest=verdict, output=(report,),
    )


def _decomposition_digest(d: Decomposition) -> str:
    text = repr([sorted(cls.edges.items()) for cls in d.classes])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _connected(vertex_count: int, pairs: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == vertex_count


def _two_edge_connected(vertex_count: int, edges: dict[tuple[int, int], int]) -> bool:
    """Connected, and still connected after removing any single-copy pair;
    written here independently of Multigraph.bridges."""
    pairs = list(edges)
    if not _connected(vertex_count, pairs):
        return False
    return all(
        _connected(vertex_count, [q for q in pairs if q != p])
        for p, mult in edges.items()
        if mult == 1
    )


# K_9 as a pair -> multiplicity map, built here so that no change to the
# library can change the reference work.
_REFERENCE_EDGES = {(u, v): 1 for u in range(9) for v in range(u + 1, 9)}


def reference_seconds() -> float:
    """Time of one fixed piece of the benchmark's own graph code."""
    start = perf_counter()
    for _ in range(3):
        _two_edge_connected(9, _REFERENCE_EDGES)
    return perf_counter() - start


def enclosing_problems(inner: Decomposition, outer: Decomposition, params) -> list[str]:
    """The benchmark's own check of an enclosing: every class r-regular and
    2-edge-connected on m vertices, every pair of multiplicity mu over all
    classes, and every class containing its inner class."""
    m, mu, r = params.m, params.mu, params.r
    problems = []
    pair_total: dict[tuple[int, int], int] = {}
    for i, cls in enumerate(outer.classes):
        degree = [0] * m
        for (u, v), mult in cls.edges.items():
            if u == v:
                problems.append(f"class {i} has a loop at {u}")
                continue
            degree[u] += mult
            degree[v] += mult
            key = (min(u, v), max(u, v))
            pair_total[key] = pair_total.get(key, 0) + mult
        if any(value != r for value in degree):
            problems.append(f"class {i} is not {r}-regular")
        if not _two_edge_connected(m, cls.edges):
            problems.append(f"class {i} is not 2-edge-connected")
        for pair, mult in inner.classes[i].edges.items():
            if cls.edges.get(pair, 0) < mult:
                problems.append(f"class {i} lost inner pair {pair}")
    for u in range(m):
        for v in range(u + 1, m):
            if pair_total.get((u, v), 0) != mu:
                problems.append(f"pair {(u, v)} has multiplicity {pair_total.get((u, v), 0)}")
    return problems


class Gates:
    """Untimed checks on every attempt's output.  A repeated instance must
    give the same status, nodes and output as its first attempt (capped
    attempts excepted: the cap is a CPU-time limit)."""

    def __init__(self):
        self.first: dict[int, Attempt] = {}
        self.admissible: dict[int, bool] = {}

    def check(self, att: Attempt) -> None:
        inst = att.instance
        if att.status == "solved":
            params, _, triad, witness = att.output
            ok, problems = verify_detachment(witness, triad, params)
            problems += enclosing_problems(inst.g, witness.result, params)
            if problems:
                raise GateError(f"instance {inst.ident}: {problems[:3]}")
        elif att.status in ("yes", "no"):
            (report,) = att.output
            if inst.ident not in self.admissible:
                self.admissible[inst.ident] = brute_force_admissible(inst.g, inst.target.input_r)
            claimed = report.passed(ADMISSIBILITY_ENTRY[inst.target.regime])
            if claimed != self.admissible[inst.ident]:
                raise GateError(
                    f"instance {inst.ident}: battery says admissible={claimed}, "
                    f"brute force says {self.admissible[inst.ident]}"
                )
        first = self.first.setdefault(inst.ident, att)
        if first is not att and "capped" not in (first.status, att.status):
            if (first.status, first.nodes, first.digest) != (att.status, att.nodes, att.digest):
                raise GateError(f"instance {inst.ident} gave a different result on repeat")


def corpus_from(att: Attempt) -> tuple[list[Multigraph], list[tuple[Multigraph, int]]]:
    """Class graphs an attempt produced, for the primitive micro-timings:
    all graphs, and (graph, r) pairs for the admissibility predicate."""
    t = att.instance.target
    if att.status in ("yes", "no"):
        classes = list(att.instance.g.classes)
        return classes, [(cls, t.input_r) for cls in classes]
    if att.output is None:
        return [], []
    _, full, triad, witness = att.output
    graphs = list(full.classes) + list(triad.decomposition.classes)
    if witness is not None:
        graphs += list(witness.result.classes)
    return graphs, [(cls, t.r) for cls in full.classes]


def _us_per_call(calls: list, repeats: int = 5, min_round_s: float = 0.05) -> float:
    """Median over rounds of the mean microseconds per call; each round runs
    every call `loops` times, with `loops` sized so a round lasts at least
    `min_round_s`."""
    loops = 1
    while True:
        start = perf_counter()
        for _ in range(loops):
            for call in calls:
                call()
        if perf_counter() - start >= min_round_s:
            break
        loops *= 2
    rounds = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(loops):
            for call in calls:
                call()
        rounds.append((perf_counter() - start) / (loops * len(calls)))
    return statistics.median(rounds) * 1e6


def primitive_timings(
    graphs: list[Multigraph], admissibility: list[tuple[Multigraph, int]]
) -> dict[str, float]:
    return {
        "mgraph.bridges.us": _us_per_call([g.bridges for g in graphs]),
        "mgraph.is_two_edge_connected_spanning.us": _us_per_call(
            [g.is_two_edge_connected_spanning for g in graphs]
        ),
        "mgraph.copy.us": _us_per_call([g.copy for g in graphs]),
        "mgraph.degree.us": _us_per_call(
            [lambda g=g, v=v: g.degree(v) for g in graphs for v in range(g.vertex_count)]
        ),
        "decomp.class_admissibility_violation.us": _us_per_call(
            [lambda g=g, r=r: class_admissibility_violation(g, r) for g, r in admissibility]
        ),
    }
