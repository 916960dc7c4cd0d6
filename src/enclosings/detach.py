"""Amalgamation and detachment: collapse the m-n missing vertices of the
target into one amalgam vertex carrying loops, then split them back out one
at a time.

The amalgamated triad built from an admissible decomposition of mu*K_n with
large-enough classes is "good": every class is 2-edge-connected spanning and
every vertex v has class degree >= 2g(v).  Goodness is exactly the invariant
that survives splitting one vertex off the amalgam, and every good state can
be completed, so the search is one loop over the splits: it backtracks only
inside a split, until the reduced state is good again, and never revisits an
accepted split.

In this exact regime the fairness requirements collapse to equalities: each
split vertex takes degree exactly r per color and multiplicity exactly mu to
every other vertex, which become row/column sums of a small assignment
matrix per split.  Its columns are the vertices already outside the amalgam,
and its capacities come from one vector per class, `to_amalgam`, of the
amalgam edges still running to each of those vertices.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .conditions import EnclosureParams, check_a_prime
from .decomp import Decomposition
from .errors import (
    BudgetExhaustedError,
    InternalInconsistencyError,
    PreconditionError,
)
from .mgraph import Multigraph, complete_multigraph


@dataclass(frozen=True)
class Triad:
    """Per-vertex amalgamation sizes and a decomposition of a loops-allowed
    multigraph, the decomposition's base."""

    g: tuple[int, ...]
    decomposition: Decomposition

    def __post_init__(self):
        graph = self.decomposition.base
        if len(self.g) != graph.vertex_count:
            raise ValueError("amalgamation sizes must cover every vertex")
        if any(value < 1 for value in self.g):
            raise ValueError("amalgamation sizes must be positive")
        for v, value in enumerate(self.g):
            if value == 1 and graph.loop_count(v) > 0:
                raise ValueError(f"vertex {v} has size 1 but carries a loop")


@dataclass
class DetachStats:
    nodes: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class DetachmentWitness:
    result: Decomposition
    vertex_map: tuple[int, ...]  # result vertex -> triad vertex
    stats: DetachStats


def build_amalgamated_triad(a: Decomposition, params: EnclosureParams) -> Triad:
    """Amalgamate the m-n future vertices into one vertex x0 = n.

    Per color i the amalgam carries |E(a_i)| - p loops and r - deg_i(x_j)
    edges to each original vertex.  The construction forces four facts that
    are asserted here: per-color degree r at each x_j and r(m-n) at x0,
    multiplicity mu(m-n) on every (x0, x_j) pair, and mu(m-n)(m-n-1)/2
    loops in total.
    """
    if params.m <= params.n:
        raise PreconditionError("nothing to detach: m must exceed n")
    report = check_a_prime(a, params)
    if not report.ok:
        raise PreconditionError(f"condition {report.first_failing()} fails")
    n, m, mu, r = params.n, params.m, params.mu, params.r
    if not params.p_is_integer:
        raise InternalInconsistencyError("p is not an integer despite divisibility")
    p = int(params.p)
    x0 = n
    graph = Multigraph(n + 1)
    classes = []
    for i, cls in enumerate(a.classes):
        tri_cls = Multigraph(n + 1)
        for (u, v), mult in cls.edges.items():
            tri_cls.add_edge(u, v, mult)
            graph.add_edge(u, v, mult)
        loops = cls.edge_count() - p
        if loops < 0:
            raise InternalInconsistencyError(f"class {i} smaller than p")
        if loops:
            tri_cls.add_edge(x0, x0, loops)
            graph.add_edge(x0, x0, loops)
        for j in range(n):
            missing = r - cls.degree(j)
            if missing < 0:
                raise InternalInconsistencyError(f"class {i} exceeds degree {r} at {j}")
            if missing:
                tri_cls.add_edge(x0, j, missing)
                graph.add_edge(x0, j, missing)
        classes.append(tri_cls)

    triad = Triad(
        g=tuple([1] * n + [m - n]),
        decomposition=Decomposition(graph, tuple(classes)),
    )

    for i, cls in enumerate(triad.decomposition.classes):
        for j in range(n):
            if cls.degree(j) != r:
                raise InternalInconsistencyError(
                    f"class {i} degree at vertex {j} is {cls.degree(j)}, expected {r}"
                )
        if cls.degree(x0) != r * (m - n):
            raise InternalInconsistencyError(
                f"class {i} degree at amalgam is {cls.degree(x0)}, expected {r * (m - n)}"
            )
    for j in range(n):
        if graph.multiplicity(x0, j) != mu * (m - n):
            raise InternalInconsistencyError(
                f"amalgam multiplicity to {j} is {graph.multiplicity(x0, j)}, "
                f"expected {mu * (m - n)}"
            )
    expected_loops = mu * (m - n) * (m - n - 1) // 2
    if graph.loop_count(x0) != expected_loops:
        raise InternalInconsistencyError(
            f"amalgam carries {graph.loop_count(x0)} loops, expected {expected_loops}"
        )
    return triad


def is_good_triad(t: Triad) -> bool:
    """Every class 2-edge-connected spanning with class degree >= 2g(v)
    everywhere."""
    for cls in t.decomposition.classes:
        if not cls.is_two_edge_connected_spanning():
            return False
        for v in range(cls.vertex_count):
            if cls.degree(v) < 2 * t.g[v]:
                return False
    return True


class _SplitSearch:
    """Split the amalgam one vertex at a time.

    State per color i: to_amalgam[i][v] = remaining amalgam-to-v edges for
    every vertex v below the next split vertex (the original vertices, then
    the split ones), loops[i] = remaining amalgam loops.  The split of
    vertex y chooses a k x y matrix with row sums r and column sums mu, plus
    per row a count of loops converted into y-to-amalgam edges; those counts
    sum to mu times the number of vertices still in the amalgam.  A split is
    accepted when every reduced class stays 2-edge-connected spanning.

    `run` is one loop over the m - n splits; each split backtracks over its
    rows only and then commits them.  An accepted split is never revisited:
    a good state can always be completed, so a split with no solution is an
    internal inconsistency.
    """

    def __init__(self, t: Triad, params: EnclosureParams, seed: int, budget: int):
        self.n = params.n
        self.m = params.m
        self.k = params.k
        self.r = params.r
        self.mu = params.mu
        self.budget = budget
        self.stats = DetachStats()
        self.rng = random.Random(seed) if seed else None

        x0 = self.n
        classes = t.decomposition.classes
        self.to_amalgam = [
            [cls.multiplicity(x0, j) for j in range(self.n)] for cls in classes
        ]
        self.loops = [cls.loop_count(x0) for cls in classes]
        # result classes live on m vertices and start as the restriction
        self.result = [self._restricted(cls) for cls in classes]

    def _restricted(self, cls: Multigraph) -> Multigraph:
        out = Multigraph(self.m)
        for (u, v), mult in cls.edges.items():
            if u < self.n and v < self.n:
                out.add_edge(u, v, mult)
        return out

    def run(self) -> list[Multigraph]:
        for y in range(self.n, self.m):
            remaining_after = self.m - y - 1
            chosen = self._split(y, remaining_after)
            if chosen is None:
                if self.stats.nodes >= self.budget:
                    raise BudgetExhaustedError(
                        f"detachment search exceeded {self.budget} nodes"
                    )
                raise InternalInconsistencyError(
                    f"split of vertex {y} has no solution; the good triad "
                    "guarantee says one exists"
                )
            self._commit(y, chosen, remaining_after)
        return self.result

    def _row_candidates(
        self, i: int, y: int, remaining_after: int
    ) -> list[tuple[tuple[int, ...], int]]:
        """All ways class i can serve the split vertex: a per-column vector
        plus a count of loops converted into amalgam edges, summing to r,
        filtered so that the class's reduced graph stays 2-edge-connected
        spanning.  Goodness is a per-class property, so filtering here means
        the combination search below never needs a global goodness check."""
        to_amalgam = self.to_amalgam[i]
        caps = [min(count, self.mu) for count in to_amalgam]
        b_cap = min(self.loops[i], self.mu * remaining_after, self.r)

        # reduced class graph before the split vertex picks its edges:
        # split vertices keep their edges, the amalgam keeps the rest
        amalgam = y + 1
        base = Multigraph(amalgam + 1)
        for (u, v), mult in self.result[i].edges.items():
            base.add_edge(u, v, mult)
        for v, count in enumerate(to_amalgam):
            if count:
                base.add_edge(amalgam, v, count)
        if self.loops[i]:
            base.add_edge(amalgam, amalgam, self.loops[i])

        out: list[tuple[tuple[int, ...], int]] = []
        vec = [0] * y

        def rec(c: int, left: int):
            if c == y:
                b = left
                if b > b_cap:
                    return
                if remaining_after == 0 and b != 0:
                    return
                candidate = base.copy()
                for v, x in enumerate(vec):
                    if x:
                        candidate.remove_edge(amalgam, v, x)
                        candidate.add_edge(y, v, x)
                if b:
                    candidate.remove_edge(amalgam, amalgam, b)
                    candidate.add_edge(y, amalgam, b)
                if remaining_after == 0:
                    candidate = candidate.induced(amalgam)
                if candidate.is_two_edge_connected_spanning():
                    out.append((tuple(vec), b))
                return
            top = min(caps[c], left)
            for x in range(top, -1, -1):
                vec[c] = x
                rec(c + 1, left - x)
            vec[c] = 0

        rec(0, self.r)
        if self.rng:
            self.rng.shuffle(out)
        return out

    def _split(
        self, y: int, remaining_after: int
    ) -> list[tuple[tuple[int, ...], int]] | None:
        """One row (vector, loop count) per class for the split of vertex y,
        or None when the budget ran out or no assignment exists."""
        if self.stats.nodes >= self.budget:
            return None
        candidates = []
        for i in range(self.k):
            cand = self._row_candidates(i, y, remaining_after)
            if not cand:
                return None
            candidates.append(cand)

        row_order = sorted(range(self.k), key=lambda i: len(candidates[i]))
        # what the rows from position pos on can still give each column and
        # the amalgam; caps stay fixed within a split
        col_room = [[0] * y for _ in range(self.k + 1)]
        amalgam_room = [0] * (self.k + 1)
        for pos in range(self.k - 1, -1, -1):
            i = row_order[pos]
            col_room[pos] = [
                room + min(count, self.mu, self.r)
                for room, count in zip(col_room[pos + 1], self.to_amalgam[i])
            ]
            amalgam_room[pos] = amalgam_room[pos + 1] + min(self.loops[i], self.r)

        col_left = [self.mu] * y
        chosen: list[tuple[tuple[int, ...], int]] = [((), 0)] * self.k

        def feasible(pos: int, amalgam_left: int) -> bool:
            # rows not yet placed must be able to finish every column and
            # the amalgam demand
            return amalgam_left <= amalgam_room[pos] and all(
                left <= room for left, room in zip(col_left, col_room[pos])
            )

        def place(pos: int, amalgam_left: int) -> bool:
            if self.stats.nodes >= self.budget:
                return False
            if pos == self.k:
                return not any(col_left) and not amalgam_left
            i = row_order[pos]
            for vec, b in candidates[i]:
                self.stats.nodes += 1
                if self.stats.nodes >= self.budget:
                    return False
                if b > amalgam_left or any(
                    x > left for x, left in zip(vec, col_left)
                ):
                    continue
                for c, x in enumerate(vec):
                    col_left[c] -= x
                chosen[i] = (vec, b)
                if feasible(pos + 1, amalgam_left - b) and place(
                    pos + 1, amalgam_left - b
                ):
                    return True
                for c, x in enumerate(vec):
                    col_left[c] += x
            return False

        return chosen if place(0, self.mu * remaining_after) else None

    def _commit(
        self,
        y: int,
        chosen: list[tuple[tuple[int, ...], int]],
        remaining_after: int,
    ) -> None:
        if sum(b for _, b in chosen) != self.mu * remaining_after:
            raise InternalInconsistencyError(
                "degree conservation broke during the split"
            )
        for i, (vec, b) in enumerate(chosen):
            for v, x in enumerate(vec):
                if x:
                    self.to_amalgam[i][v] -= x
                    self.result[i].add_edge(y, v, x)
            self.loops[i] -= b
            self.to_amalgam[i].append(b)


def fair_detach(
    t: Triad,
    params: EnclosureParams,
    seed: int = 0,
    budget: int = 10_000_000,
) -> DetachmentWitness:
    """Fully expand the amalgam into m - n concrete vertices so that every
    class is an r-regular 2-edge-connected spanning subgraph and every pair
    has multiplicity exactly mu.  A solution always exists for a good triad;
    running out of budget is reported as such, never as nonexistence."""
    if not is_good_triad(t):
        raise PreconditionError("triad is not good; cannot detach")
    start = time.monotonic()
    search = _SplitSearch(t, params, seed, budget)
    classes = search.run()
    search.stats.wall_time = time.monotonic() - start

    base = complete_multigraph(params.m, params.mu)
    result = Decomposition(base, tuple(cls.copy() for cls in classes))
    result.validate_partition()
    vertex_map = tuple(list(range(params.n)) + [params.n] * (params.m - params.n))
    return DetachmentWitness(result=result, vertex_map=vertex_map, stats=search.stats)


def verify_detachment(
    w: DetachmentWitness, t: Triad, params: EnclosureParams
) -> tuple[bool, list[str]]:
    """Independent re-check of the detachment contract: color-preserving
    edge correspondence, fiber sizes, exact class degrees, exact pair
    multiplicities, and 2-edge-connectivity of every class."""
    problems: list[str] = []
    n, m, mu, r = params.n, params.m, params.mu, params.r
    phi = w.vertex_map
    if len(phi) != m:
        problems.append(f"vertex map covers {len(phi)} vertices, expected {m}")
        return (False, problems)

    fibers: dict[int, int] = {}
    for image in phi:
        fibers[image] = fibers.get(image, 0) + 1
    for v in range(t.decomposition.base.vertex_count):
        if fibers.get(v, 0) != t.g[v]:
            problems.append(
                f"fiber of triad vertex {v} has size {fibers.get(v, 0)}, "
                f"expected {t.g[v]}"
            )

    if w.result.k != t.decomposition.k:
        problems.append("class counts differ between witness and triad")
        return (False, problems)

    # color correspondence: per class, pushing result edges through phi must
    # reproduce the triad class exactly
    for i, (res_cls, tri_cls) in enumerate(
        zip(w.result.classes, t.decomposition.classes)
    ):
        pushed: dict[tuple[int, int], int] = {}
        for (u, v), mult in res_cls.edges.items():
            a, b = phi[u], phi[v]
            key = (a, b) if a <= b else (b, a)
            pushed[key] = pushed.get(key, 0) + mult
        if pushed != tri_cls.edges:
            problems.append(f"class {i} does not map onto the triad class")

    for i, cls in enumerate(w.result.classes):
        for v in range(m):
            if cls.degree(v) != r:
                problems.append(
                    f"class {i} degree at {v} is {cls.degree(v)}, expected {r}"
                )
                break
        if not cls.is_two_edge_connected_spanning():
            problems.append(f"class {i} is not 2-edge-connected spanning")

    for u in range(m):
        for v in range(u + 1, m):
            total = sum(cls.multiplicity(u, v) for cls in w.result.classes)
            if total != mu:
                problems.append(
                    f"pair {(u, v)} has multiplicity {total}, expected {mu}"
                )
    return (not problems, problems)
