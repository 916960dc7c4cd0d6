"""Amalgamation and detachment: collapse the m-n missing vertices of the
target into one amalgam vertex carrying loops, then split them back out one
at a time.

The amalgamated decomposition (the triad) is a plain decomposition on n+1
vertices: the amalgam is vertex n and stands for m-n vertices.  Built from
an admissible decomposition of mu*K_n with large-enough classes it is
"good": every class is 2-edge-connected spanning, with class degree >= 2 at
every vertex below n and >= 2(m-n) at the amalgam.  Goodness is exactly the
invariant that survives splitting one vertex off the amalgam, and every good
state can be completed, so the search is one loop over the splits: it
backtracks only inside a split, until the reduced state is good again, and
never revisits an accepted split.

In this exact regime the fairness requirements collapse to equalities: each
split vertex takes degree exactly r per color and multiplicity exactly mu to
every other vertex, which become row/column sums of a small assignment
matrix per split.  Each class is kept in one working multigraph, amalgam
included, and a row moves amalgam edges onto the split vertex in place.
Split vertices are appended at n+1..m-1 and what is left of the amalgam
stays vertex n, the forced last split, so only m-n-1 splits are searched.
Result vertex v is amalgamated into min(v, n).

A row keeps its class 2-edge-connected exactly when it leaves two
edge-disjoint paths between the split vertex and the amalgam: identifying
the two gives back the class before the split, which is 2-edge-connected,
so only the cuts between them can fall below two edges.  `candidate_rows`
counts those paths on one bridge forest per class per split, the class
without the amalgam, so no row is moved or checked on the graph itself.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .conditions import EnclosureParams, check_a_prime
from .decomp import Decomposition
from .errors import (
    BudgetExhaustedError,
    InternalInconsistencyError,
    PreconditionError,
)
from .mgraph import Multigraph, complete_multigraph


@dataclass(frozen=True)
class SplitRecord:
    """One searched split: its vertex z, the search nodes it took, the
    fewest and most candidate rows of any class, and the most classes that
    held a row at once (k when the split was solved)."""

    z: int
    nodes: int
    min_candidates: int
    max_candidates: int
    deepest: int


@dataclass
class DetachStats:
    nodes: int = 0
    wall_time: float = 0.0
    splits: list[SplitRecord] = field(default_factory=list)


@dataclass(frozen=True)
class DetachmentWitness:
    result: Decomposition
    stats: DetachStats


def build_amalgamated_triad(a: Decomposition, params: EnclosureParams) -> Decomposition:
    """Amalgamate the m-n future vertices into one vertex x0 = n.

    Per color i the amalgam carries |E(a_i)| - p loops and r - deg_i(x_j)
    edges to each original vertex, which gives degree r at each x_j and
    rn - 2p = r(m-n) at x0.  The base is built in closed form: mu*K_n, plus
    mu(m-n) edges from x0 to each x_j, plus mu(m-n)(m-n-1)/2 loops at x0,
    and the classes must partition it.
    """
    if params.m <= params.n:
        raise PreconditionError("nothing to detach: m must exceed n")
    report = check_a_prime(a, params)
    if not report.ok:
        raise PreconditionError(f"condition {report.first_failing()} fails")
    n, mu, r = params.n, params.mu, params.r
    s = params.m - n
    p = int(params.p)
    x0 = n
    classes = []
    for i, cls in enumerate(a.classes):
        loops = cls.edge_count() - p
        if loops < 0:
            raise InternalInconsistencyError(f"class {i} smaller than p")
        tri_cls = Multigraph(n + 1, cls.edges)
        tri_cls.add_edge(x0, x0, loops)
        for j, d in enumerate(cls.degrees()):
            if d > r:
                raise InternalInconsistencyError(f"class {i} exceeds degree {r} at {j}")
            tri_cls.add_edge(x0, j, r - d)
        classes.append(tri_cls)

    base = Multigraph(n + 1, complete_multigraph(n, mu).edges)
    for j in range(n):
        base.add_edge(x0, j, mu * s)
    base.add_edge(x0, x0, mu * s * (s - 1) // 2)
    triad = Decomposition(base, tuple(classes))
    try:
        triad.validate_partition()
    except ValueError as exc:
        raise InternalInconsistencyError(f"amalgamated {exc}") from exc
    return triad


def is_good_triad(t: Decomposition, params: EnclosureParams) -> bool:
    """Every class 2-edge-connected spanning, with class degree >= 2 below
    n and >= 2(m-n) at the amalgam n."""
    need = [2] * params.n + [2 * (params.m - params.n)]
    for cls in t.classes:
        if not cls.is_two_edge_connected_spanning():
            return False
        if any(d < low for d, low in zip(cls.degrees(), need)):
            return False
    return True


def candidate_rows(
    g: Multigraph, n: int, z: int, r: int, caps: list[int]
) -> list[list[int]]:
    """Every row within `caps` that keeps class g 2-edge-connected spanning
    once split vertex z takes it, in descending order over the columns with
    the amalgam n last.  A row is a multiset of r amalgam neighbours, and
    combinations_with_replacement yields those multisets in exactly that
    order.

    g must be 2-edge-connected spanning on 0..z-1, with z isolated: the
    good-state invariant, which `is_good_triad` or the previous split has
    checked.  Identifying z with n then gives back g, with the row's z-n
    edges as loops, so only the cuts between z and n can fall below two
    edges, and a row passes exactly when it leaves two edge-disjoint z-n
    paths.  Those are row[n] direct edges plus what each tree C of F's
    bridge forest carries, F being g without n: with Z row edges and A
    remaining amalgam edges into C, C carries min(Z, A, 2), except 1 when Z
    and A are both at least 2 and one bridge cuts the row's blocks off from
    the amalgam's.  As each side of a bridge of F has an amalgam edge in g,
    that happens exactly when the subtree spanning the row's blocks has one
    bridge leaving it and all its amalgam edges are row edges.  Goodness is
    a per-class property, so filtering here means the row search never
    needs a global goodness check."""
    label, bridges = g.blocks(n)
    count = max(label) + 1
    amalgam = [0] * count  # amalgam edges into each block
    for v in range(z):
        if v != n:
            amalgam[label[v]] += g.multiplicity(v, n)
    forest: list[list[int]] = [[] for _ in range(count)]
    for u, v in bridges:
        forest[label[u]].append(label[v])
        forest[label[v]].append(label[u])
    # root each tree at its first block: the tree, parent and depth of each
    # block, and per tree the amalgam edges into it
    tree = [-1] * count
    parent = [-1] * count
    depth = [0] * count
    reach = [0] * count
    for root in range(count):
        if tree[root] < 0:
            tree[root] = root
            stack = [root]
            while stack:
                a = stack.pop()
                reach[root] += amalgam[a]
                for b in forest[a]:
                    if tree[b] < 0:
                        tree[b], parent[b], depth[b] = root, a, depth[a] + 1
                        stack.append(b)

    neighbours = [v for v in range(z) if caps[v] and v != n]
    if caps[n]:
        neighbours.append(n)
    out = []
    for combo in combinations_with_replacement(neighbours, r):
        row = [0] * z
        for v in combo:
            row[v] += 1
        if any(row[v] > caps[v] for v in combo):
            continue
        paths = row[n]
        into: dict[int, int] = {}  # row edges into each tree
        for v in combo:
            if v != n:
                t = tree[label[v]]
                into[t] = into.get(t, 0) + 1
        for t, zc in into.items():
            ac = reach[t] - zc
            paths += min(zc, ac, 2)
            if zc >= 2 and ac >= 2:
                # walk the deepest tip up until the tips meet: the blocks
                # walked span the row's blocks in the tree
                tips = {label[v] for v in combo if v != n and tree[label[v]] == t}
                span = set(tips)
                while len(tips) > 1:
                    b = max(tips, key=depth.__getitem__)
                    tips.remove(b)
                    tips.add(parent[b])
                    span.add(parent[b])
                leaving = sum(len(forest[b]) for b in span) - 2 * (len(span) - 1)
                if leaving == 1 and sum(amalgam[b] for b in span) == zc:
                    paths -= 1
        if paths >= 2:
            out.append(row)
    return out


class _SplitSearch:
    """Split the amalgam one vertex at a time.

    Each class lives in one working multigraph: the amalgamated class, with
    the amalgam at vertex n, grown by one vertex for each split vertex z =
    n+1, n+2, ...  The split of z picks one row per class: a count vector
    over the vertices below z, where row[v] amalgam-to-v edges become z-to-v
    edges and row[n] amalgam loops become z-to-amalgam edges.  Rows sum to r;
    column v sums to mu, and column n to mu times the number of vertices the
    amalgam still stands for.  A row is a candidate when its class stays
    2-edge-connected spanning.

    `run` is one loop over the first m - n - 1 splits, each a backtracking
    search over its rows that is then committed and never revisited: a good
    state can always be completed, so a split with no solution is an internal
    inconsistency.  What is left of the amalgam is then vertex n: its rows
    are forced, and the last split (or `is_good_triad`, when m = n + 1)
    has already checked the classes they give.
    """

    def __init__(self, t: Decomposition, params: EnclosureParams, seed: int, budget: int):
        self.n = params.n
        self.m = params.m
        self.r = params.r
        self.mu = params.mu
        self.budget = budget
        self.stats = DetachStats()
        self.rng = random.Random(seed) if seed else None
        self.work = [cls.copy() for cls in t.classes]

    def run(self) -> list[Multigraph]:
        n, m = self.n, self.m
        for z in range(n + 1, m):
            self.work = [Multigraph(z + 1, g.edges) for g in self.work]
            rows = self._split(z)
            if rows is None:
                if self.stats.nodes >= self.budget:
                    stalled = self.stats.splits[-1]
                    raise BudgetExhaustedError(
                        f"detachment search exceeded {self.budget} nodes in the "
                        f"split of vertex {z}, {stalled.nodes} of them there; at "
                        f"most {stalled.deepest} of {len(self.work)} classes held "
                        "a row at once"
                    )
                raise InternalInconsistencyError(
                    f"split of vertex {z} has no solution; the good triad "
                    "guarantee says one exists"
                )
            for g, row in zip(self.work, rows):
                self._move(g, n, z, row)
        return self.work

    def _move(self, g: Multigraph, src: int, dst: int, row: list[int]) -> None:
        """Move row[v] src-to-v edges onto dst-to-v; with src, dst the
        amalgam and a split vertex (either way round), entry n turns amalgam
        loops into split-to-amalgam edges or back."""
        for v, x in enumerate(row):
            if x:
                g.remove_edge(src, v, x)
                g.add_edge(dst, v, x)

    def _split(self, z: int) -> list[list[int]] | None:
        """One row per class for the split of vertex z, or None when the
        budget ran out or no assignment exists."""
        n, k = self.n, len(self.work)
        demand = [self.mu] * z
        demand[n] = self.mu * (self.m - z)
        caps = [
            [min(g.multiplicity(n, v), d) for v, d in enumerate(demand)]
            for g in self.work
        ]
        candidates = [
            candidate_rows(g, n, z, self.r, c) for g, c in zip(self.work, caps)
        ]
        if self.rng:
            for cand in candidates:
                self.rng.shuffle(cand)
        counts = [len(c) for c in candidates]

        order = sorted(range(k), key=lambda i: counts[i])
        # room[pos]: what the rows from position pos on can still give each
        # column; caps stay fixed within a split
        room = [[0] * z]
        for i in reversed(order):
            room.append([a + min(c, self.r) for a, c in zip(room[-1], caps[i])])
        room.reverse()

        # left[pos]: what the rows from position pos on must still give;
        # tried[pos]: how many of its candidates position pos has tried.
        # The search ends at pos = k (solved), at pos = -1 (no assignment;
        # at once when a class has no candidate) or on the budget.
        left = [demand]
        tried = [0] * k
        start = self.stats.nodes
        pos = 0 if all(counts) else -1
        deepest = 0
        while 0 <= pos < k:
            cand = candidates[order[pos]]
            if tried[pos] == len(cand):
                # every candidate at pos failed: step back one position
                tried[pos] = 0
                left.pop()
                pos -= 1
                continue
            row = cand[tried[pos]]
            tried[pos] += 1
            self.stats.nodes += 1
            if self.stats.nodes >= self.budget:
                break
            rest = [d - x for d, x in zip(left[pos], row)]
            if all(0 <= d <= a for d, a in zip(rest, room[pos + 1])):
                left.append(rest)
                pos += 1
                deepest = max(deepest, pos)
        self.stats.splits.append(SplitRecord(
            z, self.stats.nodes - start, min(counts), max(counts), deepest
        ))
        if pos < k:
            return None
        chosen: list[list[int]] = [[]] * k
        for pos, i in enumerate(order):
            chosen[i] = candidates[i][tried[pos] - 1]
        return chosen


def fair_detach(
    t: Decomposition,
    params: EnclosureParams,
    seed: int = 0,
    budget: int = 10_000_000,
) -> DetachmentWitness:
    """Fully expand the amalgam into m - n concrete vertices so that every
    class is an r-regular 2-edge-connected spanning subgraph and every pair
    has multiplicity exactly mu.  A solution always exists for a good triad;
    running out of budget is reported as such, never as nonexistence."""
    n = params.n
    if params.m <= n or t.base.vertex_count != n + 1:
        raise PreconditionError(
            f"expected an amalgamated decomposition on n + 1 = {n + 1} vertices "
            f"and m > n; got {t.base.vertex_count} vertices and m = {params.m}"
        )
    if any(t.base.multiplicity(v, v) for v in range(n)):
        raise PreconditionError("only the amalgam may carry loops")
    if not is_good_triad(t, params):
        raise PreconditionError("triad is not good; cannot detach")
    start = time.monotonic()
    search = _SplitSearch(t, params, seed, budget)
    classes = search.run()
    search.stats.wall_time = time.monotonic() - start

    result = Decomposition(complete_multigraph(params.m, params.mu), tuple(classes))
    result.validate_partition()
    return DetachmentWitness(result=result, stats=search.stats)


def verify_detachment(
    w: DetachmentWitness, t: Decomposition, params: EnclosureParams
) -> tuple[bool, list[str]]:
    """Independent re-check of the detachment contract: color-preserving
    edge correspondence under v -> min(v, n), exact class degrees, exact
    pair multiplicities, and 2-edge-connectivity of every class."""
    problems: list[str] = []
    n, m, mu, r = params.n, params.m, params.mu, params.r
    if w.result.base.vertex_count != m:
        problems.append(f"result has {w.result.base.vertex_count} vertices, expected {m}")
        return (False, problems)
    if w.result.k != t.k:
        problems.append("class counts differ between witness and triad")
        return (False, problems)

    # color correspondence: per class, pushing result edges through
    # v -> min(v, n) must reproduce the triad class exactly; u <= v keeps
    # each pushed pair normalized
    for i, (res_cls, tri_cls) in enumerate(zip(w.result.classes, t.classes)):
        pushed: dict[tuple[int, int], int] = {}
        for (u, v), mult in res_cls.edges.items():
            key = (min(u, n), min(v, n))
            pushed[key] = pushed.get(key, 0) + mult
        if pushed != tri_cls.edges:
            problems.append(f"class {i} does not map onto the triad class")

    for i, cls in enumerate(w.result.classes):
        for v, d in enumerate(cls.degrees()):
            if d != r:
                problems.append(f"class {i} degree at {v} is {d}, expected {r}")
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
