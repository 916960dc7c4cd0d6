"""Brute-force ground truth, deliberately independent of the constructive
pipeline: an exhaustive enclosure search, a naive transcription of the
admissibility definition, an exhaustive decomposition enumerator, a
backtracking packer of almost-regular classes, and a seeded generator of
admissible instances.

Only the multigraph substrate is shared with the main modules; the
admissibility logic here is written from scratch so that it can serve as an
oracle for decomp.is_admissible rather than restating it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from typing import Iterator

from .conditions import EnclosureParams
from .decomp import Decomposition, Enclosing, class_admissibility_violation
from .errors import (
    BudgetExhaustedError,
    CapExceededError,
    InternalInconsistencyError,
    PreconditionError,
)
from .mgraph import Multigraph, complete_multigraph

SLOT_CAP = 40  # colored edge slots brute_force_enclose will search
EDGE_CAP = 12  # edges enumerate_decompositions will split
ASSIGNMENT_CAP = 10**6  # raw assignments enumerate_decompositions will walk
MAX_RESTARTS = 50  # random assignments random_admissible tries
REPAIRS_PER_EDGE = 200  # its one-edge moves per assignment, per edge


@dataclass
class SearchStats:
    nodes: int = 0
    solutions: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class EnclosureSearchResult:
    status: str  # "found" | "none" | "budget"
    witness: Enclosing | None
    stats: SearchStats


def brute_force_admissible(d: Decomposition, r: int) -> bool:
    """Admissibility checked straight from its definition, naively: re-derive
    components from scratch, and for the cutedge condition remove every
    single-multiplicity edge and recompute components."""
    if r < 2:
        raise ValueError("r must be >= 2")

    def components_of(cls: Multigraph) -> list[set[int]]:
        unseen = set(range(cls.vertex_count))
        comps = []
        while unseen:
            start = unseen.pop()
            comp = {start}
            frontier = [start]
            while frontier:
                x = frontier.pop()
                for (a, b), mult in cls.edges.items():
                    if mult <= 0 or a == b:
                        continue
                    other = None
                    if a == x:
                        other = b
                    elif b == x:
                        other = a
                    if other is not None and other not in comp:
                        comp.add(other)
                        frontier.append(other)
            unseen -= comp
            comps.append(comp)
        return comps

    for cls in d.classes:
        degs = {v: cls.degree(v) for v in range(cls.vertex_count)}
        if any(deg > r for deg in degs.values()):
            return False
        comps = components_of(cls)
        for comp in comps:
            if any(degs[v] <= r - 2 for v in comp):
                continue
            if sum(1 for v in comp if degs[v] <= r - 1) >= 2:
                continue
            return False
        for (a, b), mult in sorted(cls.edges.items()):
            if a == b or mult != 1:
                continue
            reduced = cls.copy()
            reduced.remove_edge(a, b)
            new_comps = components_of(reduced)
            if len(new_comps) == len(comps):
                continue  # not a cutedge
            for comp in new_comps:
                if a in comp or b in comp:
                    if not any(degs[v] <= r - 1 for v in comp):
                        return False
    return True


def _pair_distributions(
    total: int, lower: list[int], upper: list[int]
) -> Iterator[list[int]]:
    """All vectors c with lower <= c <= upper componentwise and sum(c) = total,
    in lexicographic order.  An odometer, not a recursion, so any number of
    classes fits in one frame."""
    k = len(lower)
    min_from = list(accumulate(reversed(lower), initial=0))[::-1]
    max_from = list(accumulate(reversed(upper), initial=0))[::-1]
    vec, high = [0] * k, [0] * k
    i, left = 0, total  # left = total - sum(vec[:i])
    while True:
        if i < k:
            # the least digit that the digits after it can still complete
            vec[i] = max(lower[i], left - max_from[i + 1])
            high[i] = min(upper[i], left - min_from[i + 1])
            if vec[i] <= high[i]:
                left -= vec[i]
                i += 1
                continue
        elif left == 0:
            yield list(vec)
        # turn the last digit still below its high one step, or stop
        i -= 1
        while i >= 0 and vec[i] == high[i]:
            left += vec[i]
            i -= 1
        if i < 0:
            return
        vec[i] += 1
        left -= 1
        i += 1


def brute_force_enclose(
    g: Decomposition,
    params: EnclosureParams,
    budget: int = 50_000_000,
) -> EnclosureSearchResult:
    """Exhaustively assign colors to every edge of mu*K_m, consistent with g
    on the inner pairs, and report the first valid 2-edge-connected
    r-factorization found.

    "none" is only reported after the full space is exhausted; running out
    of budget is a distinct outcome.  Pruning: per-class degree caps, degree
    completion infeasibility at each vertex, frozen (saturated) components
    that cannot span, and 2-edge-connectivity of saturated classes.  More
    than SLOT_CAP edge slots raise CapExceededError.
    """
    n, m, mu, lam, r, k = params.n, params.m, params.mu, params.lam, params.r, params.k
    slots = mu * m * (m - 1) // 2
    if slots > SLOT_CAP:
        raise CapExceededError(
            f"{slots} colored edge slots exceed the exhaustive cap {SLOT_CAP}"
        )
    if g.k != k:
        raise ValueError(f"decomposition has {g.k} classes, params.k = {k}")

    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    lower = []
    for u, v in pairs:
        if u < n and v < n:
            lower.append([cls.multiplicity(u, v) for cls in g.classes])
        else:
            lower.append([0] * k)

    stats = SearchStats()
    start = time.monotonic()
    classes = [Multigraph(m) for _ in range(k)]
    degrees = [[0] * m for _ in range(k)]
    remaining_pairs_at = [m - 1] * m  # unassigned pairs incident to v

    found: list[Decomposition] = []
    out_of_budget = [False]

    def frozen_component_dead(i: int, v: int) -> bool:
        """v just saturated in class i: its component can no longer grow.  If
        the whole component is saturated it is frozen; a frozen component
        must already span all m vertices and be bridgeless."""
        cls = classes[i]
        comp = next(c for c in cls.components() if v in c)
        if any(degrees[i][w] < r for w in comp):
            return False
        if len(comp) < m:
            return True
        return bool(cls.bridges())

    def completion_infeasible(u: int) -> bool:
        for i in range(k):
            if r - degrees[i][u] > mu * remaining_pairs_at[u]:
                return True
        return False

    def assign(idx: int) -> bool:
        if out_of_budget[0]:
            return False
        if idx == len(pairs):
            candidate = [cls.copy() for cls in classes]
            for cls in candidate:
                if not cls.is_two_edge_connected_spanning():
                    return False
            stats.solutions += 1
            found.append(
                Decomposition(complete_multigraph(m, mu), tuple(candidate))
            )
            return True
        u, v = pairs[idx]
        upper = [
            min(mu, r - degrees[i][u], r - degrees[i][v]) for i in range(k)
        ]
        remaining_pairs_at[u] -= 1
        remaining_pairs_at[v] -= 1
        for dist in _pair_distributions(mu, lower[idx], upper):
            stats.nodes += 1
            if stats.nodes > budget:
                out_of_budget[0] = True
                break
            for i, c in enumerate(dist):
                if c:
                    classes[i].add_edge(u, v, c)
                    degrees[i][u] += c
                    degrees[i][v] += c
            ok = not completion_infeasible(u) and not completion_infeasible(v)
            if ok:
                for i, c in enumerate(dist):
                    if c and (
                        (degrees[i][u] == r and frozen_component_dead(i, u))
                        or (degrees[i][v] == r and frozen_component_dead(i, v))
                    ):
                        ok = False
                        break
            if ok and assign(idx + 1):
                for i, c in enumerate(dist):
                    if c:
                        classes[i].remove_edge(u, v, c)
                        degrees[i][u] -= c
                        degrees[i][v] -= c
                remaining_pairs_at[u] += 1
                remaining_pairs_at[v] += 1
                return True
            for i, c in enumerate(dist):
                if c:
                    classes[i].remove_edge(u, v, c)
                    degrees[i][u] -= c
                    degrees[i][v] -= c
        remaining_pairs_at[u] += 1
        remaining_pairs_at[v] += 1
        return False

    hit = assign(0)
    stats.wall_time = time.monotonic() - start
    if out_of_budget[0]:
        return EnclosureSearchResult("budget", None, stats)
    if not hit:
        return EnclosureSearchResult("none", None, stats)
    return EnclosureSearchResult("found", Enclosing(found[0], n), stats)


def enumerate_decompositions(
    n: int, lam: int, k: int, dedup: bool = False
) -> Iterator[Decomposition]:
    """Every way to split the lam*K_n edges into k ordered classes, as
    per-pair count vectors (copies of the same pair are interchangeable, so
    for lam = 1 this is exactly the k^E raw assignments).  With dedup=True,
    decompositions equal up to a color permutation are emitted once, keyed
    by sorting classes by (size, edge list).  More than EDGE_CAP edges, or
    more than ASSIGNMENT_CAP raw assignments (C(lam+k-1, lam) per pair),
    raise CapExceededError here, before the first decomposition is built."""
    total_edges = lam * n * (n - 1) // 2
    if total_edges > EDGE_CAP:
        raise CapExceededError(
            f"{total_edges} edges exceed the enumeration cap {EDGE_CAP}"
        )
    base = complete_multigraph(n, lam)
    pairs = sorted(base.edges)
    assignments = comb(lam + k - 1, lam) ** len(pairs)
    if assignments > ASSIGNMENT_CAP:
        raise CapExceededError(
            f"{assignments} assignments exceed the enumeration cap {ASSIGNMENT_CAP}"
        )
    seen: set[tuple] = set()

    def rec(idx: int, classes: list[Multigraph]) -> Iterator[Decomposition]:
        if idx == len(pairs):
            d = Decomposition(base, tuple(cls.copy() for cls in classes))
            if dedup:
                key = tuple(
                    sorted(
                        (cls.edge_count(), tuple(sorted(cls.edges.items())))
                        for cls in d.classes
                    )
                )
                if key in seen:
                    return
                seen.add(key)
            yield d
            return
        u, v = pairs[idx]
        for dist in _pair_distributions(lam, [0] * k, [lam] * k):
            for i, c in enumerate(dist):
                if c:
                    classes[i].add_edge(u, v, c)
            yield from rec(idx + 1, classes)
            for i, c in enumerate(dist):
                if c:
                    classes[i].remove_edge(u, v, c)

    return rec(0, [Multigraph(n) for _ in range(k)])


def almost_regular_degree_bounds(size: int, n: int) -> tuple[int, int]:
    """Vertex degrees of an almost-regular class with `size` edges on n
    vertices are forced into {lo, hi}."""
    lo = (2 * size) // n
    hi = -((-2 * size) // n)
    return lo, hi


def bryant_decompose(n: int, lam: int, sizes: list[int]) -> Decomposition:
    """Pack edge-disjoint almost-regular classes of the given sizes into
    lambda*K_n, by backtracking over per-pair copy assignments: the
    reference for the packing lemma.

    Feasible exactly when sum(sizes) <= lam * C(n, 2); leftover copies stay
    unused.  Degree targets per class are forced (lo/hi from the size), and
    the search prunes on them.
    """
    total = lam * n * (n - 1) // 2
    if sum(sizes) > total:
        raise PreconditionError(
            f"sizes sum to {sum(sizes)} > {total} available edges"
        )
    t = len(sizes)
    bounds = [almost_regular_degree_bounds(s, n) for s in sizes]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]

    counts = [0] * t
    degrees = [[0] * n for _ in range(t)]
    assignment: list[list[int]] = []  # per pair: copies per class

    incident_after: list[list[int]] = []  # remaining copies at v strictly after pair idx
    inc = [0] * n
    for pair in reversed(pairs):
        incident_after.insert(0, list(inc))
        inc[pair[0]] += lam
        inc[pair[1]] += lam

    def distributions(idx: int) -> list[list[int]]:
        """Copies per class within its room, at most lam in all, in
        descending lexicographic order (the last entry is the unused ones)."""
        u, v = pairs[idx]
        room = []
        for i in range(t):
            cap = min(
                lam,
                sizes[i] - counts[i],
                bounds[i][1] - degrees[i][u],
                bounds[i][1] - degrees[i][v],
            )
            room.append(max(0, cap))
        dists = list(_pair_distributions(lam, [0] * (t + 1), room + [lam]))
        return [dist[:t] for dist in reversed(dists)]

    def feasible(idx: int) -> bool:
        remaining_total = lam * (len(pairs) - idx)
        if sum(sizes[i] - counts[i] for i in range(t)) > remaining_total:
            return False
        for i in range(t):
            # every remaining edge of class i fixes at most two unmet
            # lower-bound degree units
            need_i = sum(max(0, bounds[i][0] - degrees[i][v]) for v in range(n))
            if need_i > 2 * (sizes[i] - counts[i]):
                return False
        for v in range(n):
            rem_v = incident_after[idx - 1][v] if idx > 0 else lam * (n - 1)
            need = sum(max(0, bounds[i][0] - degrees[i][v]) for i in range(t))
            if need > rem_v:
                return False
        return True

    def solve(idx: int) -> bool:
        if idx == len(pairs):
            return all(counts[i] == sizes[i] for i in range(t)) and all(
                bounds[i][0] <= degrees[i][v] <= bounds[i][1]
                for i in range(t)
                for v in range(n)
            )
        u, v = pairs[idx]
        for dist in distributions(idx):
            for i, xcount in enumerate(dist):
                counts[i] += xcount
                degrees[i][u] += xcount
                degrees[i][v] += xcount
            if feasible(idx + 1):
                assignment.append(dist)
                if solve(idx + 1):
                    return True
                assignment.pop()
            for i, xcount in enumerate(dist):
                counts[i] -= xcount
                degrees[i][u] -= xcount
                degrees[i][v] -= xcount
        return False

    if not solve(0):
        raise InternalInconsistencyError(
            "no almost-regular packing found although the size bound holds"
        )

    classes = [Multigraph(n) for _ in range(t)]
    for pair, dist in zip(pairs, assignment):
        for i, xcount in enumerate(dist):
            if xcount:
                classes[i].add_edge(*pair, xcount)
    return Decomposition(complete_multigraph(n, lam), tuple(classes))


def random_admissible(n: int, lam: int, k: int, r: int, seed: int = 0) -> Decomposition:
    """A seeded random decomposition of lam*K_n into k classes that passes
    the admissibility predicate, produced by random assignment plus a repair
    loop that moves an edge out of the first offending class.  A move
    changes two classes, so only those two are re-checked.

    Shapes that counting alone rules out are refused before the first draw:
    some vertex would need degree above r in a class, or the edges would
    not fit when every class keeps the degree deficit of at least 2 that
    bullet 2 asks of each component."""
    if lam * (n - 1) > k * r:
        raise PreconditionError(
            f"lambda*(n-1) = {lam * (n - 1)} exceeds k*r = {k * r}: "
            f"some vertex needs degree above r={r} in a class"
        )
    if lam * n * (n - 1) // 2 > k * ((r * n - 2) // 2):
        raise PreconditionError(
            f"{lam * n * (n - 1) // 2} edges exceed k*floor((r*n-2)/2) = "
            f"{k * ((r * n - 2) // 2)}: no {k} {r}-admissible classes hold them"
        )
    rng = random.Random(seed)
    base = complete_multigraph(n, lam)
    copies = [pair for pair, mult in sorted(base.edges.items()) for _ in range(mult)]

    def build(assignment: list[int]) -> list[Multigraph]:
        classes = [Multigraph(n) for _ in range(k)]
        for pair, cls in zip(copies, assignment):
            classes[cls].add_edge(*pair)
        return classes

    def offends(classes: list[Multigraph], i: int) -> bool:
        return class_admissibility_violation(classes[i], r, i) is not None

    for _ in range(MAX_RESTARTS):
        assignment = [rng.randrange(k) for _ in copies]
        classes = build(assignment)
        bad = [offends(classes, i) for i in range(k)]
        for _ in range(REPAIRS_PER_EDGE * max(1, len(copies))):
            if not any(bad):
                # rebuilt so each class lists its edges in pair order
                return Decomposition(base, tuple(build(assignment)))
            source = bad.index(True)
            offending = [idx for idx, cls in enumerate(assignment) if cls == source]
            move = rng.choice(offending)
            target = assignment[move] = rng.randrange(k)
            classes[source].remove_edge(*copies[move])
            classes[target].add_edge(*copies[move])
            bad[source], bad[target] = offends(classes, source), offends(classes, target)
    raise BudgetExhaustedError(
        f"could not repair a random decomposition into an {r}-admissible one"
    )
