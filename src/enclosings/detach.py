"""Amalgamation and detachment: collapse the m-n missing vertices of the
target into one amalgam vertex carrying loops, then split them back out one
at a time.

The amalgamated decomposition (the triad) is a plain decomposition on n+1
vertices: the amalgam is vertex n and stands for m-n vertices.  Built from
an admissible decomposition of mu*K_n with large-enough classes it is
"good": every class is 2-edge-connected spanning, with class degree >= 2 at
every vertex below n and >= 2(m-n) at the amalgam.  Goodness is exactly the
invariant that survives splitting one vertex off the amalgam, and every good
state can be completed, so detachment is one loop over the splits: each is
solved on its own, committed, and never revisited.

In this exact regime the fairness requirements collapse to equalities: each
split vertex takes degree exactly r per color and multiplicity exactly mu to
every other vertex.  So a split is an exact cover with multiplicities: each
class takes exactly one of its candidate rows (how many amalgam edges to
each vertex become split-vertex edges), column v needs exactly mu units and
the amalgam's column mu times the vertices it still stands for.  Each class
is kept in one working multigraph, amalgam included, and a row moves amalgam
edges onto the split vertex in place.  Split vertices are appended at
n+1..m-1 and what is left of the amalgam stays vertex n, the forced last
split, so only m-n-1 splits are solved.  Result vertex v is amalgamated into
min(v, n).

A row keeps its class 2-edge-connected exactly when it leaves two
edge-disjoint paths between the split vertex and the amalgam: identifying
the two gives back the class before the split, which is 2-edge-connected,
so only the cuts between them can fall below two edges.

`fair_detach` is that loop, and each split calls the route for its r,
which also fixes what a node of the budget is.  At r = 2 (`_FlowRoute`) the
class without the amalgam is a union of paths, each meeting the amalgam
exactly twice, so a row passes exactly when it puts at most one edge into
each path, and the split is one integral max-flow, class -> path -> column
(`flow_split`): no row is built, nothing is searched, and a node is one
path pushed.  The paths are read once, from the triad (`path_ends`, one
walk per component), and carried across the splits: a split vertex joins
two paths, extends one, or is a new one (`carry_split`).  At r >= 3
(`_search_rows`), which carries nothing from one split to the next,
`candidate_rows` builds each class's rows on the bridge forest of the class
without the amalgam, from one low-link pass per class, and `solve_split`
searches them as an exact cover without recursion, branching on the most
constrained class or column; a node is one row tried.
"""


from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .conditions import EnclosureParams, check_a_prime
from .decomp import Decomposition, factorization_problems
from .errors import (
    BudgetExhaustedError,
    InternalInconsistencyError,
    PreconditionError,
)
from .mgraph import Multigraph, complete_multigraph


@dataclass(frozen=True)
class SplitRecord:
    """One solved or stalled split: its vertex z, the nodes it took (rows
    tried at r >= 3, paths pushed at r = 2), the fewest and most candidate
    rows of any class (counted in closed form at r = 2), the most classes
    that held a row at once (at r = 2, that got both their units; k when
    the split was solved), and its wall seconds, which equality leaves
    out."""

    z: int
    nodes: int
    min_candidates: int
    max_candidates: int
    deepest: int
    seconds: float = field(compare=False)


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
    and the classes must partition it.  This is the one place an enclose
    runs battery A, stage 2's precondition: a failing `a` raises
    PreconditionError.
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
    for cls in a.classes:
        # A3 makes the loop count >= 0, and A2 every degree <= r
        tri_cls = cls.copy()
        tri_cls.vertex_count = n + 1  # x0 joins
        tri_cls.add_edge(x0, x0, cls.edge_count() - p)
        for j, d in enumerate(cls.degrees()):
            tri_cls.add_edge(x0, j, r - d)
        classes.append(tri_cls)

    base = complete_multigraph(n, mu)
    base.vertex_count = n + 1
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


Row = tuple[tuple[int, int], ...]


def path_ends(g: Multigraph, n: int) -> tuple[dict[int, list[int]], int]:
    """At r = 2, the amalgam ends of each path of class g without the
    amalgam n, and the amalgam's loops.  Every vertex of g but n has class
    degree 2, so g without n is a union of paths and each path meets the
    amalgam exactly twice, at its two ends or twice at a lone vertex.  One
    pass over the edges gives the amalgam's multiplicities and the
    neighbour lists, and each component is walked from its smallest vertex.
    Returns {smallest vertex: ends} per path, ascending, with the ends
    ascending too.  A component that meets the amalgam any other number of
    times, a cycle that never meets it included, breaks the premise
    `flow_split` rests on, and raises."""
    mult = [0] * g.vertex_count
    nbrs: list[list[int]] = [[] for _ in mult]
    for (u, v), x in g.edges.items():
        if v == n:
            mult[u] += x
        elif u == n:
            mult[v] += x
        else:  # a loop makes its vertex its own neighbour, already seen
            nbrs[u].append(v)
            nbrs[v].append(u)
    seen = [False] * g.vertex_count
    seen[n] = True
    paths = {}
    for lo in range(g.vertex_count):
        if seen[lo]:
            continue
        seen[lo] = True
        stack, meets, ends = [lo], 0, []
        while stack:
            v = stack.pop()
            if mult[v]:
                meets += mult[v]
                ends.append(v)
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        if meets != 2:
            raise InternalInconsistencyError(
                f"a component of the class without the amalgam meets it "
                f"{meets} times; at r = 2 each is a path that meets it twice"
            )
        paths[lo] = sorted(ends)
    return paths, mult[n]


def candidate_rows(g: Multigraph, n: int, r: int, limit: list[int]) -> list[Row]:
    """Every row that keeps class g 2-edge-connected spanning once the next
    vertex z = g.vertex_count takes it, with no entry above `limit` or
    above what the amalgam n has at that column (its loops at column n).
    A row is a multiset of r >= 2 amalgam neighbours, given sparse as ((v,
    x), ...) in ascending column order with n last, and the rows come in
    the order combinations_with_replacement yields the multisets:
    descending order over the columns with n last.

    g must be 2-edge-connected spanning: the good-state invariant, which
    `is_good_triad` or the previous split has checked.  Identifying z with
    n then gives back g, with the row's z-n edges as loops, so only the
    cuts between z and n can fall below two edges, and a row passes exactly
    when it leaves two edge-disjoint z-n paths.  They are read off the
    bridge forest of F, g without n, built from one `g.blocks(n)`: removing
    F's bridges leaves its blocks (2-edge-connected components), and the
    bridges join the blocks into a forest.  The paths are row[n] direct
    edges plus what each tree C of the forest carries: with Z row edges and
    A remaining amalgam edges into C, C carries min(Z, A, 2), except 1 when
    Z and A are both at least 2 and one bridge cuts the row's blocks off
    from the amalgam's.  As each side of a bridge of F has an amalgam edge
    in g, that happens exactly when the subtree spanning the row's blocks
    has one bridge leaving it and all its amalgam edges are row edges.  In
    a good state every tree reaches the amalgam at least twice, or its one
    amalgam edge would be a bridge of g, so a row with at most one edge
    into each tree passes outright: each of its r edges is a path.  Only
    rows with two or more edges into one tree are counted.  Goodness is a
    per-class property, so filtering here means the row search never needs
    a global goodness check."""
    z = g.vertex_count
    mult = [0] * z  # the amalgam's multiplicity to each vertex, its loops at n
    for (u, v), x in g.edges.items():
        if v == n:
            mult[u] += x
        elif u == n:
            mult[v] += x
    label, bridges, _ = g.blocks(n)
    count = max(label) + 1
    amalgam = [0] * count  # amalgam edges into each block
    for v in range(z):
        if v != n:
            amalgam[label[v]] += mult[v]
    forest: list[list[int]] = [[] for _ in range(count)]
    for u, v in bridges:
        forest[label[u]].append(label[v])
        forest[label[v]].append(label[u])
    # root each tree at its first block: the tree, parent and depth of each
    # block, and per tree the amalgam edges into it, its reach
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
    for v in range(z):
        if v != n and reach[tree[label[v]]] < 2:
            raise InternalInconsistencyError(
                f"a tree of the class without the amalgam meets it "
                f"{reach[tree[label[v]]]} times; a good state needs two"
            )
    caps = [min(a, b) for a, b in zip(mult, limit)]
    neighbours = [v for v in range(z) if caps[v] and v != n]
    if caps[n]:
        neighbours.append(n)
    out = []
    for combo in combinations_with_replacement(neighbours, r):
        row: list[tuple[int, int]] = []  # equal neighbours are adjacent
        for v in combo:
            if row and row[-1][0] == v:
                row[-1] = (v, row[-1][1] + 1)
            else:
                row.append((v, 1))
        if len(row) < r and any(x > caps[v] for v, x in row):
            continue
        paths = 0
        into: dict[int, int] = {}  # row edges into each tree
        for v, x in row:
            if v == n:
                paths = x
            else:
                t = tree[label[v]]
                into[t] = into.get(t, 0) + x
        if len(into) + paths == r:  # at most one edge into each tree
            out.append(tuple(row))
            continue
        for t, zc in into.items():
            ac = reach[t] - zc
            paths += min(zc, ac, 2)
            if zc >= 2 and ac >= 2:
                # walk the deepest tip up until the tips meet: the blocks
                # walked span the row's blocks in the tree
                tips = {label[v] for v, _ in row if v != n and tree[label[v]] == t}
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
            out.append(tuple(row))
    return out


def solve_split(
    candidates: list[list[Row]], demand: list[int], budget: int
) -> tuple[list[Row] | None, int, int]:
    """One row per class with column sums exactly `demand`, or None when no
    such choice exists or the budget ran out: the split at r >= 3.  Also
    returns the nodes spent, one per row tried (the budget ran out exactly
    when they reach it), and the most classes that held a row at once.  No
    entry of a candidate row may exceed its column's demand;
    `candidate_rows` keeps to its limit.

    This is an exact cover with multiplicities (Knuth, "Dancing Links",
    2000: Algorithm X and its multiplicity form): class i needs exactly one
    of candidates[i], column v exactly demand[v] units, and a row gives its
    class one and column v its entry there.  A row is live while its class
    has no row, its entries fit what their columns have left, and no earlier
    sibling excluded it.  A class tries each of its live rows, and a column
    with units left tries each live row that could give it its next unit,
    excluding each from the later siblings once tried, so no choice of rows
    is reached twice.  Each node branches on the item with the fewest
    choices: a class has one per live row, and a column one per live row
    beyond the units it still needs, plus one, since once its siblings have
    excluded more rows than that, too few units are left to fill it from
    rows that each give one (Knuth's branching degree for multiplicities).
    Ties go to columns before classes, the highest column first: on B at
    n = 16 and 20 (r = 2, seeds 1-30) no run then took over 3 638 nodes,
    where classes first or the lowest column first left 3 or 4 of those
    120 runs beyond 50 000.  A node fails when a class has no live row, or
    when a column needs more than its supply: the sum over the unplaced
    classes of the most any of their live rows gives it.  The search is one
    loop over a stack of open nodes, and every change is undone from a
    trail.
    """
    k, z = len(candidates), len(demand)
    owner: list[int] = []
    rows: list[Row] = []
    by_class: list[range] = []
    for i, cand in enumerate(candidates):
        by_class.append(range(len(rows), len(rows) + len(cand)))
        owner += [i] * len(cand)
        rows += cand
    width = max((x for row in rows for _, x in row), default=0) + 1
    # by_column[v]: the rows with an entry at column v, in order;
    # by_entry[v*width + x]: those whose entry there is x.
    # tally[(i*z + v)*width + x]: live rows of class i giving x to column v;
    # most[i*z + v]: the largest such x; supply[v]: the sum of most[i*z + v]
    # over the classes, which is over the unplaced ones, as a placed class
    # has no live row
    by_column: list[list[int]] = [[] for _ in range(z)]
    by_entry: list[list[int]] = [[] for _ in range(z * width)]
    tally = [0] * (k * z * width)
    most = [0] * (k * z)
    supply = [0] * z
    for j, row in enumerate(rows):
        base = owner[j] * z
        for v, x in row:
            by_column[v].append(j)
            by_entry[v * width + x].append(j)
            tally[(base + v) * width + x] += 1
            if x > most[base + v]:
                supply[v] += x - most[base + v]
                most[base + v] = x
    live = [True] * len(rows)
    class_live = [len(mine) for mine in by_class]
    column_live = [len(col) for col in by_column]
    placed = [False] * k
    left = list(demand)
    trail: list[int] = []  # j: row j died; ~j: row j was chosen
    short: list[int] = []  # columns whose supply fell since the last check

    def kill(j: int) -> None:
        live[j] = False
        trail.append(j)
        class_live[owner[j]] -= 1
        base = owner[j] * z
        for v, x in rows[j]:
            column_live[v] -= 1
            at = (base + v) * width
            tally[at + x] -= 1
            if x == most[base + v] and not tally[at + x]:
                y = x - 1
                while y and not tally[at + y]:
                    y -= 1
                most[base + v] = y
                supply[v] -= x - y
                short.append(v)

    def undo(mark: int) -> None:
        while len(trail) > mark:
            j = trail.pop()
            if j < 0:
                j = ~j
                placed[owner[j]] = False
                for v, x in rows[j]:
                    left[v] += x
                continue
            live[j] = True
            class_live[owner[j]] += 1
            base = owner[j] * z
            for v, x in rows[j]:
                column_live[v] += 1
                tally[(base + v) * width + x] += 1
                if x > most[base + v]:
                    supply[v] += x - most[base + v]
                    most[base + v] = x

    def feasible() -> bool:
        ok = all(left[v] <= supply[v] for v in short)
        short.clear()
        return ok

    def choose(j: int) -> bool:
        trail.append(~j)
        placed[owner[j]] = True
        for v, x in rows[j]:
            left[v] -= x
        for other in by_class[owner[j]]:
            if live[other]:
                kill(other)
        for v, x in rows[j]:
            # the rows that now give v more than it has left were live
            for y in range(left[v] + 1, min(left[v] + x, width - 1) + 1):
                for other in by_entry[v * width + y]:
                    if live[other]:
                        kill(other)
        return feasible()

    # per open node: the live rows it branches on, how many it has tried,
    # the trail length when it opened and before its current row, and
    # whether it branches on a column
    frames: list[list] = []
    nodes = deepest = 0
    ok = all(d <= s for d, s in zip(left, supply))
    while True:
        if ok:
            fewest, item = len(rows) + 1, -1
            for v in range(z):
                if left[v]:
                    choices = max(column_live[v] - left[v], 0) + 1
                    if choices <= fewest:
                        fewest, item = choices, k + v
            for i in range(k):
                if not placed[i] and class_live[i] < fewest:
                    fewest, item = class_live[i], i
            if item < 0:
                break  # every class has a row and every column its units
            if item < k:
                tries = [j for j in by_class[item] if live[j]]
            else:
                tries = [j for j in by_column[item - k] if live[j]]
            frames.append([tries, 0, len(trail), len(trail), item >= k])
        elif not frames:
            return None, nodes, deepest
        else:
            # the row tried last at the top node failed: take it back, and
            # at a column exclude it from the later siblings
            tries, tried, opened, before, column = frames[-1]
            undo(before)
            if column:
                kill(tries[tried - 1])
                if not feasible():
                    undo(opened)
                    frames.pop()
                    continue
        frame = frames[-1]
        tries, tried = frame[0], frame[1]
        if tried == len(tries):
            undo(frame[2])
            frames.pop()
            ok = False
            continue
        nodes += 1
        if nodes >= budget:
            return None, nodes, deepest
        frame[1] = tried + 1
        frame[3] = len(trail)
        ok = choose(tries[tried])
        if ok:
            deepest = max(deepest, len(frames))
    chosen: list[Row] = [()] * k
    for tries, tried, *_ in frames:
        j = tries[tried - 1]
        chosen[owner[j]] = rows[j]
    return chosen, nodes, deepest


def path_row_count(paths: int, ends: int, loops: int) -> int:
    """How many candidate rows a class has at r = 2, in closed form: two
    ends of different paths, an end and a loop, or two loops, where the
    class has `paths` paths of one or two ends (`path_ends`), `ends` ends in
    all, and `loops` loops the row may take."""
    return (ends * ends - 3 * ends) // 2 + paths + (ends if loops else 0) + (loops >= 2)


def flow_split(
    paths: list[list[tuple[int, list[int]]]], loops: list[int], demand: list[int], n: int,
    budget: int,
) -> tuple[list[Row] | None, int, int, list]:
    """At r = 2, one row per class with column sums exactly `demand`, or
    None when no such choice exists or the budget ran out.  Also returns
    the nodes spent, one per path pushed (the budget ran out exactly when
    they reach it), how many classes got both their units, and with the
    rows, per class the (column, key) of each unit a path carries.

    paths[i] holds (key, ends) for each path of class i without the
    amalgam, in the order the flow tries them, and loops[i] the loops class
    i may give column n.  Each path meets the amalgam exactly twice, so a
    row passes exactly when it puts at most one edge into each path
    (`candidate_rows`): a second edge into one leaves it no path from the
    split vertex to the amalgam.  So a split is an integral flow: source ->
    class i (capacity 2) -> each path of i (capacity 1) -> column v for
    each end v of the path (capacity 1) -> sink (capacity demand[v]), with
    an arc class i -> column n of capacity loops[i].  Its saturating
    integral flows are exactly the exact covers `solve_split` searches for
    (Ford and Fulkerson).  Paths straight from a class to a column go
    first, class by class, loops before paths; then shortest augmenting
    paths, found by breadth-first search (Edmonds and Karp), until the
    demand is met or no path is left.
    """
    # On B (n = 7) and C (n = 8) at m = 14, seeds 1-100, loops first left
    # half as many augmenting paths as paths first: a loop path can carry
    # both units of its class.
    k, z = len(paths), len(demand)
    left = list(demand)  # units each column still needs
    room = [2] * k  # units each class has still to send
    looped = [0] * k  # units each class sends over its loops, to column n
    sent = [[-1] * len(mine) for mine in paths]  # the column each path sends to
    senders = [[] for _ in demand]  # (class, path) per column, oldest first
    carrying = [[] for _ in paths]  # the paths sending a unit, per class
    need, nodes = sum(demand), 0
    for i, mine in enumerate(paths):
        x = min(2, loops[i], left[n])
        if x:
            nodes += 1
            if nodes >= budget:
                return None, nodes, room.count(0), []
            room[i] -= x
            looped[i] = x
            left[n] -= x
            need -= x
        for t, (_, ends) in enumerate(mine):
            if not room[i]:
                break
            for v in ends:  # the first end with units left
                if left[v]:
                    nodes += 1
                    if nodes >= budget:
                        return None, nodes, room.count(0), []
                    room[i] -= 1
                    left[v] -= 1
                    need -= 1
                    sent[i][t] = v
                    senders[v].append((i, t))
                    carrying[i].append(t)
                    break

    # Node j < z is column j and node z + i class i.  via[node] holds the
    # node a path came from and the class and path (-1: loops) of that hop;
    # a class the search starts from comes from itself.  The residual
    # network is read off the flow: a class reaches, below its loops, column
    # n and the ends of its idle paths; a column reaches the other end of
    # each path sending to it and that path's class, and column n each class
    # sending it loops.
    def search(via: list) -> int:
        """The first column with units left that breadth-first search from
        the classes with room reaches, or -1."""
        queue = [z + i for i in range(k) if room[i]]
        for node in queue:
            via[node] = (node, -1, -1)
        for node in queue:
            if node >= z:
                i = node - z
                if looped[i] < loops[i] and via[n] is None:
                    via[n] = (node, i, -1)
                    if left[n]:
                        return n
                    queue.append(n)
                for t, (_, ends) in enumerate(paths[i]):
                    if sent[i][t] < 0:
                        for v in ends:
                            if via[v] is None:
                                via[v] = (node, i, t)
                                if left[v]:
                                    return v
                                queue.append(v)
                continue
            for i, t in senders[node]:
                for w in paths[i][t][1]:
                    if w != node and via[w] is None:
                        via[w] = (node, i, t)
                        if left[w]:
                            return w
                        queue.append(w)
                if via[z + i] is None:
                    via[z + i] = (node, i, t)
                    queue.append(z + i)
            for i in range(k) if node == n else ():
                if looped[i] and via[z + i] is None:
                    via[z + i] = (node, i, -1)
                    queue.append(z + i)
        return -1

    while need:
        via = [None] * (z + k)
        node = search(via)
        if node < 0:
            break
        nodes += 1
        if nodes >= budget:
            return None, nodes, room.count(0), []
        left[node] -= 1
        need -= 1
        # back to the class the path starts from: class -> column starts a
        # unit, column -> class takes it back, and column -> column moves it
        # to its path's other end
        came, i, t = via[node]
        while came != node:
            if t < 0:
                looped[i] += 1 if node < z else -1
            else:
                if came < z:
                    senders[came].remove((i, t))
                else:
                    carrying[i].append(t)
                if node < z:
                    senders[node].append((i, t))
                else:
                    carrying[i].remove(t)
                sent[i][t] = node if node < z else -1
            node = came
            came, i, t = via[node]
        room[node - z] -= 1

    deepest = room.count(0)
    if need or deepest < k:
        return None, nodes, deepest, []
    rows: list[Row] = []
    units = []
    for i, mine in enumerate(carrying):
        if len(mine) == 2:
            t, u = mine
            v, w = sent[i][t], sent[i][u]
            if v > w:
                t, u, v, w = u, t, w, v
            units.append([(v, paths[i][t][0]), (w, paths[i][u][0])])
            rows.append(((v, 1), (w, 1)))
        elif mine:
            t = mine[0]
            units.append([(sent[i][t], paths[i][t][0])])
            rows.append(((sent[i][t], 1), (n, 1)))
        else:
            units.append([])
            rows.append(((n, 2),))
    return rows, nodes, deepest, units


def carry_split(paths: dict[int, list[int]], z: int, units: list) -> None:
    """Carry one class's paths across the split of vertex z, in place.
    `paths` maps each path's smallest vertex to its ends, in `path_ends`'
    order, and `units` holds (column, path) for each unit z took from the
    end of a path; z took the rest of its r = 2 units from the amalgam's
    loops.  Two ends of different paths merge them through z, an end and a
    loop extend that path to z, and two loops make z a lone path that meets
    the amalgam twice.  z is the largest vertex yet, so a merged path keeps
    the smaller key, an extended one its key, and a new one goes last: the
    order stays ascending.  Units that do not land on ends of distinct
    paths break the premise `flow_split` rests on, and raise."""
    rest, p = [], z  # the end each unit leaves its path
    for v, p in units:
        ends = paths.get(p, ())
        if v not in ends or rest and (len(rest) > 1 or p == units[0][1]):
            raise InternalInconsistencyError(
                f"the split of vertex {z} takes (column, path) {units} from one "
                "class, not ends of distinct paths"
            )
        rest.append(ends[-1] if ends[0] == v else ends[0])
    if len(rest) == 2:
        q = units[0][1]
        del paths[max(p, q)]
        paths[min(p, q)] = sorted(rest)
    else:
        paths[p] = rest + [z] if rest else [z]


class _FlowRoute:
    """The split at r = 2, over paths carried from split to split.
    `path_ends` reads each class's paths once, from the working multigraphs
    the route is made from, and the route keeps them per class, with the
    amalgam's loops.  A call shuffles each class's paths with the split's
    rng, solves the split as one flow over them (`flow_split`), carries
    them across it (`carry_split`), and also returns the row count of each
    class (`path_row_count`)."""

    def __init__(self, work: list[Multigraph], n: int):
        found = [path_ends(g, n) for g in work]
        self.paths = [paths for paths, _ in found]
        self.loops = [loops for _, loops in found]

    def __call__(self, work, n, r, demand, budget, rng):
        order, loops, counts = [], [], []
        cap = demand[n]
        for paths, x in zip(self.paths, self.loops):
            mine = list(paths.items())
            if rng and len(mine) > 1:  # shuffling one path draws nothing
                rng.shuffle(mine)
            order.append(mine)
            x = x if x < cap else cap
            loops.append(x)
            counts.append(path_row_count(len(mine), sum(map(len, paths.values())), x))
        rows, nodes, deepest, units = flow_split(order, loops, demand, n, budget)
        for i, got in enumerate(units):
            carry_split(self.paths[i], len(demand), got)
            self.loops[i] -= 2 - len(got)
        return rows, nodes, deepest, counts


def _search_rows(
    work: list[Multigraph], n: int, r: int, demand: list[int], budget: int,
    rng: random.Random | None,
) -> tuple[list[Row] | None, int, int, list[int]]:
    """The split at r >= 3 as an exact cover: every class's candidate rows,
    in an order the split's rng shuffles, searched by `solve_split`.  Also
    returns the row count of each class."""
    candidates = [candidate_rows(g, n, r, demand) for g in work]
    if rng:
        for cand in candidates:
            rng.shuffle(cand)
    return (*solve_split(candidates, demand, budget), [len(c) for c in candidates])


def fair_detach(
    t: Decomposition,
    params: EnclosureParams,
    seed: int = 0,
    budget: int = 10_000_000,
) -> DetachmentWitness:
    """Fully expand the amalgam into m - n concrete vertices so that every
    class is an r-regular 2-edge-connected spanning subgraph and every pair
    has multiplicity exactly mu.  A solution always exists for a good triad;
    running out of budget is reported as such, never as nonexistence.

    Each class lives in one working multigraph, the amalgamated class grown
    in place by one vertex per split vertex z = n+1, ..., m-1.  The split of
    z picks one row per class: a sparse count vector over the vertices below
    z, where row[v] amalgam-to-v edges become z-to-v edges and row[n]
    amalgam loops become z-to-amalgam edges.  Rows sum to r; column v sums
    to mu, and column n to mu times the vertices the amalgam still stands
    for.  A row is a candidate when its class stays 2-edge-connected
    spanning.  The route for r is called with the working multigraphs,
    where z is not yet a vertex: `_search_rows` at r >= 3 reads them afresh
    at every split, and at r = 2 a `_FlowRoute` reads them once and carries
    each class's paths across the splits.  Committing a split moves each
    row onto z.  Each split is solved, committed and never revisited: a
    good state can always be completed, so a split with no solution below
    the budget is an internal inconsistency.  What is left of the amalgam is then vertex n:
    its rows are forced, and the last split (or `is_good_triad`, when
    m = n + 1) has already checked the classes they give.
    """
    n, m, mu, r = params.n, params.m, params.mu, params.r
    if m <= n or t.base.vertex_count != n + 1:
        raise PreconditionError(
            f"expected an amalgamated decomposition on n + 1 = {n + 1} vertices "
            f"and m > n; got {t.base.vertex_count} vertices and m = {m}"
        )
    if any(t.base.multiplicity(v, v) for v in range(n)):
        raise PreconditionError("only the amalgam may carry loops")
    if not is_good_triad(t, params):
        raise PreconditionError("triad is not good; cannot detach")
    start = time.monotonic()
    stats = DetachStats()
    rng = random.Random(seed) if seed else None
    work = [cls.copy() for cls in t.classes]
    route = _FlowRoute(work, n) if r == 2 else _search_rows
    for z in range(n + 1, m):
        began = time.monotonic()
        demand = [mu] * z
        demand[n] = mu * (m - z)
        rows, nodes, deepest, counts = route(work, n, r, demand, budget - stats.nodes, rng)
        stats.nodes += nodes
        stats.splits.append(SplitRecord(
            z, nodes, min(counts), max(counts), deepest, time.monotonic() - began
        ))
        if rows is None:
            if stats.nodes >= budget:
                raise BudgetExhaustedError(
                    f"detachment search exceeded {budget} nodes in the split of "
                    f"vertex {z}, {nodes} of them there; at most {deepest} of "
                    f"{len(work)} classes held a row at once"
                )
            raise InternalInconsistencyError(
                f"split of vertex {z} has no solution; the good triad "
                "guarantee says one exists"
            )
        for g, row in zip(work, rows):
            g.vertex_count = z + 1  # z joins
            for v, x in row:
                g.remove_edge(n, v, x)
                g.add_edge(z, v, x)
    stats.wall_time = time.monotonic() - start

    result = Decomposition(complete_multigraph(m, mu), tuple(work))
    result.validate_partition()
    return DetachmentWitness(result=result, stats=stats)


def verify_detachment(
    w: DetachmentWitness, t: Decomposition, params: EnclosureParams
) -> tuple[bool, list[str]]:
    """Re-check the detachment contract: the color-preserving edge
    correspondence under v -> min(v, n), then the shared
    `decomp.factorization_problems` check of the result against mu*K_m."""
    n, m, mu, r = params.n, params.m, params.mu, params.r
    if w.result.base.vertex_count != m:
        return (False, [f"result has {w.result.base.vertex_count} vertices, expected {m}"])
    if w.result.k != t.k:
        return (False, ["class counts differ between witness and triad"])

    problems: list[str] = []
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
    problems += factorization_problems(w.result, m, mu, r)
    return (not problems, problems)
