"""Multigraph with loops: the substrate every other module builds on.

Vertices are dense integers 0..vertex_count-1.  Edges are stored as a map
from normalized unordered pair (u, v) with u <= v to a positive
multiplicity; u == v encodes loops.  Instances are treated as immutable by
callers; search code mutates private copies via add_edge/remove_edge, and
may grow one by raising its vertex_count.
`edges` is the only state: traversals derive a neighbor map from it per
call, so no degree array or adjacency cache has to be kept in sync.
"""

from __future__ import annotations


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class Multigraph:
    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: dict[tuple[int, int], int] | None = None):
        if vertex_count < 0:
            raise ValueError(f"vertex_count must be >= 0, got {vertex_count}")
        self.vertex_count = vertex_count
        self.edges: dict[tuple[int, int], int] = {}
        if edges:
            for (u, v), mult in edges.items():
                if mult:
                    self.add_edge(u, v, mult)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise ValueError(f"vertex {v} out of range [0, {self.vertex_count})")

    def copy(self) -> Multigraph:
        g = Multigraph(self.vertex_count)
        g.edges = dict(self.edges)
        return g

    def add_edge(self, u: int, v: int, count: int = 1) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if count < 0:
            raise ValueError("count must be >= 0")
        if count == 0:
            return
        key = _norm(u, v)
        self.edges[key] = self.edges.get(key, 0) + count

    def remove_edge(self, u: int, v: int, count: int = 1) -> None:
        key = _norm(u, v)
        have = self.edges.get(key, 0)
        if have < count:
            raise ValueError(f"cannot remove {count} copies of {key}: only {have} present")
        if have == count:
            del self.edges[key]
        else:
            self.edges[key] = have - count

    def multiplicity(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        return self.edges.get(_norm(u, v), 0)

    def degree(self, v: int) -> int:
        """Degree of v; loops count twice."""
        self._check_vertex(v)
        total = 0
        for (a, b), mult in self.edges.items():
            if a == v and b == v:
                total += 2 * mult
            elif a == v or b == v:
                total += mult
        return total

    def degrees(self) -> list[int]:
        """Degree of every vertex from one pass over the edges; loops count
        twice."""
        out = [0] * self.vertex_count
        for (a, b), mult in self.edges.items():
            out[a] += mult
            out[b] += mult
        return out

    def edge_count(self) -> int:
        """Total number of edges; a loop counts as one edge."""
        return sum(self.edges.values())

    def _neighbor_counts(self, without: int = -1) -> list[dict[int, int]]:
        """Per vertex, {neighbor: multiplicity}; loops and the edges at
        vertex `without` excluded."""
        nbrs: list[dict[int, int]] = [{} for _ in range(self.vertex_count)]
        for (a, b), mult in self.edges.items():
            if a != b and a != without and b != without:
                nbrs[a][b] = mult
                nbrs[b][a] = mult
        return nbrs

    def components(self) -> list[tuple[int, ...]]:
        """Maximal connected vertex sets, each sorted, ordered by smallest
        vertex."""
        nbrs = self._neighbor_counts()
        seen = [False] * self.vertex_count
        comps: list[tuple[int, ...]] = []
        for start in range(self.vertex_count):
            if seen[start]:
                continue
            seen[start] = True
            stack = [start]
            comp = [start]
            while stack:
                x = stack.pop()
                for y in nbrs[x]:
                    if not seen[y]:
                        seen[y] = True
                        stack.append(y)
                        comp.append(y)
            comps.append(tuple(sorted(comp)))
        return comps

    def blocks(
        self, without: int = -1
    ) -> tuple[list[int], set[tuple[int, int]], list[int]]:
        """The 2-edge-connected components ("blocks") and the bridges of the
        graph with vertex `without` and its edges left out.  Returns a block
        id per vertex (-1 for `without`), ids in the order the blocks are
        completed; the bridges, which join the blocks into a forest; and per
        vertex the root of its DFS tree, the smallest vertex of its
        connected component (-1 for `without`).

        One iterative low-link DFS (Tarjan 1974) from each unvisited vertex.
        The tree edge to the parent is a back edge only when it has a
        parallel copy.  A vertex whose subtree reaches no higher than itself
        heads a block: it and every vertex found after it and not yet
        labelled form the block, and its tree edge is a bridge."""
        nbrs = self._neighbor_counts(without)
        disc = [-1] * self.vertex_count
        low = [0] * self.vertex_count
        label = [-1] * self.vertex_count
        tree = [-1] * self.vertex_count
        bridges: set[tuple[int, int]] = set()
        pending: list[int] = []
        reached = done = 0
        for root in range(self.vertex_count):
            if disc[root] >= 0 or root == without:
                continue
            disc[root] = low[root] = reached
            tree[root] = root
            reached += 1
            pending.append(root)
            stack = [(root, -1, iter(nbrs[root].items()))]
            while stack:
                v, parent, todo = stack[-1]
                for w, mult in todo:
                    if disc[w] < 0:
                        disc[w] = low[w] = reached
                        tree[w] = root
                        reached += 1
                        pending.append(w)
                        stack.append((w, v, iter(nbrs[w].items())))
                        break
                    if (w != parent or mult >= 2) and disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    stack.pop()
                    if low[v] == disc[v]:
                        w = -1
                        while w != v:
                            w = pending.pop()
                            label[w] = done
                        done += 1
                        if parent >= 0:
                            bridges.add(_norm(parent, v))
                    elif low[v] < low[parent]:
                        low[parent] = low[v]
        return label, bridges, tree

    def bridges(self) -> set[tuple[int, int]]:
        """Pairs {u, v} of multiplicity exactly 1 whose removal disconnects
        their component.  Parallel classes of multiplicity >= 2 are never
        bridges; loops are never bridges."""
        return self.blocks()[1]

    def is_two_edge_connected_spanning(self) -> bool:
        """Connected on all vertices and bridgeless, that is one block.  A
        single vertex counts; two or more vertices with any isolated vertex
        does not."""
        return max(self.blocks()[0], default=0) == 0

    def induced(self, vertices: int) -> Multigraph:
        """Induced sub-multigraph on vertices 0..vertices-1."""
        if vertices > self.vertex_count:
            raise ValueError("induced vertex range exceeds graph")
        g = Multigraph(vertices)
        for (a, b), mult in self.edges.items():
            if a < vertices and b < vertices:
                g.edges[(a, b)] = mult
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}x{m}" for k, m in sorted(self.edges.items()))
        return f"Multigraph({self.vertex_count}, {{{pairs}}})"


def complete_multigraph(n: int, lam: int) -> Multigraph:
    """Complete graph on n vertices with every distinct pair joined by lam
    parallel edges; no loops."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if lam < 1:
        raise ValueError(f"lambda must be >= 1, got {lam}")
    g = Multigraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.edges[(u, v)] = lam
    return g

