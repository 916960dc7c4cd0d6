"""Decompositions, class statistics, the admissibility predicate, and the
enclosing verifier.

A decomposition splits the edges of a base multigraph into k ordered color
classes, each a spanning subgraph (isolated vertices implicit through the
shared vertex count).
"""

from __future__ import annotations

from dataclasses import dataclass

from .mgraph import Multigraph, complete_multigraph


@dataclass(frozen=True)
class Decomposition:
    """Classes that partition the base edges; `validate_partition` checks
    it."""

    base: Multigraph
    classes: tuple[Multigraph, ...]

    def __post_init__(self):
        for i, cls in enumerate(self.classes):
            if cls.vertex_count != self.base.vertex_count:
                raise ValueError(f"class {i} vertex count differs from base")

    @property
    def k(self) -> int:
        return len(self.classes)

    @property
    def decomposition(self) -> Decomposition:
        """Itself: the benchmark's traced run reads `triad.decomposition`."""
        return self

    def validate_partition(self) -> None:
        """Check the classes' per-pair multiplicities sum to the base."""
        total: dict[tuple[int, int], int] = {}
        for cls in self.classes:
            for pair, mult in cls.edges.items():
                total[pair] = total.get(pair, 0) + mult
        if total != self.base.edges:
            raise ValueError("classes do not partition the base edges")

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(cls.edge_count() for cls in self.classes)


@dataclass(frozen=True)
class Enclosing:
    """A decomposition of the outer complete multigraph; outer vertex j with
    j < inner_vertex_count is identified with inner vertex j."""

    outer: Decomposition
    inner_vertex_count: int


def s_count(d: Decomposition, i: int) -> int:
    """Number of classes with exactly i edges."""
    return sum(1 for cls in d.classes if cls.edge_count() == i)


def s_uv_count(d: Decomposition, i: int, u: int, v: int) -> int:
    """Number of classes with exactly i edges, all of them between u and v."""
    if u == v:
        raise ValueError("u and v must be distinct")
    if i < 1:
        raise ValueError("i must be >= 1")
    return sum(
        1
        for cls in d.classes
        if cls.edge_count() == i and cls.multiplicity(u, v) == i
    )


@dataclass(frozen=True)
class AdmissibilityViolation:
    class_index: int
    bullet: int  # 1 degree cap, 2 low-degree vertices, 3 cutedge sides
    detail: str
    component: tuple[int, ...] | None = None
    edge: tuple[int, int] | None = None


def class_admissibility_violation(
    cls: Multigraph, r: int, class_index: int = 0
) -> AdmissibilityViolation | None:
    """First violation of the three admissibility bullets in one class, or
    None.  Deterministic: bullets in order, vertices ascending, components by
    smallest vertex, leaf blocks by smallest vertex."""
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")

    degrees = cls.degrees()
    for v, deg in enumerate(degrees):
        if deg > r:
            return AdmissibilityViolation(
                class_index, 1, f"vertex {v} has degree {deg} > r={r}"
            )

    # one low-link pass gives the components (by their smallest vertex,
    # the root of their DFS tree) and the blocks
    label, bridges, root = cls.blocks()
    # per root, the vertices of degree <= r-1, one of degree <= r-2 counting
    # as two: bullet 2 holds exactly where this reaches 2.  A block is full
    # when no vertex in it has degree <= r-1; degrees are measured in the
    # class, bridges included.
    low = [0] * cls.vertex_count
    full = [True] * cls.vertex_count
    for v, deg in enumerate(degrees):
        if deg < r:
            low[root[v]] += 2 if deg <= r - 2 else 1
            full[label[v]] = False
    # roots ascending are the components by smallest vertex
    for v in range(cls.vertex_count):
        if root[v] == v and low[v] < 2:
            comp = tuple(u for u in range(cls.vertex_count) if root[u] == v)
            return AdmissibilityViolation(
                class_index,
                2,
                f"component {comp} has no vertex of degree <= {r - 2} "
                f"and fewer than two of degree <= {r - 1}",
                component=comp,
            )

    # Without its bridges the class falls into blocks, the nodes of a forest
    # whose edges are the bridges.  Cutting one bridge leaves a leaf block
    # (one that meets a single bridge) on each side, so both sides of every
    # cutedge hold a vertex of degree <= r-1 exactly when every leaf does.
    if not bridges:
        return None
    ends = [0] * cls.vertex_count
    for bridge in bridges:
        for v in bridge:
            ends[label[v]] += 1
    # vertices ascending meet the blocks by smallest vertex
    for v in range(cls.vertex_count):
        block = label[v]
        if ends[block] == 1 and full[block]:
            u, w = next(e for e in bridges if block in (label[e[0]], label[e[1]]))
            comp = tuple(x for x in range(cls.vertex_count) if root[x] == root[u])
            return AdmissibilityViolation(
                class_index,
                3,
                f"cutedge {(u, w)} of component {comp} leaves a side "
                f"with no vertex of degree <= {r - 1}",
                component=comp,
                edge=(u, w),
            )
    return None


def admissibility_violation(
    d: Decomposition, r: int
) -> AdmissibilityViolation | None:
    for i, cls in enumerate(d.classes):
        violation = class_admissibility_violation(cls, r, i)
        if violation is not None:
            return violation
    return None


def is_admissible(d: Decomposition, r: int) -> bool:
    return admissibility_violation(d, r) is None


def restrict(outer: Enclosing | Decomposition, n: int) -> Decomposition:
    """Classwise induced sub-decomposition on vertices 0..n-1."""
    d = outer.outer if isinstance(outer, Enclosing) else outer
    if n > d.base.vertex_count:
        raise ValueError(f"cannot restrict to {n} vertices: base has fewer")
    return Decomposition(
        d.base.induced(n), tuple(cls.induced(n) for cls in d.classes)
    )


def factorization_problems(d: Decomposition, m: int, mu: int, r: int) -> list[str]:
    """Diagnostics against `d` being a 2-edge-connected r-factorization of
    mu*K_m: its base, its partition, each class's degrees and
    2-edge-connectivity.  Empty when it is one."""
    problems: list[str] = []
    if d.base != complete_multigraph(m, mu):
        problems.append(f"outer base is not the complete multigraph on {m} vertices with multiplicity {mu}")
    try:
        d.validate_partition()
    except ValueError as exc:
        problems.append(str(exc))
    for i, cls in enumerate(d.classes):
        if any(deg != r for deg in cls.degrees()):
            problems.append(f"class {i} is not {r}-regular on all {m} vertices")
        if not cls.is_two_edge_connected_spanning():
            problems.append(f"class {i} is not 2-edge-connected spanning")
    return problems


def verify_enclosing(inner: Decomposition, outer: Enclosing, params) -> tuple[bool, list[str]]:
    """Check that `outer` is a 2-edge-connected r-factorization of the
    complete multigraph mu*K_m that classwise contains `inner`.

    Returns (ok, diagnostics); raises on class-count mismatch.
    """
    if inner.k != outer.outer.k:
        raise ValueError(
            f"class counts differ: inner has {inner.k}, outer has {outer.outer.k}"
        )
    problems = factorization_problems(outer.outer, params.m, params.mu, params.r)
    n = outer.inner_vertex_count
    for i, (inner_cls, outer_cls) in enumerate(zip(inner.classes, outer.outer.classes)):
        for (u, v), mult in inner_cls.edges.items():
            if u < n and v < n and outer_cls.multiplicity(u, v) < mult:
                problems.append(
                    f"class {i} is not a superclass: pair {(u, v)} has "
                    f"{outer_cls.multiplicity(u, v)} < {mult}"
                )
    return (not problems, problems)
