from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclosings.decomp import (
    AdmissibilityViolation,
    Decomposition,
    Enclosing,
    admissibility_violation,
    class_admissibility_violation,
    is_admissible,
    restrict,
    s_count,
    s_uv_count,
    verify_enclosing,
)
from enclosings.conditions import make_params
from enclosings.mgraph import Multigraph, complete_multigraph
from enclosings.oracle import brute_force_admissible


def classes_from(n, *edge_lists):
    out = []
    for edges in edge_lists:
        g = Multigraph(n)
        for u, v in edges:
            g.add_edge(u, v)
        out.append(g)
    return tuple(out)


def k3_decomposition(*edge_lists, k=None):
    classes = list(classes_from(3, *edge_lists))
    if k is not None:
        while len(classes) < k:
            classes.append(Multigraph(3))
    return Decomposition(complete_multigraph(3, 1), tuple(classes))


def test_s_count():
    d = k3_decomposition([(0, 1)], [(0, 2)], [(1, 2)], [])
    assert s_count(d, 1) == 3
    assert s_count(d, 0) == 1
    assert s_count(d, 2) == 0


def test_s_count_doubled_triangle():
    base = complete_multigraph(3, 2)
    classes = classes_from(3, [(0, 1), (0, 2)], [(0, 1), (1, 2)], [(0, 2), (1, 2)])
    d = Decomposition(base, classes)
    assert s_count(d, 2) == 3
    assert s_count(d, 0) == 0


def test_s_uv_count():
    base = complete_multigraph(3, 2)
    parallel = Multigraph(3)
    parallel.add_edge(0, 1, 2)
    mixed = classes_from(3, [(0, 1), (1, 2)])[0]
    rest = Multigraph(3)
    rest.add_edge(0, 2, 2)
    rest.add_edge(1, 2)
    d = Decomposition(base, (parallel, mixed, rest))
    assert s_uv_count(d, 2, 0, 1) == 1  # the parallel class
    assert s_uv_count(d, 2, 1, 2) == 0  # mixed class has edges on two pairs
    with pytest.raises(ValueError):
        s_uv_count(d, 1, 2, 2)


def test_empty_class_never_in_s_uv():
    d = k3_decomposition([(0, 1), (0, 2), (1, 2)], [])
    assert s_uv_count(d, 1, 0, 1) == 0


def test_k4_perfect_matchings_2_admissible():
    base = complete_multigraph(4, 1)
    classes = classes_from(4, [(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)])
    d = Decomposition(base, classes)
    d.validate_partition()
    assert is_admissible(d, 2)


def test_triangle_class_not_2_admissible():
    d = k3_decomposition([(0, 1), (0, 2), (1, 2)])
    violation = admissibility_violation(d, 2)
    assert violation is not None
    assert violation.bullet == 2
    assert violation.class_index == 0


def test_k4_class_not_3_admissible():
    base = complete_multigraph(4, 1)
    d = Decomposition(base, classes_from(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))
    violation = admissibility_violation(d, 3)
    assert violation is not None
    assert violation.bullet == 2


def test_degree_cap_violation():
    g = Multigraph(3)
    g.add_edge(0, 1, 3)
    d = Decomposition(
        Multigraph(3, {(0, 1): 3}), (g,)
    )
    violation = admissibility_violation(d, 2)
    assert violation is not None
    assert violation.bullet == 1


def test_cutedge_violation():
    # bowtie-with-tail shape: a triangle whose vertices are saturated at r=2,
    # attached by a bridge to a pendant vertex
    g = Multigraph(5)
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        g.add_edge(u, v)
    g.add_edge(2, 3)
    g.add_edge(3, 4)
    base = g.copy()
    d = Decomposition(base, (g,))
    violation = admissibility_violation(d, 2)
    assert violation is not None
    # triangle side of the cutedge (2,3) has degrees (2,2,3) -> caught by
    # degree cap first at vertex 2
    assert violation.bullet == 1

    # bullet-3 case at r=3: a side of the bridge (0,3) where every vertex
    # has class degree exactly 3 (degrees stay measured in the class, so the
    # bridge endpoint counts the bridge)
    h = Multigraph(4)
    h.add_edge(1, 2, 2)
    h.add_edge(0, 1)
    h.add_edge(0, 2)
    h.add_edge(0, 3)
    d = Decomposition(h.copy(), (h,))
    violation = admissibility_violation(d, 3)
    assert violation is not None
    assert violation.bullet == 3
    assert violation.edge == (0, 3)


def test_cutedge_violation_names_a_leaf_block():
    # bridges (0,3) and (1,4) hang the leaves {0} and {1} off the block
    # {3,4}; at r=3 only {1} (a loop plus its bridge) has no vertex of
    # degree <= 2, so (1,4) is the cutedge reported, though the far side
    # {1,3,4} of (0,3) has none either
    g = Multigraph(5, {(0, 3): 1, (1, 1): 1, (1, 4): 1, (3, 4): 2})
    violation = class_admissibility_violation(g, 3)
    assert violation is not None
    assert violation.bullet == 3
    assert violation.edge == (1, 4)
    assert violation.component == (0, 1, 3, 4)


def test_cutedge_check_makes_no_copy_per_bridge(monkeypatch):
    calls = {"components": 0, "copy": 0}
    for name in calls:
        def counting(self, _name=name, _inner=getattr(Multigraph, name)):
            calls[_name] += 1
            return _inner(self)
        monkeypatch.setattr(Multigraph, name, counting)
    path = Multigraph(12, {(v, v + 1): 1 for v in range(11)})
    assert class_admissibility_violation(path, 2) is None
    assert calls["components"] <= 2
    assert calls["copy"] == 0


# blocks of a bridge forest: (vertex count, edges, largest degree).  A leaf
# block whose degrees all reach r has an odd degree sum r*|block|, so only
# odd r and odd blocks (a loop, a triangle with a doubled side) reach bullet 3.
BLOCKS = [
    (1, [], 0),
    (1, [(0, 0)], 2),
    (2, [(0, 1), (0, 1)], 2),
    (2, [(0, 1), (0, 1), (0, 1)], 3),
    (3, [(0, 1), (1, 2), (0, 2)], 2),
    (3, [(0, 1), (0, 1), (1, 2), (0, 2)], 3),
    (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 2),
]


@st.composite
def bridged_blocks(draw):
    """Blocks joined by single bridges into chains and trees (a forest when
    a block has no vertex left below degree r), every degree <= r."""
    r = draw(st.integers(min_value=2, max_value=4))
    fitting = [b for b in BLOCKS if b[2] <= r]
    members = []
    edges = []
    for size, block, _ in draw(st.lists(st.sampled_from(fitting), min_size=1, max_size=6)):
        start = sum(len(vs) for vs in members)
        members.append(range(start, start + size))
        edges += [(start + u, start + v) for u, v in block]
    g = Multigraph(sum(len(vs) for vs in members))
    for u, v in edges:
        g.add_edge(u, v)
    for i in range(1, len(members)):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        ends = [[v for v in members[b] if g.degree(v) < r] for b in (i, j)]
        if all(ends):
            g.add_edge(*(draw(st.sampled_from(vs)) for vs in ends))
    return g, r


@given(bridged_blocks())
@settings(max_examples=300)
def test_cutedge_check_matches_reference_on_bridged_blocks(case):
    g, r = case
    violation = class_admissibility_violation(g, r)
    assert (violation is None) == brute_force_admissible(Decomposition(g.copy(), (g,)), r)
    if violation is not None and violation.bullet == 3:
        # the named edge is a cutedge with a side of degrees >= r only
        assert violation.edge in g.bridges()
        cut = g.copy()
        cut.remove_edge(*violation.edge)
        sides = [c for c in cut.components() if set(c) & set(violation.edge)]
        assert any(all(g.degree(v) >= r for v in side) for side in sides)


def test_single_vertex_components_are_fine():
    d = k3_decomposition([(0, 1)])
    assert is_admissible(d, 2)


def test_parallel_pair_class_fails_bullet_two():
    base = complete_multigraph(3, 2)
    cls = Multigraph(3)
    cls.add_edge(0, 1, 2)
    rest = Multigraph(3)
    rest.add_edge(0, 2, 2)
    rest.add_edge(1, 2, 2)
    d = Decomposition(base, (cls, rest))
    violation = admissibility_violation(d, 2)
    assert violation is not None
    assert violation.class_index == 0
    assert violation.bullet == 2


def five_cycle(n, offsets):
    g = Multigraph(n)
    order = list(offsets)
    for i in range(len(order)):
        g.add_edge(order[i], order[(i + 1) % len(order)])
    return g


def test_verify_enclosing_identity():
    base = complete_multigraph(5, 1)
    c1 = five_cycle(5, [0, 1, 2, 3, 4])
    c2 = five_cycle(5, [0, 2, 4, 1, 3])
    inner = Decomposition(base, (c1, c2))
    inner.validate_partition()
    params = make_params(n=5, m=5, lam=1, mu=1, r=2, k=2)
    ok, problems = verify_enclosing(inner, Enclosing(inner, 5), params)
    assert ok, problems


def test_verify_enclosing_rejects_path_class():
    base = complete_multigraph(3, 1)
    inner = Decomposition(base, classes_from(3, [(0, 1)], [(0, 2)], [(1, 2)]))
    params = make_params(n=3, m=3, lam=1, mu=1, r=2, k=3)
    ok, problems = verify_enclosing(inner, Enclosing(inner, 3), params)
    assert not ok
    assert any("2-edge-connected" in p for p in problems)


def test_verify_enclosing_rejects_dropped_inner_edge():
    base = complete_multigraph(5, 1)
    c1 = five_cycle(5, [0, 1, 2, 3, 4])
    c2 = five_cycle(5, [0, 2, 4, 1, 3])
    inner = Decomposition(base, (c1, c2))
    swapped = Decomposition(base, (c2, c1))
    params = make_params(n=5, m=5, lam=1, mu=1, r=2, k=2)
    ok, problems = verify_enclosing(inner, Enclosing(swapped, 5), params)
    assert not ok
    assert any("superclass" in p for p in problems)


def test_verify_enclosing_class_count_mismatch():
    base = complete_multigraph(3, 1)
    inner = Decomposition(base, classes_from(3, [(0, 1)], [(0, 2)], [(1, 2)]))
    outer = Decomposition(base, classes_from(3, [(0, 1), (0, 2), (1, 2)]))
    params = make_params(n=3, m=3, lam=1, mu=1, r=2, k=3)
    with pytest.raises(ValueError):
        verify_enclosing(inner, Enclosing(outer, 3), params)


def test_verify_enclosing_rejects_uncolored_edges():
    # one 5-cycle class with the other 5-cycle of K_5 in no class: every
    # class check passes, but the classes do not decompose all of K_5
    base = complete_multigraph(5, 1)
    c1 = five_cycle(5, [0, 1, 2, 3, 4])
    outer = Decomposition(base, (c1,))
    params = make_params(n=5, m=5, lam=1, mu=1, r=2, k=1)
    ok, problems = verify_enclosing(outer, Enclosing(outer, 5), params)
    assert not ok
    assert problems == ["classes do not partition the base edges"]


def test_restrict_identity_and_single_vertex():
    base = complete_multigraph(4, 1)
    d = Decomposition(base, classes_from(4, [(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]))
    assert restrict(Enclosing(d, 4), 4) == d
    tiny = restrict(Enclosing(d, 4), 1)
    assert tiny.base.edge_count() == 0
    assert tiny.k == 3


@st.composite
def random_decompositions(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    lam = draw(st.integers(min_value=1, max_value=2))
    k = draw(st.integers(min_value=1, max_value=4))
    base = complete_multigraph(n, lam)
    classes = [Multigraph(n) for _ in range(k)]
    for (u, v), mult in base.edges.items():
        for _ in range(mult):
            i = draw(st.integers(min_value=0, max_value=k - 1))
            classes[i].add_edge(u, v)
    return Decomposition(base, tuple(classes))


@given(random_decompositions())
@settings(max_examples=100)
def test_partition_invariant(d):
    d.validate_partition()
    total = {}
    for cls in d.classes:
        for pair, mult in cls.edges.items():
            total[pair] = total.get(pair, 0) + mult
    assert total == d.base.edges


def two_pass_violation(cls, r, class_index=0):
    """The predicate in its earlier form, kept as a reference: a components
    pass for bullet 2, then a separate low-link pass for bullet 3."""
    degrees = cls.degrees()
    for v, deg in enumerate(degrees):
        if deg > r:
            return AdmissibilityViolation(
                class_index, 1, f"vertex {v} has degree {deg} > r={r}"
            )
    components = cls.components()
    for comp in components:
        low = sum(1 for v in comp if degrees[v] <= r - 1)
        has_very_low = any(degrees[v] <= r - 2 for v in comp)
        if not has_very_low and low < 2:
            return AdmissibilityViolation(
                class_index,
                2,
                f"component {comp} has no vertex of degree <= {r - 2} "
                f"and fewer than two of degree <= {r - 1}",
                component=comp,
            )
    label, bridges, _ = cls.blocks()
    if not bridges:
        return None
    ends = [0] * cls.vertex_count
    for bridge in bridges:
        for v in bridge:
            ends[label[v]] += 1
    full = [True] * cls.vertex_count
    for v, deg in enumerate(degrees):
        if deg < r:
            full[label[v]] = False
    for v in range(cls.vertex_count):
        block = label[v]
        if ends[block] == 1 and full[block]:
            u, w = next(e for e in bridges if block in (label[e[0]], label[e[1]]))
            comp = next(c for c in components if u in c)
            return AdmissibilityViolation(
                class_index,
                3,
                f"cutedge {(u, w)} of component {comp} leaves a side "
                f"with no vertex of degree <= {r - 1}",
                component=comp,
                edge=(u, w),
            )
    return None


@st.composite
def small_classes(draw):
    """A class on 0-9 vertices with loops, parallel pairs and isolated
    vertices, and an r from 2 to 5.  Most draws keep every degree <= r, so
    that bullets 2 and 3 are reached."""
    n = draw(st.integers(min_value=0, max_value=9))
    r = draw(st.integers(min_value=2, max_value=5))
    capped = draw(st.integers(min_value=0, max_value=3)) > 0
    g = Multigraph(n)
    if n:
        for _ in range(draw(st.integers(min_value=0, max_value=12))):
            u = draw(st.integers(min_value=0, max_value=n - 1))
            v = draw(st.integers(min_value=0, max_value=n - 1))
            mult = draw(st.integers(min_value=1, max_value=3))
            g.add_edge(u, v, mult)
            if capped and max(g.degree(u), g.degree(v)) > r:
                g.remove_edge(u, v, mult)
    return g, r


@given(st.one_of(small_classes(), bridged_blocks()), st.integers(min_value=0, max_value=3))
@settings(max_examples=1000)
def test_predicate_matches_its_two_pass_form(case, class_index):
    # the bridged blocks reach bullet 3, which random classes seldom do
    g, r = case
    violation = class_admissibility_violation(g, r, class_index)
    assert violation == two_pass_violation(g, r, class_index)
    assert (violation is None) == brute_force_admissible(Decomposition(g.copy(), (g,)), r)


def test_predicate_builds_one_neighbour_map_past_bullet_one(monkeypatch):
    # the path 0-1-2-3, every edge a bridge, and the lone vertex 4: it
    # passes bullet 1 at r = 2, so bullets 2 and 3 read the class from one
    # low-link pass
    g = Multigraph(5)
    for u, v in [(0, 1), (1, 2), (2, 3)]:
        g.add_edge(u, v)
    calls = {"_neighbor_counts": 0, "components": 0}
    for name in calls:
        original = getattr(Multigraph, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Multigraph, name, counted)
    assert class_admissibility_violation(g, 2) is None
    assert calls == {"_neighbor_counts": 1, "components": 0}
