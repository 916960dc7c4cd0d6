from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclosings.mgraph import Multigraph, complete_multigraph


def graph_from(n, pairs):
    g = Multigraph(n)
    for u, v in pairs:
        g.add_edge(u, v)
    return g


def test_complete_multigraph_triangle():
    g = complete_multigraph(3, 1)
    assert g.edge_count() == 3
    assert g.multiplicity(0, 1) == 1


def test_complete_multigraph_doubled():
    g = complete_multigraph(3, 2)
    assert g.edge_count() == 6
    assert all(g.multiplicity(u, v) == 2 for u in range(3) for v in range(u + 1, 3))


def test_complete_multigraph_single_vertex():
    g = complete_multigraph(1, 5)
    assert g.edge_count() == 0


def test_degree_counts_loops_twice():
    g = Multigraph(2)
    g.add_edge(0, 0, 2)
    g.add_edge(0, 1)
    assert g.degree(0) == 5
    assert g.degree(1) == 1
    assert g.degrees() == [5, 1]


def test_degree_isolated_and_k4():
    assert Multigraph(3).degree(1) == 0
    k4 = complete_multigraph(4, 1)
    assert all(k4.degree(v) == 3 for v in range(4))


def test_multiplicity():
    g = complete_multigraph(3, 2)
    assert g.multiplicity(0, 2) == 2
    assert g.multiplicity(1, 1) == 0
    h = Multigraph(4)
    assert h.multiplicity(2, 3) == 0


def test_invalid_vertex_raises():
    g = complete_multigraph(3, 1)
    with pytest.raises(ValueError):
        g.degree(3)
    with pytest.raises(ValueError):
        g.multiplicity(0, 5)


def test_components():
    assert complete_multigraph(4, 1).components() == [(0, 1, 2, 3)]
    two_edges = graph_from(4, [(0, 1), (2, 3)])
    assert two_edges.components() == [(0, 1), (2, 3)]
    assert Multigraph(3).components() == [(0,), (1,), (2,)]


def test_bridges_path_and_cycle():
    path = graph_from(3, [(0, 1), (1, 2)])
    assert path.bridges() == {(0, 1), (1, 2)}
    cycle = graph_from(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert cycle.bridges() == set()


def test_bridges_parallel_edge_is_not_a_bridge():
    g = Multigraph(2)
    g.add_edge(0, 1, 2)
    assert g.bridges() == set()


def test_bridges_mixed():
    # doubled edge 0-1, then a pendant 1-2
    g = Multigraph(3)
    g.add_edge(0, 1, 2)
    g.add_edge(1, 2)
    assert g.bridges() == {(1, 2)}


def test_loops_are_never_bridges():
    g = Multigraph(2)
    g.add_edge(0, 0)
    g.add_edge(0, 1)
    assert g.bridges() == {(0, 1)}


def test_two_edge_connected_spanning():
    cycle = graph_from(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert cycle.is_two_edge_connected_spanning()
    path = graph_from(3, [(0, 1), (1, 2)])
    assert not path.is_two_edge_connected_spanning()
    triangle_plus_isolated = graph_from(4, [(0, 1), (1, 2), (0, 2)])
    assert not triangle_plus_isolated.is_two_edge_connected_spanning()
    assert Multigraph(1).is_two_edge_connected_spanning()


def test_induced():
    k4 = complete_multigraph(4, 2)
    sub = k4.induced(3)
    assert sub == complete_multigraph(3, 2)


@st.composite
def multigraphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pair_count = draw(st.integers(min_value=0, max_value=12))
    g = Multigraph(n)
    for _ in range(pair_count):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        mult = draw(st.integers(min_value=1, max_value=3))
        g.add_edge(u, v, mult)
    return g


@given(multigraphs())
@settings(max_examples=200)
def test_degrees_match_degree(g):
    assert g.degrees() == [g.degree(v) for v in range(g.vertex_count)]


@given(multigraphs())
@settings(max_examples=200)
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degree(v) for v in range(g.vertex_count)) == 2 * g.edge_count()


@given(multigraphs())
@settings(max_examples=200)
def test_bridges_have_multiplicity_one_and_split_components(g):
    before = len(g.components())
    for u, v in g.bridges():
        assert u != v
        assert g.multiplicity(u, v) == 1
        reduced = g.copy()
        reduced.remove_edge(u, v)
        assert len(reduced.components()) == before + 1


@given(multigraphs())
@settings(max_examples=200)
def test_non_bridges_do_not_split_components(g):
    before = len(g.components())
    bridges = g.bridges()
    for (u, v), mult in list(g.edges.items()):
        if u == v or (u, v) in bridges:
            continue
        reduced = g.copy()
        reduced.remove_edge(u, v)
        assert len(reduced.components()) == before


@given(multigraphs())
@settings(max_examples=200)
def test_two_edge_connected_matches_components_and_bridges(g):
    expected = (
        len(g.components()) == 1 and not g.bridges()
        if g.vertex_count > 1
        else True
    )
    assert g.is_two_edge_connected_spanning() == expected


@given(g=multigraphs())
@settings(max_examples=200)
def test_bridges_and_two_edge_connectivity_match_networkx(nx, g):
    # nx.bridges never reports parallel edges or loops of a MultiGraph
    ref = nx.MultiGraph()
    ref.add_nodes_from(range(g.vertex_count))
    for (u, v), mult in g.edges.items():
        for _ in range(mult):
            ref.add_edge(u, v)
    expected = {tuple(sorted(edge)) for edge in nx.bridges(ref)}
    assert g.bridges() == expected
    assert g.is_two_edge_connected_spanning() == (
        nx.is_connected(ref) and not expected
    )
    assert g.components() == sorted(
        tuple(sorted(c)) for c in nx.connected_components(ref)
    )


@given(g=multigraphs(), data=st.data())
@settings(max_examples=200)
def test_blocks_match_networkx(nx, g, data):
    # the blocks of g without one vertex are the components left when that
    # vertex and the bridges are removed
    without = data.draw(st.integers(min_value=-1, max_value=g.vertex_count - 1))
    ref = nx.MultiGraph()
    ref.add_nodes_from(v for v in range(g.vertex_count) if v != without)
    for (u, v), mult in g.edges.items():
        if without not in (u, v):
            for _ in range(mult):
                ref.add_edge(u, v)
    bridges = {tuple(sorted(edge)) for edge in nx.bridges(ref)}
    components = list(nx.connected_components(ref))
    if without < 0:
        assert g.components() == sorted(tuple(sorted(c)) for c in components)
    ref.remove_edges_from(bridges)
    label, found, root = g.blocks(without)
    assert found == bridges
    # each vertex's DFS root is the smallest vertex of its component
    expected_root = [-1] * g.vertex_count
    for c in components:
        for v in c:
            expected_root[v] = min(c)
    assert root == expected_root
    groups: dict[int, list[int]] = {}
    for v, b in enumerate(label):
        if v == without:
            assert b == -1
        else:
            groups.setdefault(b, []).append(v)
    assert sorted(groups.values()) == sorted(
        sorted(c) for c in nx.connected_components(ref)
    )


def test_traversals_on_a_deep_cycle():
    # a 20 000-vertex cycle: far deeper than Python's recursion limit
    n = 20_000
    cycle = graph_from(n, [(v, (v + 1) % n) for v in range(n)])
    assert cycle.is_two_edge_connected_spanning()
    assert cycle.bridges() == set()
    cycle.remove_edge(n - 1, 0)
    assert not cycle.is_two_edge_connected_spanning()
    assert len(cycle.bridges()) == n - 1
    assert len(cycle.components()) == 1
