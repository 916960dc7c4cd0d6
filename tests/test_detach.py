from __future__ import annotations

import inspect
import sys

import pytest

from enclosings.conditions import make_params
from enclosings.decomp import Decomposition, Enclosing, restrict, verify_enclosing
from enclosings.detach import (
    build_amalgamated_triad,
    fair_detach,
    is_good_triad,
    verify_detachment,
)
from enclosings.errors import BudgetExhaustedError, PreconditionError
from enclosings.extend import enclose_in_mu_kn
from enclosings.mgraph import Multigraph, complete_multigraph
from enclosings.oracle import random_admissible


def two_k3_paths():
    base = complete_multigraph(3, 2)
    lists = [
        [(0, 1), (1, 2)],
        [(0, 1), (0, 2)],
        [(0, 2), (1, 2)],
    ]
    classes = []
    for edges in lists:
        g = Multigraph(3)
        for e in edges:
            g.add_edge(*e)
        classes.append(g)
    d = Decomposition(base, tuple(classes))
    d.validate_partition()
    return d


def test_build_triad_two_k3_derived_facts():
    params = make_params(n=3, m=4, lam=2, mu=2, r=2, k=3)
    a = two_k3_paths()
    triad = build_amalgamated_triad(a, params)
    x0 = 3
    assert triad.base.vertex_count == 4
    # p = 2: each class has 2 edges, so no loops anywhere
    assert triad.base.multiplicity(x0, x0) == 0
    # class 0 is the path 0-1-2 with degrees (1,2,1): amalgam edges (1,0,1)
    cls0 = triad.classes[0]
    assert cls0.multiplicity(x0, 0) == 1
    assert cls0.multiplicity(x0, 1) == 0
    assert cls0.multiplicity(x0, 2) == 1
    for j in range(3):
        assert triad.base.multiplicity(x0, j) == 2  # mu * (m - n)
    for cls in triad.classes:
        assert cls.degree(x0) == 2  # r * (m - n)


def test_build_triad_rejects_m_equal_n():
    params = make_params(n=3, m=3, lam=2, mu=2, r=2, k=3)
    with pytest.raises(PreconditionError):
        build_amalgamated_triad(two_k3_paths(), params)


def test_build_triad_rejects_failing_battery():
    base = complete_multigraph(3, 2)
    doubled = Multigraph(3)
    doubled.add_edge(0, 1, 2)
    rest1 = Multigraph(3)
    rest1.add_edge(0, 2, 2)
    rest2 = Multigraph(3)
    rest2.add_edge(1, 2, 2)
    a = Decomposition(base, (doubled, rest1, rest2))
    params = make_params(n=3, m=4, lam=2, mu=2, r=2, k=3)
    with pytest.raises(PreconditionError, match="A2"):
        build_amalgamated_triad(a, params)


def test_good_triad_detection():
    params = make_params(n=3, m=4, lam=2, mu=2, r=2, k=3)
    triad = build_amalgamated_triad(two_k3_paths(), params)
    assert is_good_triad(triad, params)

    # a triad with a bridge class is not good: n = 1, the amalgam stands
    # for one vertex
    graph = Multigraph(2)
    graph.add_edge(0, 1)
    bad = Decomposition(graph, (graph.copy(),))
    assert not is_good_triad(bad, make_params(n=1, m=2, lam=1, mu=1, r=2, k=1))

    # degree below twice what the amalgam stands for is not good either:
    # the amalgam stands for m - n = 3 vertices, degree(1) = 3 + 2 = 5 < 2 * 3
    graph2 = Multigraph(2)
    graph2.add_edge(0, 1, 3)
    graph2.add_edge(1, 1, 1)
    low = Decomposition(graph2, (graph2.copy(),))
    assert graph2.is_two_edge_connected_spanning()
    assert not is_good_triad(low, make_params(n=1, m=4, lam=1, mu=1, r=2, k=1))
    # standing for two vertices, the same amalgam is good: 5 >= 2 * 2
    assert is_good_triad(low, make_params(n=1, m=3, lam=1, mu=1, r=2, k=1))


def test_fair_detach_two_k3_gives_three_four_cycles():
    params = make_params(n=3, m=4, lam=2, mu=2, r=2, k=3)
    a = two_k3_paths()
    triad = build_amalgamated_triad(a, params)
    witness = fair_detach(triad, params)
    ok, problems = verify_detachment(witness, triad, params)
    assert ok, problems
    for cls in witness.result.classes:
        assert cls.edge_count() == 4
        assert all(cls.degree(v) == 2 for v in range(4))
        assert cls.is_two_edge_connected_spanning()
    # restriction equality, not just containment
    assert restrict(witness.result, 3) == a


def test_fair_detach_single_new_vertex_is_decision_free():
    params = make_params(n=3, m=4, lam=2, mu=2, r=2, k=3)
    triad = build_amalgamated_triad(two_k3_paths(), params)
    w1 = fair_detach(triad, params, seed=0)
    w2 = fair_detach(triad, params, seed=99)
    assert w1.result == w2.result  # forced assignment regardless of seed
    # the one new vertex is what is left of the amalgam: nothing is searched
    assert w1.stats.nodes == w2.stats.nodes == 0


def test_fair_detach_2k3_into_2k5():
    # A-valid decomposition of 2K3 with k=4: sizes (2,2,1,1) all >= p = 1
    base = complete_multigraph(3, 2)
    lists = [[(0, 1), (0, 2)], [(0, 1), (1, 2)], [(0, 2)], [(1, 2)]]
    classes = []
    for edges in lists:
        g = Multigraph(3)
        for e in edges:
            g.add_edge(*e)
        classes.append(g)
    a = Decomposition(base, tuple(classes))
    a.validate_partition()
    params = make_params(n=3, m=5, lam=2, mu=2, r=2, k=4)
    triad = build_amalgamated_triad(a, params)
    assert is_good_triad(triad, params)
    witness = fair_detach(triad, params)
    ok, problems = verify_detachment(witness, triad, params)
    assert ok, problems
    ok2, problems2 = verify_enclosing(a, Enclosing(witness.result, 3), params)
    assert ok2, problems2


def test_fair_detach_budget_exhaustion():
    params = make_params(n=3, m=5, lam=2, mu=2, r=2, k=4)
    base = complete_multigraph(3, 2)
    lists = [[(0, 1), (0, 2)], [(0, 1), (1, 2)], [(0, 2)], [(1, 2)]]
    classes = []
    for edges in lists:
        g = Multigraph(3)
        for e in edges:
            g.add_edge(*e)
        classes.append(g)
    a = Decomposition(base, tuple(classes))
    triad = build_amalgamated_triad(a, params)
    with pytest.raises(BudgetExhaustedError):
        fair_detach(triad, params, budget=1)


def test_fair_detach_stack_depth_does_not_grow_with_splits():
    # seven splits of thirteen classes: a search that recurses per row or
    # per column, or nests splits inside one another, runs out of frames
    # here.  The limit allows 15 frames above what inspect.stack counts,
    # but under pytest the recursion depth already stands about 7 above
    # that count, so the search has about 8 frames of headroom.
    params = make_params(n=7, m=14, lam=1, mu=2, r=2, k=13)
    g = random_admissible(7, 1, 13, 2, seed=1)
    full, _ = enclose_in_mu_kn(g, params, "B", seed=1)
    triad = build_amalgamated_triad(full, params)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 15)
    try:
        witness = fair_detach(triad, params, seed=1, budget=50000)
    finally:
        sys.setrecursionlimit(limit)
    ok, problems = verify_detachment(witness, triad, params)
    assert ok, problems


def test_verify_detachment_flags_perturbation():
    params = make_params(n=3, m=4, lam=2, mu=2, r=2, k=3)
    triad = build_amalgamated_triad(two_k3_paths(), params)
    witness = fair_detach(triad, params)
    # move one edge endpoint: swap an edge (u, 3) to (u, u') in class 0
    tampered = [cls.copy() for cls in witness.result.classes]
    cls0 = tampered[0]
    pair = next(p for p in sorted(cls0.edges) if 3 in p)
    other = next(v for v in range(4) if v not in pair)
    cls0.remove_edge(*pair)
    cls0.add_edge(pair[0], other)
    bad = type(witness)(
        result=Decomposition(witness.result.base, tuple(tampered)),
        stats=witness.stats,
    )
    ok, problems = verify_detachment(bad, triad, params)
    assert not ok
    assert problems


def test_triad_invariants():
    # fair_detach refuses a loop below n and a decomposition that is not on
    # n + 1 vertices; a loop at the amalgam is fine
    params = make_params(n=1, m=4, lam=1, mu=1, r=2, k=1)
    graph = Multigraph(2)
    graph.add_edge(0, 0, 1)
    with pytest.raises(PreconditionError, match="loop"):
        fair_detach(Decomposition(graph, (graph.copy(),)), params)
    g3 = Multigraph(3)
    g3.add_edge(0, 1, 2)
    g3.add_edge(1, 2, 2)
    with pytest.raises(PreconditionError, match="vertices"):
        fair_detach(Decomposition(g3, (g3.copy(),)), params)
    g2 = Multigraph(2)
    g2.add_edge(0, 1, 2)
    g2.add_edge(1, 1, 1)
    with pytest.raises(PreconditionError, match="not good"):
        fair_detach(Decomposition(g2, (g2.copy(),)), params)


def test_verify_detachment_reports_wrong_vertex_count():
    params = make_params(n=3, m=4, lam=2, mu=2, r=2, k=3)
    triad = build_amalgamated_triad(two_k3_paths(), params)
    witness = fair_detach(triad, params)
    # a result on m - 1 vertices is a problem to report, not an exception
    short = type(witness)(result=restrict(witness.result, 3), stats=witness.stats)
    ok, problems = verify_detachment(short, triad, params)
    assert not ok
    assert problems == ["result has 3 vertices, expected 4"]
