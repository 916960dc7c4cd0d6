from __future__ import annotations

import inspect
import sys
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclosings import detach
from enclosings.conditions import make_params
from enclosings.decomp import Decomposition, Enclosing, restrict, verify_enclosing
from enclosings.detach import (
    SplitRecord,
    build_amalgamated_triad,
    carry_split,
    fair_detach,
    flow_split,
    is_good_triad,
    path_ends,
    path_row_count,
    solve_split,
    verify_detachment,
)
from enclosings.errors import (
    BudgetExhaustedError,
    InternalInconsistencyError,
    PreconditionError,
)
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
    # the one solved split is vertex 4; its flow takes 8 paths, one unit
    # each, and with fewer the message says how many of the 4 classes got
    # both their units
    stalled = "split of vertex 4, {} of them there; at most {} of 4 classes"
    with pytest.raises(BudgetExhaustedError, match=stalled.format(1, 0)):
        fair_detach(triad, params, budget=1)
    with pytest.raises(BudgetExhaustedError, match=stalled.format(3, 1)):
        fair_detach(triad, params, budget=3)
    with pytest.raises(BudgetExhaustedError, match=stalled.format(8, 3)):
        fair_detach(triad, params, budget=8)
    stats = fair_detach(triad, params, budget=9).stats
    # equality leaves the wall seconds out
    assert stats.splits == [SplitRecord(
        z=4, nodes=8, min_candidates=2, max_candidates=2, deepest=4, seconds=0.0
    )]
    assert stats.splits[0].seconds > 0


def test_fair_detach_records_every_searched_split():
    params = make_params(n=7, m=14, lam=1, mu=2, r=2, k=13)
    g = random_admissible(7, 1, 13, 2, seed=2)
    full, _ = enclose_in_mu_kn(g, params, "B", seed=2)
    triad = build_amalgamated_triad(full, params)
    stats = fair_detach(triad, params, seed=2, budget=50000).stats
    # (vertex, paths, fewest and most rows of a class) per split; each
    # split sends 26 units, and a class's two loops can go as one path
    records = [(rec.z, rec.nodes, rec.min_candidates, rec.max_candidates) for rec in stats.splits]
    assert records == [
        (8, 20, 3, 27), (9, 21, 6, 33), (10, 23, 6, 25),
        (11, 25, 3, 18), (12, 26, 3, 12), (13, 26, 2, 4),
    ]
    assert sum(rec.nodes for rec in stats.splits) == stats.nodes
    assert all(rec.deepest == 13 for rec in stats.splits)
    # a budget that runs out inside the split of vertex 10 names it
    before = sum(rec.nodes for rec in stats.splits[:2])
    stalled = "split of vertex 10, 3 of them there; at most 2 of 13 classes"
    with pytest.raises(BudgetExhaustedError, match=stalled):
        fair_detach(triad, params, seed=2, budget=before + 3)


# The flow's paths on the r = 2 rows below, by (n, m, seed)
FLOW_PATHS = {
    (11, 22, 1): 373, (11, 22, 2): 371, (11, 22, 3): 373, (11, 22, 4): 373,
    (13, 26, 1): 531, (13, 26, 2): 529, (13, 26, 3): 529, (13, 26, 4): 530,
    (13, 25, 1): 471, (13, 25, 2): 468, (13, 25, 3): 470, (13, 25, 4): 468,
    (13, 25, 5): 468, (7, 14, 3): 140, (20, 40, 9): 1305, (20, 39, 1): 1214,
}


def detach_and_verify(g, triad, params, seed, nodes):
    witness = fair_detach(triad, params, seed=seed, budget=50000)
    assert witness.stats.nodes == nodes
    ok, problems = verify_detachment(witness, triad, params)
    assert ok, problems
    ok, problems = verify_enclosing(g, Enclosing(witness.result, params.n), params)
    assert ok, problems


@pytest.mark.parametrize(
    "regime, n, m, r, k, seed, nodes",
    # criterion 6's shape, where seeds 18 and 90 took 2.3M and 765k nodes
    [("T15", 8, 16, 3, 10, 18, 76), ("T15", 8, 16, 3, 10, 90, 82)]
    # B at m = 2n and at m = 2n - 1, where some seeds exhausted 200k nodes
    + [("B", 11, 22, 2, 21, s, c) for s, c in zip((1, 2, 3, 4), (256, 286, 278, 239))]
    + [("B", 13, 26, 2, 25, s, c) for s, c in zip((1, 2, 3, 4), (416, 431, 400, 407))]
    + [
        ("B", 13, 25, 2, 24, s, c)
        for s, c in zip((1, 2, 3, 4, 5), (414, 400, 370, 295, 382))
    ]
    # enclose-r2's pool input that exhausted 50k nodes in the split of vertex 12
    + [("B", 7, 14, 2, 13, 3, 89)]
    # these exhaust 50k nodes in their last searched split, the first when
    # a column's choices are all its live rows, the second when ties go to
    # classes and then to the lowest column
    + [("B", 20, 40, 2, 39, 9, 1278), ("B", 20, 39, 2, 38, 1, 1131)],
)
def test_fair_detach_solves_splits_that_stalled(monkeypatch, regime, n, m, r, k, seed, nodes):
    # `nodes` is what the row search takes.  At r = 3 that is fair_detach's
    # own route.  At r = 2 fair_detach runs the flow, pinned in FLOW_PATHS,
    # and the row search, put in the flow's place, must still solve these
    # splits that once stalled it: it is the route at r >= 3.
    g, triad, params = desk_input(regime, n, m, r, k, seed)
    if r == 2:
        detach_and_verify(g, triad, params, seed, FLOW_PATHS[n, m, seed])
        monkeypatch.setattr(detach, "_FlowRoute", lambda work, n: detach._search_rows)
    detach_and_verify(g, triad, params, seed, nodes)


@pytest.mark.parametrize(
    "n, m, seed, paths",
    # B at n = 25, where the row search exhausted 50k nodes (m = 50, seed 2
    # still exceeded 1M), and at n = 60, where it took 177 s
    [(25, 50, s, p) for s, p in zip((2, 9, 18), (2069, 2067, 2068))]
    + [(25, 49, s, p) for s, p in zip((1, 5), (1947, 1950))]
    + [(60, 120, 1, 12316)],
)
def test_fair_detach_flow_solves_splits_the_row_search_could_not(n, m, seed, paths):
    g, triad, params = desk_input("B", n, m, 2, m - 1, seed)
    detach_and_verify(g, triad, params, seed, paths)


def test_fair_detach_builds_no_rows_at_r2(monkeypatch):
    # each r = 2 split is one flow: no candidate row is built or searched
    def refuse(*args):
        raise AssertionError("the row model was reached at r = 2")

    monkeypatch.setattr(detach, "candidate_rows", refuse)
    monkeypatch.setattr(detach, "solve_split", refuse)
    g, triad, params = desk_input("B", 7, 14, 2, 13, 1)
    detach_and_verify(g, triad, params, 1, 139)


def column_sums(rows, z):
    sums = [0] * z
    for row in rows:
        for v, x in row:
            sums[v] += x
    return sums


@st.composite
def split_instances(draw):
    """A small split: up to 5 classes of up to 4 sparse candidate rows over
    up to 5 columns, with demands planted from one row per class or drawn
    at random, and no entry above its column's demand."""
    z = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=5))
    row = st.dictionaries(
        st.integers(min_value=0, max_value=z - 1),
        st.integers(min_value=1, max_value=3),
        min_size=1,
    ).map(lambda entries: tuple(sorted(entries.items())))
    candidates = [draw(st.lists(row, max_size=4)) for _ in range(k)]
    if all(candidates) and draw(st.booleans()):
        demand = column_sums([draw(st.sampled_from(c)) for c in candidates], z)
    else:
        demand = draw(st.lists(st.integers(0, 4), min_size=z, max_size=z))
    fits = [[row for row in c if all(x <= demand[v] for v, x in row)] for c in candidates]
    return fits, demand


@given(split_instances())
@settings(max_examples=600)
def test_solve_split_agrees_with_enumeration(instance):
    candidates, demand = instance
    z = len(demand)
    rows, nodes, deepest = solve_split(candidates, demand, 10**6)
    solvable = any(column_sums(c, z) == demand for c in product(*candidates))
    assert (rows is not None) == solvable
    assert nodes < 10**6
    if rows is not None:
        assert all(row in cand for row, cand in zip(rows, candidates))
        assert column_sums(rows, z) == demand
        assert deepest == len(candidates)
    # a column that needs more than the classes can give fails at the root
    supply = [0] * z
    for cand in candidates:
        for v in range(z):
            supply[v] += max((x for row in cand for u, x in row if u == v), default=0)
    if any(d > s for d, s in zip(demand, supply)):
        assert nodes == 0


def split_model_status(optimize, candidates, demand):
    """HiGHS's status on the split as a 0-1 program: one binary per row,
    each class's rows summing to 1 and each column's entries to its demand.
    0 means feasible, 2 infeasible."""
    import numpy as np  # scipy's own dependency
    owners = [i for i, cand in enumerate(candidates) for _ in cand]
    rows = [row for cand in candidates for row in cand]
    k = len(candidates)
    if not rows:
        return 0 if k == 0 and not any(demand) else 2
    a = np.zeros((k + len(demand), len(rows)))
    for j, (i, row) in enumerate(zip(owners, rows)):
        a[i, j] = 1
        for v, x in row:
            a[k + v, j] = x
    b = np.array([1] * k + list(demand))
    return optimize.milp(
        np.zeros(len(rows)),
        constraints=optimize.LinearConstraint(a, b, b),
        integrality=np.ones(len(rows)),
        bounds=optimize.Bounds(0, 1),
    ).status


def check_against_model(optimize, candidates, demand, budget, found):
    """A choice `solve_split` returns satisfies the model, and it reports
    "no solution" within its budget only where the model is infeasible."""
    rows, nodes, _ = found
    status = split_model_status(optimize, candidates, demand)
    if rows is not None:
        assert all(row in cand for row, cand in zip(rows, candidates))
        assert column_sums(rows, len(demand)) == demand
        assert status == 0
    elif nodes < budget:
        assert status == 2


@given(split_instances())
@settings(max_examples=200)
def test_solve_split_agrees_with_milp(optimize, instance):
    candidates, demand = instance
    found = solve_split(candidates, demand, 10**6)
    check_against_model(optimize, candidates, demand, 10**6, found)


def test_solve_split_excludes_rows_tried_at_a_column():
    # one class, no solution.  Both columns have one choice, so the search
    # branches on the higher, column 1, and tries ((1, 3),) first, which
    # leaves column 0 nothing.  Excluding that row leaves column 1 a supply
    # of 2 against a demand of 3, so the search stops after one node
    # instead of trying ((0, 1), (1, 2)) as well.
    candidates = [[((0, 2),), ((1, 3),), ((0, 1), (1, 2))]]
    assert solve_split(candidates, [2, 3], 100) == (None, 1, 0)


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


def b7_detachment():
    """B n=7, m=14, seed 1: params, triad and fair_detach witness."""
    params = make_params(n=7, m=14, lam=1, mu=2, r=2, k=13)
    g = random_admissible(7, 1, 13, 2, seed=1)
    full, _ = enclose_in_mu_kn(g, params, "B", seed=1)
    triad = build_amalgamated_triad(full, params)
    return params, triad, fair_detach(triad, params, seed=1)


def test_verify_detachment_flags_a_swap_only_the_pair_totals_see():
    # swap the split-vertex ends of two edges (a, x), (b, y) of one class:
    # degrees stay, x and y both push to n, and the swap is picked to keep
    # the class 2-edge-connected, so only the pair totals can tell
    params, triad, witness = b7_detachment()
    n = params.n
    assert params.m - n >= 4
    cls = witness.result.classes[0]
    far = sorted((u, v) for u, v in cls.edges if u < n <= v)
    for (a, x), (b, y) in product(far, far):
        if a == b or x == y:
            continue
        swapped = cls.copy()
        swapped.remove_edge(a, x)
        swapped.remove_edge(b, y)
        swapped.add_edge(a, y)
        swapped.add_edge(b, x)
        if swapped.is_two_edge_connected_spanning():
            break
    else:
        pytest.fail("no swap keeps class 0 2-edge-connected")
    assert swapped.degrees() == cls.degrees()
    pushed = Multigraph(n + 1)
    for u, v in swapped.edges:
        pushed.add_edge(min(u, n), min(v, n), swapped.multiplicity(u, v))
    assert pushed == triad.classes[0]
    bad = type(witness)(
        result=Decomposition(
            witness.result.base, (swapped,) + witness.result.classes[1:]
        ),
        stats=witness.stats,
    )
    ok, problems = verify_detachment(bad, triad, params)
    assert not ok
    assert problems


def test_verify_detachment_reads_no_multiplicity(monkeypatch):
    params, triad, witness = b7_detachment()
    calls = [0]
    inner = Multigraph.multiplicity

    def counting(self, u, v):
        calls[0] += 1
        return inner(self, u, v)

    monkeypatch.setattr(Multigraph, "multiplicity", counting)
    ok, problems = verify_detachment(witness, triad, params)
    assert ok, problems
    assert calls[0] == 0


def reference_rows(g, n, z, r, limit):
    """The rows `candidate_rows` should give, found the direct way: move
    each row onto z in a copy of g, check the class, move it back."""
    caps = [min(g.multiplicity(n, v), cap) for v, cap in enumerate(limit)]
    work = g.copy()
    work.vertex_count = z + 1  # z joins, isolated
    neighbours = [v for v in range(z) if caps[v] and v != n]
    neighbours += [n] if caps[n] else []
    out = []
    for combo in combinations_with_replacement(neighbours, r):
        row = [0] * z
        for v in combo:
            row[v] += 1
        if any(x > cap for x, cap in zip(row, caps)):
            continue
        for v, x in enumerate(row):
            if x:
                work.remove_edge(n, v, x)
                work.add_edge(z, v, x)
        if work.is_two_edge_connected_spanning():
            # sparse, in the combo's column order: ascending, n last
            out.append(tuple((v, row[v]) for v in dict.fromkeys(combo)))
        for v, x in enumerate(row):
            if x:
                work.remove_edge(z, v, x)
                work.add_edge(n, v, x)
    return out


@st.composite
def split_states(draw):
    """A class before the split of vertex z: 2-edge-connected spanning on
    0..z-1 (a closed walk through every vertex, plus random edges, loops
    only at the amalgam n), z isolated, and caps within the amalgam's
    multiplicities."""
    r = draw(st.integers(min_value=2, max_value=4))
    z = draw(st.integers(min_value=2, max_value=7))
    n = draw(st.integers(min_value=0, max_value=z - 1))
    g = Multigraph(z + 1)
    walk = draw(st.permutations(range(z)))
    for u, v in zip(walk, walk[1:] + walk[:1]):
        g.add_edge(u, v)
    vertex = st.integers(min_value=0, max_value=z - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=8)):
        if u != v:
            g.add_edge(u, v)
    for v in draw(st.lists(vertex, max_size=4)):
        if v != n:
            g.add_edge(v, n)
    g.add_edge(n, n, draw(st.integers(min_value=0, max_value=3)))
    caps = [
        draw(st.integers(min_value=0, max_value=min(g.multiplicity(n, v), r)))
        for v in range(z)
    ]
    return g, n, z, r, caps


def candidate_rows(g, n, z, r, limit):
    """The rows of class g for the split of vertex z."""
    return detach.candidate_rows(g.induced(z), n, r, limit)


@given(split_states())
@settings(max_examples=400)
def test_candidate_rows_match_move_and_check(state):
    g, n, z, r, caps = state
    assert candidate_rows(g, n, z, r, caps) == reference_rows(g, n, z, r, caps)


def test_candidate_rows_one_bridge_cuts_row_from_amalgam():
    # F is the path 0 - 1; each end has two amalgam edges.  Two row edges
    # into 0 leave one z-n path (over the bridge), into 0 and 1 two.
    g = Multigraph(4)
    g.add_edge(0, 1)
    g.add_edge(0, 2, 2)
    g.add_edge(1, 2, 2)
    assert g.induced(3).is_two_edge_connected_spanning()
    rows = candidate_rows(g, 2, 3, 2, [2, 2, 0])
    assert rows == reference_rows(g, 2, 3, 2, [2, 2, 0]) == [((0, 1), (1, 1))]


def test_candidate_rows_two_bridges_leave_the_row():
    # F is the path 0 - 1 - 2 and amalgam 3 has edges to 0, 2 and two to 1.
    # Both row edges into 1 still leave two z-n paths, one over each bridge.
    g = Multigraph(5)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(0, 3)
    g.add_edge(2, 3)
    g.add_edge(1, 3, 2)
    assert g.induced(4).is_two_edge_connected_spanning()
    rows = candidate_rows(g, 3, 4, 2, [1, 2, 1, 0])
    assert rows == reference_rows(g, 3, 4, 2, [1, 2, 1, 0])
    assert rows == [((0, 1), (1, 1)), ((0, 1), (2, 1)), ((1, 2),), ((1, 1), (2, 1))]


def test_candidate_rows_refuse_a_tree_that_meets_the_amalgam_once():
    # F is one tree: blocks {0, 1} (a double edge) and {2}, joined by the
    # bridge 1-2.  Amalgam 3 meets it once, by the edge 0-3, a bridge of
    # the class, so the state is not good and no row may pass on the
    # strength of goodness.
    g = Multigraph(4)
    g.add_edge(0, 1, 2)
    g.add_edge(1, 2)
    g.add_edge(0, 3)
    with pytest.raises(InternalInconsistencyError, match="meets it 1 times"):
        detach.candidate_rows(g, 3, 2, [1, 1, 1, 0])


def test_path_ends_refuse_a_tree_that_meets_the_amalgam_three_times():
    # F is the path 0 - 1, and amalgam 2 meets 0 twice and 1 once: vertex 0
    # has class degree 3, so this is no state at r = 2, and the flow's
    # premise, that every tree meets the amalgam exactly twice, fails.
    g = Multigraph(3)
    g.add_edge(0, 1)
    g.add_edge(0, 2, 2)
    g.add_edge(1, 2)
    assert g.is_two_edge_connected_spanning()
    with pytest.raises(InternalInconsistencyError, match="meets it 3 times"):
        path_ends(g, 2)
    # a lone vertex 0 joined twice to amalgam 4, and the cycle 1 - 2 - 3,
    # which misses the amalgam
    g = Multigraph(5)
    g.add_edge(0, 4, 2)
    for u, v in [(1, 2), (2, 3), (3, 1)]:
        g.add_edge(u, v)
    with pytest.raises(InternalInconsistencyError, match="meets it 0 times"):
        path_ends(g, 4)


def split_demand(params, z):
    demand = [params.mu] * z
    demand[params.n] = params.mu * (params.m - z)
    return demand


def hook_route(monkeypatch, r, wrap):
    """Put wrap(route) where fair_detach takes its route for r.  The r = 2
    route is made per detach, from the working multigraphs."""
    if r == 2:
        make = detach._FlowRoute
        monkeypatch.setattr(detach, "_FlowRoute", lambda work, n: wrap(make(work, n)))
    else:
        monkeypatch.setattr(detach, "_search_rows", wrap(detach._search_rows))


def desk_input(regime, n, m, r, k, seed):
    """An input, its amalgamated triad and the parameters, as the pipeline
    builds them (the T15 input is (r - 1)-admissible)."""
    params = make_params(n=n, m=m, lam=1, mu=2, r=r, k=k)
    g = random_admissible(n, 1, k, r - 1 if regime == "T15" else r, seed=seed)
    full, _ = enclose_in_mu_kn(g, params, regime, seed=seed)
    return g, build_amalgamated_triad(full, params), params


DESK = (
    [("B", 7, 14, 2, 13, s) for s in range(1, 6)]
    + [("C", 8, 14, 2, 13, s) for s in range(1, 6)]
    + [("T15", 8, 16, 3, 10, 1)]
)


@pytest.mark.parametrize(
    "regime, n, m, r, k, seed", DESK + [("B", 20, 39, 2, 38, 1)]
)
def test_candidate_rows_match_reference_at_every_split(
    monkeypatch, regime, n, m, r, k, seed
):
    _, triad, params = desk_input(regime, n, m, r, k, seed)
    seen = []

    def checked(route):
        def split(work, n, r, demand, budget, rng):
            z = len(demand)
            limit = split_demand(params, z)
            assert demand == limit
            for g in work:
                assert detach.candidate_rows(g, n, r, limit) == reference_rows(g, n, z, r, limit)
            seen.append(z)
            return route(work, n, r, demand, budget, rng)
        return split

    hook_route(monkeypatch, r, checked)
    fair_detach(triad, params, seed=seed, budget=50000)
    assert seen == list(range(n + 1, m))


@pytest.mark.parametrize("regime, n, m, r, k, seed", DESK)
def test_solve_split_agrees_with_milp_at_every_split(
    monkeypatch, optimize, regime, n, m, r, k, seed
):
    _, triad, params = desk_input(regime, n, m, r, k, seed)
    seen = []

    def checked(candidates, demand, budget):
        found = solve_split(candidates, demand, budget)
        check_against_model(optimize, candidates, demand, budget, found)
        seen.append(len(demand))
        return found

    monkeypatch.setattr(detach, "solve_split", checked)
    if r == 2:
        # fair_detach solves r = 2 splits by the flow; the row search takes
        # its place here
        monkeypatch.setattr(detach, "_FlowRoute", lambda work, n: detach._search_rows)
    fair_detach(triad, params, seed=seed, budget=50000)
    assert seen == list(range(n + 1, m))


def components_path_ends(g, n):
    """`path_ends` found another way, kept as a reference: the components
    of g without n from a union-find over its edges, each with the vertices
    that meet the amalgam, by smallest vertex; and the amalgam's loops."""
    parent = list(range(g.vertex_count))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    mult = [0] * g.vertex_count
    for (u, v), x in g.edges.items():
        if n in (u, v):
            mult[u if v == n else v] += x
        else:
            parent[find(u)] = find(v)
    comps = {}
    for v in range(g.vertex_count):
        if v != n:
            comps.setdefault(find(v), []).append(v)
    ends = {}
    for comp in sorted(comps.values()):
        assert sum(mult[v] for v in comp) == 2
        ends[comp[0]] = [v for v in comp if mult[v]]
    return ends, mult[n]


def in_order(found):
    """path_ends' result with its paths as a list, so that order counts."""
    paths, loops = found
    return list(paths.items()), loops


@pytest.mark.parametrize(
    "regime, n, seed",
    [(regime, n, seed) for regime, n in [("B", 7), ("C", 8)] for seed in range(1, 21)],
)
def test_path_ends_match_components_at_every_split(monkeypatch, regime, n, seed):
    _, triad, params = desk_input(regime, n, 14, 2, 13, seed)
    splits = []

    def checked(route):
        def split(work, n, r, demand, budget, rng):
            for g in work:
                assert in_order(path_ends(g, n)) == in_order(components_path_ends(g, n))
            splits.append(len(demand))
            return route(work, n, r, demand, budget, rng)
        return split

    hook_route(monkeypatch, 2, checked)
    fair_detach(triad, params, seed=seed, budget=50000)
    assert splits == list(range(n + 1, 14))


@pytest.mark.parametrize(
    "regime, n, m, seed",
    [(regime, n, 14, seed) for regime, n in [("B", 7), ("C", 8)] for seed in range(1, 21)]
    + [("B", 20, 39, 1), ("B", 60, 120, 1)],
)
def test_carried_paths_match_path_ends_at_every_split(monkeypatch, regime, n, m, seed):
    # the r = 2 route reads the paths once and carries them: before every
    # split, and after the last, they are what `path_ends` reads afresh
    # from the working multigraphs
    _, triad, params = desk_input(regime, n, m, 2, m - 1, seed)
    routes, splits = [], []

    def checked(route):
        routes.append(route)

        def split(work, n, r, demand, budget, rng):
            for g, paths, loops in zip(work, route.paths, route.loops):
                assert (list(paths.items()), loops) == in_order(path_ends(g, n))
            splits.append(len(demand))
            return route(work, n, r, demand, budget, rng)
        return split

    hook_route(monkeypatch, 2, checked)
    witness = fair_detach(triad, params, seed=seed, budget=50000)
    assert splits == list(range(n + 1, m))
    (route,) = routes
    for g, paths, loops in zip(witness.result.classes, route.paths, route.loops):
        assert (list(paths.items()), loops) == in_order(path_ends(g, n))


def split_class(g, n, z, row):
    """Class g once the next vertex z takes `row`, as fair_detach commits
    it."""
    h = g.copy()
    h.vertex_count = z + 1
    for v, x in row:
        h.remove_edge(n, v, x)
        h.add_edge(z, v, x)
    return h


def test_carry_split_merges_extends_and_adds_paths():
    # amalgam 5; without it the class is the lone vertex 0, met twice, and
    # the paths 1 - 2 and 3 - 4; the amalgam has three loops
    g = Multigraph(6)
    g.add_edge(0, 5, 2)
    for u, v in [(1, 2), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5)]:
        g.add_edge(u, v)
    g.add_edge(5, 5, 3)
    paths, loops = path_ends(g, 5)
    assert (list(paths.items()), loops) == ([(0, [0]), (1, [1, 2]), (3, [3, 4])], 3)
    # two ends of different paths, one of them the lone vertex: 0 - 6 - 4 - 3
    # keeps the smaller key, and path 3 goes
    for z, row, units, after in [
        (6, ((0, 1), (4, 1)), [(0, 0), (4, 3)], [(0, [0, 3]), (1, [1, 2])]),
        # an end and a loop extend 1 - 2 to 1 - 2 - 7
        (7, ((2, 1), (5, 1)), [(2, 1)], [(0, [0, 3]), (1, [1, 7])]),
        # two loops make 8 a lone path, last
        (8, ((5, 2),), [], [(0, [0, 3]), (1, [1, 7]), (8, [8])]),
    ]:
        g = split_class(g, 5, z, row)
        carry_split(paths, z, units)
        assert list(paths.items()) == after
        assert in_order(path_ends(g, 5))[0] == after
    # a lone vertex met twice, extended by one unit and a loop
    g = Multigraph(2)
    g.add_edge(0, 1, 2)
    g.add_edge(1, 1)
    paths, _ = path_ends(g, 1)
    carry_split(paths, 2, [(0, 0)])
    assert paths == path_ends(split_class(g, 1, 2, ((0, 1), (1, 1))), 1)[0] == {0: [0, 2]}


def test_carry_split_refuses_units_off_distinct_path_ends():
    paths = {0: [0], 1: [1, 2], 3: [3, 4]}
    for units in [
        [(1, 1), (2, 1)],  # both units into the path 1 - 2
        [(0, 0), (0, 0)],  # both into the lone vertex 0
        [(3, 1)],  # a column that is no end of the path
        [(5, 5)],  # a path the class does not have
        [(0, 0), (1, 1), (3, 3)],  # three units
    ]:
        with pytest.raises(InternalInconsistencyError, match="not ends of distinct paths"):
            carry_split(dict(paths), 6, units)


@pytest.mark.parametrize(
    "regime, n, m, r, k, seed",
    [d for d in DESK if d[3] == 2] + [("B", 20, 39, 2, 38, 1)],
)
def test_flow_split_agrees_with_rows_at_every_split(monkeypatch, regime, n, m, r, k, seed):
    _, triad, params = desk_input(regime, n, m, r, k, seed)
    seen = []

    def checked(route):
        def split(work, n, r, demand, budget, rng):
            z = len(demand)
            assert demand == split_demand(params, z)
            candidates = [detach.candidate_rows(g, n, 2, demand) for g in work]
            counts = []
            for g in work:
                ends, loops = path_ends(g, n)
                sizes = [len(e) for e in ends.values()]
                counts.append(path_row_count(len(sizes), sum(sizes), min(loops, demand[n])))
            assert counts == [len(c) for c in candidates]
            found = route(work, n, r, demand, budget, rng)
            rows = found[0]
            assert all(row in cand for row, cand in zip(rows, candidates))
            assert column_sums(rows, z) == demand
            seen.append((z, counts))
            return found
        return split

    hook_route(monkeypatch, 2, checked)
    splits = fair_detach(triad, params, seed=seed, budget=50000).stats.splits
    assert [z for z, _ in seen] == [record.z for record in splits] == list(range(n + 1, m))
    for record, (_, counts) in zip(splits, seen):
        assert (record.min_candidates, record.max_candidates) == (min(counts), max(counts))
        assert record.deepest == k


@pytest.mark.parametrize("short, error, message", [
    (1, InternalInconsistencyError, "split of vertex 8 has no solution"),
    (0, BudgetExhaustedError, "exceeded 50000 nodes in the split of vertex 8, 50000 of"),
])
def test_fair_detach_tells_a_split_with_no_solution_from_a_spent_budget(
    monkeypatch, short, error, message
):
    # a route that finds no rows with budget to spare breaks the good-triad
    # guarantee; one that spends the whole budget has only run out
    def no_rows(work, n, r, demand, budget, rng):
        return None, budget - short, 0, [1]

    monkeypatch.setattr(detach, "_FlowRoute", lambda work, n: no_rows)
    _, triad, params = desk_input("B", 7, 14, 2, 13, 1)
    with pytest.raises(error, match=message):
        fair_detach(triad, params, seed=1, budget=50000)


@st.composite
def path_splits(draw):
    """A split at r = 2: up to 4 classes on the vertices below z, each the
    amalgam n with up to 3 loops plus paths over the other vertices, both
    ends of each path joined to n (a lone vertex twice), so every class is
    2-edge-connected spanning; demands planted from one candidate row per
    class or drawn at random."""
    z = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.integers(min_value=0, max_value=z - 1))
    graphs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        g = Multigraph(z)
        order = draw(st.permutations([v for v in range(z) if v != n]))
        cuts = draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
        path = []
        for v, cut in zip(order, cuts[:-1] + [True]):
            if path:
                g.add_edge(path[-1], v)
            path.append(v)
            if cut:
                g.add_edge(path[0], n)
                g.add_edge(path[-1], n)
                path = []
        g.add_edge(n, n, draw(st.integers(min_value=0, max_value=3)))
        graphs.append(g)
    rows = [detach.candidate_rows(g, n, 2, [2] * z) for g in graphs]
    if all(rows) and draw(st.booleans()):
        demand = column_sums([draw(st.sampled_from(c)) for c in rows], z)
    else:
        demand = draw(st.lists(st.integers(0, 4), min_size=z, max_size=z))
    return graphs, n, demand


@given(path_splits())
@settings(max_examples=300)
def test_flow_split_agrees_with_solve_split(instance):
    graphs, n, demand = instance
    candidates = [detach.candidate_rows(g, n, 2, demand) for g in graphs]
    found, paths, loops = [path_ends(g, n) for g in graphs], [], []
    for ends, x in found:
        # a column with no demand takes no row entry
        paths.append([(p, [v for v in e if demand[v]]) for p, e in ends.items()])
        loops.append(min(x, demand[n]))
    counts = []
    for mine, x in zip(paths, loops):
        sizes = [len(e) for _, e in mine if e]
        counts.append(path_row_count(len(sizes), sum(sizes), x))
    assert counts == [len(c) for c in candidates]
    rows, nodes, deepest, units = flow_split(paths, loops, demand, n, 10**6)
    assert (rows is not None) == (solve_split(candidates, demand, 10**6)[0] is not None)
    # each path carries at least one unit
    assert nodes <= sum(demand)
    if rows is not None:
        assert all(row in cand for row, cand in zip(rows, candidates))
        assert column_sums(rows, len(demand)) == demand
        assert deepest == len(graphs)
        # the units name the paths that carried the row's entries, and
        # carrying them across the split gives the paths of the split class
        z = len(demand)
        for g, (ends, x), row, got in zip(graphs, found, rows, units):
            assert [(v, 1) for v, _ in got] == [e for e in row if e[0] != n]
            carry_split(ends, z, got)
            after = path_ends(split_class(g, n, z, row), n)
            assert (list(ends.items()), x - 2 + len(got)) == in_order(after)


def test_flow_split_reports_a_split_with_no_solution():
    # two classes, each the lone vertices 0 and 1 joined twice to the
    # amalgam 2, with no loops: each class's one row takes an edge to 0
    # and one to 1, so column 0 cannot take just one unit.  The first
    # class sends its two units, and then no augmenting path is left.
    g = Multigraph(3)
    g.add_edge(0, 2, 2)
    g.add_edge(1, 2, 2)
    demand = [1, 1, 2]
    ends, loops = path_ends(g, 2)
    assert (ends, loops) == ({0: [0], 1: [1]}, 0)
    assert detach.candidate_rows(g, 2, 2, demand) == [((0, 1), (1, 1))]
    mine = list(ends.items())
    assert flow_split([mine, mine], [0, 0], demand, 2, 100) == (None, 2, 1, [])
    assert solve_split([[((0, 1), (1, 1))]] * 2, demand, 100)[0] is None
