from __future__ import annotations

import inspect
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclosings.conditions import check_a_prime, check_b, check_c, check_regime, make_params
from enclosings.decomp import Decomposition, Enclosing, is_admissible, verify_enclosing
from enclosings import extend
from enclosings.detach import build_amalgamated_triad, fair_detach, verify_detachment
from enclosings.errors import (
    ConditionsFailedError,
    InternalInconsistencyError,
    PreconditionError,
)
from enclosings.extend import (
    ExtensionTrace,
    TraceAction,
    _assign_slots,
    _color_rest,
    _extend_to_r_via_matching,
    _near_equal_matchings,
    _proper_padding,
    enclose_in_mu_kn,
    replay_trace,
    spare_pool,
)
from enclosings.mgraph import Multigraph, complete_multigraph
from enclosings.oracle import bryant_decompose, enumerate_decompositions, random_admissible


def build(n, lam, *edge_lists, k=None):
    base = complete_multigraph(n, lam)
    classes = []
    for edges in edge_lists:
        g = Multigraph(n)
        for e in edges:
            g.add_edge(*e)
        classes.append(g)
    if k is not None:
        while len(classes) < k:
            classes.append(Multigraph(n))
    d = Decomposition(base, tuple(classes))
    d.validate_partition()
    return d


def k3_singletons(k, lam=1):
    pairs = [(0, 1), (0, 2), (1, 2)]
    lists = [[p] * lam for p in pairs] if lam > 1 else [[p] for p in pairs]
    return build(3, lam, *lists, k=k)


def start_state(g, params):
    """The stage-1 state `enclose_in_mu_kn` starts from: copies of g's
    classes, the spare pool and an empty trace."""
    return [cls.copy() for cls in g.classes], spare_pool(params), ExtensionTrace()


def full_decomposition(classes, params):
    return Decomposition(complete_multigraph(params.n, params.mu), tuple(classes))


# ---------------------------------------------------------------- pad to p


def test_pad_to_p_trivial_when_p_nonpositive():
    # p = 0: no class is short, so each spare edge takes the first class in
    # index order that stays admissible with it
    g = k3_singletons(5)
    params = make_params(n=3, m=6, lam=1, mu=2, r=2, k=5)
    assert params.p == 0
    _, trace = enclose_in_mu_kn(g, params, "B")
    assert trace.actions == [
        TraceAction("color", (0, 1), 1),  # class 0 would hold 2 parallel copies
        TraceAction("color", (0, 2), 0),
        TraceAction("color", (1, 2), 3),  # classes 0-2 would close a cycle
    ]


def test_pad_to_p_fills_empty_class():
    # p = 1: the empty class is tried first, so it takes the first spare edge
    g = k3_singletons(4)
    params = make_params(n=3, m=5, lam=1, mu=2, r=2, k=4)
    assert params.p == 1
    full, trace = enclose_in_mu_kn(g, params, "B")
    assert all(cls.edge_count() >= 1 for cls in full.classes)
    assert trace.actions[0] == TraceAction("color", (0, 1), 3)
    assert all(a.kind == "color" for a in trace.actions)
    assert is_admissible(full, 2)
    full.validate_partition()
    # only spare edges were added
    for inner_cls, padded_cls in zip(g.classes, full.classes):
        for pair, mult in inner_cls.edges.items():
            assert padded_cls.multiplicity(*pair) >= mult


def test_pad_to_p_seed_determinism():
    # B stage 1 is greedy over pairs in sorted order: the seed changes nothing
    g = k3_singletons(4)
    params = make_params(n=3, m=5, lam=1, mu=2, r=2, k=4)
    a0, t0 = enclose_in_mu_kn(g, params, "B", seed=0)
    for seed in (9, 9, 10):
        a, t = enclose_in_mu_kn(g, params, "B", seed=seed)
        assert a == a0 and t.actions == t0.actions


# ------------------------------------------------- extend_to_r_via_matching


def test_matching_extension_identity_when_no_deficient_class():
    d = build(3, 2, [(0, 1), (1, 2)], [(0, 1), (0, 2)], [(0, 2), (1, 2)])
    params = make_params(n=3, m=4, lam=2, mu=3, r=2, k=3)
    classes, pool, trace = start_state(d, params)
    _extend_to_r_via_matching(classes, pool, params, 0, trace)
    assert trace.actions == []
    assert tuple(classes) == d.classes
    assert pool == spare_pool(params)


def test_matching_extension_r3_example():
    g = k3_singletons(3)
    params = make_params(n=3, m=4, lam=1, mu=3, r=3, k=3)
    classes, pool, trace = start_state(g, params)
    _extend_to_r_via_matching(classes, pool, params, 0, trace)
    gp = full_decomposition(classes, params)
    assert gp.class_sizes() == (3, 3, 3)
    assert is_admissible(gp, 3)
    assert not pool.edges
    gp.validate_partition()
    for cls in gp.classes:
        assert not (cls.edge_count() == 3 and len(cls.edges) == 1)
    # every class was deficient: one slot is special per class
    assert sum(1 for a in trace.actions if a.kind == "matching") == 6


def test_assign_slots_k3_derangement():
    # every slot refuses its own pair and each pair has one copy: handing out
    # the pair with the most copies left would leave the last slot only its
    # own pair
    pairs = [(0, 1), (0, 2), (1, 2)]
    assert _assign_slots(pairs, dict.fromkeys(pairs, 1)) == [(0, 2), (1, 2), (0, 1)]


@st.composite
def slot_counts(draw):
    """One to five pairs, each with 0-3 copies and 0-3 special slots, and 0-3
    plain slots, the slots in a drawn order."""
    pairs = [(0, j) for j in range(1, draw(st.integers(1, 5)) + 1)]
    copies = {pair: draw(st.integers(0, 3)) for pair in pairs}
    forbidden = [None] * draw(st.integers(0, 3))
    for pair in pairs:
        forbidden += [pair] * draw(st.integers(0, 3))
    return draw(st.permutations(forbidden)), copies


@given(case=slot_counts())
@settings(max_examples=300, deadline=None)
def test_assign_slots_agrees_with_maximum_matching(nx, case):
    forbidden, copies = case
    ref = nx.Graph()
    slots = [("slot", i) for i in range(len(forbidden))]
    ref.add_nodes_from(slots)
    for pair, count in copies.items():
        for c in range(count):
            ref.add_node(("copy", pair, c))
            for i, bad in enumerate(forbidden):
                if bad != pair:
                    ref.add_edge(("slot", i), ("copy", pair, c))
    matching = nx.bipartite.maximum_matching(ref, top_nodes=slots)
    if sum(1 for slot in slots if slot in matching) < len(forbidden):
        with pytest.raises(InternalInconsistencyError):
            _assign_slots(forbidden, copies)
        return
    assigned = _assign_slots(forbidden, copies)
    assert len(assigned) == len(forbidden)
    assert all(pair != bad for pair, bad in zip(assigned, forbidden))
    used = Counter(assigned)
    assert all(used[pair] <= copies[pair] for pair in used)


def zigzag_paths(n):
    """The n/2 zigzag Hamilton paths i, i+1, i-1, i+2, ... of K_n, n even."""
    paths = []
    for i in range(n // 2):
        walk = [i]
        for j in range(1, n // 2 + 1):
            walk += [(i + j) % n, (i - j) % n]
        paths.append(list(zip(walk[: n - 1], walk[1:n])))
    return paths


def test_c_stage1_stack_depth_does_not_grow_with_slots():
    # fifteen empty classes each take one spare edge, then one special slot
    # apiece.  The battery's Fraction comparison is the deepest call left:
    # under pytest on CPython 3.11 it needs 18 frames by this count (C calls
    # count toward the limit but not in inspect.stack); a matcher that
    # recurses per slot needs 25.  The battery run first warms the ABC
    # caches that comparison goes through.
    g = build(12, 1, *zigzag_paths(12), k=21)
    params = make_params(n=12, m=22, lam=1, mu=2, r=2, k=21)
    assert check_c(g, params).ok
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 20)
    try:
        full, trace = enclose_in_mu_kn(g, params, "C", seed=1)
    finally:
        sys.setrecursionlimit(limit)
    assert sum(1 for a in trace.actions if a.kind == "matching") == 15
    assert check_a_prime(full, params).ok


@pytest.mark.parametrize("mu, r, inputs", [(2, 2, 129), (3, 3, 201)])
def test_c_stage1_exhaustive_n4(mu, r, inputs):
    # every battery-C input at n=4, m=6 with five classes opens slots; r=3
    # also gives plain slots
    params = make_params(n=4, m=6, lam=1, mu=mu, r=r, k=5)
    seen = 0
    for g in enumerate_decompositions(4, 1, 5, dedup=True):
        if not check_c(g, params).ok:
            continue
        seen += 1
        full, trace = enclose_in_mu_kn(g, params, "C", seed=1)
        assert any(a.kind == "matching" for a in trace.actions)
        assert check_a_prime(full, params).ok
        assert replay_trace(g, params, trace) == full
    assert seen == inputs


def slot_load_bearing_input():
    """A battery-C input on 2K5 (m=8, mu=3, r=3, k=7) with three empty
    classes and a class of two parallel 34-edges."""
    g = build(
        5,
        2,
        [],
        [],
        [],
        [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 4)],
        [(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (2, 4)],
        [(0, 3), (0, 3), (1, 2), (1, 4), (1, 4), (2, 3)],
        [(3, 4), (3, 4)],
    )
    return g, make_params(n=5, m=8, lam=2, mu=3, r=3, k=7)


def test_c_slot_assignment_is_load_bearing(monkeypatch):
    g, params = slot_load_bearing_input()
    report = check_c(g, params)
    assert report.ok
    reasons = dict((name, reason) for name, _, reason in report.entries)
    assert reasons["C3"] == "deficiency sum 10 vs bound 10"
    assert reasons["C4"] == "pair (3, 4) sum 4 vs bound 9"
    full, trace = enclose_in_mu_kn(g, params, "C", seed=1)
    assert check_a_prime(full, params).ok
    triad = build_amalgamated_triad(full, params)
    witness = fair_detach(triad, params, seed=1)
    assert witness.stats.nodes == 17
    ok, problems = verify_detachment(witness, triad, params)
    assert ok, problems
    ok, problems = verify_enclosing(g, Enclosing(witness.result, 5), params)
    assert ok, problems

    # the coloring loop alone leaves class 6 below p = 3 edges ...
    classes, pool, _ = start_state(g, params)
    colored, _ = color_rest(classes, pool, g, params)
    assert colored.class_sizes()[6] == 2 < params.p == 3
    # ... and stage 1's size check refuses that result
    monkeypatch.setattr(extend, "_extend_to_r_via_matching", lambda *args: None)
    with pytest.raises(InternalInconsistencyError, match="class 6 has 2 < p = 3 edges"):
        enclose_in_mu_kn(g, params, "C", seed=1)


# ------------------------------------------------------------ color stepping


def color_rest(classes, pool, g, params):
    """Run `_color_rest` on copies of a stage-1 state; returns the colored
    classes as a decomposition of mu*K_n and the actions it recorded."""
    classes, pool = [cls.copy() for cls in classes], pool.copy()
    trace = ExtensionTrace()
    _color_rest(classes, pool, g, params, trace)
    return full_decomposition(classes, params), trace.actions


def test_color_rest_completes_b_decomposition():
    g = k3_singletons(4)
    params = make_params(n=3, m=5, lam=1, mu=2, r=2, k=4)
    start, pool, _ = start_state(g, params)
    result, actions = color_rest(start, pool, g, params)
    # the whole pool of 3 spare edges, padding included
    assert [a.kind for a in actions] == ["color", "color", "color"]
    classes = [cls.copy() for cls in start]
    for action in actions:
        classes[action.cls].add_edge(*action.edge)
        assert is_admissible(full_decomposition(classes, params), 2)
    assert tuple(classes) == result.classes
    result.validate_partition()


def blocked_recolor_fixture():
    """A stage-1 state on 2K4 where the spare edge (0,1) left in the pool
    cannot be colored directly with any of the five classes: one class
    holds the lone protected (0,1) copy and every other class closes a
    cycle through 0 and 1.  Only the recolor route makes progress."""
    g_protected = build(
        4,
        1,
        [(0, 1)],
        [(0, 2), (1, 2)],
        [(0, 3), (1, 3)],
        [(2, 3)],
        k=5,
    )
    classes = []
    for edges in (
        [(0, 1)],
        [(0, 2), (1, 2)],
        [(0, 3), (1, 3)],
        [(0, 2), (2, 3), (1, 3)],
        [(0, 3), (2, 3), (1, 2)],
    ):
        cls = Multigraph(4)
        for e in edges:
            cls.add_edge(*e)
        classes.append(cls)
    pool = Multigraph(4)
    pool.add_edge(0, 1)
    # the classes and the pool partition 2K4
    Decomposition(complete_multigraph(4, 2), (*classes, pool)).validate_partition()
    return g_protected, classes, pool


def test_recolor_branch_is_taken_and_preserves_protected_edges():
    g_protected, classes, pool = blocked_recolor_fixture()
    params = make_params(n=4, m=6, lam=1, mu=2, r=2, k=5)
    assert is_admissible(full_decomposition(classes, params), 2)
    result, actions = color_rest(classes, pool, g_protected, params)
    kinds = [a.kind for a in actions]
    assert "recolor" in kinds
    assert is_admissible(result, 2)
    result.validate_partition()
    # protected copies still present classwise
    for inner_cls, out_cls in zip(g_protected.classes, result.classes):
        for pair, mult in inner_cls.edges.items():
            assert out_cls.multiplicity(*pair) >= mult
    # the recolored edge is the spare (0,2) copy moving into the blocked class
    recolor = next(a for a in actions if a.kind == "recolor")
    assert recolor.edge == (0, 2)
    assert recolor.cls == 0 and recolor.from_cls == 3


def test_recolor_direct_path_when_possible():
    g = k3_singletons(3)
    params = make_params(n=3, m=4, lam=1, mu=2, r=2, k=3)
    classes, pool, trace = start_state(g, params)
    _extend_to_r_via_matching(classes, pool, params, 0, trace)
    # complete already for this instance; craft a strict state instead by
    # returning one assignment to the pool: recolor step should color it
    # directly
    target = None
    for i, cls in enumerate(classes):
        for pair in sorted(cls.edges):
            if cls.multiplicity(*pair) > g.classes[i].multiplicity(*pair):
                target = (i, pair)
                break
        if target:
            break
    i, pair = target
    classes[i].remove_edge(*pair)
    pool.add_edge(*pair)
    result, actions = color_rest(classes, pool, g, params)
    assert [a.kind for a in actions] == ["color"]
    result.validate_partition()


def test_recolor_requires_margin():
    # mu = 5 needs k = mu(m-1)/r = 7.5: pick r=2, mu=4, m=4 -> k=6 so the
    # divisibility gate passes and the margin 2(r-1) >= mu is what trips
    g = k3_singletons(6)
    params = make_params(n=3, m=4, lam=1, mu=4, r=2, k=6)
    with pytest.raises(PreconditionError, match="2\\(r-1\\)"):
        color_rest(g.classes, complete_multigraph(3, 3), g, params)


# ------------------------------------------------------------------- bryant


def test_bryant_k4_three_matchings():
    d = bryant_decompose(4, 1, [2, 2, 2])
    assert d.class_sizes() == (2, 2, 2)
    for cls in d.classes:
        assert all(cls.degree(v) == 1 for v in range(4))
    d.validate_partition()


def test_bryant_infeasible_size():
    with pytest.raises(PreconditionError):
        bryant_decompose(4, 1, [7])


def test_bryant_partial_sizes_leave_leftovers():
    d = bryant_decompose(4, 1, [1, 2])
    assert d.class_sizes() == (1, 2)
    for cls, size in zip(d.classes, (1, 2)):
        degrees = [cls.degree(v) for v in range(4)]
        assert max(degrees) - min(degrees) <= 1


@pytest.mark.parametrize("seed", range(5))
def test_bryant_random_feasible_instances(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 6)
    lam = rng.randint(1, 3)
    total = lam * n * (n - 1) // 2
    sizes = []
    left = total
    for _ in range(rng.randint(1, 4)):
        take = rng.randint(0, left)
        sizes.append(take)
        left -= take
    d = bryant_decompose(n, lam, sizes)
    assert d.class_sizes() == tuple(sizes)
    for cls in d.classes:
        degrees = [cls.degree(v) for v in range(n)]
        assert max(degrees) - min(degrees) <= 1


# ----------------------------------------------------------- proper padding


@st.composite
def matching_splits(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    mult = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=mult * n, max_value=mult * n * (n - 1) // 2 + 3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return n, mult, k, seed


@given(matching_splits())
@settings(max_examples=100, deadline=None)
def test_near_equal_matchings_partition_mult_kn(case):
    n, mult, k, seed = case
    classes = _near_equal_matchings(n, mult, k, seed)
    assert len(classes) == k
    covered = Counter()
    for cls in classes:
        assert all(cls.degree(v) <= 1 for v in range(n))
        covered.update(cls.edges)
    assert covered == complete_multigraph(n, mult).edges
    q, rem = divmod(mult * n * (n - 1) // 2, k)
    assert sorted(cls.edge_count() for cls in classes) == [q] * (k - rem) + [q + 1] * rem
    again = _near_equal_matchings(n, mult, k, seed)
    assert [cls.edges for cls in again] == [cls.edges for cls in classes]


def test_proper_padding_k8_instance():
    g = random_admissible(8, 1, 10, r=2, seed=3)
    params = make_params(n=8, m=16, lam=1, mu=2, r=3, k=10)
    classes, pool, trace = start_state(g, params)
    _proper_padding(classes, pool, params, 3, trace)
    assert not pool.edges  # the whole pool is glued on
    full = full_decomposition(classes, params)
    full.validate_partition()
    assert is_admissible(full, 3)
    assert params.p == 0
    sizes = full.class_sizes()
    inner_sizes = g.class_sizes()
    extras = sorted(s - i for s, i in zip(sizes, inner_sizes))
    assert extras == sorted([3] * 8 + [2] * 2)


# ------------------------------------------------------------ full pipelines


def test_enclose_in_mu_kn_b_path():
    g = k3_singletons(4)
    params = make_params(n=3, m=5, lam=1, mu=2, r=2, k=4)
    full, trace = enclose_in_mu_kn(g, params, "B")
    assert check_a_prime(full, params).ok
    assert replay_trace(g, params, trace) == full
    # a trace that stops early leaves a spare edge uncolored
    short = ExtensionTrace(trace.actions[:-1])
    with pytest.raises(ValueError, match="leaves 1 spare edges"):
        replay_trace(g, params, short)


def test_enclose_in_mu_kn_c_path():
    g = k3_singletons(3)
    params = make_params(n=3, m=4, lam=1, mu=2, r=2, k=3)
    full, trace = enclose_in_mu_kn(g, params, "C")
    assert check_a_prime(full, params).ok
    replayed = replay_trace(g, params, trace)
    assert replayed == full


@pytest.mark.parametrize("seed", [0, 3])
def test_enclose_in_mu_kn_t15_path(seed):
    g = random_admissible(8, 1, 10, r=2, seed=3)
    params = make_params(n=8, m=16, lam=1, mu=2, r=3, k=10)
    full, trace = enclose_in_mu_kn(g, params, "T15", seed=seed)
    assert check_a_prime(full, params).ok
    assert replay_trace(g, params, trace) == full
    again, trace_again = enclose_in_mu_kn(g, params, "T15", seed=seed)
    assert again == full and trace_again.actions == trace.actions


def _triangle_class(k):
    return build(3, 1, [(0, 1), (0, 2), (1, 2)], k=k)


@pytest.mark.parametrize(
    "g, params, mode, failing",
    [
        # a triangle class is inadmissible
        (_triangle_class(4), (3, 5, 1, 2, 2, 4), "B", "B2"),
        # seven classes of K3: four empties exceed the spare pool at p = 1
        # (B3); B1 fails first, so the report is checked for B3 below
        (k3_singletons(7), (3, 5, 1, 2, 2, 7), "B", "B3"),
        # C4 fails only at an artificial scale; gate on C2 instead
        (_triangle_class(3), (3, 4, 1, 2, 2, 3), "C", "C2"),
        # 2mu = r(mu-lambda): the T15 margin fails
        (k3_singletons(3), (3, 4, 1, 3, 3, 3), "T15", "T2"),
        # m = 2n-2 is not the B regime: battery B refuses the shape
        (k3_singletons(3), (3, 4, 1, 2, 2, 3), "B", None),
    ],
    ids=["B2-triangle", "B3-size-bound", "C2-triangle", "T15-margin", "B-wrong-regime"],
)
def test_enclose_in_mu_kn_rejects_failing_battery(g, params, mode, failing):
    params = make_params(*params)
    if failing is None:
        with pytest.raises(PreconditionError, match="m >= 2n-1"):
            enclose_in_mu_kn(g, params, mode)
        return
    with pytest.raises(ConditionsFailedError) as info:
        enclose_in_mu_kn(g, params, mode)
    assert failing in info.value.report.failing()
    assert info.value.report == check_regime(mode, g, params)
    assert str(info.value) == f"condition {info.value.report.first_failing()} fails"


def test_pipeline_determinism():
    g = k3_singletons(4)
    params = make_params(n=3, m=5, lam=1, mu=2, r=2, k=4)
    for seed in (0, 5):
        a, ta = enclose_in_mu_kn(g, params, "B", seed=seed)
        b, tb = enclose_in_mu_kn(g, params, "B", seed=seed)
        assert a == b and ta.actions == tb.actions


def test_enclose_in_mu_kn_c_path_with_coloring_loop():
    # n=4 C-regime: matching extension leaves one uncolored edge, exercising
    # the single-edge coloring loop
    g = build(4, 1, [(0, 1), (1, 2), (2, 3)], [(0, 2)], [(0, 3)], [(1, 3)], k=5)
    params = make_params(n=4, m=6, lam=1, mu=2, r=2, k=5)
    full, trace = enclose_in_mu_kn(g, params, "C")
    assert check_a_prime(full, params).ok
    assert any(a.kind == "color" for a in trace.actions)
    replayed = replay_trace(g, params, trace)
    assert replayed == full


@pytest.mark.parametrize("n", [5, 6])
def test_b_padded_enclosing_end_to_end(n):
    # m = 2n-1 gives p = r(2n-m)/2 = 1 > 0: the coloring loop pads, and the
    # result still detaches and verifies
    params = make_params(n=n, m=2 * n - 1, lam=1, mu=2, r=2, k=2 * n - 2)
    assert params.p == 1
    for seed in range(1, 11):
        g = random_admissible(n, 1, params.k, r=2, seed=seed)
        assert check_b(g, params).ok
        full, trace = enclose_in_mu_kn(g, params, "B", seed=seed)
        assert "pad" not in {a.kind for a in trace.actions}
        witness = fair_detach(build_amalgamated_triad(full, params), params, seed=seed)
        ok, problems = verify_enclosing(g, Enclosing(witness.result, n), params)
        assert ok, problems
