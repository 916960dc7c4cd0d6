from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enclosings.conditions import make_params
from enclosings.decomp import Decomposition, is_admissible, verify_enclosing
from enclosings.errors import CapExceededError, PreconditionError
from enclosings.mgraph import Multigraph, complete_multigraph
from enclosings.oracle import (
    ASSIGNMENT_CAP,
    EDGE_CAP,
    _pair_distributions,
    brute_force_admissible,
    brute_force_enclose,
    enumerate_decompositions,
    random_admissible,
)


def k3_singletons(k):
    base = complete_multigraph(3, 1)
    classes = []
    for pair in sorted(base.edges):
        g = Multigraph(3)
        g.add_edge(*pair)
        classes.append(g)
    while len(classes) < k:
        classes.append(Multigraph(3))
    return Decomposition(base, tuple(classes))


def test_brute_force_finds_witness():
    params = make_params(n=3, m=5, lam=1, mu=2, r=2, k=4)
    g = k3_singletons(4)
    result = brute_force_enclose(g, params)
    assert result.status == "found"
    ok, problems = verify_enclosing(g, result.witness, params)
    assert ok, problems


def test_brute_force_exhausts_to_none():
    # k=3 breaks the divisibility count: full exhaustion must say none
    params = make_params(n=3, m=5, lam=1, mu=2, r=2, k=3)
    g = k3_singletons(3)
    result = brute_force_enclose(g, params)
    assert result.status == "none"
    assert result.stats.nodes > 0


def test_brute_force_identity_instance():
    base = complete_multigraph(5, 1)

    def cyc(order):
        g = Multigraph(5)
        for i in range(5):
            g.add_edge(order[i], order[(i + 1) % 5])
        return g

    inner = Decomposition(base, (cyc([0, 1, 2, 3, 4]), cyc([0, 2, 4, 1, 3])))
    params = make_params(n=5, m=5, lam=1, mu=1, r=2, k=2)
    result = brute_force_enclose(inner, params)
    assert result.status == "found"
    assert result.witness.outer == inner


def test_brute_force_budget_is_a_distinct_outcome():
    params = make_params(n=3, m=5, lam=1, mu=2, r=2, k=4)
    result = brute_force_enclose(k3_singletons(4), params, budget=1)
    assert result.status == "budget"
    assert result.witness is None


def test_brute_force_cap():
    params = make_params(n=4, m=10, lam=1, mu=2, r=2, k=9)
    g = Decomposition(
        complete_multigraph(4, 1),
        tuple([complete_multigraph(4, 1)] + [Multigraph(4)] * 8),
    )
    with pytest.raises(CapExceededError):
        brute_force_enclose(g, params)


def test_naive_admissible_basics():
    triangle = Decomposition(
        complete_multigraph(3, 1),
        (complete_multigraph(3, 1),),
    )
    assert not brute_force_admissible(triangle, 2)
    matching = Multigraph(4)
    matching.add_edge(0, 1)
    matching.add_edge(2, 3)
    d = Decomposition(matching.copy(), (matching,))
    assert brute_force_admissible(d, 2)


def test_oracle_agreement_small_sweep():
    for k in (1, 2, 3):
        for r in (2, 3):
            for d in enumerate_decompositions(3, 1, k):
                assert is_admissible(d, r) == brute_force_admissible(d, r)


def test_oracle_agreement_four_classes():
    # k = 4 on both K4 and 2K3, deduplicated to keep the sweep quick
    for n, lam in ((4, 1), (3, 2)):
        for r in (2, 3):
            for d in enumerate_decompositions(n, lam, 4, dedup=True):
                assert is_admissible(d, r) == brute_force_admissible(d, r)


def test_enumeration_raw_counts():
    assert sum(1 for _ in enumerate_decompositions(3, 1, 2)) == 8
    assert sum(1 for _ in enumerate_decompositions(3, 1, 3)) == 27


def test_enumeration_dedup_golden_count():
    # partitions of the 3 labeled edges of K3 into at most 3 unordered
    # classes: frozen regression value
    assert sum(1 for _ in enumerate_decompositions(3, 1, 3, dedup=True)) == 5


def test_enumeration_filter():
    admissible_only = [
        d for d in enumerate_decompositions(3, 1, 3, dedup=True) if is_admissible(d, 2)
    ]
    assert all(is_admissible(d, 2) for d in admissible_only)
    # the one-class triangle is excluded
    assert len(admissible_only) == 4


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        list(enumerate_decompositions(6, 1, 2))


def test_enumeration_assignment_cap():
    # 10 edges are under EDGE_CAP, but 13 classes give 13**10 assignments;
    # refused on the call, before any decomposition is asked for
    with pytest.raises(CapExceededError, match="assignments"):
        enumerate_decompositions(5, 1, 13)
    assert 3**10 <= ASSIGNMENT_CAP
    assert next(enumerate_decompositions(5, 1, 3)).k == 3


def recursive_pair_distributions(total, lower, upper):
    """The recursive form, one frame per class: the reference order for
    `_pair_distributions`."""
    k = len(lower)
    vec = [0] * k

    def rec(i, left):
        if i == k:
            if left == 0:
                yield list(vec)
            return
        low = max(lower[i], left - sum(upper[i + 1 :]))
        high = min(upper[i], left - sum(lower[i + 1 :]))
        for x in range(low, high + 1):
            vec[i] = x
            yield from rec(i + 1, left - x)
        vec[i] = 0

    yield from rec(0, total)


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(-1, 4)), max_size=5),
    st.integers(-1, 10),
)
def test_pair_distributions_match_the_recursion(bounds, total):
    lower = [lo for lo, _ in bounds]
    upper = [hi for _, hi in bounds]
    assert list(_pair_distributions(total, lower, upper)) == list(
        recursive_pair_distributions(total, lower, upper)
    )


def test_enumeration_is_deterministic():
    first = [d.class_sizes() for d in enumerate_decompositions(3, 1, 3)]
    second = [d.class_sizes() for d in enumerate_decompositions(3, 1, 3)]
    assert first == second


def test_random_admissible_postcondition_and_determinism():
    a = random_admissible(5, 1, 4, r=2, seed=11)
    b = random_admissible(5, 1, 4, r=2, seed=11)
    c = random_admissible(5, 1, 4, r=2, seed=12)
    assert is_admissible(a, 2)
    assert a == b
    assert is_admissible(c, 2)


def test_random_admissible_refuses_shapes_counting_rules_out():
    # n=8: lambda*(n-1) = 7 > k*r = 6; n=7: 21 edges > k*floor((rn-2)/2) = 18
    for n in (8, 7):
        with pytest.raises(PreconditionError):
            random_admissible(n, 1, 3, r=2, seed=1)


def test_random_admissible_refuses_exactly_the_infeasible_shapes():
    # a shape it does not refuse it solves, and a refused one has no
    # admissible decomposition at all
    refused = 0
    for n in range(2, 6):
        for lam in (1, 2):
            if lam * n * (n - 1) // 2 > EDGE_CAP:
                continue
            for k in range(1, 5):
                for r in (2, 3):
                    try:
                        d = random_admissible(n, lam, k, r, seed=1)
                    except PreconditionError:
                        refused += 1
                        assert not any(
                            brute_force_admissible(e, r)
                            for e in enumerate_decompositions(n, lam, k, dedup=True)
                        )
                    else:
                        assert brute_force_admissible(d, r)
    assert refused == 15


def test_random_admissible_one_edge_per_class():
    d = random_admissible(3, 1, 3, r=2, seed=5)
    assert is_admissible(d, 2)
    d.validate_partition()
