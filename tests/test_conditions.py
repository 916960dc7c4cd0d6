from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclosings.conditions import (
    check_a_prime,
    check_b,
    check_c,
    check_regime,
    check_theorem15,
    make_params,
    pick_regime,
    theorem15_constant,
)
from enclosings.decomp import Decomposition, s_count, s_uv_count
from enclosings.errors import PreconditionError
from enclosings.mgraph import Multigraph, complete_multigraph


def build(base, *edge_lists, k=None):
    classes = []
    for edges in edge_lists:
        g = Multigraph(base.vertex_count)
        for item in edges:
            if len(item) == 3:
                g.add_edge(item[0], item[1], item[2])
            else:
                g.add_edge(*item)
        classes.append(g)
    if k is not None:
        while len(classes) < k:
            classes.append(Multigraph(base.vertex_count))
    d = Decomposition(base, tuple(classes))
    d.validate_partition()
    return d


def test_make_params_p_values():
    assert make_params(3, 4, 1, 2, 2, 3).p == 2
    assert make_params(3, 5, 1, 2, 2, 4).p == 1
    assert make_params(5, 10, 1, 3, 3, 9).p == 0


def test_make_params_rejects_bad_standing_assumptions():
    with pytest.raises(PreconditionError):
        make_params(3, 2, 1, 1, 2, 3)  # m < n
    with pytest.raises(PreconditionError):
        make_params(3, 4, 2, 1, 2, 3)  # mu < lambda
    with pytest.raises(PreconditionError):
        make_params(3, 4, 1, 2, 1, 3)  # r < 2


def test_make_params_fractional_p():
    params = make_params(3, 5, 1, 2, 3, 4)  # r*m odd, B1 fails anyway
    assert params.p == Fraction(3, 2)
    assert params.p.denominator == 2


def two_k3_paths():
    base = complete_multigraph(3, 2)
    return build(
        base,
        [(0, 1), (1, 2)],
        [(0, 1), (0, 2)],
        [(0, 2), (1, 2)],
    )


def test_check_a_prime_paths_all_true():
    params = make_params(n=3, m=4, lam=2, mu=2, r=2, k=3)
    report = check_a_prime(two_k3_paths(), params)
    assert report.ok, report.entries
    assert params.p == 2


def test_check_a_prime_parallel_class_fails_admissibility():
    base = complete_multigraph(3, 2)
    d = build(
        base,
        [(0, 1, 2)],
        [(0, 2), (1, 2)],
        [(0, 2), (1, 2)],
    )
    params = make_params(n=3, m=4, lam=2, mu=2, r=2, k=3)
    report = check_a_prime(d, params)
    assert not report.passed("A2")
    assert report.first_failing() == "A2"


def test_check_a_prime_vacuous_size_bound():
    # m = 2n makes p = 0
    base = complete_multigraph(3, 2)
    d = build(base, [(0, 1, 2)], [(0, 2), (1, 2)], [(0, 2), (1, 2)], k=5)
    params = make_params(n=3, m=6, lam=2, mu=2, r=2, k=5)
    report = check_a_prime(d, params)
    assert report.passed("A3")


def k3_singletons(k):
    base = complete_multigraph(3, 1)
    return build(base, [(0, 1)], [(0, 2)], [(1, 2)], k=k)


def test_check_b_example_all_true():
    params = make_params(n=3, m=5, lam=1, mu=2, r=2, k=4)
    report = check_b(k3_singletons(4), params)
    assert report.ok, report.entries
    assert params.p == 1


def test_check_b_divisibility_failure():
    params = make_params(n=3, m=5, lam=1, mu=2, r=2, k=3)
    report = check_b(k3_singletons(3), params)
    assert not report.passed("B1")
    assert report.passed("B2")
    assert report.passed("B3")


def test_check_b_vacuous_when_p_nonpositive():
    params = make_params(n=3, m=6, lam=1, mu=2, r=2, k=5)
    report = check_b(k3_singletons(5), params)
    assert report.passed("B3")


def test_check_b_regime_check():
    params = make_params(n=3, m=4, lam=1, mu=2, r=2, k=3)
    with pytest.raises(PreconditionError):
        check_b(k3_singletons(3), params)


def test_check_c_singletons_all_true():
    params = make_params(n=3, m=4, lam=1, mu=2, r=2, k=3)
    report = check_c(k3_singletons(3), params)
    assert report.ok, report.entries


def test_check_c_triangle_fails_deficiency():
    base = complete_multigraph(3, 1)
    d = build(base, [(0, 1), (0, 2), (1, 2)], k=3)
    params = make_params(n=3, m=4, lam=1, mu=2, r=2, k=3)
    report = check_c(d, params)
    # sizes (3,0,0): sum (2-i)|S_i| = 2*2 + 0 = 4 > 3
    assert not report.passed("C3")
    assert not report.passed("C2")  # triangle also inadmissible


def test_check_c_pair_bound():
    # K4 with m = 6: put many all-on-one-pair classes on (0,1).
    # sizes: one class per single copy is impossible at lambda=1; instead
    # verify C4 accounting directly against a hand computation.
    base = complete_multigraph(4, 1)
    d = build(base, [(0, 1)], [(0, 2), (1, 2)], [(0, 3), (1, 3)], [(2, 3)], k=5)
    params = make_params(n=4, m=6, lam=1, mu=2, r=2, k=5)
    report = check_c(d, params)
    # |S_0| = 1; pair (0,1): + |S_1(0,1)| = 1 -> 2 <= (mu-lam)(6-1) = 5
    assert report.passed("C4")
    assert report.ok


def test_check_c_regime_check():
    params = make_params(n=3, m=5, lam=1, mu=2, r=2, k=4)
    with pytest.raises(PreconditionError):
        check_c(k3_singletons(4), params)


def test_pick_regime_boundaries():
    n = 8
    by_size = {n: None, n + 1: "T15", 2 * n - 3: "T15", 2 * n - 2: "C",
               2 * n - 1: "B", 2 * n: "B"}
    for m, regime in by_size.items():
        for r in (2, 3):
            if regime is None:
                with pytest.raises(PreconditionError, match="m must exceed n"):
                    pick_regime(n, m, r)
            elif regime == "T15" and r < 3:
                with pytest.raises(PreconditionError, match="requires r >= 3"):
                    pick_regime(n, m, r)
            else:
                assert pick_regime(n, m, r) == regime


def test_check_regime_runs_the_named_battery():
    b_params = make_params(n=3, m=5, lam=1, mu=2, r=2, k=4)
    assert check_regime("B", k3_singletons(4), b_params) == check_b(k3_singletons(4), b_params)
    c_params = make_params(n=3, m=4, lam=1, mu=2, r=2, k=3)
    assert check_regime("C", k3_singletons(3), c_params).battery == "C"
    with pytest.raises(ValueError, match="unknown regime"):
        check_regime("B-path", k3_singletons(4), b_params)


def test_theorem15_constant_values():
    assert theorem15_constant(2, 1, 3) == Fraction(1, 4)
    assert theorem15_constant(3, 3, 3) == 0
    assert theorem15_constant(3, 2, 5) == Fraction(1, 6)


def test_theorem15_constant_precondition():
    with pytest.raises(PreconditionError):
        theorem15_constant(3, 1, 3)  # 2*3 = 6 <= 3*(3-1) = 6


def k8_matchings():
    # K8 as 10 classes: 7 perfect-matching-like classes won't fit exactly,
    # so use a simple valid 2-admissible layout: distribute the 28 edges
    # round-robin; each class gets <= 3 edges and stays a linear forest.
    base = complete_multigraph(8, 1)
    classes = [Multigraph(8) for _ in range(10)]
    # round-robin 1-factorization of K8 gives 7 matchings of size 4;
    # splitting them across 10 classes keeps every class a matching
    pairs = sorted(base.edges)
    factors = {}
    for u, v in pairs:
        factors.setdefault(_factor_index(u, v), []).append((u, v))
    flat = [e for i in sorted(factors) for e in factors[i]]
    for j, (u, v) in enumerate(flat):
        classes[j % 10].add_edge(u, v)
    d = Decomposition(base, tuple(classes))
    d.validate_partition()
    return d


def _factor_index(u, v):
    # classic round-robin: fix vertex 7, rotate 0..6
    if v == 7:
        return (2 * u) % 7
    return (u + v) % 7


def test_check_theorem15_k8_instance():
    d = k8_matchings()
    params = make_params(n=8, m=16, lam=1, mu=2, r=3, k=10)
    report = check_theorem15(d, params)
    assert report.passed("T1")
    assert report.passed("T2")
    assert report.passed("T4"), report.entries
    assert report.passed("T5")


def test_check_theorem15_margin_failure():
    base = complete_multigraph(3, 1)
    d = build(base, [(0, 1)], [(0, 2)], [(1, 2)], k=5)
    params = make_params(n=3, m=6, lam=1, mu=3, r=3, k=5)
    report = check_theorem15(d, params)
    assert not report.passed("T2")


def test_check_theorem15_requires_r_at_least_3():
    params = make_params(n=3, m=5, lam=1, mu=2, r=2, k=4)
    with pytest.raises(PreconditionError):
        check_theorem15(k3_singletons(4), params)


def test_r_minus_one_admissible_implies_r_admissible():
    from enclosings.decomp import is_admissible

    d = k8_matchings()
    assert is_admissible(d, 2)
    assert is_admissible(d, 3)


def _c_battery_transcription_r2(d, n, lam, mu, m, k):
    """The r = 2 specialization of the C battery, written from the raw
    quantities (class sizes, pair multiplicities) with no shared code, as an
    independent cross-check of check_c."""
    from fractions import Fraction

    c1 = (2 * k == mu * (m - 1)) and (2 * m) % 2 == 0
    c2 = True
    for cls in d.classes:
        degrees = [cls.degree(v) for v in range(n)]
        if any(deg > 2 for deg in degrees):
            c2 = False
        for comp in cls.components():
            lows = sum(1 for v in comp if degrees[v] <= 1)
            if not any(degrees[v] == 0 for v in comp) and lows < 2:
                c2 = False
        for (u, v), mult in cls.edges.items():
            if mult != 1:
                continue
            reduced = cls.copy()
            reduced.remove_edge(u, v)
            if len(reduced.components()) == len(cls.components()):
                continue
            for side in reduced.components():
                if (u in side or v in side) and not any(
                    degrees[w] <= 1 for w in side
                ):
                    c2 = False
    sizes = [cls.edge_count() for cls in d.classes]
    c3 = (
        2 * sizes.count(0) + sizes.count(1)
        <= Fraction((mu - lam) * n * (n - 1), 2)
    )
    c4 = True
    for u in range(n):
        for v in range(u + 1, n):
            singles_on_pair = sum(
                1
                for cls in d.classes
                if cls.edge_count() == 1 and cls.multiplicity(u, v) == 1
            )
            if sizes.count(0) + singles_on_pair > (mu - lam) * (
                Fraction(n * (n - 1), 2) - 1
            ):
                c4 = False
    return [c1, c2, c3, c4]


def test_check_c_r2_matches_independent_transcription():
    from enclosings.oracle import enumerate_decompositions

    for k in (2, 3, 4):
        params = make_params(n=3, m=4, lam=1, mu=2, r=2, k=k)
        for d in enumerate_decompositions(3, 1, k, dedup=True):
            report = check_c(d, params)
            flags = [report.passed(name) for name in ("C1", "C2", "C3", "C4")]
            assert flags == _c_battery_transcription_r2(d, 3, 1, 2, 4, k)


@st.composite
def c_shaped_partitions(draw):
    """A random partition of lam*K_n into k classes, with the parameters of
    a C-regime target m = 2n-2."""
    n = draw(st.integers(2, 6))
    lam = draw(st.integers(1, 2))
    k = draw(st.integers(1, 8))
    r = draw(st.integers(2, 4))
    mu = draw(st.integers(lam, lam + 3))
    base = complete_multigraph(n, lam)
    classes = [Multigraph(n) for _ in range(k)]
    for (u, v), mult in sorted(base.edges.items()):
        for _ in range(mult):
            classes[draw(st.integers(0, k - 1))].add_edge(u, v)
    params = make_params(n=n, m=2 * n - 2, lam=lam, mu=mu, r=r, k=k)
    return Decomposition(base, tuple(classes)), params


@settings(max_examples=300, deadline=None)
@given(c_shaped_partitions())
def test_check_c_pair_bound_matches_s_uv_count_formula(case):
    d, params = case
    n, r = params.n, params.r
    # the definition: every pair's value from s_uv_count, first largest wins
    s0 = s_count(d, 0)
    worst_pair, worst = None, -1
    for u in range(n):
        for v in range(u + 1, n):
            value = s0 + sum(s_uv_count(d, i, u, v) for i in range(1, r))
            if value > worst:
                worst, worst_pair = value, (u, v)
    rhs = (params.mu - params.lam) * (Fraction(n * (n - 1), 2) - 1)
    expected = ("C4", worst <= rhs, f"pair {worst_pair} sum {worst} vs bound {rhs}")
    assert check_c(d, params).entries[3] == expected
