"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured time.  Run with `pytest tests/test_acceptance.py -v -s`."""

from __future__ import annotations

import time

import pytest

from enclosings.conditions import (
    check_a_prime,
    check_b,
    check_c,
    check_theorem15,
    make_params,
)
from enclosings.decomp import (
    Decomposition,
    Enclosing,
    is_admissible,
    restrict,
    verify_enclosing,
)
from enclosings.detach import (
    build_amalgamated_triad,
    fair_detach,
    is_good_triad,
    verify_detachment,
)
from enclosings.errors import PreconditionError
from enclosings.extend import enclose_in_mu_kn, spare_pool
from enclosings.mgraph import Multigraph, complete_multigraph
from enclosings.oracle import (
    brute_force_admissible,
    brute_force_enclose,
    bryant_decompose,
    enumerate_decompositions,
    random_admissible,
)


def _report(name: str, started: float, detail: str = "") -> float:
    elapsed = time.monotonic() - started
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.1f}s{suffix}")
    return elapsed


def _assert_factorization(d, m, mu, r):
    """d is a 2-edge-connected r-factorization of mu*K_m, checked from the
    definition on the classes' edge multisets alone, without the library's
    own checks: every pair of the m vertices has total multiplicity mu,
    there are no loops, every class is r-regular, and every class stays
    connected when any one single-copy pair is deleted."""
    total = {}
    for cls in d.classes:
        degree = [0] * m
        for (u, v), x in cls.edges.items():
            assert u != v, f"loop at {u}"
            total[u, v] = total.get((u, v), 0) + x
            degree[u] += x
            degree[v] += x
        assert degree == [r] * m
        for cut in [None] + [pair for pair, x in cls.edges.items() if x == 1]:
            reached, stack = {0}, [0]
            while stack:
                u = stack.pop()
                for a, b in cls.edges:
                    if (a, b) != cut and u in (a, b):
                        w = a + b - u
                        if w not in reached:
                            reached.add(w)
                            stack.append(w)
            assert len(reached) == m, f"class disconnected without {cut}"
    assert total == {(u, v): mu for u in range(m) for v in range(u + 1, m)}


def _pipeline_encloses(g, params, mode, seed=0):
    """Constructive route end to end; False when the condition gate refuses."""
    try:
        full, _ = enclose_in_mu_kn(g, params, mode, seed=seed)
    except PreconditionError:
        return False, None
    triad = build_amalgamated_triad(full, params)
    witness = fair_detach(triad, params, seed=seed)
    ok, problems = verify_detachment(witness, triad, params)
    assert ok, problems
    _assert_factorization(witness.result, params.m, params.mu, params.r)
    return True, Enclosing(witness.result, params.n)


def test_criterion_1_admissibility_oracle_equivalence():
    started = time.monotonic()
    comparisons = 0
    for n, lam in ((4, 1), (3, 2)):
        for k in (1, 2, 3):
            for r in (2, 3):
                for d in enumerate_decompositions(n, lam, k):
                    comparisons += 1
                    assert is_admissible(d, r) == brute_force_admissible(d, r)
    elapsed = _report("1 admissibility-oracle-equivalence", started,
                      f"{comparisons} comparisons")
    assert elapsed < 10


def test_criterion_2_theorem_12_iff_desk_scale():
    started = time.monotonic()
    params = make_params(n=3, m=5, lam=1, mu=2, r=2, k=4)
    checked = witnesses = 0
    for g in enumerate_decompositions(3, 1, 4, dedup=True):
        checked += 1
        conditions_ok = check_b(g, params).ok
        oracle = brute_force_enclose(g, params)
        assert oracle.status in ("found", "none")
        assert (oracle.status == "found") == conditions_ok
        constructed, enclosing = _pipeline_encloses(g, params, "B")
        assert constructed == conditions_ok
        if oracle.status == "found":
            witnesses += 1
            ok, problems = verify_enclosing(g, oracle.witness, params)
            assert ok, problems
            ok, problems = verify_enclosing(g, enclosing, params)
            assert ok, problems
            # necessity direction: the restriction of any verified
            # enclosing is admissible and passes the A battery
            inner_restriction = restrict(enclosing, 3)
            assert is_admissible(inner_restriction, 2)
            assert check_a_prime(inner_restriction, params).ok
    elapsed = _report("2 theorem-1.2-iff", started,
                      f"{checked} instances, {witnesses} enclosable")
    assert elapsed < 300


def test_criterion_3_theorem_13_iff_desk_scale():
    started = time.monotonic()
    params = make_params(n=3, m=4, lam=1, mu=2, r=2, k=3)
    checked = 0
    for g in enumerate_decompositions(3, 1, 3, dedup=True):
        checked += 1
        conditions_ok = check_c(g, params).ok
        oracle = brute_force_enclose(g, params)
        assert oracle.status in ("found", "none")
        assert (oracle.status == "found") == conditions_ok
        constructed, enclosing = _pipeline_encloses(g, params, "C")
        assert constructed == conditions_ok
        if oracle.status == "found":
            ok, problems = verify_enclosing(g, oracle.witness, params)
            assert ok, problems
            ok, problems = verify_enclosing(g, enclosing, params)
            assert ok, problems

    # one r = 3 construction: each K3 edge its own class, mu = 3
    base = complete_multigraph(3, 1)
    singles = []
    for pair in sorted(base.edges):
        cls = Multigraph(3)
        cls.add_edge(*pair)
        singles.append(cls)
    g3 = Decomposition(base, tuple(singles))
    params3 = make_params(n=3, m=4, lam=1, mu=3, r=3, k=3)
    constructed, enclosing = _pipeline_encloses(g3, params3, "C")
    assert constructed
    ok, problems = verify_enclosing(g3, enclosing, params3)
    assert ok, problems
    elapsed = _report("3 theorem-1.3-iff", started, f"{checked} instances + r=3 build")
    assert elapsed < 120


def test_criterion_4_theorem_21_round_trip():
    started = time.monotonic()
    params = make_params(n=3, m=4, lam=2, mu=2, r=2, k=3)
    total = passing = 0
    for a in enumerate_decompositions(3, 2, 3):
        total += 1
        if not check_a_prime(a, params).ok:
            continue
        passing += 1
        triad = build_amalgamated_triad(a, params)
        assert is_good_triad(triad, params)
        # the four derived facts, re-checked here independently
        x0 = 3
        p = int(params.p)
        for i, cls in enumerate(triad.classes):
            assert cls.multiplicity(x0, x0) == a.classes[i].edge_count() - p
            for j in range(3):
                assert cls.degree(j) == params.r
            assert cls.degree(x0) == params.r * (params.m - params.n)
        for j in range(3):
            assert triad.base.multiplicity(x0, j) == params.mu * (params.m - params.n)
        assert triad.base.multiplicity(x0, x0) == (
            params.mu * (params.m - params.n) * (params.m - params.n - 1) // 2
        )
        witness = fair_detach(triad, params)
        ok, problems = verify_detachment(witness, triad, params)
        assert ok, problems
        enclosing = Enclosing(witness.result, 3)
        ok, problems = verify_enclosing(a, enclosing, params)
        assert ok, problems
        _assert_factorization(witness.result, params.m, params.mu, params.r)
        assert restrict(enclosing, 3) == a  # equality, not containment
    assert passing > 0
    elapsed = _report("4 theorem-2.1-round-trip", started,
                      f"{passing}/{total} battery-passing")
    assert elapsed < 60


def _size_vectors(bound: int, max_classes: int):
    for t in range(1, max_classes + 1):
        def rec(prefix, left, slots):
            if slots == 0:
                yield list(prefix)
                return
            for x in range(left + 1):
                yield from rec(prefix + [x], left - x, slots - 1)
        yield from rec([], bound, t)


def test_criterion_5_almost_regular_packing_iff():
    started = time.monotonic()
    built = 0
    for n in range(1, 6):
        for lam in (1, 2):
            bound = lam * n * (n - 1) // 2
            for sizes in _size_vectors(bound, 4):
                d = bryant_decompose(n, lam, sizes)
                built += 1
                assert d.class_sizes() == tuple(sizes)
                for cls in d.classes:
                    degrees = [cls.degree(v) for v in range(n)]
                    if degrees:
                        assert max(degrees) - min(degrees) <= 1
            # exceeding the bound must raise, in several shapes
            for bad in ([bound + 1], [bound, 1], [1] * 3 + [bound - 2]):
                if sum(bad) <= bound:
                    continue
                with pytest.raises(PreconditionError):
                    bryant_decompose(n, lam, bad)
    elapsed = _report("5 almost-regular-packing-iff", started, f"{built} size vectors")
    assert elapsed < 120


def test_criterion_6_theorem_15_pipeline_100_seeds():
    started = time.monotonic()
    params = make_params(n=8, m=16, lam=1, mu=2, r=3, k=10)
    successes = 0
    for seed in range(1, 101):
        g = random_admissible(8, 1, 10, r=2, seed=seed)
        report = check_theorem15(g, params)
        assert report.ok, report.entries
        full, _ = enclose_in_mu_kn(g, params, "T15", seed=seed)
        # proper coloring of the added edges: degrees grew by at most one
        for own, merged in zip(g.classes, full.classes):
            for v in range(8):
                assert merged.degree(v) - own.degree(v) <= 1
        assert check_a_prime(full, params).ok
        triad = build_amalgamated_triad(full, params)
        witness = fair_detach(triad, params, seed=seed)
        ok, problems = verify_detachment(witness, triad, params)
        assert ok, problems
        ok, problems = verify_enclosing(g, Enclosing(witness.result, 8), params)
        assert ok, problems
        successes += 1
    assert successes == 100
    elapsed = _report("6 theorem-1.5-pipeline", started, "100/100 seeds")
    assert elapsed < 1800


def _assert_superdecomposition(protected: Decomposition, state) -> None:
    for inner_cls, cls in zip(protected.classes, state.classes):
        for pair, mult in inner_cls.edges.items():
            assert cls.multiplicity(*pair) >= mult, "protected edge lost"


def _replay_checked(g, params, mode, seed) -> int:
    """Run stage 1, then replay its trace from g one action at a time, with
    the moves of `replay_trace`, checking admissibility and the protected
    edges after every action; returns the number of actions."""
    full, trace = enclose_in_mu_kn(g, params, mode, seed=seed)
    classes, pool = [cls.copy() for cls in g.classes], spare_pool(params)
    state = Decomposition(full.base, tuple(classes))
    for action in trace.actions:
        u, v = action.edge
        if action.kind == "recolor":
            classes[action.from_cls].remove_edge(u, v)
        else:
            assert action.kind in ("pad", "color", "matching")
            pool.remove_edge(u, v)
        classes[action.cls].add_edge(u, v)
        assert is_admissible(state, params.r)
        _assert_superdecomposition(g, state)
    assert not pool.edges
    assert state == full
    return len(trace.actions)


def test_criterion_7_step_invariance_suite():
    started = time.monotonic()
    actions_checked = 0
    runs = 0

    b_regimes = [
        (3, 5, 1, 2, 2, 4),
        (4, 7, 1, 2, 2, 6),
        (5, 9, 1, 2, 2, 8),
    ]
    c_regimes = [
        (4, 6, 1, 2, 2, 5),
        (5, 8, 1, 2, 2, 7),
    ]
    seed = 0
    while runs < 1000:
        for n, m, lam, mu, r, k in b_regimes:
            seed += 1
            params = make_params(n=n, m=m, lam=lam, mu=mu, r=r, k=k)
            g = random_admissible(n, lam, k, r, seed=seed)
            if not check_b(g, params).ok:
                continue
            actions_checked += _replay_checked(g, params, "B", seed)
            runs += 1
        for n, m, lam, mu, r, k in c_regimes:
            seed += 1
            params = make_params(n=n, m=m, lam=lam, mu=mu, r=r, k=k)
            g = random_admissible(n, lam, k, r, seed=seed)
            if not check_c(g, params).ok:
                continue
            actions_checked += _replay_checked(g, params, "C", seed)
            runs += 1

    # T15 in criterion 6's shape: its padding takes from the same pool
    t15_params = make_params(n=8, m=16, lam=1, mu=2, r=3, k=10)
    t15_runs = 0
    for seed in range(1, 41):
        g = random_admissible(8, 1, 10, r=2, seed=seed)
        assert check_theorem15(g, t15_params).ok
        actions_checked += _replay_checked(g, t15_params, "T15", seed)
        t15_runs += 1
    elapsed = _report("7 step-invariance", started,
                      f"{runs} B/C runs + {t15_runs} T15 runs, "
                      f"{actions_checked} stepped actions, 0 violations")


def _single_violation_instances(limit: int):
    """Deterministic stream of (decomposition, params, battery) where exactly
    one condition of the applicable battery fails."""
    out = []

    def collect(n, lam, m, mu, r, k, checker):
        params = make_params(n=n, m=m, lam=lam, mu=mu, r=r, k=k)
        for d in enumerate_decompositions(n, lam, k, dedup=True):
            report = checker(d, params)
            if len(report.failing()) == 1:
                out.append((d, params, report.first_failing()))
                if len(out) >= limit:
                    return True
        return False

    # divisibility-only violations in the B regime
    if collect(3, 1, 5, 2, 2, 3, check_b):
        return out
    if collect(3, 1, 5, 2, 2, 5, check_b):
        return out
    # admissibility-only violation in the B regime (triangle class)
    if collect(3, 1, 5, 2, 2, 4, check_b):
        return out
    # divisibility-only violations in the C regime
    if collect(3, 1, 4, 2, 2, 2, check_c):
        return out
    # admissibility-only violations in the C regime at n = 4
    if collect(4, 1, 6, 2, 2, 5, check_c):
        return out
    # 2K3-based admissibility-only violations (doubled-pair classes)
    collect(3, 2, 5, 3, 2, 6, check_b)
    return out


def test_criterion_8_necessity_regression():
    started = time.monotonic()
    instances = _single_violation_instances(50)
    assert len(instances) == 50
    by_condition: dict[str, int] = {}
    for d, params, condition in instances:
        result = brute_force_enclose(d, params)
        assert result.status == "none", (condition, d.class_sizes())
        by_condition[condition] = by_condition.get(condition, 0) + 1
    elapsed = _report("8 necessity-regression", started,
                      f"50 instances, conditions {by_condition}")
    assert elapsed < 600
