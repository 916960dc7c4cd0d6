"""Parameter arithmetic and the necessary/sufficient condition batteries.

Batteries:
  A (on a decomposition of mu*K_n): divisibility, admissibility, minimum
    class size p -- the exact conditions under which a decomposition of
    mu*K_n extends to a 2-edge-connected r-factorization of mu*K_m.
  B (m >= 2n-1) and C (m = 2n-2): the iff conditions for enclosing a
    decomposition of lambda*K_n.
  T15 (r >= 3, m >= (2-C)n+1): the sufficient hypothesis set built around
    the constant C(mu, lambda, r).

`pick_regime` decides by target size which of B, C and T15 applies, and
`check_regime` runs that regime's battery; both the CLI and the stage-1
driver dispatch through them.

The deficiency parameter p = r(2n-m)/2 is kept as an exact Fraction; it is
an integer exactly when r*m is even.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decomp import Decomposition, is_admissible, s_count
from .errors import PreconditionError
from .mgraph import complete_multigraph


@dataclass(frozen=True)
class EnclosureParams:
    n: int
    m: int
    lam: int
    mu: int
    r: int
    k: int
    p: Fraction


def make_params(n: int, m: int, lam: int, mu: int, r: int, k: int) -> EnclosureParams:
    if min(n, m, lam, mu, r, k) < 1:
        raise PreconditionError("all parameters must be positive integers")
    if mu < lam:
        raise PreconditionError(f"mu={mu} must be >= lambda={lam}")
    if m < n:
        raise PreconditionError(f"m={m} must be >= n={n}")
    if r < 2:
        raise PreconditionError(f"r={r} must be >= 2")
    return EnclosureParams(n=n, m=m, lam=lam, mu=mu, r=r, k=k, p=Fraction(r * (2 * n - m), 2))


@dataclass(frozen=True)
class ConditionReport:
    battery: str
    entries: tuple[tuple[str, bool, str], ...]  # (name, passed, reason)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.entries)

    def passed(self, name: str) -> bool:
        for entry_name, ok, _ in self.entries:
            if entry_name == name:
                return ok
        raise KeyError(name)

    def failing(self) -> list[str]:
        return [name for name, ok, _ in self.entries if not ok]

    def first_failing(self) -> str | None:
        bad = self.failing()
        return bad[0] if bad else None

    def as_dict(self) -> dict:
        return {
            "battery": self.battery,
            "ok": self.ok,
            "conditions": [
                {"name": name, "passed": ok, "reason": reason}
                for name, ok, reason in self.entries
            ],
        }


def _divisibility_entry(params: EnclosureParams, name: str) -> tuple[str, bool, str]:
    lhs, rhs = params.r * params.k, params.mu * (params.m - 1)
    even = (params.r * params.m) % 2 == 0
    ok = lhs == rhs and even
    reason = f"r*k = {lhs}, mu*(m-1) = {rhs}, r*m {'even' if even else 'odd'}"
    return (name, ok, reason)


def _require_shape(
    d: Decomposition, params: EnclosureParams, mult: int, name: str
) -> None:
    """d has params.k classes on the base mult*K_n, printed as `name`."""
    if d.k != params.k:
        raise PreconditionError(
            f"decomposition has {d.k} classes but params.k = {params.k}"
        )
    if d.base != complete_multigraph(params.n, mult):
        raise PreconditionError(f"base is not the complete multigraph {name}")


def _deficiency_entry(
    g: Decomposition, params: EnclosureParams, name: str
) -> tuple[str, bool, str]:
    """sum_{i=0}^{p} (p - i) * |S_i(g)|  <=  (mu - lambda) * n(n-1)/2,
    vacuous when p <= 0."""
    p = params.p
    # the numerator has p's sign; an int comparison skips Fraction's
    # numbers.Rational checks
    if p.numerator <= 0:
        return (name, True, f"p = {p} <= 0, deficiency bound vacuous")
    # a class of s <= p edges adds p - s: one pass over the class sizes, not
    # over 0..p, which a huge r makes huge, and with ints until the last step
    small = [s for s in g.class_sizes() if s <= p.numerator // p.denominator]
    lhs = len(small) * p - sum(small)
    rhs = Fraction((params.mu - params.lam) * params.n * (params.n - 1), 2)
    return (name, lhs <= rhs, f"deficiency sum {lhs} vs bound {rhs}")


def check_a_prime(a: Decomposition, params: EnclosureParams) -> ConditionReport:
    """Battery A on a decomposition of mu*K_n: divisibility (A1),
    r-admissibility (A2), minimum class size p (A3)."""
    _require_shape(a, params, params.mu, "mu*K_n")
    entries = [_divisibility_entry(params, "A1")]
    adm = is_admissible(a, params.r)
    entries.append(("A2", adm, f"{params.r}-admissible: {adm}"))
    if params.p.numerator <= 0:
        entries.append(("A3", True, f"p = {params.p} <= 0, size bound vacuous"))
    else:
        smallest = min(a.class_sizes())
        ok = smallest >= params.p
        entries.append(("A3", ok, f"min class size {smallest} vs p = {params.p}"))
    return ConditionReport("A", tuple(entries))


def check_b(g: Decomposition, params: EnclosureParams) -> ConditionReport:
    """Battery B for m >= 2n-1: divisibility (B1), r-admissibility (B2),
    and the deficiency bound (B3):
        sum_{i=0}^{p} (p - i) * |S_i(g)|  <=  (mu - lambda) * n(n-1)/2.
    """
    _require_shape(g, params, params.lam, "lambda*K_n")
    if params.m < 2 * params.n - 1:
        raise PreconditionError(f"battery B needs m >= 2n-1, got m={params.m}, n={params.n}")
    entries = [_divisibility_entry(params, "B1")]
    adm = is_admissible(g, params.r)
    entries.append(("B2", adm, f"{params.r}-admissible: {adm}"))
    entries.append(_deficiency_entry(g, params, "B3"))
    return ConditionReport("B", tuple(entries))


def check_c(g: Decomposition, params: EnclosureParams) -> ConditionReport:
    """Battery C for m = 2n-2 (where p = r): divisibility (C1),
    r-admissibility (C2), the deficiency bound (C3) as in B with p = r, and
    the per-pair bound (C4):
        |S_0| + sum_{i=1}^{r-1} |S_i(u,v)|  <=  (mu - lambda) * (n(n-1)/2 - 1)
    for every pair u, v.
    """
    _require_shape(g, params, params.lam, "lambda*K_n")
    if params.m != 2 * params.n - 2:
        raise PreconditionError(f"battery C needs m = 2n-2, got m={params.m}, n={params.n}")
    n, r = params.n, params.r
    entries = [_divisibility_entry(params, "C1")]
    adm = is_admissible(g, r)
    entries.append(("C2", adm, f"{r}-admissible: {adm}"))
    entries.append(_deficiency_entry(g, params, "C3"))
    pair_rhs = (params.mu - params.lam) * (Fraction(n * (n - 1), 2) - 1)
    # sum_i |S_i(u,v)| counts the classes of 1..r-1 edges, all on the pair
    # (u, v); the worst pair is the smallest one with the largest count
    on_pair: dict[tuple[int, int], int] = {}
    for cls in g.classes:
        if len(cls.edges) == 1 and 1 <= cls.edge_count() < r:
            (pair,) = cls.edges
            if pair[0] != pair[1]:
                on_pair[pair] = on_pair.get(pair, 0) + 1
    worst_pair = min(on_pair, key=lambda pair: (-on_pair[pair], pair), default=(0, 1))
    worst = s_count(g, 0) + on_pair.get(worst_pair, 0)
    entries.append(
        ("C4", worst <= pair_rhs, f"pair {worst_pair} sum {worst} vs bound {pair_rhs}")
    )
    return ConditionReport("C", tuple(entries))


def theorem15_constant(mu: int, lam: int, r: int) -> Fraction:
    """The margin constant min{(mu-lambda)/(2mu), 2 - r(mu-lambda)/mu}; zero
    when mu = lambda.  Requires 2mu > r(mu-lambda)."""
    if 2 * mu <= r * (mu - lam):
        raise PreconditionError(
            f"need 2*mu > r*(mu-lambda): 2*{mu} <= {r}*({mu}-{lam})"
        )
    if mu == lam:
        return Fraction(0)
    return min(Fraction(mu - lam, 2 * mu), 2 - Fraction(r * (mu - lam), mu))


def check_theorem15(g: Decomposition, params: EnclosureParams) -> ConditionReport:
    """Battery T15: divisibility (T1), margin 2mu > r(mu-lambda) (T2),
    (r-1)-admissibility (T3), target size m >= (2-C)n+1 (T4), and the class
    count bound k >= (mu-lambda)n that the construction consumes (T5)."""
    _require_shape(g, params, params.lam, "lambda*K_n")
    if params.r < 3:
        raise PreconditionError(f"battery T15 needs r >= 3, got r={params.r}")
    mu, lam, r, n, m, k = params.mu, params.lam, params.r, params.n, params.m, params.k
    entries = [_divisibility_entry(params, "T1")]
    margin_ok = 2 * mu > r * (mu - lam)
    entries.append(("T2", margin_ok, f"2*mu = {2 * mu} vs r*(mu-lambda) = {r * (mu - lam)}"))
    adm = is_admissible(g, r - 1)
    entries.append(("T3", adm, f"{r - 1}-admissible: {adm}"))
    if margin_ok:
        c = theorem15_constant(mu, lam, r)
        threshold = (2 - c) * n + 1
        entries.append(
            ("T4", Fraction(m) >= threshold, f"m = {m} vs (2-C)n+1 = {threshold} (C = {c})")
        )
    else:
        entries.append(("T4", False, "margin condition failed; C undefined"))
    entries.append(
        ("T5", k >= (mu - lam) * n, f"k = {k} vs (mu-lambda)*n = {(mu - lam) * n}")
    )
    return ConditionReport("T15", tuple(entries))


_BATTERIES = {"B": check_b, "C": check_c, "T15": check_theorem15}


def pick_regime(n: int, m: int, r: int) -> str:
    """The regime whose battery decides enclosing lambda*K_n in mu*K_m:
    "B" for m >= 2n-1, "C" for m = 2n-2, "T15" for n < m < 2n-2 with
    r >= 3.  Raises PreconditionError naming the reason when none applies."""
    if m >= 2 * n - 1:
        return "B"
    if m == 2 * n - 2:
        return "C"
    if m <= n:
        raise PreconditionError("no applicable theorem regime (m must exceed n)")
    if r < 3:
        raise PreconditionError("m < 2n-2 requires r >= 3")
    return "T15"


def check_regime(regime: str, g: Decomposition, params: EnclosureParams) -> ConditionReport:
    """Run the battery of `regime` ("B", "C" or "T15") on g."""
    if regime not in _BATTERIES:
        raise ValueError(f"unknown regime {regime!r}; expected B, C, or T15")
    return _BATTERIES[regime](g, params)
