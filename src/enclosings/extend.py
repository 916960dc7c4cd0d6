"""Constructive steps that grow a decomposition of lambda*K_n into a full
decomposition of mu*K_n whose classes are admissible and large enough to
detach.

`enclose_in_mu_kn` is the one entry: it runs the regime's battery once,
builds the one stage-1 state (copies of g's classes, the spare pool of
(mu-lambda)K_n and a trace), and changes it in place by the steps of the
regime that `conditions.pick_regime` names:
  B   (m >= 2n-1): no route of its own; the coloring loop tries classes
          below p edges first, so it pads every class to p, and a greedy
          color always exists for each remaining spare edge.
  C   (m = 2n-2, so p = r): top every class up to r edges by filling
          class slots from per-pair spare counts, the tightest pair of
          Hall's condition first (special slots keep a class from ending as
          r parallel edges); a blocked spare edge is unblocked by
          recoloring one non-protected edge.
  T15 (r >= 3): split the whole spare pool into k matchings of near-equal
          size, built directly: the round-robin 1-factors of each copy of
          K_n, balanced by swapping colors along alternating paths.  T5
          (k >= (mu-lambda)n) leaves room for every factor, and gluing a
          matching onto an (r-1)-admissible class keeps it r-admissible.

Every regime ends in one coloring loop, `_color_rest`, that colors whatever
is left in the pool one edge at a time (nothing, for T15).  Nothing
searches: B is greedy, C fills its slots by counting, and T15 is a
construction.

Every move but the coloring loop's goes through `_move`, which moves one
copy from the pool or from another class and re-checks admissibility of
every class it changed; `_color_rest` tries a class by adding the edge and
checking it, and commits only an edge that passed.  Stage 1 ends with a size check: every class has at
least p edges.  That is the one part of battery A the moves do not already
guarantee (A1 is the regime battery's divisibility entry, A2 holds
because the battery checked g and every move is re-checked), and
`detach.build_amalgamated_triad` runs battery A itself.  A failed check
raises InternalInconsistencyError: the constructions guarantee success, so
a failed check is a bug, not an instance property.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .conditions import EnclosureParams, check_regime
from .decomp import Decomposition, class_admissibility_violation
from .errors import ConditionsFailedError, InternalInconsistencyError, PreconditionError
from .mgraph import Multigraph, complete_multigraph


@dataclass(frozen=True)
class TraceAction:
    kind: str  # pad | color | recolor | matching
    edge: tuple[int, int]
    cls: int
    from_cls: int | None = None

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "edge": list(self.edge), "class": self.cls}
        if self.from_cls is not None:
            out["from_class"] = self.from_cls
        return out


@dataclass
class ExtensionTrace:
    actions: list[TraceAction] = field(default_factory=list)

    def record(self, kind: str, edge: tuple[int, int], cls: int, from_cls: int | None = None):
        self.actions.append(TraceAction(kind, edge, cls, from_cls))

    def as_list(self) -> list[dict]:
        return [a.as_dict() for a in self.actions]


def replay_trace(g: Decomposition, params: EnclosureParams, trace: ExtensionTrace) -> Decomposition:
    """Re-apply a trace to the input decomposition; the result must equal the
    pipeline output it was recorded from.  Raises ValueError when the trace
    leaves spare edges uncolored."""
    classes = [cls.copy() for cls in g.classes]
    pool = spare_pool(params)
    for action in trace.actions:
        u, v = action.edge
        if action.kind in ("pad", "color", "matching"):
            pool.remove_edge(u, v)
            classes[action.cls].add_edge(u, v)
        elif action.kind == "recolor":
            classes[action.from_cls].remove_edge(u, v)
            classes[action.cls].add_edge(u, v)
        else:
            raise ValueError(f"unknown trace action {action.kind}")
    if pool.edges:
        raise ValueError(f"trace leaves {pool.edge_count()} spare edges uncolored")
    return Decomposition(complete_multigraph(params.n, params.mu), tuple(classes))


def spare_pool(params: EnclosureParams) -> Multigraph:
    """The edges of mu*K_n not in lambda*K_n, as a multigraph."""
    if params.mu == params.lam:
        return Multigraph(params.n)
    return complete_multigraph(params.n, params.mu - params.lam)


def _pair_order(n: int, seed: int) -> list[tuple[int, int]]:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if seed:
        random.Random(seed).shuffle(pairs)
    return pairs


def _take_spare(pool: Multigraph, order: list[tuple[int, int]]) -> tuple[int, int]:
    for pair in order:
        if pool.multiplicity(*pair) > 0:
            return pair
    raise InternalInconsistencyError("spare pool exhausted")


def _move(
    classes: list[Multigraph],
    pool: Multigraph,
    trace: ExtensionTrace,
    r: int,
    kind: str,
    pair: tuple[int, int],
    i: int,
    source: int | None = None,
) -> None:
    """Move one copy of `pair` into class i, from the pool or from class
    `source`, record it, and re-check every class it changed."""
    (pool if source is None else classes[source]).remove_edge(*pair)
    classes[i].add_edge(*pair)
    trace.record(kind, pair, i, source)
    for j in (i,) if source is None else (i, source):
        violation = class_admissibility_violation(classes[j], r, j)
        if violation is not None:
            raise InternalInconsistencyError(
                f"{kind} {pair} into class {i} broke admissibility of class {j}: "
                f"bullet {violation.bullet}, {violation.detail}"
            )


def _assign_slots(forbidden: list, copies: dict) -> list:
    """One pair per slot: slot i refuses pair forbidden[i] (None: no pair),
    and each pair goes to at most copies[pair] slots.  `copies` names every
    refused pair, and its order breaks ties.  Raises
    InternalInconsistencyError when no such assignment exists.

    With s_P slots refusing P, e_P copies of P, S slots and E copies, Hall's
    condition is S <= E and t_P = s_P + e_P <= E for every P.  As
    sum_P t_P <= S + E <= 2E, at most two pairs are tight (t_P = E), and then
    every slot and copy is on them.  Each step serves the tightest pair T: a
    slot refusing T takes a copy of the tightest other pair, or else a T copy
    goes to a slot refusing the tightest other pair (a plain slot when none
    is left).  Both lower t of every tight pair, so the condition holds."""
    left, need = dict(copies), Counter(forbidden)
    given: dict = {bad: [] for bad in need}  # refused pair (None: plain) -> pairs given

    def tightness(pair) -> int:
        return need[pair] + left[pair]

    for _ in forbidden:
        tight = max(left, key=tightness)
        if max(need.total(), tightness(tight)) > sum(left.values()):
            raise InternalInconsistencyError(
                "slot assignment failed although the pair and deficiency bounds hold"
            )
        if need[tight]:
            group, pair = tight, max((q for q in left if q != tight and left[q]), key=tightness)
        else:
            group, pair = max((q for q in left if need[q]), key=tightness, default=None), tight
        need[group] -= 1
        left[pair] -= 1
        given[group].append(pair)
    return [given[bad].pop(0) for bad in forbidden]


def _extend_to_r_via_matching(
    classes: list[Multigraph],
    pool: Multigraph,
    params: EnclosureParams,
    seed: int,
    trace: ExtensionTrace,
) -> None:
    """Top every class up to r edges in the m = 2n-2 regime, in place; the
    input has passed battery C.

    Step 1 gives every empty class one spare edge.  Step 2 opens r-i slots
    per class that still has i < r edges.  A class whose i edges all lie on
    one pair {u,v} gets one "special" slot that refuses uv-edges, so no
    class can finish as r parallel edges.  `_assign_slots` fills the slots
    from the spare copies by counting; the pair and deficiency bounds are
    Hall's condition for it, and its assignments, in slot order, finish the
    job.
    """
    r = params.r
    order = _pair_order(params.n, seed)

    for i, cls in enumerate(classes):
        if cls.edge_count() == 0:
            _move(classes, pool, trace, r, "pad", _take_spare(pool, order), i)

    slots: list[tuple[int, tuple[int, int] | None]] = []
    for i, cls in enumerate(classes):
        size = cls.edge_count()
        if not 1 <= size <= r - 1:
            continue
        if len(cls.edges) == 1:
            bad_pair = next(iter(cls.edges))
            slots.extend((i, None) for _ in range(r - size - 1))
            slots.append((i, bad_pair))
        else:
            slots.extend((i, None) for _ in range(r - size))

    copies = {pair: pool.multiplicity(*pair) for pair in order}
    for (i, _), pair in zip(slots, _assign_slots([bad for _, bad in slots], copies)):
        _move(classes, pool, trace, r, "matching", pair, i)


def _color_rest(
    classes: list[Multigraph],
    pool: Multigraph,
    g: Decomposition,
    params: EnclosureParams,
    trace: ExtensionTrace,
) -> None:
    """Color the spare edges left in `pool`, in place, smallest pair first:
    each takes the first class that stays admissible with it, the classes
    with fewer than p edges tried first (a stable sort, so index order
    otherwise).

    Trying short classes first pads every class to p, as B needs: a class
    with at most p <= r/2 edges is always admissible, and B3 makes the pool
    cover the deficiency.  The order is the plain index order when p <= 0,
    and in C, where the slot assignment has brought every class to p = r.

    For m >= 2n-1 some class always takes the edge: otherwise both
    endpoints would carry too much degree across the k classes.  For
    m = 2n-2 an edge {x,y} can block: then exactly one class j holds r-1
    parallel xy-copies and every other class is saturated around x and y.
    Class j has another component with a low-degree vertex u; an xu-edge
    can take color j directly (if uncolored), or a spare xu-edge is
    recolored from its class c to j and the blocked edge takes c.  Edges of
    g are never recolored: a copy only moves where the class multiplicity
    exceeds g's.
    """
    # every battery's divisibility entry makes r*m even, so p is integral
    n, r, mu, lam, p = params.n, params.r, params.mu, params.lam, int(params.p)
    recolor = params.m == 2 * n - 2
    if recolor and pool.edges and not (2 * (r - 1) >= mu > lam):
        raise PreconditionError("recoloring step needs 2(r-1) >= mu > lambda")
    # class degrees, kept here so that a class the edge would take above
    # degree r (bullet 1) is skipped without running the predicate, and
    # class sizes, kept so that ordering the classes sums no edge dicts
    degrees = [cls.degrees() for cls in classes]
    sizes = [cls.edge_count() for cls in classes]
    # the pool only loses pairs, so its smallest pair is the first of one
    # sorted walk that is still in it
    order = sorted(pool.edges)
    at = 0
    while pool.edges:
        while order[at] not in pool.edges:
            at += 1
        x, y = edge = order[at]
        for i in sorted(range(len(classes)), key=lambda j: sizes[j] >= p):
            deg = degrees[i]
            if deg[x] >= r or deg[y] >= r:
                continue
            cls = classes[i]
            cls.add_edge(x, y)
            if class_admissibility_violation(cls, r, i) is None:
                pool.remove_edge(x, y)
                deg[x] += 1
                deg[y] += 1
                sizes[i] += 1
                trace.record("color", edge, i)
                break
            cls.remove_edge(x, y)
        else:
            if not recolor:
                raise InternalInconsistencyError(
                    f"no admissible color for edge {edge}; this cannot happen "
                    "when r*k = mu*(m-1) and m >= 2n-1"
                )
            _unblock(edge, classes, degrees, pool, g, r, trace)
            degrees = [cls.degrees() for cls in classes]
            sizes = [cls.edge_count() for cls in classes]


def _unblock(
    edge: tuple[int, int],
    classes: list[Multigraph],
    degrees: list[list[int]],
    pool: Multigraph,
    g: Decomposition,
    r: int,
    trace: ExtensionTrace,
) -> None:
    """Unblock `edge` in the m = 2n-2 regime, as `_color_rest` describes;
    degrees[i] holds the class degrees of classes[i]."""
    x, y = edge
    j = next(
        (
            i
            for i, (cls, deg) in enumerate(zip(classes, degrees))
            if cls.multiplicity(x, y) == deg[x] == deg[y] == r - 1
        ),
        None,
    )
    if j is None:
        raise InternalInconsistencyError(
            f"edge {edge} blocked but no class holds exactly {r - 1} parallel copies"
        )
    cls_j, deg_j = classes[j], degrees[j]
    u = None
    for comp in cls_j.components():
        if x in comp:
            continue
        below = [v for v in comp if deg_j[v] < r - 1]
        exact = [v for v in comp if deg_j[v] == r - 1]
        if below:
            u = below[0]
        elif len(exact) >= 2:
            u = exact[0]
        if u is not None:
            break
    if u is None:
        raise InternalInconsistencyError(
            f"no donor component with a low-degree vertex in class {j}"
        )

    f = (min(x, u), max(x, u))
    if pool.multiplicity(*f) > 0:
        _move(classes, pool, trace, r, "color", f, j)
        return

    c = next(
        (
            i
            for i, cls in enumerate(classes)
            if i != j and cls.multiplicity(*f) > g.classes[i].multiplicity(*f)
        ),
        None,
    )
    if c is None:
        raise InternalInconsistencyError(f"no class holds a spare {f} copy to recolor")
    _move(classes, pool, trace, r, "recolor", f, j, source=c)
    _move(classes, pool, trace, r, "color", edge, c)


def _near_equal_matchings(n: int, mult: int, k: int, seed: int = 0) -> list[Multigraph]:
    """Split mult*K_n into k matchings whose sizes differ by at most one;
    needs k >= mult*n, which T5 gives.

    The round-robin (near-)1-factors of each copy of K_n fill the first
    classes: n-1 per copy for even n, n for odd n.  Then, while the largest
    class A and the smallest class B differ by two or more edges, colors
    swap along a path of A and B that starts and ends with an A-edge.  Two
    matchings form paths and even cycles (2-cycles included), so when A is
    larger such a path exists.  A nonzero seed only relabels the vertices
    and shuffles the class order."""
    if k < mult * n:
        raise PreconditionError(f"{mult}*K_{n} needs k >= {mult * n} matchings, got {k}")
    rounds = n - 1 + n % 2
    mates = [[-1] * n for _ in range(k)]  # mates[c][v]: v's partner in class c, or -1
    for c in range(mult * rounds):
        i, mate = c % rounds, mates[c]
        if n % 2 == 0:
            mate[i], mate[n - 1] = n - 1, i
        for j in range(1, (rounds + 1) // 2):
            u, v = (i + j) % rounds, (i - j) % rounds
            mate[u], mate[v] = v, u
    sizes = [n // 2] * (mult * rounds) + [0] * (k - mult * rounds)

    while max(sizes) - min(sizes) >= 2:
        a, b = sizes.index(max(sizes)), sizes.index(min(sizes))
        big, small = mates[a], mates[b]
        for x in range(n):
            if big[x] < 0 or small[x] >= 0:
                continue
            path = [x]
            while (nxt := (big if len(path) % 2 else small)[path[-1]]) >= 0:
                path.append(nxt)
            if len(path) % 2 == 0:  # starts and ends with a big-edge
                break
        else:
            raise InternalInconsistencyError(f"classes {a} and {b} have no path to swap")
        for v in path:
            big[v] = small[v] = -1
        for idx, (u, v) in enumerate(zip(path, path[1:])):
            side = small if idx % 2 == 0 else big
            side[u], side[v] = v, u
        sizes[a] -= 1
        sizes[b] += 1

    perm = list(range(n))
    if seed:
        rng = random.Random(seed)
        rng.shuffle(perm)
        rng.shuffle(mates)
    return [
        Multigraph(n, {(perm[v], perm[w]): 1 for v, w in enumerate(mate) if v < w})
        for mate in mates
    ]


def _proper_padding(
    classes: list[Multigraph],
    pool: Multigraph,
    params: EnclosureParams,
    seed: int,
    trace: ExtensionTrace,
) -> None:
    """Glue one matching of `_near_equal_matchings` onto each class, in
    place, taking its edges from the pool, which ends empty; the input has
    passed battery T15, whose class-count bound (T5) is what the builder
    needs.  The union of an (r-1)-admissible class and a matching stays
    r-admissible, and any part of a matching is a matching, so the class is
    re-checked after each glued edge; the near-equal sizes give every class
    at least p edges."""
    n, k, mu, lam, r = params.n, params.k, params.mu, params.lam, params.r
    matchings = _near_equal_matchings(n, mu - lam, k, seed)
    for i, extra in enumerate(matchings):
        if any(d > 1 for d in extra.degrees()):
            raise InternalInconsistencyError(
                f"pool class {i} is not a matching although k >= (mu-lambda)n"
            )
        for pair in sorted(extra.edges):
            _move(classes, pool, trace, r, "pad", pair, i)


def enclose_in_mu_kn(
    g: Decomposition, params: EnclosureParams, mode: str, seed: int = 0
) -> tuple[Decomposition, ExtensionTrace]:
    """Run the mode's full first stage: a decomposition of mu*K_n enclosing
    g in which every class is admissible and has at least p edges.  Mode is
    the regime, "B", "C", or "T15", whose battery g must pass.

    This is the one place stage 1 runs the battery: it raises
    ConditionsFailedError, carrying the report, when the battery fails, and
    the steps behind it take the battery's conditions as given.  It is also
    the one place the stage-1 state is built; each step changes it in place.
    It ends by checking that the result partitions mu*K_n and that every
    class has at least p edges, and raises InternalInconsistencyError when
    a class is short; battery A runs in `detach.build_amalgamated_triad`.
    """
    report = check_regime(mode, g, params)
    if not report.ok:
        raise ConditionsFailedError(report)
    classes = [cls.copy() for cls in g.classes]
    pool, trace = spare_pool(params), ExtensionTrace()
    if mode == "C":
        _extend_to_r_via_matching(classes, pool, params, seed, trace)
    elif mode == "T15":
        _proper_padding(classes, pool, params, seed, trace)
    _color_rest(classes, pool, g, params, trace)
    result = Decomposition(complete_multigraph(params.n, params.mu), tuple(classes))
    result.validate_partition()
    for i, size in enumerate(result.class_sizes()):
        if size < params.p:
            raise InternalInconsistencyError(f"class {i} has {size} < p = {params.p} edges")
    return result, trace
