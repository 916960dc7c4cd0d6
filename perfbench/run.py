"""Benchmark command for the enclosings library.

    python3 perfbench/run.py --workload enclose-r2 --seed 1 --seconds 30 --trace 0

Runs one workload in one process: a single closed-loop caller, no threads,
each attempt starting when the previous one returns.  The run keeps going
until `--seconds` of attempt time have passed and the workload's minimum
number of attempts is made.  Every output is checked, untimed.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics from
spans recorded around each call into the library, plus the primitive
micro-timings.  Times are reported at a fixed reference speed: the run
also times a fixed piece of the benchmark's own code between attempts, and
scales every time by the reference's nominal time over its median time in
the run (see workloads.REFERENCE_S).  Per-attempt records, in wall seconds
(and, when traced, the spans), are written under perfbench/out/.  Exit code
0 on success, 1 when an output is wrong or an attempt raised, 2 on a usage
error or when the library source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import Tracer, at_reference_speed, percentile, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SLOWEST_SHOWN = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@dataclass
class Tally:
    """What a run keeps while its attempts stream to the record file."""

    durations: list[float] = field(default_factory=list)
    counted: list = field(default_factory=list)  # the first min_attempts attempts
    slowest: list = field(default_factory=list)  # heap of (seconds, index, attempt)
    wrong: str | None = None  # the first failed correctness check
    pool_s: list[float] = field(default_factory=list)  # pool generation times
    refs: list[float] = field(default_factory=list)  # reference times
    busy: float = 0.0
    results: int = 0
    sys_s: float = 0.0
    search_s: float = 0.0  # fair_detach time of searches that ran to their end
    search_nodes: int = 0

    def add(self, att, counted: bool, success: tuple[str, ...]) -> None:
        self.durations.append(att.seconds)
        self.busy += att.seconds
        self.results += att.status in success
        self.sys_s += att.sys_s
        if att.status in ("solved", "exhausted"):
            self.search_s += sum(e - s for name, s, e in att.marks if name == "detach.fair_detach")
            self.search_nodes += att.nodes
        if counted:
            self.counted.append(att)
        item = (att.seconds, att.index, att)
        if len(self.slowest) < SLOWEST_SHOWN:
            heapq.heappush(self.slowest, item)
        else:
            heapq.heappushpop(self.slowest, item)


def checked_attempt(wl, run_attempt, gates, i, inst):
    """Attempt `i` on `inst`, timed from the caller's side, then checked.
    Returns the attempt and the caller's start and end.  A wrong output, and
    any exception the attempt raised, is a GateError."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    try:
        att = run_attempt(i, inst)
    except wl.GateError:
        raise
    except Exception as exc:
        traceback.print_exc()
        raise wl.GateError(f"raised {exc!r}") from exc
    end = perf_counter()
    after = resource.getrusage(resource.RUSAGE_SELF)
    att.sys_s = after.ru_stime - before.ru_stime
    att.cpu_s = after.ru_utime - before.ru_utime + att.sys_s
    gates.check(att)
    return att, start, end


def record_spans(wl, tracer, att, start, end, corpus) -> None:
    """The traced loop's bookkeeping for one attempt: its spans, and when
    `corpus` is given, the class graphs it produced."""
    # The attempt span is taken from the caller's side, so its self time is
    # what the pipeline spends outside the library calls.
    parent = tracer.add("attempt", start, end, attempt=att.index)
    for name, s, e in att.marks:
        tracer.add(name, s, e, parent, att.index)
    if corpus is not None:
        graphs, admissibility = wl.corpus_from(att)
        corpus[0].extend(graphs)
        corpus[1].extend(admissibility)


def measure(wl, w, pool, seconds, tracer, records, pool_seconds):
    """The closed loop.  Returns the tally, the gates (which remember every
    instance's first result) and the corpus captured for the primitive
    micro-timings.  The loop stops at the first wrong output.

    `pool_seconds()` generates the pool again and returns its time.  It runs
    at even points of the loop, untimed as attempt time, until the tally
    holds wl.SETUP_REPEATS pool times: on a shared machine whose speed
    drifts over tens of seconds, set-up times taken back to back all fall in
    one stretch, while these sample the same stretches as the attempts."""
    run_attempt = wl.enclose_attempt if w.kind == "enclose" else wl.decide_attempt
    gates = wl.Gates()
    tally = Tally()
    corpus = ([], [])
    while len(tally.durations) < w.min_attempts or tally.busy < seconds:
        if tally.busy >= seconds * len(tally.pool_s) / wl.SETUP_REPEATS:
            tally.pool_s.append(pool_seconds())
        if tally.busy >= wl.REFERENCE_EVERY_S * len(tally.refs):
            tally.refs.append(wl.reference_seconds())
        i = len(tally.durations)
        try:
            att, start, end = checked_attempt(wl, run_attempt, gates, i, pool[i % len(pool)])
        except wl.GateError as exc:
            tally.wrong = f"attempt {i}: {exc}"
            break
        if tracer.enabled:
            captured = corpus if i < corpus_size(wl, w) else None
            record_spans(wl, tracer, att, start, end, captured)
        att.output = None
        tally.add(att, i < w.min_attempts, wl.SUCCESS)
        records.write(json.dumps(att.record(w.name)) + "\n")
    while len(tally.pool_s) < wl.SETUP_REPEATS:
        tally.pool_s.append(pool_seconds())
    return tally, gates, corpus


def corpus_size(wl, w) -> int:
    """How many of the first attempts give graphs to the micro-timings."""
    return wl.CORPUS_ATTEMPTS if w.kind == "enclose" else len(w.cells)


def tracing_overhead(wl, w, pool, gates) -> float:
    """Cost per attempt of the traced loop over that of the untraced loop,
    minus one.  The counted attempts run again in pairs, once as the
    untraced loop runs them and once with the traced loop's bookkeeping
    (spans, corpus capture), alternating which goes first so that a drift in
    machine speed falls on both sides alike.  The correctness checks, which
    both loops run, are left out of both sides."""
    run_attempt = wl.enclose_attempt if w.kind == "enclose" else wl.decide_attempt
    scratch = Tracer(enabled=True)
    spent = {False: 0.0, True: 0.0}
    for i in range(w.min_attempts):
        inst = pool[i % len(pool)]
        for traced in ((True, False) if i % 2 else (False, True)):
            att, start, end = checked_attempt(wl, run_attempt, gates, i, inst)
            spent[traced] += end - start
            if traced:
                t0 = perf_counter()
                corpus = ([], []) if i < corpus_size(wl, w) else None
                record_spans(wl, scratch, att, start, end, corpus)
                spent[traced] += perf_counter() - t0
    return spent[True] / spent[False] - 1


def end_to_end(wl, w, tally, setup_s):
    counted = tally.counted
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "solved_per_s": (tally.results / tally.busy, "1/s"),
        "solved_frac": (sum(a.status in wl.SUCCESS for a in counted) / len(counted), "frac"),
        "attempt_s.p50": (percentile(tally.durations, 50), "s"),
        "attempt_s.tail": (percentile(tally.durations, w.tail_p), "s"),
    }


def span_totals(tracer):
    """Busy seconds, calls and longest call per span name, and the summed self
    time of the attempt spans."""
    total: Counter = Counter()
    calls: Counter = Counter()
    longest: Counter = Counter()
    for span in tracer.spans:
        total[span.name] += span.duration
        calls[span.name] += 1
        longest[span.name] = max(longest[span.name], span.duration)
    attempt_self = sum(
        s for span, s in zip(tracer.spans, self_times(tracer.spans)) if span.name == "attempt"
    )
    return total, calls, longest, attempt_self


def per_layer(wl, tally, overhead, tracer, corpus):
    """Per-layer metrics.  A `.s` metric is the mean seconds per call of that
    span, so it reads the same whatever the number of attempts in the run."""
    total, calls, longest, attempt_self = span_totals(tracer)

    def mean(name):
        return total[name] / calls[name] if calls[name] else 0.0

    counted = tally.counted
    nodes = sum(a.nodes for a in counted)
    solved = sum(a.status == "solved" for a in counted)
    capped_in = Counter(a.marks[-1][0] for a in counted if a.status == "capped")
    metrics = {
        "oracle.random_admissible.s": (mean("oracle.random_admissible"), "s"),
        "conditions.make_params.s": (mean("conditions.make_params"), "s"),
        "conditions.battery.s": (mean("conditions.battery"), "s"),
        "conditions.battery.calls": (calls["conditions.battery"], "count"),
        "extend.enclose_in_mu_kn.s": (mean("extend.enclose_in_mu_kn"), "s"),
        "extend.enclose_in_mu_kn.max_s": (longest["extend.enclose_in_mu_kn"], "s"),
        "extend.actions": (sum(a.actions for a in counted), "count"),
        "extend.capped": (capped_in["extend.enclose_in_mu_kn"], "count"),
        "detach.build_amalgamated_triad.s": (mean("detach.build_amalgamated_triad"), "s"),
        "detach.fair_detach.s": (mean("detach.fair_detach"), "s"),
        "detach.fair_detach.max_s": (longest["detach.fair_detach"], "s"),
        # A capped search never reports its node count, so the per-node cost
        # is taken over searches that ran to their end.
        "detach.us_per_node": (
            tally.search_s / tally.search_nodes * 1e6 if tally.search_nodes else 0.0, "us"
        ),
        "detach.nodes": (nodes, "count"),
        "detach.nodes_per_solved": (nodes / solved if solved else 0.0, "count"),
        "detach.exhausted": (sum(a.status == "exhausted" for a in counted), "count"),
        "detach.capped": (capped_in["detach.fair_detach"], "count"),
        "decomp.verify_enclosing.s": (mean("decomp.verify_enclosing"), "s"),
        "attempt.s": (mean("attempt"), "s"),
        "attempt.self_s": (attempt_self / calls["attempt"], "s"),
        "attempt.sys_s": (tally.sys_s / calls["attempt"], "s"),
    }
    for name, value in wl.primitive_timings(*corpus).items():
        metrics[name] = (value, "us")
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def describe(att) -> str:
    t = att.instance.target
    split = ", ".join(
        f"{name} {s:.3f}" for name, s in att.layer_seconds().items() if s >= 0.001
    )
    return (
        f"  #{att.index} {t.regime} n={t.n} m={t.m} seed={att.instance.seed} "
        f"{att.status} nodes={att.nodes} {att.seconds:.3f} s, {att.sys_s:.3f} s system ({split})"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "enclosings" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'enclosings'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import workloads as wl

    import_s = perf_counter() - start
    w = wl.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = Tracer(enabled=bool(args.trace))
    origin = perf_counter()
    pool = wl.make_pool(w, args.seed, tracer)

    def pool_seconds():
        t0 = perf_counter()
        wl.make_pool(w, args.seed, Tracer(False))
        return perf_counter() - t0

    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.attempts.jsonl", "w", encoding="utf-8") as records:
        tally, gates, corpus = measure(
            wl, w, pool, args.seconds, tracer, records, pool_seconds
        )
    overhead = None
    if args.trace and not tally.wrong:
        try:
            overhead = tracing_overhead(wl, w, pool, gates)
        except wl.GateError as exc:
            tally.wrong = f"repeated attempt: {exc}"
    if tally.wrong:
        print(f"WRONG OUTPUT: {tally.wrong}")
        print(json.dumps({
            "correct": False,
            "attempted": len(tally.durations) + 1,
            "failed": 1,
            "metrics": {},
        }))
        return 1

    if args.trace:
        metrics = per_layer(wl, tally, overhead, tracer, corpus)
        total, _, _, attempt_self = span_totals(tracer)
        split = {name: t / total["attempt"] for name, t in total.items() if name != "attempt"}
        split["attempt (self)"] = attempt_self / total["attempt"]
        split.pop("oracle.random_admissible", None)
        print("layer split of attempt time: " + ", ".join(
            f"{name} {share:.1%}" for name, share in sorted(split.items(), key=lambda kv: -kv[1])
        ))
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for row in tracer.as_dicts(origin):
                fh.write(json.dumps(row) + "\n")
    else:
        metrics = end_to_end(wl, w, tally, import_s + statistics.median(tally.pool_s))
    reference = statistics.median(tally.refs)
    scale = wl.REFERENCE_S / reference
    print("wall-clock: " + ", ".join(f"{name} {v:.6g} {u}" for name, (v, u) in metrics.items()))
    print(f"reference: median {reference * 1e3:.4f} ms of {len(tally.refs)}, nominal "
          f"{wl.REFERENCE_S * 1e3:g} ms; times below are scaled by {scale:.4f}")
    metrics = at_reference_speed(metrics, scale)

    counted = tally.counted
    digest = hashlib.sha256(
        "\n".join(f"{a.instance.ident}:{a.status}:{a.nodes}:{a.digest}" for a in counted).encode()
    ).hexdigest()[:16]
    print(f"workload {w.name} seed {args.seed}: {len(tally.durations)} attempts, "
          f"{tally.busy:.2f} s of attempt time, tail = p{w.tail_p}")
    print(f"first {len(counted)} attempts: {dict(Counter(a.status for a in counted))}; "
          f"digest {digest}")
    print("slowest attempts:")
    for _, _, att in sorted(tally.slowest, reverse=True):
        print(describe(att))
    print(f"records: {OUT.relative_to(ROOT)}/{stem}.*")
    print(json.dumps({
        "correct": True,
        "attempted": len(tally.durations),
        "failed": 0,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
