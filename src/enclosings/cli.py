"""Command-line front door: check, enclose, verify, oracle, gen.

Instances are UTF-8 JSON files:

    {"n": 3, "lambda": 1, "k": 4,
     "classes": [[[0,1]], [[0,2]], [[1,2]], []]}

Repeated pairs encode multiplicity.  The target parameters m, mu, r are
command-line flags so that one inner instance can be tested against many
targets.  Exit codes are a stable contract: 0 success, 1 condition or
verification failure, 2 input error (an unwritable output, stdout closed
included), 3 out-of-regime, cap exceeded (an
exhaustive-search input above its cap, or a size above SIZE_CAP) or
conditions that hold for parameters the construction does not cover,
4 budget exhausted (in `enclose`, a node is one candidate row tried when
r >= 3 and one flow path pushed when r = 2), 5 internal error (an
`InternalInconsistencyError`, a `RecursionError`, or an `enclose` result
that fails its own verification: a bug, never an answer about the
instance).

`check` runs the regime's battery itself.  `enclose` leaves it to
`enclose_in_mu_kn`, the one stage-1 entry, and reports failed conditions
from the `ConditionsFailedError` it raises.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .conditions import EnclosureParams, check_regime, make_params, pick_regime
from .decomp import Decomposition, Enclosing, is_admissible, verify_enclosing
from .detach import build_amalgamated_triad, fair_detach
from .errors import (
    BudgetExhaustedError,
    CapExceededError,
    ConditionsFailedError,
    InstanceFormatError,
    InternalInconsistencyError,
    PreconditionError,
)
from .extend import enclose_in_mu_kn
from .mgraph import Multigraph, complete_multigraph
from .oracle import brute_force_enclose, enumerate_decompositions, random_admissible

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_REGIME = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

DEFAULT_BUDGET = 10_000_000

# the most vertices an instance, enclosing or target may have, and the most
# classes `gen` draws: mu*K_1000 already has 500 500 pairs
SIZE_CAP = 1000


def _cap(name: str, value: int) -> None:
    """Refuse a size above SIZE_CAP, before any graph of that size is
    built."""
    if value > SIZE_CAP:
        raise CapExceededError(f"{name}={value} exceeds the size cap {SIZE_CAP}")


def _budget(args) -> int:
    """The --budget flag; below 1 is an input error."""
    if args.budget < 1:
        raise InstanceFormatError(f"--budget must be >= 1, got {args.budget}")
    return args.budget


def load_instance(path: str | Path) -> tuple[int, int, int, Decomposition]:
    """Parse an instance file into (n, lambda, k, decomposition)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # a file that is not UTF-8, or nests too deep for the decoder, is
        # malformed input like any other
        raise InstanceFormatError(f"cannot read instance {path}: {exc}")
    try:
        n, lam, k = (payload[key] for key in ("n", "lambda", "k"))
        raw_classes = payload["classes"]
    except (KeyError, TypeError) as exc:
        raise InstanceFormatError(f"instance {path} missing or malformed field: {exc}")
    for key, value in (("n", n), ("lambda", lam), ("k", k)):
        # JSON true and 3.0 are not integers here: coercing them would
        # silently read a different instance
        if type(value) is not int:
            raise InstanceFormatError(
                f"instance {path} field {key} is not an integer: {value!r}"
            )
    if n < 1 or lam < 1 or k < 1:
        raise InstanceFormatError("n, lambda, k must be positive")
    _cap(f"instance {path} field n", n)
    if not isinstance(raw_classes, list):
        raise InstanceFormatError(f"instance {path} field classes is not a list")
    if len(raw_classes) != k:
        raise InstanceFormatError(f"expected {k} classes, found {len(raw_classes)}")
    classes = []
    for idx, raw in enumerate(raw_classes):
        if not isinstance(raw, list):
            raise InstanceFormatError(f"class {idx} is not a list of pairs")
        cls = Multigraph(n)
        for pair in raw:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(type(x) is int for x in pair)
            ):
                raise InstanceFormatError(f"class {idx} has a malformed pair {pair}")
            u, v = pair
            if u == v:
                raise InstanceFormatError(f"class {idx} contains a loop {pair}")
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceFormatError(f"class {idx} pair {pair} out of range")
            cls.add_edge(u, v)
        classes.append(cls)
    d = Decomposition(complete_multigraph(n, lam), tuple(classes))
    try:
        d.validate_partition()
    except ValueError as exc:
        raise InstanceFormatError(f"instance {path} is not a full decomposition: {exc}")
    return n, lam, k, d


def serialize_decomposition(d: Decomposition, lam: int) -> dict:
    classes = []
    for cls in d.classes:
        pairs = []
        for (u, v), mult in sorted(cls.edges.items()):
            pairs.extend([[u, v]] * mult)
        classes.append(pairs)
    return {
        "n": d.base.vertex_count,
        "lambda": lam,
        "k": d.k,
        "classes": classes,
    }


def write_json(path: str | Path, payload: dict) -> None:
    """Write payload as JSON; a path that cannot be written is an input
    error."""
    try:
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise InstanceFormatError(f"cannot write {path}: {exc}") from exc


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _params(n: int, m: int, lam: int, mu: int, r: int, k: int) -> EnclosureParams:
    """make_params, with rejected parameters reported as an input error."""
    try:
        return make_params(n=n, m=m, lam=lam, mu=mu, r=r, k=k)
    except PreconditionError as exc:
        raise InstanceFormatError(str(exc)) from exc


def cmd_check(args) -> int:
    n, lam, k, g = load_instance(args.instance)
    params = _params(n, args.m, lam, args.mu, args.r, k)
    report = {
        "params": {"n": n, "m": args.m, "lambda": lam, "mu": args.mu,
                   "r": args.r, "k": k, "p": str(params.p)},
        "admissible_r": is_admissible(g, args.r),
    }
    if args.r >= 3:
        report["admissible_r_minus_1"] = is_admissible(g, args.r - 1)
    try:
        regime = pick_regime(n, args.m, args.r)
    except PreconditionError as exc:
        report["regime"] = None
        report["error"] = str(exc)
        _emit(report)
        return EXIT_REGIME
    battery = check_regime(regime, g, params)
    report["regime"] = regime
    report["battery"] = battery.as_dict()
    _emit(report)
    return EXIT_OK if battery.ok else EXIT_FAIL


def cmd_enclose(args) -> int:
    budget = _budget(args)
    _cap("--m", args.m)
    n, lam, k, g = load_instance(args.instance)
    params = _params(n, args.m, lam, args.mu, args.r, k)
    try:
        regime = pick_regime(n, args.m, args.r)
    except PreconditionError:
        _emit({"error": "no applicable theorem regime for these parameters"})
        return EXIT_REGIME
    try:
        inner_full, trace = enclose_in_mu_kn(g, params, regime, seed=args.seed)
    except ConditionsFailedError as exc:
        _emit({
            "status": "conditions-failed",
            "first_failing": exc.report.first_failing(),
            "battery": exc.report.as_dict(),
        })
        return EXIT_FAIL
    except PreconditionError as exc:
        # the battery passed, so this is a precondition of the construction
        # itself, not a failed condition
        _emit({
            "status": "construction-not-covered",
            "error": f"conditions hold, but the construction needs: {exc}",
        })
        return EXIT_REGIME
    triad = build_amalgamated_triad(inner_full, params)
    try:
        witness = fair_detach(triad, params, seed=args.seed, budget=budget)
    except BudgetExhaustedError as exc:
        _emit({"status": "budget-exhausted", "detail": str(exc)})
        return EXIT_BUDGET

    enclosing = Enclosing(witness.result, n)
    ok, problems = verify_enclosing(g, enclosing, params)
    if not ok:
        # the pipeline's own answer failed its check: a bug, not a verdict
        _emit({"status": "self-verification-failed", "problems": problems})
        return EXIT_INTERNAL
    out = args.out or f"{args.instance}.enclosing.json"
    trace_out = args.trace_out or f"{args.instance}.trace.json"
    write_json(out, serialize_decomposition(witness.result, args.mu))
    try:
        write_json(trace_out, {
            "extension": trace.as_list(),
            "detachment": {
                "nodes": witness.stats.nodes,
                "wall_time": witness.stats.wall_time,
                "splits": [asdict(rec) for rec in witness.stats.splits],
            },
        })
    except InstanceFormatError:
        Path(out).unlink()  # an enclosing without its trace is half an answer
        raise
    _emit({
        "status": "enclosed",
        "out": str(out),
        "trace": str(trace_out),
        "detach_nodes": witness.stats.nodes,
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    n, lam, k, inner = load_instance(args.instance)
    m, mu, outer_k, outer = load_instance(args.enclosing)
    if outer_k != k:
        _emit({"error": f"class counts differ: inner {k}, enclosing {outer_k}"})
        return EXIT_INPUT
    params = _params(n, m, lam, mu, args.r, k)
    ok, problems = verify_enclosing(inner, Enclosing(outer, n), params)
    _emit({"valid": ok, "problems": problems})
    return EXIT_OK if ok else EXIT_FAIL


def cmd_oracle(args) -> int:
    budget = _budget(args)
    n, lam, k, g = load_instance(args.instance)
    params = _params(n, args.m, lam, args.mu, args.r, k)
    result = brute_force_enclose(g, params, budget=budget)
    report = {
        "status": result.status.upper(),
        "nodes": result.stats.nodes,
        "wall_time": result.stats.wall_time,
    }
    if result.status == "found":
        out = args.out or f"{args.instance}.witness.json"
        write_json(out, serialize_decomposition(result.witness.outer, args.mu))
        report["witness"] = str(out)
        _emit(report)
        return EXIT_OK
    _emit(report)
    return EXIT_BUDGET if result.status == "budget" else EXIT_FAIL


def cmd_gen(args) -> int:
    if args.n < 1 or args.lam < 1 or args.k < 1:
        raise InstanceFormatError("n, lambda, k must be positive")
    if args.r < 2:
        raise InstanceFormatError(f"r={args.r} must be >= 2")
    _cap("--n", args.n)
    _cap("--k", args.k)
    if args.exhaustive:
        decomps = enumerate_decompositions(args.n, args.lam, args.k, dedup=True)
        out_dir = Path(args.out or "instances")
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InstanceFormatError(f"cannot create {out_dir}: {exc}") from exc
        written = []
        for idx, d in enumerate(decomps):
            path = out_dir / f"instance_{idx:04d}.json"
            write_json(path, serialize_decomposition(d, args.lam))
            written.append(str(path))
        _emit({"count": len(written), "dir": str(out_dir)})
        return EXIT_OK
    d = random_admissible(args.n, args.lam, args.k, args.r, seed=args.seed)
    payload = serialize_decomposition(d, args.lam)
    if args.out:
        write_json(args.out, payload)
        _emit({"out": args.out})
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enclosings",
        description="Decide and construct enclosings of complete-multigraph "
        "decompositions in 2-edge-connected r-factorizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the applicable condition battery")
    p_check.add_argument("instance")
    p_check.add_argument("--m", type=int, required=True)
    p_check.add_argument("--mu", type=int, required=True)
    p_check.add_argument("--r", type=int, required=True)
    p_check.set_defaults(func=cmd_check)

    p_enc = sub.add_parser("enclose", help="construct and self-verify an enclosing")
    p_enc.add_argument("instance")
    p_enc.add_argument("--m", type=int, required=True)
    p_enc.add_argument("--mu", type=int, required=True)
    p_enc.add_argument("--r", type=int, required=True)
    p_enc.add_argument("--seed", type=int, default=0)
    p_enc.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_enc.add_argument("--out", default=None)
    p_enc.add_argument("--trace-out", dest="trace_out", default=None)
    p_enc.set_defaults(func=cmd_enclose)

    p_ver = sub.add_parser("verify", help="verify an enclosing file against an instance")
    p_ver.add_argument("instance")
    p_ver.add_argument("enclosing")
    p_ver.add_argument("--r", type=int, required=True)
    p_ver.set_defaults(func=cmd_verify)

    p_orc = sub.add_parser("oracle", help="exhaustive enclosure search")
    p_orc.add_argument("instance")
    p_orc.add_argument("--m", type=int, required=True)
    p_orc.add_argument("--mu", type=int, required=True)
    p_orc.add_argument("--r", type=int, required=True)
    p_orc.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_orc.add_argument("--out", default=None)
    p_orc.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate instance files")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--lambda", dest="lam", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--r", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--exhaustive", action="store_true")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    return parser


# the exit code of each error a valid run can end in
EXIT_CODES = {
    InstanceFormatError: EXIT_INPUT,
    CapExceededError: EXIT_REGIME,
    PreconditionError: EXIT_FAIL,
    BudgetExhaustedError: EXIT_BUDGET,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull, so the interpreter's exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code, detail = EXIT_INPUT, "cannot write to stdout: it was closed"
    except tuple(EXIT_CODES) as exc:
        code = next(EXIT_CODES[t] for t in type(exc).__mro__ if t in EXIT_CODES)
        detail = str(exc)
    except (InternalInconsistencyError, RecursionError) as exc:  # a bug
        code = EXIT_INTERNAL
        detail = f"internal error: {type(exc).__name__}: {exc}"
    print(json.dumps({"error": detail}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
