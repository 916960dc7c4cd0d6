from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import enclosings
from enclosings import cli, conditions
from enclosings.cli import load_instance, serialize_decomposition, write_json
from enclosings.decomp import Decomposition
from enclosings.errors import InternalInconsistencyError


def instance_payload():
    return {
        "n": 3,
        "lambda": 1,
        "k": 4,
        "classes": [[[0, 1]], [[0, 2]], [[1, 2]], []],
    }


def write_instance(tmp_path: Path, payload=None, name="instance.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload or instance_payload()), encoding="utf-8")
    return path


def test_round_trip(tmp_path):
    path = write_instance(tmp_path)
    n, lam, k, d = load_instance(path)
    assert (n, lam, k) == (3, 1, 4)
    assert serialize_decomposition(d, lam) == instance_payload()


def test_round_trip_multiplicity(tmp_path):
    payload = {
        "n": 3,
        "lambda": 2,
        "k": 2,
        "classes": [[[0, 1], [0, 1], [0, 2]], [[0, 2], [1, 2], [1, 2]]],
    }
    path = write_instance(tmp_path, payload)
    _, lam, _, d = load_instance(path)
    assert d.classes[0].multiplicity(0, 1) == 2
    assert serialize_decomposition(d, lam) == payload


def test_check_b_battery_pass(tmp_path, capsys):
    path = write_instance(tmp_path)
    code = cli.main(["check", str(path), "--m", "5", "--mu", "2", "--r", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["regime"] == "B"
    assert out["battery"]["ok"] is True
    assert out["admissible_r"] is True


def test_check_huge_r_exits_at_once(tmp_path, capsys):
    # p = r(2n - m)/2 = 5 * 10^7: the deficiency sum runs over the class
    # sizes, not over 0..p, so the verdict comes at once
    path = write_instance(tmp_path)
    start = time.monotonic()
    code = cli.main(["check", str(path), "--m", "5", "--mu", "2", "--r", "100000000"])
    assert time.monotonic() - start < 5
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    failing = [c["name"] for c in out["battery"]["conditions"] if not c["passed"]]
    assert failing[0] == "B1"


def test_check_c_battery_failure(tmp_path, capsys):
    payload = {
        "n": 3,
        "lambda": 1,
        "k": 3,
        "classes": [[[0, 1], [0, 2], [1, 2]], [], []],
    }
    path = write_instance(tmp_path, payload)
    code = cli.main(["check", str(path), "--m", "4", "--mu", "2", "--r", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["regime"] == "C"
    failing = [c["name"] for c in out["battery"]["conditions"] if not c["passed"]]
    assert "C2" in failing


def test_check_rejects_loop_pair(tmp_path, capsys):
    payload = instance_payload()
    payload["classes"][0] = [[0, 0]]
    path = write_instance(tmp_path, payload)
    code = cli.main(["check", str(path), "--m", "5", "--mu", "2", "--r", "2"])
    assert code == 2


@pytest.mark.parametrize("classes", [5, [5, [], [], []]])
def test_check_rejects_non_list_classes(tmp_path, capsys, classes):
    payload = instance_payload()
    payload["classes"] = classes
    path = write_instance(tmp_path, payload)
    code = cli.main(["check", str(path), "--m", "5", "--mu", "2", "--r", "2"])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err)


@pytest.mark.parametrize(
    "raw",
    [b'\xff\xfe{"n": 3}', b"[" * 200_000],
    ids=["not-utf8", "deeply-nested"],
)
def test_check_rejects_undecodable_instance(tmp_path, capsys, raw):
    path = tmp_path / "instance.json"
    path.write_bytes(raw)
    code = cli.main(["check", str(path), "--m", "5", "--mu", "2", "--r", "2"])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err)


@pytest.mark.parametrize(
    "field, value",
    [("n", 3.9), ("lambda", True), ("k", "4"), ("pair", True)],
)
def test_check_rejects_non_integer_fields(tmp_path, capsys, field, value):
    # int() would coerce each of these into a different instance: 3.9 to 3,
    # true to 1, "4" to 4
    payload = instance_payload()
    if field == "pair":
        payload["classes"][0] = [[0, value]]
    else:
        payload[field] = value
    path = write_instance(tmp_path, payload)
    code = cli.main(["check", str(path), "--m", "5", "--mu", "2", "--r", "2"])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--m", "5", "--mu", "2", "--r", "1"], "r=1 must be >= 2"),
        (["--m", "5", "--mu", "1", "--r", "2"], "mu=1 must be >= lambda=2"),
        (["--m", "2", "--mu", "2", "--r", "2"], "m=2 must be >= n=3"),
    ],
)
def test_check_rejected_parameters_are_input_errors(tmp_path, capsys, flags, message):
    payload = {
        "n": 3,
        "lambda": 2,
        "k": 2,
        "classes": [[[0, 1], [0, 1], [0, 2]], [[0, 2], [1, 2], [1, 2]]],
    }
    path = write_instance(tmp_path, payload)
    code = cli.main(["check", str(path), *flags])
    assert code == 2
    assert message in json.loads(capsys.readouterr().err)["error"]


def test_check_out_of_regime(tmp_path, capsys):
    # m between n and 2n-2 needs r >= 3
    payload = {
        "n": 5,
        "lambda": 1,
        "k": 5,
        "classes": [
            [[0, 1], [2, 3]],
            [[0, 2], [1, 4]],
            [[0, 3], [2, 4]],
            [[0, 4], [1, 3]],
            [[1, 2], [3, 4]],
        ],
    }
    path = write_instance(tmp_path, payload)
    code = cli.main(["check", str(path), "--m", "6", "--mu", "2", "--r", "2"])
    assert code == 3


def test_enclose_then_verify(tmp_path, capsys):
    path = write_instance(tmp_path)
    out = tmp_path / "enclosing.json"
    trace = tmp_path / "trace.json"
    code = cli.main([
        "enclose", str(path), "--m", "5", "--mu", "2", "--r", "2",
        "--out", str(out), "--trace-out", str(trace),
    ])
    assert code == 0
    assert out.exists() and trace.exists()
    capsys.readouterr()

    code = cli.main(["verify", str(path), str(out), "--r", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["valid"] is True

    trace_payload = json.loads(trace.read_text())
    assert "extension" in trace_payload and "detachment" in trace_payload
    # m = 5 splits off vertex 4 only; vertex 3 is what is left.  At r = 2
    # the split is a flow: 8 paths of one unit each, after which each of
    # the 4 classes has both its units; every class has 2 candidate rows
    detachment = trace_payload["detachment"]
    (split,) = detachment["splits"]
    assert detachment["nodes"] == 8
    assert {key: split[key] for key in ("z", "nodes", "deepest")} == {
        "z": 4, "nodes": 8, "deepest": 4
    }
    assert split["min_candidates"] == split["max_candidates"] == 2
    assert 0 < split["seconds"] <= detachment["wall_time"]


def test_enclose_condition_failure_names_condition(tmp_path, capsys):
    payload = {
        "n": 3,
        "lambda": 1,
        "k": 4,
        "classes": [[[0, 1], [0, 2], [1, 2]], [], [], []],
    }
    path = write_instance(tmp_path, payload)
    code = cli.main(["enclose", str(path), "--m", "5", "--mu", "2", "--r", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["first_failing"] == "B2"


def test_enclose_runs_the_battery_once(tmp_path, capsys, monkeypatch):
    calls = []
    battery_b = conditions._BATTERIES["B"]

    def counting(g, params):
        calls.append(1)
        return battery_b(g, params)

    monkeypatch.setitem(conditions._BATTERIES, "B", counting)
    path = write_instance(tmp_path)
    code = cli.main(["enclose", str(path), "--m", "5", "--mu", "2", "--r", "2",
                     "--out", str(tmp_path / "x.json"),
                     "--trace-out", str(tmp_path / "t.json")])
    assert code == 0
    assert len(calls) == 1


def test_enclose_runs_battery_a_once(tmp_path, capsys):
    # battery A is stage 2's precondition: the triad build runs it, and
    # stage 1 ends with its own size check instead of a second run
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is conditions.check_a_prime.__code__:
            calls.append(1)

    path = write_instance(tmp_path)
    sys.setprofile(count)
    try:
        code = cli.main(["enclose", str(path), "--m", "5", "--mu", "2", "--r", "2",
                         "--out", str(tmp_path / "x.json"),
                         "--trace-out", str(tmp_path / "t.json")])
    finally:
        sys.setprofile(None)
    assert code == 0
    assert len(calls) == 1


def test_enclose_budget_exhaustion(tmp_path, capsys):
    path = write_instance(tmp_path)
    code = cli.main([
        "enclose", str(path), "--m", "5", "--mu", "2", "--r", "2",
        "--budget", "1", "--out", str(tmp_path / "x.json"),
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 4
    assert report["status"] == "budget-exhausted"
    # the first path of the flow spends the budget
    assert "split of vertex 4, 1 of them there; at most 0 of 4 classes" in report["detail"]
    assert not (tmp_path / "x.json").exists()


def test_enclose_budget_exhaustion_in_the_row_search(tmp_path, capsys):
    # r = 3 splits are searched over candidate rows, not solved by a flow
    path = tmp_path / "inst.json"
    cli.main(["gen", "--n", "7", "--lambda", "1", "--k", "13", "--r", "3",
              "--out", str(path)])
    capsys.readouterr()
    code = cli.main([
        "enclose", str(path), "--m", "14", "--mu", "3", "--r", "3",
        "--budget", "1", "--out", str(tmp_path / "x.json"),
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 4
    assert "split of vertex 8, 1 of them there; at most 0 of 13 classes" in report["detail"]


def test_enclose_uncovered_construction_is_out_of_regime(tmp_path, capsys):
    # the C battery passes, but the recoloring step needs 2(r-1) >= mu
    path = tmp_path / "inst.json"
    cli.main(["gen", "--n", "4", "--lambda", "1", "--k", "10", "--r", "2",
              "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    assert cli.main(["check", str(path), "--m", "6", "--mu", "4", "--r", "2"]) == 0
    capsys.readouterr()
    out = tmp_path / "enc.json"
    code = cli.main(["enclose", str(path), "--m", "6", "--mu", "4", "--r", "2",
                     "--out", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert "2(r-1) >= mu > lambda" in report["error"]
    assert not out.exists()


def test_verify_detects_corruption(tmp_path, capsys):
    path = write_instance(tmp_path)
    out = tmp_path / "enclosing.json"
    cli.main([
        "enclose", str(path), "--m", "5", "--mu", "2", "--r", "2",
        "--out", str(out), "--trace-out", str(tmp_path / "t.json"),
    ])
    capsys.readouterr()
    payload = json.loads(out.read_text())
    payload["classes"][0] = payload["classes"][0][1:]  # drop an edge
    corrupted = tmp_path / "corrupt.json"
    corrupted.write_text(json.dumps(payload))
    code = cli.main(["verify", str(path), str(corrupted), "--r", "2"])
    assert code == 2  # dropped edge breaks the full-partition invariant
    capsys.readouterr()

    # swap two classes instead: still a valid decomposition file but no
    # longer a superclass of the instance classwise
    payload2 = json.loads(out.read_text())
    payload2["classes"][0], payload2["classes"][1] = (
        payload2["classes"][1],
        payload2["classes"][0],
    )
    swapped = tmp_path / "swapped.json"
    swapped.write_text(json.dumps(payload2))
    code = cli.main(["verify", str(path), str(swapped), "--r", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert any("superclass" in p for p in report["problems"])


def test_verify_class_count_mismatch(tmp_path, capsys):
    path = write_instance(tmp_path)
    other = {
        "n": 4,
        "lambda": 1,
        "k": 3,
        "classes": [
            [[0, 1], [2, 3]],
            [[0, 2], [1, 3]],
            [[0, 3], [1, 2]],
        ],
    }
    other_path = write_instance(tmp_path, other, name="outer.json")
    code = cli.main(["verify", str(path), str(other_path), "--r", "2"])
    assert code == 2


def test_oracle_found_and_none(tmp_path, capsys):
    path = write_instance(tmp_path)
    witness = tmp_path / "witness.json"
    code = cli.main([
        "oracle", str(path), "--m", "5", "--mu", "2", "--r", "2",
        "--out", str(witness),
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["status"] == "FOUND"
    assert witness.exists()
    code = cli.main(["verify", str(path), str(witness), "--r", "2"])
    assert code == 0
    capsys.readouterr()

    bad = instance_payload()
    bad["k"] = 3
    bad["classes"] = bad["classes"][:3]
    bad_path = write_instance(tmp_path, bad, name="bad.json")
    code = cli.main(["oracle", str(bad_path), "--m", "5", "--mu", "2", "--r", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["status"] == "NONE"


def test_oracle_many_empty_classes_is_none(tmp_path, capsys):
    # one frame per class used to reach the recursion limit at k = 995
    payload = instance_payload()
    payload["k"] = 995
    payload["classes"] = [[[0, 1]], [[0, 2]], [[1, 2]]] + [[]] * 992
    path = write_instance(tmp_path, payload)
    code = cli.main(["oracle", str(path), "--m", "4", "--mu", "1", "--r", "2",
                     "--budget", "100000"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["status"] == "NONE"


def test_oracle_cap_exceeded(tmp_path, capsys):
    payload = {
        "n": 4,
        "lambda": 1,
        "k": 3,
        "classes": [
            [[0, 1], [2, 3]],
            [[0, 2], [1, 3]],
            [[0, 3], [1, 2]],
        ],
    }
    path = write_instance(tmp_path, payload)
    code = cli.main(["oracle", str(path), "--m", "12", "--mu", "2", "--r", "2"])
    assert code == 3


BIG = cli.SIZE_CAP + 1


@pytest.mark.parametrize("argv", [
    ["check", "{big}", "--m", str(2 * BIG), "--mu", "1", "--r", "2"],
    ["verify", "{small}", "{big}", "--r", "2"],
    ["enclose", "{small}", "--m", str(BIG), "--mu", "2", "--r", "2"],
    ["gen", "--n", str(BIG), "--lambda", "1", "--k", "3", "--r", "2"],
    ["gen", "--n", "7", "--lambda", "1", "--k", str(BIG), "--r", "2"],
], ids=["instance-n", "enclosing-n", "enclose-m", "gen-n", "gen-k"])
def test_sizes_above_the_cap_exit_3(tmp_path, capsys, argv):
    # each input fails fast without the cap too (exit 0, 1 or 2), so a
    # missing cap fails here rather than building mu*K_1001
    paths = {
        "big": str(write_instance(
            tmp_path, {"n": BIG, "lambda": 1, "k": 1, "classes": [[]]}, "big.json"
        )),
        "small": str(write_instance(tmp_path)),
    }
    code = cli.main([arg.format(**paths) for arg in argv])
    assert code == 3
    assert "exceeds the size cap" in json.loads(capsys.readouterr().err)["error"]


def test_gen_seed_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    cli.main(["gen", "--n", "4", "--lambda", "1", "--k", "3", "--r", "2",
              "--seed", "7", "--out", str(out1)])
    cli.main(["gen", "--n", "4", "--lambda", "1", "--k", "3", "--r", "2",
              "--seed", "7", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_exhaustive_sequence(tmp_path, capsys):
    out_dir = tmp_path / "all"
    code = cli.main(["gen", "--n", "3", "--lambda", "1", "--k", "3",
                     "--exhaustive", "--out", str(out_dir)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["count"] == 5
    files = sorted(out_dir.iterdir())
    assert len(files) == 5
    for f in files:
        load_instance(f)


def test_gen_exhaustive_over_the_assignment_cap_exits_3(tmp_path, capsys):
    out_dir = tmp_path / "all"
    start = time.monotonic()
    code = cli.main(["gen", "--n", "5", "--lambda", "1", "--k", "13",
                     "--exhaustive", "--out", str(out_dir)])
    assert time.monotonic() - start < 5
    assert code == 3
    assert "assignments" in json.loads(capsys.readouterr().err)["error"]
    assert not out_dir.exists()  # refused before the directory is made


def test_gen_exhaustive_with_no_pairs_and_many_classes_is_quick(tmp_path, capsys):
    out_dir = tmp_path / "all"
    start = time.monotonic()
    code = cli.main(["gen", "--n", "1", "--lambda", "3", "--k", "1000",
                     "--exhaustive", "--out", str(out_dir)])
    assert time.monotonic() - start < 5
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1
    assert load_instance(out_dir / "instance_0000.json")[2] == 1000


@pytest.mark.parametrize(
    "argv",
    [
        ["enclose", "{inst}", "--m", "5", "--mu", "2", "--r", "2", "--out", "{missing}"],
        ["enclose", "{inst}", "--m", "5", "--mu", "2", "--r", "2",
         "--out", "{enc}", "--trace-out", "{missing}"],
        ["oracle", "{inst}", "--m", "5", "--mu", "2", "--r", "2", "--out", "{missing}"],
        ["gen", "--n", "4", "--lambda", "1", "--k", "3", "--out", "{missing}"],
        ["gen", "--n", "3", "--lambda", "1", "--k", "3", "--exhaustive", "--out", "{inst}"],
    ],
    ids=["enclose-out", "enclose-trace-out", "oracle-out", "gen-out", "gen-exhaustive-file"],
)
def test_unwritable_output_path_is_an_input_error(tmp_path, capsys, argv):
    paths = {
        "inst": write_instance(tmp_path),
        "missing": tmp_path / "no-such-dir" / "x.json",
        "enc": tmp_path / "enclosing.json",
    }
    code = cli.main([arg.format(**paths) for arg in argv])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith("cannot ")
    # no half answer: an enclosing is written only with its trace
    assert not paths["enc"].exists()


@pytest.mark.parametrize("command", ["enclose", "oracle"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_an_input_error(tmp_path, capsys, command, budget):
    path = write_instance(tmp_path)
    code = cli.main([
        command, str(path), "--m", "5", "--mu", "2", "--r", "2",
        "--budget", budget, "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert f"--budget must be >= 1, got {budget}" in json.loads(
        capsys.readouterr().err
    )["error"]
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("error", [InternalInconsistencyError, RecursionError])
def test_internal_error_exits_5_with_json(tmp_path, capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("split 5 has no solution")

    monkeypatch.setattr(cli, "fair_detach", broken)
    path = write_instance(tmp_path)
    code = cli.main(["enclose", str(path), "--m", "5", "--mu", "2", "--r", "2",
                     "--out", str(tmp_path / "x.json")])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    report = json.loads(captured.err)
    assert report["error"] == (
        f"internal error: {error.__name__}: split 5 has no solution"
    )


def test_enclose_self_verification_failure_is_internal(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_enclosing", lambda *args: (False, ["x"]))
    path = write_instance(tmp_path)
    out = tmp_path / "x.json"
    code = cli.main(["enclose", str(path), "--m", "5", "--mu", "2", "--r", "2",
                     "--out", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == 5
    assert report == {"status": "self-verification-failed", "problems": ["x"]}
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n", "0", "--lambda", "1", "--k", "3", "--r", "2"], "must be positive"),
        (["--n", "3", "--lambda", "0", "--k", "3", "--r", "2"], "must be positive"),
        (["--n", "3", "--lambda", "1", "--k", "0", "--r", "2"], "must be positive"),
        (["--n", "3", "--lambda", "1", "--k", "3", "--r", "1"], "r=1 must be >= 2"),
    ],
    ids=["n", "lambda", "k", "r"],
)
def test_gen_rejected_parameters_are_input_errors(tmp_path, capsys, flags, message):
    code = cli.main(["gen", *flags, "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert message in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "n, lam, k",
    [
        # one class of 2K2 holds two parallel edges: never 2-admissible
        (2, 2, 1),
        # lambda*(n-1) = 7 > k*r = 6: some vertex needs degree 3 in a class
        (8, 1, 3),
    ],
)
def test_gen_infeasible_parameters_are_refused(tmp_path, capsys, n, lam, k):
    out = tmp_path / "x.json"
    code = cli.main(["gen", "--n", str(n), "--lambda", str(lam), "--k", str(k),
                     "--r", "2", "--out", str(out)])
    assert code == 1
    assert "exceed" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


def test_gen_output_is_loadable(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code = cli.main(["gen", "--n", "5", "--lambda", "2", "--k", "4", "--r", "3",
                     "--seed", "3", "--out", str(out)])
    assert code == 0
    n, lam, k, d = load_instance(out)
    assert (n, lam, k) == (5, 2, 4)
    d.validate_partition()


@pytest.mark.parametrize("command", ["check", "verify", "gen"])
def test_closed_stdout_exits_2_without_a_traceback(tmp_path, capsys, command):
    inst, enc = write_instance(tmp_path), tmp_path / "enc.json"
    assert cli.main(["enclose", str(inst), "--m", "5", "--mu", "2", "--r", "2",
                     "--out", str(enc), "--trace-out", str(tmp_path / "t.json")]) == 0
    argv = {
        "check": ["check", str(inst), "--m", "5", "--mu", "2", "--r", "2"],
        "verify": ["verify", str(inst), str(enc), "--r", "2"],
        "gen": ["gen", "--n", "7", "--lambda", "1", "--k", "13", "--r", "2", "--seed", "1"],
    }[command]
    src = str(Path(enclosings.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        done = subprocess.run([sys.executable, "-m", "enclosings.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "cannot write to stdout: it was closed"
