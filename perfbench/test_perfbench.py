"""Self-tests of the benchmark's own arithmetic and gates.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from enclosings import Decomposition, random_admissible  # noqa: E402
from tracing import (  # noqa: E402
    Span,
    at_reference_speed,
    percentile,
    self_times,
    tail_percentile,
)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50
    assert tail_percentile(39) == 50
    assert tail_percentile(40) == 75
    assert tail_percentile(99) == 75
    assert tail_percentile(100) == 90
    assert tail_percentile(199) == 90
    assert tail_percentile(200) == 95
    assert tail_percentile(999) == 95
    assert tail_percentile(1000) == 99


def test_workload_tails_are_defined():
    for w in wl.WORKLOADS.values():
        assert w.tail_p is not None


def test_percentile_interpolates():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([0, 10], 75) == 7.5
    assert percentile([5], 99) == 5


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        Span("attempt", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a
        Span("c", 9.0, 12.0, 0, 0),  # runs past the parent's end
        Span("d", 2.0, 3.0, 1, 0),  # grandchild: counts against a only
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_reference_speed_scales_times_and_rates_only():
    metrics = {
        "setup_s": (2.0, "s"),
        "mgraph.copy.us": (10.0, "us"),
        "solved_per_s": (8.0, "1/s"),
        "solved_frac": (0.5, "frac"),
        "detach.nodes": (700, "count"),
        "peak_rss_mb": (28.0, "MB"),
    }
    assert at_reference_speed(metrics, 0.5) == {
        "setup_s": (1.0, "s"),
        "mgraph.copy.us": (5.0, "us"),
        "solved_per_s": (16.0, "1/s"),
        "solved_frac": (0.5, "frac"),
        "detach.nodes": (700, "count"),
        "peak_rss_mb": (28.0, "MB"),
    }


def _tiny_instance():
    target = wl.Target("B", 3, 5, 2, 4)
    return wl.Instance(0, target, 1, "admissible", random_admissible(3, 1, 4, 2, seed=1))


def test_exhausted_attempt_counts_full_budget():
    att = wl.enclose_attempt(0, _tiny_instance(), budget=1)
    assert att.status == "exhausted"
    assert att.nodes == 1


def test_gates_pass_a_solved_attempt_and_catch_a_tampered_one():
    att = wl.enclose_attempt(0, _tiny_instance())
    assert att.status == "solved"
    wl.Gates().check(att)

    params, _, _, witness = att.output
    inner = att.instance.g
    assert wl.enclosing_problems(inner, witness.result, params) == []
    classes = [cls.copy() for cls in witness.result.classes]
    (u, v), _ = next(iter(classes[0].edges.items()))
    classes[0].remove_edge(u, v)
    classes[1].add_edge(u, v)
    tampered = Decomposition(witness.result.base, tuple(classes))
    assert wl.enclosing_problems(inner, tampered, params)


def test_repeat_with_another_result_fails_the_gate():
    gates = wl.Gates()
    inst = _tiny_instance()
    first = wl.enclose_attempt(0, inst, budget=1)
    gates.check(first)
    gates.check(replace(first, index=1))
    with pytest.raises(wl.GateError):
        gates.check(replace(first, index=2, nodes=first.nodes + 1))


def test_an_attempt_that_raises_is_a_wrong_output():
    def broken(index, inst):
        raise ValueError("library bug")

    with pytest.raises(wl.GateError, match="library bug"):
        run.checked_attempt(wl, broken, wl.Gates(), 0, _tiny_instance())


def test_cpu_cap_interrupts_the_block():
    with pytest.raises(wl.Capped):
        with wl.cpu_cap(0.05):
            while True:
                pass
