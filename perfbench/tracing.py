"""Span bookkeeping and the benchmark's own arithmetic: percentiles, the
tail percentile, and self time.

Spans are recorded from the benchmark's side of each call into the library.
They carry a name, start and end (seconds on the perf_counter clock), the
index of the parent span, and the attempt id; they stay in memory until the
run writes them out.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

# Candidate tail percentiles, highest first.  Integers keep the
# "samples beyond" count exact.
TAIL_GRID = (99, 95, 90, 75, 50)
MIN_BEYOND = 10


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attempt: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store.  A disabled tracer stores nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        attempt: int | None = None,
    ) -> int | None:
        if not self.enabled:
            return None
        self.spans.append(Span(name, start, end, parent, attempt))
        return len(self.spans) - 1

    def as_dicts(self, origin: float) -> list[dict]:
        """Spans with times relative to `origin`."""
        out = []
        for span in self.spans:
            row = asdict(span)
            row["start"] -= origin
            row["end"] -= origin
            out.append(row)
        return out


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(i, []), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def percentile(values: list[float], p: float) -> float:
    """Linearly interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int) -> int | None:
    """Highest percentile in TAIL_GRID with at least MIN_BEYOND of `count`
    samples beyond it, or None when the sample is too small for any."""
    for p in TAIL_GRID:
        if count * (100 - p) // 100 >= MIN_BEYOND:
            return p
    return None


def at_reference_speed(metrics: dict, scale: float) -> dict:
    """Metrics as (value, unit), with every time multiplied by `scale` and
    every rate divided by it; other units are left as they are."""
    factor = {"s": scale, "us": scale, "1/s": 1 / scale}
    return {name: (v * factor[u] if u in factor else v, u) for name, (v, u) in metrics.items()}
