"""In-memory spans and counters recorded around the benchmark's calls into verba.

A span has a name, a start, an end, a parent span and a job id.  Spans stay
in memory until the run ends.  A layer's self time is the duration of its
spans minus the part of each interval that child spans cover.  With tracing
off, ``span`` hands back one shared no-op context manager and ``count`` does
nothing, so the untraced run pays only an attribute lookup and a call.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class _NullSpan:
    name = ""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, t.job])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        record = t.spans[self.index]
        record[2] = time.perf_counter()
        record[0] = self.name  # a span may be renamed once its outcome is known
        t._stack.pop()
        return False


class Tracer:
    """Collects spans and exact counts for one pass over a workload's jobs."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: int | None = None
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time in seconds per span name.

    Self time is a span's duration minus the length of the union of its
    children's intervals, clipped to the span itself.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    totals: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[span["name"]] += (end - start) - covered
    return dict(totals)


def write_spans(path, passes: list[list[dict]]) -> None:
    """Write every traced pass's spans as JSON lines, one span per line."""
    with open(path, "w") as out:
        for number, spans in enumerate(passes):
            for span in spans:
                out.write(json.dumps({"pass": number, **span}) + "\n")
