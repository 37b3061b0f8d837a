"""In-memory spans around the benchmark's calls into each cskit layer.

A traced pass records one span per layer call: its name, start, end, the
index of the enclosing span and the id of the op it belongs to.  Spans stay
in memory and are written out when the run ends.  An untraced pass uses
:class:`NullTracer`, whose spans cost one attribute lookup.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import nullcontext


class Tracer:
    """Collects spans and counts for the traced passes of one run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.counts: Counter[str] = Counter()
        self.op: int | None = None
        self._open: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        parent = tracer._open[-1] if tracer._open else None
        self.record = [name, 0.0, 0.0, parent, tracer.op]

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.record[2] = time.perf_counter()
        self.tracer._open.pop()


class NullTracer:
    """Stands in for :class:`Tracer` when a pass is not traced."""

    _null = nullcontext()

    def span(self, name: str) -> nullcontext:
        return self._null

    def count(self, name: str, n: int = 1) -> None:
        pass


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the time its children cover.

    Children of one span run one after another, so their durations add up.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]
