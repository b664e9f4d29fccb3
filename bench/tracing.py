"""Span tracing from outside the program, by wrapping module-level names.

The fuzzer looks up its collaborators (`execute_transaction`,
`augment_edges`, ...) as globals of `dogefuzz.fuzzer` at call time, so
replacing those globals with timing wrappers records every call a campaign
makes without touching the program's source.  Spans stay in memory and are
written once, at the end; the untraced run never installs a wrapper.
"""

from __future__ import annotations

import csv
import gzip
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    campaign: int        # campaign id current at call time, -1 outside one

    @property
    def duration(self) -> float:
        return self.end - self.start


Observer = Callable[["Tracer", tuple, object], None]


class Tracer:
    """Records a span per call of each wrapped function.

    `observe(tracer, args, result)` hooks count layer-specific facts at the
    same boundary (transaction status, hashed bytes, ...) into `counts`,
    keyed by (campaign, counter name).
    """

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter[tuple[int, str]] = Counter()
        self.campaign = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module: object, name: str,
             observe: Observer | None = None, label: str | None = None) -> None:
        original = getattr(module, name)
        span_name = label or name
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(span_name, start, end, parent,
                                    self.campaign)
            if observe is not None:
                observe(self, args, result)
            return result

        self._patches.append((module, name, original))
        setattr(module, name, traced)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[(self.campaign, name)] += amount

    def restore(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def write(self, path: Path) -> None:
        """All spans as gzip-compressed CSV, one row per span."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["name", "start", "end", "parent", "campaign"])
            writer.writerows(self.spans)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest strictly, so a parent's children
    never overlap and their durations simply add up.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, covered)]
