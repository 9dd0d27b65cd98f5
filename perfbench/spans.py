"""In-memory span recorder for the traced run.

Public functions of fshin are replaced, at the name their caller looks up,
by wrappers that record a span (name, start, end, parent span, task id) or
just count calls.  Self time is a span's duration minus the time its direct
child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, task id]
        self.counts: Counter = Counter()
        self.task = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def spanned(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def replace(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set owner.attr to make(owner.attr) until restore()."""
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span(self, owner: object, attr: str, name: str) -> None:
        self.replace(owner, attr, lambda fn: self.spanned(name, fn))

    def count(self, owner: object, attr: str, name: str) -> None:
        self.replace(owner, attr, lambda fn: self._counted(name, fn))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> tuple[Counter, Counter]:
        """(self seconds, call count) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def child_counts(self, parent_name: str, child_name: str) -> int:
        """Number of `child_name` spans whose direct parent is a
        `parent_name` span."""
        spans = self.spans
        return sum(
            1 for name, _, _, parent, _ in spans
            if name == child_name and parent >= 0 and spans[parent][0] == parent_name
        )

    @staticmethod
    def write(path: str, spans: list[list]) -> None:
        """Spans as JSON lines: name, start and end in seconds, index of the
        parent span (-1 for none) and task id."""
        with open(path, "w") as out:
            for name, start, end, parent, task in spans:
                out.write(json.dumps([name, round(start, 7), round(end, 7), parent, task]) + "\n")
