"""In-memory span recording and self-time accounting for traced runs.

A span is one call into a layer: ``[name, start_ns, end_ns, parent, rid]``
where ``parent`` is the index of the enclosing span (or None) and ``rid``
the operation id shared by every span of one operation.  Spans stay in
memory until the run ends; :meth:`SpanRecorder.dump` writes them out.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class SpanRecorder:
    """Records nested spans from one thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.rid = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter_ns(), None, parent, self.rid]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int, rid) -> None:
        """Record a finished top-level span (client-side request timing)."""
        self.spans.append([name, start_ns, end_ns, None, rid])

    def dump(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "rid")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class NullRecorder:
    """The untraced stand-in: same interface, records nothing."""

    enabled = False
    rid = None

    def span(self, name: str):
        return nullcontext()


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> dict:
    """``{rid: {name: self_ns}}``: each span's duration minus the part of
    its interval that its child spans cover (overlapping children are
    counted once), summed per operation and span name."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out: dict = {}
    for i, (name, start, end, _parent, rid) in enumerate(spans):
        own = (end - start) - _covered(children.get(i, []), start, end)
        per_op = out.setdefault(rid, {})
        per_op[name] = per_op.get(name, 0) + own
    return out
