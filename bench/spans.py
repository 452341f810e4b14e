"""In-memory spans around calls into organstop, and self-time arithmetic.

A span records a name, the organstop module it belongs to, start and end
(``time.perf_counter`` seconds), the span that was open when it started,
and an operation id shared by every span of one operation.  Spans stay in
memory; :func:`self_times` and the callers turn them into per-module
numbers after the traced pass.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    module: str
    start: float
    end: float
    parent: int | None
    op: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; a disabled tracer only runs the calls."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = ""

    @contextmanager
    def span(self, module: str, name: str):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, module, time.perf_counter(), 0.0,
                  parent, self.op)
        self.spans.append(sp)
        self._stack.append(sp.sid)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def call(self, module: str, fn, *args, name: str | None = None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named after it."""
        with self.span(module, name or fn.__name__):
            return fn(*args, **kwargs)

    def named(self, name: str, op: str | None = None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (op is None or s.op == op)]

    def total(self, name: str, op: str | None = None) -> float:
        return sum(s.duration for s in self.named(name, op))


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span: its duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - _covered(children.get(s.sid, ()), s.start, s.end)
            for s in spans}


def module_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per module."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.module] = out.get(s.module, 0.0) + own[s.sid]
    return out
