"""Spans around the program's layer boundaries, recorded from outside it.

The program looks its stages up as module attributes at call time
(`sim_harness.channel_apply`, `rx_qpsk.matched_filter`, ...), so replacing
those attributes with timing wrappers traces every call without touching the
program.  `Tracer.installed()` restores the originals on exit.

Spans go into a list allocated once, up front.  Growing a list by appends
reallocates its pointer array, and freeing a large block raises glibc's
dynamic mmap and trim thresholds; after that the program's per-packet numpy
buffers stop being returned to the kernel and re-faulted, which made the
program itself about a quarter faster on msk-clean (2-vCPU Xeon VM, Python
3.11, numpy 2.4).  A tracer that grew its store would
measure a different program from the untraced run.
"""

from __future__ import annotations

import contextlib
import time
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, capacity: int):
        self.spans: list[Span | None] = [None] * capacity
        self.count = 0
        self._stack: list[int] = []
        self.targets: list[tuple] = []

    @property
    def room(self) -> int:
        return len(self.spans) - self.count

    def add(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Register `module.attr` for wrapping under span `name`.

        `before(args, kwargs)` may add keyword arguments to the call;
        `after(args, result)` sees the return value.  Both run inside the span.
        """
        self.targets.append((module, attr, name, before, after))

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.room:
            raise RuntimeError("span store is full")
        idx = self.count
        self.count += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, t0, t1, parent)

    def _wrap(self, fn, name, before, after):
        def traced(*args, **kwargs):
            with self.span(name):
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = [(m, a, getattr(m, a)) for m, a, *_ in self.targets]
        try:
            for (module, attr, name, before, after), (_, _, fn) in zip(self.targets, originals):
                setattr(module, attr, self._wrap(fn, name, before, after))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans[: self.count] if s.name == name]

    def self_times(self, name: str) -> list[float]:
        """Span duration minus the time its direct children cover."""
        spans = self.spans[: self.count]
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        return [
            s.duration - child_time.get(i, 0.0) for i, s in enumerate(spans) if s.name == name
        ]
