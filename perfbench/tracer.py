"""Span tracing of the program's public functions, from outside the program.

The tracer replaces a public function by a timing wrapper under every name a
caller can look it up by: the defining module's attribute and each
`from .x import f` copy in the other `toudesign` modules (a classmethod is
replaced on its class). Spans record name, start, end, parent span and run id,
stay in memory, and are written out once the benchmark ends. Only the
standard library is used: `time.perf_counter` and `tracemalloc`.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

PACKAGE = "toudesign"


@dataclass(frozen=True)
class Target:
    """One public function to trace.

    `path` is `module:function` or `module:Class.classmethod`; `counts` maps
    the call's result to named counters recorded with its span; `peak_memory`
    measures the call's peak traced allocation with tracemalloc.
    """

    span: str
    path: str
    counts: Callable | None = None
    peak_memory: bool = False


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    counts: dict | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Open a span around a block, for calls the tracer does not patch."""
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run_id, {})
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, target: Target, func: Callable) -> Callable:
        name, counts, peak_memory = target.span, target.counts, target.peak_memory
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.run_id)
            spans.append(span)
            stack.append(len(spans) - 1)
            if peak_memory:
                tracemalloc.start()
            span.start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if peak_memory:
                    span.counts = {"peak_mb": tracemalloc.get_traced_memory()[1] / 2**20}
                    tracemalloc.stop()
            if counts is not None:
                span.counts = {**(span.counts or {}), **counts(result)}
            return result

        return traced

    @contextmanager
    def installed(self, targets: list[Target]):
        """Patch every target for the duration of the block, then restore."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if isinstance(m, ModuleType) and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        patches = []
        for target in targets:
            module_name, attr = target.path.split(":")
            owner = sys.modules[module_name]
            if "." in attr:  # a classmethod, patched on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                patches.append((cls, meth, raw))
                setattr(cls, meth, classmethod(self.wrap(target, raw.__func__)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapped)
        try:
            yield
        finally:
            for obj, key, value in reversed(patches):
                setattr(obj, key, value)

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "run": s.run_id,
                            **({"counts": s.counts} if s.counts else {}),
                        }
                    )
                    + "\n"
                )


def run_spans(spans: list[Span], run_id: int) -> list[tuple[int, Span]]:
    return [(i, s) for i, s in enumerate(spans) if s.run_id == run_id]


def self_times(spans: list[tuple[int, Span]]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Children of one span never overlap (calls are sequential), so summing
    their durations gives the covered part of the parent's interval.
    """
    own = {i: s.end - s.start for i, s in spans}
    for _, s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end - s.start
    return own
