"""Timing spans recorded from outside the osd package.

A Tracer replaces each public osd function at the place its caller looks
it up (a module attribute such as ``osd.pipeline.build`` or
``osd.detectors.build``) with a wrapper that records one span: name,
start, end and the span that was open when it was called.  Spans stay in
memory; the caller turns them into per-layer numbers and writes them out
when the run ends.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# Lookup site -> attribute names.  Only the top-level entry point of each
# layer is wrapped; per-block helpers (shock_force, resultant_force, ...)
# are called thousands of times per run and would dominate the overhead.
WRAP_SITES = {
    "osd.pipeline": (
        "build", "weight_histogram", "find_inflection", "divide",
        "constant_g", "explode", "find_invalid_neighbors", "repel",
        "evaluate_scores", "min_max_normalize",
        "prepare", "run_osd", "evaluate", "write_points_csv",
    ),
    "osd.detectors": ("build", "lof_scores", "iforest_scores", "knn_dist_scores"),
    "osd.repulsion": ("build",),
    "osd.cli": (
        "main", "load_csv", "prepare", "run_osd", "evaluate",
        "write_points_csv", "write_partition_csv",
    ),
}


def span_name(func: Callable) -> str:
    """Layer-qualified name: the defining module's last part, then the function."""
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None at top level
    args: tuple = ()
    result: Any = None
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


@dataclass
class Tracer:
    """Wraps the lookup sites while installed and records every call as a Span.

    Arguments and results are kept by reference until clear() so that
    counters (rows, edges pruned, displacement) can be computed after the
    timed region instead of inside it.
    """

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def _wrap(self, func: Callable) -> Callable:
        name = span_name(func)
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, args)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                span.result = func(*args, **kwargs)
                return span.result
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.end - span.start

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attrs in WRAP_SITES.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def clear(self) -> None:
        self.spans.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str, self_time: bool = False) -> float:
        return sum(s.self_seconds if self_time else s.seconds for s in self.named(name))

    def export(self, offset: float) -> list[dict[str, Any]]:
        """Spans as plain records, times in seconds relative to offset."""
        return [
            {
                "name": s.name,
                "start": round(s.start - offset, 6),
                "end": round(s.end - offset, 6),
                "parent": s.parent,
            }
            for s in self.spans
        ]
