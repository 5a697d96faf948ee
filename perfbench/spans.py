"""Span recording for the traced benchmark run.

A :class:`Tracer` replaces a public function where a module binds it
with a wrapper that records one span per call: layer name, start, end,
the index of the enclosing span and the row key current at the time.
Spans stay in memory; the rep turns them into per-layer self time
(duration minus the time covered by child spans) when the workload has
finished.  Nothing under ``src/`` is edited: the wrappers are installed
at run time, in the rep process only, and only for the traced leg.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

#: Span names that mark the benchmark's own structure, not a layer of
#: the program; their self time is the part of the run no layer covers.
STRUCTURE = ("workload", "row")


class Tracer:
    """In-memory span recorder plus per-layer event counts."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, row]`` per span, in start order.
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._row: str | None = None

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._row])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextmanager
    def region(self, name: str, row: str | None = None):
        """A structural span (``workload`` or ``row``) around a block."""
        previous = self._row
        if row is not None:
            self._row = row
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self._row = previous

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """``fn`` with a span named ``name`` around every call.

        ``on_result(result)`` runs after the span has closed, so the
        counting it does is charged to no layer.
        """

        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self._close(index)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, on_result=None, on_error=None) -> None:
        """Wrap ``owner.attr`` in place; a static method stays static."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(name, raw.__func__, on_result, on_error)))
        else:
            setattr(owner, attr, self.wrap(name, raw, on_result, on_error))

    def _self_per_span(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _row in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [end - start - inner for (_n, start, end, _p, _r), inner
                in zip(self.spans, child_time)]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, excluding time covered by child spans."""
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self._self_per_span()):
            totals[span[0]] += own
        return dict(totals)

    def collapsed_stacks(self) -> list[str]:
        """Self time per call path as ``a;b;c <microseconds>`` lines.

        The input format of ``flamegraph.pl`` and speedscope, so a flame
        graph renders offline with no new dependency.  Row spans carry
        their row key (``row=5-7-11-13 RNS``).
        """
        paths: list[str] = []
        for name, _start, _end, parent, row in self.spans:
            label = f"row={row}" if name == "row" else name
            paths.append(label if parent < 0 else f"{paths[parent]};{label}")
        totals: dict[str, float] = defaultdict(float)
        for path, own in zip(paths, self._self_per_span()):
            totals[path] += own
        return [f"{path} {round(s * 1e6)}" for path, s in sorted(totals.items())]
