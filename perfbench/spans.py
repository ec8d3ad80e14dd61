"""In-memory span recorder for the traced benchmark run.

A span is ``(name, parent, start, end)`` with ``perf_counter`` times;
``parent`` is the index of the enclosing span or -1 for a root.  Spans
are opened by the benchmark around its own calls into each ``repro``
layer, plus one method wrapper (:meth:`Tracer.instrument`) for the layer
call the library makes internally (path precompute inside the saturation
grid and the simulator constructor).  Nothing is written until
:meth:`Tracer.dump` at the end of the run.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Dict, Iterator, List, Tuple

__all__ = ["NULL_TRACER", "NullTracer", "Tracer"]

_NULL_SPAN = nullcontext()


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    def span(self, name: str):
        return _NULL_SPAN

    @contextmanager
    def instrument(self) -> Iterator[None]:
        yield


NULL_TRACER = NullTracer()


class Tracer:
    """Tracing on: every span is appended to :attr:`spans`."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, parent, start, end]
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = len(self.spans)
        rec = [name, self._open[-1] if self._open else -1, perf_counter(), 0.0]
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._open.pop()

    @contextmanager
    def instrument(self) -> Iterator[None]:
        """Wrap ``PathCache.precompute`` in a ``core.precompute`` span.

        The saturation grid and the simulator constructor warm path
        tables internally; this attributes that time to the core layer.
        The original method is restored on exit.
        """
        from repro.core.cache import PathCache

        original = PathCache.precompute

        @functools.wraps(original)
        def precompute(cache, pairs):
            with self.span("core.precompute"):
                return original(cache, pairs)

        PathCache.precompute = precompute
        try:
            yield
        finally:
            PathCache.precompute = original

    def self_times(self) -> Dict[Tuple[str, str], float]:
        """``{(root span name, span name): total self seconds}``.

        A span's self time is its duration minus the time its direct
        children cover; grouping by root separates set-up from passes.
        """
        child = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (_name, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        out: Dict[Tuple[str, str], float] = {}
        for i, (name, _parent, start, end) in enumerate(self.spans):
            key = (self.spans[root[i]][0], name)
            out[key] = out.get(key, 0.0) + (end - start - child[i])
        return out

    def dump(self, path, header: dict) -> None:
        """Write ``header`` plus every span (times relative to the first)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = dict(header)
        doc["spans"] = [
            {"id": i, "parent": p, "name": n, "start": s - t0, "end": e - t0}
            for i, (n, p, s, e) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)
