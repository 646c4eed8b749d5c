"""In-memory spans for the traced benchmark run.

A :class:`Tracer` records one span per call into a layer: its name,
start, end and the span that caused it.  Spans live in memory and are
summarised once the run ends.  Nothing here touches the library: the
benchmark opens spans around its own calls into each layer, and
:class:`TimedProxy` stands in front of a serving object so that calls
made *by the library* into that object (the WSGI app calling the cache,
the cache calling the cube service) are timed too.

While tracing is off, :meth:`Tracer.span` and the proxies cost one
attribute lookup and record nothing.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager


class Tracer:
    """Records ``(id, name, start, end, parent_id)`` spans in memory."""

    def __init__(self):
        self.spans: "list[tuple[int, str, float, float, int | None]]" = []
        self.active = False
        self._ids = itertools.count(1)
        self._stack: "list[int]" = []

    @contextmanager
    def activated(self, on: bool = True):
        """Switch tracing on (or off) inside the block."""
        previous = self.active
        self.active = on
        try:
            yield
        finally:
            self.active = previous

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        stack = self._stack
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def self_times(self) -> "list[tuple[str, float]]":
        """``(name, self seconds)`` per span: duration minus its children.

        Children run inside their parent's interval, one after another,
        so the time they cover is their summed duration.
        """
        child_time: "dict[int, float]" = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        return [
            (name, end - start - child_time.get(span_id, 0.0))
            for span_id, name, start, end, _ in self.spans
        ]


class TimedProxy:
    """Forwards every attribute to ``target``; times the named methods.

    ``methods`` maps a method name to the span it records.  Methods
    listed in ``rewrap`` return a new object of the target's kind (the
    cube service's ``refreshed()`` successor); their result is wrapped
    in a proxy with the same configuration so later calls stay timed.
    """

    def __init__(self, target, tracer: Tracer, methods: "dict[str, str]",
                 rewrap: "tuple[str, ...]" = ()):
        self._target = target
        self._tracer = tracer
        self._methods = methods
        self._rewrap = rewrap

    def __getattr__(self, name: str):
        attr = getattr(self._target, name)
        span_name = self._methods.get(name)
        if span_name is None and name not in self._rewrap:
            return attr
        tracer = self._tracer

        def call(*args, **kwargs):
            if span_name is None:
                result = attr(*args, **kwargs)
            else:
                with tracer.span(span_name):
                    result = attr(*args, **kwargs)
            if name in self._rewrap and result is not None:
                result = TimedProxy(result, tracer, self._methods,
                                    self._rewrap)
            return result

        return call

    def __repr__(self) -> str:
        return f"TimedProxy({self._target!r})"
