"""Outside-in span tracer for the stochpool benchmark.

The tracer never edits the program. It replaces public functions with
recording wrappers in every module namespace where callers look them up
(``from .tensor import gelu`` binds ``stochpool.encoder.gelu``, so that
binding is replaced too), and puts every original back when the traced
block ends.

A span is (name, start, end, parent span, request/step id). Spans are
appended to flat integer arrays while the run goes and analysed after it:
a layer's self time is its span duration minus the time its direct child
spans cover.
"""

from __future__ import annotations

import time
from array import array

NO_PARENT = -1


class Tracer:
    """Records nested spans in memory; ``current_rid`` tags each new span."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = []
        self._codes = {}
        self.name = array("q")
        self.parent = array("q")
        self.rid = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [NO_PARENT]
        self.current_rid = 0

    def code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def __len__(self):
        return len(self.start)

    def _open(self, code: int) -> int:
        index = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1])
        self.rid.append(self.current_rid)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def _close(self, index: int):
        self.end[index] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """A function that calls ``fn`` inside a span called ``name``."""
        code = self.code(name)
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            index = opened(code)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(index)

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str):
        """Context manager recording one span around a ``with`` block."""
        return _SpanBlock(self, self.code(name))

    def self_times(self) -> list:
        """Per-span self time: duration minus the direct children's durations."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for parent, d in zip(self.parent, dur):
            if parent != NO_PARENT:
                own[parent] -= d
        return own

    def ancestor_with(self, predicate) -> list:
        """For each span, the index of the nearest span (itself included)
        whose name satisfies ``predicate``, or NO_PARENT."""
        hit = [predicate(n) for n in self.names]
        found = []
        for code, parent in zip(self.name, self.parent):
            if hit[code]:
                found.append(len(found))
            else:
                found.append(found[parent] if parent != NO_PARENT else NO_PARENT)
        return found


class _SpanBlock:
    __slots__ = ("_tracer", "_code", "_index")

    def __init__(self, tracer, code):
        self._tracer = tracer
        self._code = code

    def __enter__(self):
        self._index = self._tracer._open(self._code)
        return self

    def __exit__(self, *exc):
        self._tracer._close(self._index)
        return False


class Patches:
    """Attribute replacements that are undone in reverse order on exit."""

    def __init__(self):
        self._saved = []
        self._restored = []

    def set(self, owner, attr: str, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, modules, original, replacement):
        """Rebind every module-level name bound to ``original``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._restored, self._saved = self._saved, []

    def restored(self) -> bool:
        """True once every replaced attribute holds its original value again."""
        return not self._saved and all(owner.__dict__[attr] is value
                                       for owner, attr, value in self._restored)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
