"""In-memory spans around the benchmark's calls into the package.

A span holds a name, start, end, the index of its parent span and a task
label: the task index for spans inside a task, ``"check"`` for the output
checks and ``"probe"`` for the per-layer probes run after the task.
Spans live in memory and are written out once the run ends.  With
tracing off, ``call`` adds nothing but one attribute test.
"""

from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    task: object


class Tracer:
    def __init__(self):
        self.enabled = False
        self.task = None
        self.spans = []
        self._open = []
        self._t0 = perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Return ``fn(*args, **kwargs)``, inside a span when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = Span(name, perf_counter(), float("nan"),
                    self._open[-1] if self._open else None, self.task)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()

    def seconds(self, name):
        """Duration of the first span called ``name``, or None."""
        for s in self.spans:
            if s.name == name:
                return s.end - s.start
        return None

    def self_times(self):
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def to_records(self):
        return [{"name": s.name, "start": s.start - self._t0, "end": s.end - self._t0,
                 "parent": s.parent, "task": s.task, "self": t}
                for s, t in zip(self.spans, self.self_times())]


def seconds_per_span(calls=5000):
    """What one span adds to a call, against the same call with tracing off."""
    def noop():
        pass

    cost = {}
    for enabled in (False, True):
        tr = Tracer()
        tr.enabled = enabled
        t0 = perf_counter()
        for _ in range(calls):
            tr.call("noop", noop)
        cost[enabled] = perf_counter() - t0
    return max(0.0, (cost[True] - cost[False]) / calls)
