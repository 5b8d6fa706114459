"""Spans around the benchmark's calls into einpath, kept in memory.

With tracing off, NoTrace passes every call straight through. With it on,
Tracer records one span per call: name, start, end, parent span and solve
id. A span's self time is its duration minus the time its child spans
cover; the calls into einpath have no children, so their self time is the
layer's time.
"""

import contextlib
import json
import time
from collections import defaultdict


class NoTrace:
    spans = ()
    solve = None

    def call(self, name, fn, *args):
        return fn(*args)

    def span(self, name):
        return contextlib.nullcontext()

    def self_seconds(self, first=0):
        return {}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, solve id]
        self._open = []
        self.solve = None

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter_ns(), None, parent, self.solve]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def self_seconds(self, first=0):
        """Summed self time per span name over spans[first:], in seconds."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans[first:]:
            if parent is not None and parent >= first:
                own[parent] -= end - start
        totals = defaultdict(float)
        for k in range(first, len(self.spans)):
            totals[self.spans[k][0]] += own[k] / 1e9
        return dict(totals)

    def write(self, path):
        """Write every span as one JSON line; times are ns from the first span."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, solve) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": k, "name": name, "start_ns": start - origin,
                    "end_ns": end - origin, "parent": parent, "solve": solve,
                }) + "\n")
