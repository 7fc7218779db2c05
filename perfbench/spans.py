"""In-memory span tracer that wraps the simulator's functions from outside.

A wrapped call records one span ``[name, start_ns, end_ns, parent]`` where
``parent`` is the index of the span that was open when the call began (-1 for
a root). Spans stay in memory; ``summary`` folds them into calls, self time
and share of the traced wall time per name. A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans under a root add up to the root's duration.

Nothing in the package is edited: ``patched`` swaps attributes on modules
and classes for the duration of a ``with`` block and restores them after.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` recording a span per call; ``on_result`` sees each
        return value after the span has closed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self):
        """{name: {"calls", "total_ns", "self_ns"}} and the summed root time."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        root_ns = 0
        for (name, start, end, parent), children in zip(self.spans, child_ns):
            entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - children
            if parent < 0:
                root_ns += end - start
        return out, root_ns


@contextmanager
def patched(replacements):
    """Temporarily set ``owner.attr = value`` for each (owner, attr, value)."""
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(originals):
            setattr(owner, attr, value)
