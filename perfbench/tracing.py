"""In-memory spans around calls into the package's public functions.

Spans are recorded from the benchmark's own code: :func:`instrument` swaps a
module attribute for a timing wrapper, at the attribute the caller looks up
(``quantes.pipeline.fit`` for the rolling engine, ``quantes.cli.emit_reports``
for the command line), and puts the original back afterwards. Nothing inside
the package changes. Spans of private helpers are not recorded.

Each span carries its name, start, end, parent span and the operation it
belongs to. Spans stay in memory; :func:`layer_summary` reduces them at the
end of a run.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    op: str
    start: float
    end: float = None
    parent: int = None
    error: str = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Span and counter store for one benchmark run (single thread)."""

    def __init__(self):
        self.spans = []
        self.counters = []  # (op, name, value)
        self.op = None
        self._stack = []

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.op, time.perf_counter(), parent=parent))
        self._stack.append(sid)
        return sid

    def close(self, sid, error=None):
        span = self.spans[sid]
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    def count(self, name, value=1):
        self.counters.append((self.op, name, value))

    def call(self, fn, name, args, kwargs, on_result=None):
        sid = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.close(sid, error=type(exc).__name__)
            raise
        self.close(sid)
        if on_result is not None:
            on_result(self, result)
        return result


def merged_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = merged_length(
            (max(k.start, span.start), min(k.end, span.end)) for k in kids
        )
        out.append(span.duration - covered)
    return out


def tail_percentile(values):
    """Highest of a few fixed percentiles with at least ten samples beyond it.

    Returns ``(percentile, value)``, or ``None`` when fewer than twenty
    samples leave no percentile with ten beyond it.
    """
    values = sorted(values)
    n = len(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            rank = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            return pct, values[rank]
    return None


def layer_summary(tracer, ok_ops):
    """Per span name: calls, total and self seconds, durations, failures.

    Times and calls come only from operations in ``ok_ops``: a failed
    operation gives no timing sample. Failed spans are counted by exception
    type wherever they occur.
    """
    selfs = self_times(tracer.spans)
    out = {}
    for span, self_s in zip(tracer.spans, selfs):
        entry = out.setdefault(
            span.name,
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "errors": {}},
        )
        if span.error is not None:
            entry["errors"][span.error] = entry["errors"].get(span.error, 0) + 1
        if span.op in ok_ops:
            entry["calls"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += self_s
            entry["durations"].append(span.duration)
    return out


def counter_totals(tracer, ok_ops):
    out = {}
    for op, name, value in tracer.counters:
        if op in ok_ops:
            out[name] = out.get(name, 0) + value
    return out


@contextmanager
def instrument(tracer, targets):
    """Wrap ``(module, attr, name[, on_call])`` targets for the duration.

    ``name`` is a span name or a callable ``(args, kwargs) -> name``;
    ``on_call(tracer, args, kwargs) -> (args, kwargs, on_result)`` may add
    observation-only arguments, such as a counting callback, and a hook
    that sees the result.
    """
    saved = []
    try:
        for target in targets:
            module, attr, name = target[:3]
            on_call = target[3] if len(target) > 3 else None
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrapper(tracer, original, name, on_call))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _wrapper(tracer, fn, name, on_call):
    def traced(*args, **kwargs):
        span_name = name(args, kwargs) if callable(name) else name
        on_result = None
        if on_call is not None:
            args, kwargs, on_result = on_call(tracer, args, kwargs)
        return tracer.call(fn, span_name, args, kwargs, on_result)

    traced.__wrapped__ = fn
    return traced


@contextmanager
def capture(module, attr, sink):
    """Keep every result of ``module.attr`` in ``sink`` while active."""
    original = getattr(module, attr)

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, attr, keep)
    try:
        yield sink
    finally:
        setattr(module, attr, original)
