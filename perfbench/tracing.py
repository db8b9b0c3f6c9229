"""Spans around the benchmark's calls into the library, kept in memory.

A span records name, start, end, parent span and op id, plus a few tags.
The untraced run uses :class:`NullTracer`, whose ``call`` is a plain call,
so the end-to-end timings carry no tracing cost.
"""

import json
import statistics
import time


class NullTracer:
    enabled = False

    def op(self, op_id, name, **tags):
        return _NULL_SPAN

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, **tags):
        return _NULL_SPAN

    def tag(self, **tags):
        pass


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    enabled = True

    def __init__(self):
        # (span id, parent id, op id, name, start, end, ok, tags)
        self.spans = []
        self.op_tags = {}
        self._stack = []
        self._op = None

    def op(self, op_id, name, **tags):
        self._op = op_id
        self.op_tags[op_id] = dict(tags, name=name)
        return _Span(self, "op", tags)

    def span(self, name, **tags):
        return _Span(self, name, tags)

    def call(self, name, fn, *args, **kwargs):
        with _Span(self, name, {}):
            return fn(*args, **kwargs)

    def tag(self, **tags):
        """Attach tags to the most recently closed span."""
        self.spans[-1][7].update(tags)

    def write(self, path):
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, op, name, start, end, ok, tags in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                    "start": start, "end": end, "ok": ok,
                                    "self_s": selfs[sid], **tags}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "tags", "sid", "parent", "start")

    def __init__(self, tracer, name, tags):
        self.tracer, self.name, self.tags = tracer, name, tags

    def __enter__(self):
        tr = self.tracer
        self.sid = len(tr.spans) + len(tr._stack)
        self.parent = tr._stack[-1].sid if tr._stack else None
        tr._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append([self.sid, self.parent, tr._op, self.name, self.start, end,
                         exc_type is None, self.tags])
        return False


def self_times(spans):
    """Span duration minus the part of it that its child spans cover."""
    child = {}
    out = {}
    for sid, parent, op, name, start, end, ok, tags in spans:
        out[sid] = out.get(sid, 0.0) + (end - start)
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {sid: out[sid] - child.get(sid, 0.0) for sid in out}


def layer_stats(spans):
    """Per span name: calls, busy_s, p50_s, fail, and summed self time."""
    by_name = {}
    selfs = self_times(spans)
    for sid, parent, op, name, start, end, ok, tags in spans:
        entry = by_name.setdefault(name, {"durations": [], "fail": 0, "self_s": 0.0})
        entry["durations"].append(end - start)
        entry["fail"] += not ok
        entry["self_s"] += selfs[sid]
    return {
        name: {
            "calls": len(e["durations"]),
            "busy_s": sum(e["durations"]),
            "p50_s": statistics.median(e["durations"]),
            "fail": e["fail"],
            "self_s": e["self_s"],
        }
        for name, e in by_name.items()
    }
