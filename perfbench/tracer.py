"""In-memory timing spans recorded from outside the program.

A Tracer wraps public functions of qalb modules by replacing the module
attributes for the duration of a `with tracer.instrumented(...)` block.
Calls made inside the package look their callees up in the module
namespace at call time, so they are traced as well, and the spans nest the
way the calls do.  Nothing inside the package changes.

Spans stay in memory and are written once, by `write`.  `self_times` and
`root_summary` turn them into per-layer numbers: a span's self time is its
duration minus the part of it that its child spans cover.
"""

import json
import time
from contextlib import contextmanager

PROBE = "trace.probe"


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, probe=None):
        """fn traced as span `name`; probe(rec, args, kwargs, result) runs
        afterwards in its own trace.probe span, so what it costs counts as
        tracing overhead rather than as the caller's self time."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if probe is not None:
                with self.span(PROBE):
                    probe(rec, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def instrumented(self, targets):
        """targets: (module, attribute, span name, probe or None) tuples.
        A target the module no longer has is skipped, and its layer reads
        as not loaded.  The original attributes come back when the block
        exits."""
        saved = []
        try:
            for mod, attr, name, probe in targets:
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn, probe))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path, extra=None):
        doc = {"run": self.run_id, "spans": self.spans}
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh)


def read(path):
    with open(path) as fh:
        return json.load(fh)


def children_of(spans):
    kids = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    return kids


def _covered(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans):
    """id -> span duration minus the time its direct children cover."""
    kids = children_of(spans)
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered([(c["start"], c["end"]) for c in kids[s["id"]]])
        for s in spans
    }


def subtree(spans, root_id):
    """The spans below root_id, root excluded, in recording order."""
    kids = children_of(spans)
    out = []
    todo = list(kids[root_id])
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(kids[s["id"]])
    return sorted(out, key=lambda s: s["id"])


def root_summary(spans):
    """Per root span: duration, the self time of every span below it summed
    by name, and the uncovered time (the root's own self time)."""
    selfs = self_times(spans)
    out = []
    for root in (s for s in spans if s["parent"] is None):
        by_name = {}
        for s in subtree(spans, root["id"]):
            by_name[s["name"]] = by_name.get(s["name"], 0.0) + selfs[s["id"]]
        out.append(
            {
                "id": root["id"],
                "name": root["name"],
                "duration": root["end"] - root["start"],
                "self_by_name": by_name,
                "uncovered": selfs[root["id"]],
            }
        )
    return out


def span_cost(calls=20000):
    """Seconds one traced call adds over a bare call, measured on a no-op."""

    def noop():
        return None

    t = Tracer("calibration")
    traced = t.wrap("calibration", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max((time.perf_counter() - t0 - bare) / calls, 0.0)
