"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrapping functions where their callers look them up
(a module attribute), not where they are defined, so every call site that
resolves the name at call time goes through the wrapper.  Wrappers are
installed only around a traced operation and removed afterwards, so the
untraced operations run the program's own functions.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, op=None, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "id": len(self.spans),
               "parent": parent["id"] if parent else None,
               "op": op if op is not None else (parent["op"] if parent else None),
               "start": time.perf_counter(), "end": None}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, on_result):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, out)
                return out
        return traced

    @contextmanager
    def installed(self, targets):
        """Patch ``(owner, attribute, span_name, on_result)`` targets for the block."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
        for (owner, attr, orig), (_, _, name, on_result) in zip(originals, targets):
            setattr(owner, attr, self._wrap(orig, name, on_result))
        try:
            yield self
        finally:
            for owner, attr, orig in originals:
                setattr(owner, attr, orig)

    def write_jsonl(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def summarize(spans):
    """Per span name: call count, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a recursive
    call is not counted twice.  Self time is a span's duration minus the
    durations of its direct children; the run is single-threaded, so
    children never overlap.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {}
    for s in spans:
        entry = out.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "jumps": 0})
        dur = s["end"] - s["start"]
        entry["calls"] += 1
        entry["self_s"] += dur - child_time.get(s["id"], 0.0)
        entry["jumps"] += s.get("jumps", 0)
        anc = s["parent"]
        while anc is not None and by_id[anc]["name"] != s["name"]:
            anc = by_id[anc]["parent"]
        if anc is None:
            entry["s"] += dur
    return out
