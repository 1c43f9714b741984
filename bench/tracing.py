"""In-memory spans around the benchmark's calls into decoyqkd.

Spans are recorded only at the call sites in the benchmark's own files;
nothing inside the package is instrumented.  Each span has a name (the
layer and public function, e.g. ``estimator.estimate_session``), start and
end times from ``time.perf_counter``, the index of its parent span, the op
it belongs to, and a dict of attributes the caller may fill.
"""
from __future__ import annotations

import json
import time
from contextlib import nullcontext


class NullTracer:
    """Tracing off: spans cost one small object and record nothing."""

    op_id = None

    def span(self, name: str):
        return nullcontext({})


class _Span:
    __slots__ = ("tracer", "index", "attrs")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.attrs: dict = {}
        parent = tracer._stack[-1] if tracer._stack else None
        self.index = len(tracer.spans)
        tracer.spans.append({"name": name, "op": tracer.op_id, "parent": parent,
                             "start": 0.0, "end": 0.0, "attrs": self.attrs})

    def __enter__(self) -> dict:
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index]["start"] = time.perf_counter()
        return self.attrs

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index]["end"] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """Records every span in a list; ``op_id`` tags the spans of the current op."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def names(self) -> set[str]:
        return {s["name"] for s in self.spans}

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def attrs(self, *names: str) -> list[dict]:
        return [s["attrs"] for s in self.spans if s["name"] in names]

    def dump(self, path) -> None:
        path.write_text(json.dumps(self.spans, default=float) + "\n")
