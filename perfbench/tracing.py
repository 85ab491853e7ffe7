"""In-memory spans around the benchmark's calls into sparselab.

A disabled tracer calls straight through, so the untraced run pays one
attribute test per call.  Spans are plain dicts (name, start, end, parent,
task) with times in seconds on ``time.perf_counter``; they are handed to the
caller at the end of a pass and written out once.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._task: str | None = None

    @contextlib.contextmanager
    def span(self, name: str, task: str | None = None):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "task": task if task is not None else self._task,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        outer_task = self._task
        self._task = rec["task"]
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self._task = outer_task

    def task(self, task_id: str):
        """Span that groups the calls one task makes."""
        return self.span("task", task=task_id)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` (``module.function``)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)


def busy_by_name(spans: list[dict]) -> dict[str, float]:
    """Summed duration of the spans of each name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"])
    return out


def task_self_time(spans: list[dict]) -> float:
    """Time inside task spans not covered by their child call spans: the
    benchmark's own glue between calls."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + (s["end"] - s["start"])
    return sum(
        (s["end"] - s["start"]) - child.get(s["id"], 0.0) for s in spans if s["name"] == "task"
    )
