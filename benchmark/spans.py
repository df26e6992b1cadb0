"""Span recorder for the traced run.

A span is (name, start, end, parent, query id, error type); spans are
kept in memory and written out when the run ends.  The benchmark records
them around its own calls into graphck's public functions, so they mark
module boundaries without touching the program.  ``Untraced`` has the
same interface and does nothing but make the call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Untraced:
    enabled = False

    def begin_query(self, qid: int) -> None:
        pass

    def end_query(self, error: BaseException | None = None) -> None:
        pass

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name: str, amount: float = 1) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, qid, error]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._qid = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._qid, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, error: BaseException | None = None) -> None:
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter()
        if error is not None:
            span[5] = type(error).__name__

    def begin_query(self, qid: int) -> None:
        self._qid = qid
        self._open("query")

    def end_query(self, error: BaseException | None = None) -> None:
        self._close(error)

    def call(self, name: str, fn, *args, **kwargs):
        self._open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(exc)
            raise
        self._close()
        return out

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def per_name(self) -> dict[str, dict]:
        """Self time, calls and errors per span name.

        Self time is a span's duration minus its direct children's; the
        children of one span never overlap, so that is the time no
        child covers.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "errors": 0})
        for i, (name, start, end, _, _, error) in enumerate(self.spans):
            row = out[name]
            row["self_s"] += end - start - child_time[i]
            row["calls"] += 1
            row["errors"] += error is not None
        return dict(out)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "query", "error"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
