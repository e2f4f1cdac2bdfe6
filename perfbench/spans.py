"""In-memory span recording for the traced benchmark run.

A span covers one call from the benchmark into a layer of the engine. Each
span carries a name, start, end, parent span id and the run id; spans stay in
memory and are written out as one JSON file when the run ends. Ray Data's
per-dataset executions, read from the ``ray.data`` logger, are attached as
child spans of the call that ran them.
"""

from __future__ import annotations

import json
import logging
import re
import time
from contextlib import contextmanager
from typing import Optional

_START = re.compile(r"Starting execution of Dataset (\S+?)\.? ")
_FINISH = re.compile(r"Dataset (\S+) execution finished in ([0-9.]+) seconds")


class RayDataExecutions(logging.Handler):
    """Collects one record per finished Ray Data dataset execution:
    ``(dataset, start_epoch, end_epoch, seconds)``. The start comes from the
    matching "Starting execution" record, the end from the record's own
    timestamp."""

    def __init__(self):
        super().__init__(level=logging.DEBUG)
        self._starts: dict = {}
        self.finished: list = []

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        m = _FINISH.search(msg)
        if m:
            name, secs = m.group(1), float(m.group(2))
            start = self._starts.pop(name, record.created - secs)
            self.finished.append((name, start, record.created, secs))
            return
        m = _START.search(msg)
        if m:
            self._starts[m.group(1)] = record.created

    def drain(self) -> list:
        out, self.finished = self.finished, []
        return out

    def install(self) -> None:
        logger = logging.getLogger("ray.data")
        if self not in logger.handlers:
            logger.addHandler(self)
        # the handler filters by level too: make sure INFO records reach it
        if logger.getEffectiveLevel() > logging.INFO:
            logger.setLevel(logging.INFO)

    def remove(self) -> None:
        logging.getLogger("ray.data").removeHandler(self)


class Tracer:
    """Span recorder. Times are epoch seconds taken from a monotonic clock
    (``perf_counter`` plus a fixed offset), so they line up with the
    ``created`` stamps of log records."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self._offset = time.time() - time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() + self._offset

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run_id": self.run_id, "start": self.now(), "end": None}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = self.now()
            self._stack.pop()

    def add_child(self, parent: dict, name: str, start: float, end: float,
                  **attrs) -> dict:
        rec = {"id": len(self.spans), "name": name, "parent": parent["id"],
               "run_id": self.run_id, "start": start, "end": end}
        rec.update(attrs)
        self.spans.append(rec)
        return rec

    def attach_executions(self, parent: dict, executions: list) -> None:
        for name, start, end, secs in executions:
            self.add_child(parent, "ray.execution", start, end,
                           dataset=name, reported_s=secs)

    def children(self, span: dict) -> list:
        return [s for s in self.spans if s["parent"] == span["id"]]

    def durations(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: str, extra: Optional[dict] = None) -> None:
        """Write every span with its duration and self time (duration minus
        the part of its interval that child spans cover)."""
        kids: dict = {}
        for s in self.spans:
            if s["parent"] is not None:
                kids.setdefault(s["parent"], []).append(s)
        out = []
        for s in self.spans:
            dur = s["end"] - s["start"]
            covered, cur_end = 0.0, s["start"]
            for c in sorted(kids.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], cur_end), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    cur_end = hi
            out.append({**s, "duration_s": dur, "self_s": dur - covered})
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "spans": out, **(extra or {})},
                      f, indent=1)


class NullTracer(Tracer):
    """Records nothing: the untraced runs that give end-to-end metrics."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield {"id": None}

    def add_child(self, parent, name, start, end, **attrs):
        return {}

    def attach_executions(self, parent, executions) -> None:
        pass
