"""Spans around the benchmark's own calls into localmf's layers.

A span is (name, start, end, job). Names are ``<layer>.<function>``; the
job span of job i is named ``job``. Spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

class Tracer:
    """Times calls when enabled; otherwise calls straight through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.job = None
        self.spans: list[tuple[str, float, float, int | None]] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, t0, time.perf_counter(), self.job))

    def add_job(self, job: int, start: float, end: float) -> None:
        self.spans.append(("job", start, end, job))

    def job_spans(self, job: int) -> list[tuple[str, float, float, int]]:
        return [s for s in self.spans if s[3] == job and s[0] != "job"]

    def self_times(self, job: int) -> dict[str, float]:
        """Per-layer self time of one job; the benchmark's glue between
        calls is the job span minus its children, reported as ``bench``.
        Layer spans have no children: the benchmark never nests them."""
        out: dict[str, float] = defaultdict(float)
        children = 0.0
        for name, t0, t1, _ in self.job_spans(job):
            out[name.split(".")[0]] += t1 - t0
            children += t1 - t0
        for name, t0, t1, j in self.spans:
            if name == "job" and j == job:
                out["bench"] += (t1 - t0) - children
        return dict(out)

    def write(self, path, origin: float) -> None:
        """One JSON object per span; times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for name, t0, t1, job in self.spans:
                fh.write(json.dumps({"name": name, "start": t0 - origin,
                                     "end": t1 - origin, "job": job}) + "\n")
