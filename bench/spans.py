"""In-memory span and counter recorder for the traced benchmark run.

A span is (name, start, end, parent).  Spans and counts are kept in memory
while the timed part of a run executes and are written out when it ends.

The recorder wraps the library's public functions from the outside.  A
function imported with ``from module import name`` is bound by name in every
importing module, the library's and the benchmark's own, so
``Tracer.install_function`` replaces every binding in every loaded module that
still refers to the original function.  Wrappers record only while
``recording`` is set; outside the timed part they pass calls straight
through.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from typing import Callable

Hook = Callable[..., object]


class Tracer:
    def __init__(self) -> None:
        self.recording = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: dict[str, float] = {}
        self.sets: dict[str, set] = {}

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def distinct(self, key: str, item) -> None:
        self.sets.setdefault(key, set()).add(item)

    def wrap(self, name: str, fn: Callable, before: Hook | None = None,
             after: Hook | None = None) -> Callable:
        """``fn`` recording one span per call.  ``before(args)`` returns a
        token handed to ``after(tracer, args, result, span_id, token)``."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            self._open.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._open.pop()
            if after is not None:
                after(self, args, result, sid, token)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install_function(self, module, attr: str, name: str, before: Hook | None = None,
                         after: Hook | None = None) -> None:
        """Wrap ``module.attr`` in every loaded module that binds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, before, after)
        for mod in list(sys.modules.values()):
            for key, value in list(getattr(mod, "__dict__", {}).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def install_method(self, cls, attr: str, name: str, before: Hook | None = None,
                       after: Hook | None = None) -> None:
        setattr(cls, attr, self.wrap(name, vars(cls)[attr], before, after))

    def duration(self, sid: int) -> float:
        return self.end[sid] - self.start[sid]

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time its child spans
        cover."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(n):
            key = self.names[self.name[i]]
            out[key] = out.get(key, 0.0) + (self.end[i] - self.start[i]) - child[i]
        return out

    def covered(self, lo: float, hi: float) -> float:
        """Time in [lo, hi] covered by top-level spans."""
        return sum(min(self.end[i], hi) - max(self.start[i], lo)
                   for i in range(len(self.start))
                   if self.parent[i] < 0 and self.end[i] > lo and self.start[i] < hi)

    def write(self, path, origin: float, meta: dict) -> None:
        """Spans (times relative to ``origin``), counts and ``meta`` as gzipped
        JSON."""
        data = {
            "meta": meta,
            "names": self.names,
            "counts": self.counts,
            "spans": {
                "name": list(self.name),
                "parent": list(self.parent),
                "start": [round(t - origin, 7) for t in self.start],
                "end": [round(t - origin, 7) for t in self.end],
            },
        }
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh)
