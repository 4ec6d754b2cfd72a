"""In-memory spans around calls into the program's modules.

Spans are recorded from the benchmark's files only: either around a call
the benchmark makes (``span``), or by replacing a module attribute with a
timing wrapper for the duration of the run (``wrap``), which times the
function under the name that module sees, e.g. the ``softmax`` that
``smxreg.trainer`` calls.  Nothing is written until ``dump``.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(sid, name, time.perf_counter(), 0.0, parent)
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        original = getattr(owner, attr)

        def timed(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def child_time(self, parent: Span, name: str) -> float:
        """Total duration of the direct children of ``parent`` named ``name``."""
        return sum(s.end - s.start for s in self.spans
                   if s.parent == parent.id and s.name == name)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent}) + "\n")

